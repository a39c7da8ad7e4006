package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memfss/internal/core"
)

// testFS connects the CLI's connect() path against in-process stores.
func testFS(t *testing.T) *core.FileSystem {
	t.Helper()
	const password = "cli-secret"
	own, err := core.StartLocalStores(2, "own", password, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(own.Close)
	victims, err := core.StartLocalStores(2, "victim", password, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(victims.Close)
	join := func(ns []core.NodeSpec) string {
		addrs := make([]string, len(ns))
		for i, n := range ns {
			addrs[i] = n.Addr
		}
		return strings.Join(addrs, ",")
	}
	fs, err := connect(join(own.Nodes), join(victims.Nodes), 0.25, password, 4<<10, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func TestCLICommands(t *testing.T) {
	fs := testFS(t)
	dir := t.TempDir()
	local := filepath.Join(dir, "in.txt")
	if err := os.WriteFile(local, []byte("cli payload"), 0o644); err != nil {
		t.Fatal(err)
	}

	steps := [][]string{
		{"mkdir", "/data"},
		{"put", "/data/f", local},
		{"stat", "/data/f"},
		{"ls", "/data"},
		{"verify", "/data/f"},
		{"fsck"},
		{"mv", "/data/f", "/data/g"},
		{"get", "/data/g", filepath.Join(dir, "out.txt")},
		{"df"},
		{"rm", "/data/g"},
		{"rmr", "/data"},
	}
	for _, args := range steps {
		if err := run(fs, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	out, err := os.ReadFile(filepath.Join(dir, "out.txt"))
	if err != nil || string(out) != "cli payload" {
		t.Fatalf("round trip through CLI: %q %v", out, err)
	}
}

func TestCLIEvacuate(t *testing.T) {
	fs := testFS(t)
	dir := t.TempDir()
	local := filepath.Join(dir, "in.bin")
	os.WriteFile(local, make([]byte, 200_000), 0o644)
	for i := 0; i < 4; i++ {
		if err := run(fs, []string{"put", fmt.Sprintf("/f%d", i), local}); err != nil {
			t.Fatal(err)
		}
	}
	if err := run(fs, []string{"evacuate", "victim-0"}); err != nil {
		t.Fatal(err)
	}
	if err := run(fs, []string{"fsck"}); err != nil {
		t.Fatalf("fsck after evacuation: %v", err)
	}
}

// stdout runs fn and returns what it printed.
func stdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	err = fn()
	os.Stdout = saved
	w.Close()
	out, _ := io.ReadAll(r)
	return string(out), err
}

// TestCLIFsckTable: fsck prints the stripe verdicts and one row per node
// of its data keys by class. A 3-stripe file sits in its slots, and a
// writer that never closed leaves its 2 stripes past the recorded size.
func TestCLIFsckTable(t *testing.T) {
	fs := testFS(t)
	if err := fs.WriteFile("/f", make([]byte, 3*(4<<10))); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/open")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 2*(4<<10))); err != nil {
		t.Fatal(err)
	}
	out, err := stdout(t, func() error { return run(fs, []string{"fsck"}) })
	if err != nil {
		t.Fatalf("fsck: %v\n%s", err, out)
	}
	for _, want := range []string{"files: 2\n", "stripes checked: 3\n", "short stripes: 0\n",
		"deferred stripes: 0\n", "damaged stripes: 0\n", "restored: 0\n", "ok\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("fsck output lacks %q:\n%s", want, out)
		}
	}
	var rows, sum [4]int
	for _, line := range strings.Split(out, "\n") {
		var node string
		if n, _ := fmt.Sscanf(line, "%s %d %d %d %d", &node, &rows[0], &rows[1], &rows[2], &rows[3]); n == 5 {
			for i := range sum {
				sum[i] += rows[i]
			}
		}
	}
	if !strings.Contains(out, "in-slot") || sum != [4]int{3, 0, 0, 2} {
		t.Errorf("in-slot/stray/orphan/past-eof totals %v, want [3 0 0 2]:\n%s", sum, out)
	}
}

func TestCLIErrors(t *testing.T) {
	fs := testFS(t)
	cases := [][]string{
		{"bogus"},
		{"put", "/only-one-arg"},
		{"get", "/missing", "-"},
		{"rm", "/missing"},
		{"stat"},
		{"evacuate", "own-0"}, // refusing to evacuate own nodes
	}
	for _, args := range cases {
		if err := run(fs, args); err == nil {
			t.Errorf("%v succeeded, want error", args)
		}
	}
}

func TestNodesParsing(t *testing.T) {
	if got := core.ParseNodes("own", ""); got != nil {
		t.Fatal("empty list should be nil")
	}
	got := core.ParseNodes("own", "a:1, b:2")
	if len(got) != 2 || got[0].ID != "own-0" || got[1].Addr != "b:2" {
		t.Fatalf("parsed %+v", got)
	}
}
