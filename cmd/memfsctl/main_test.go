package main

import (
	"fmt"
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
