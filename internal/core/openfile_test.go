package core

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"testing"
)

func TestOpenFileFlags(t *testing.T) {
	d := newTestFS(t, 2, 2)
	fs := d.fs

	// O_CREATE on a missing file.
	f, err := fs.OpenFile("/of", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("hello"))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// O_RDONLY rejects writes.
	r, err := fs.OpenFile("/of", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write([]byte("x")); err == nil {
		t.Fatal("write on O_RDONLY accepted")
	}
	r.Close()

	// O_APPEND positions at EOF.
	a, err := fs.OpenFile("/of", O_RDWR|O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	a.Write([]byte(" world"))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/of")
	if string(got) != "hello world" {
		t.Fatalf("append result %q", got)
	}

	// O_TRUNC discards.
	tr, err := fs.OpenFile("/of", O_RDWR|O_TRUNC)
	if err != nil {
		t.Fatal(err)
	}
	tr.Write([]byte("new"))
	tr.Close()
	got, _ = fs.ReadFile("/of")
	if string(got) != "new" {
		t.Fatalf("truncate-open result %q", got)
	}

	// Missing file without O_CREATE.
	if _, err := fs.OpenFile("/ghost", O_RDWR); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	// Directory.
	fs.Mkdir("/dir")
	if _, err := fs.OpenFile("/dir", O_RDONLY); !errors.Is(err, ErrIsDir) {
		t.Fatalf("dir open: %v", err)
	}
	// O_TRUNC without writability.
	if _, err := fs.OpenFile("/of", O_TRUNC); err == nil {
		t.Fatal("read-only O_TRUNC accepted")
	}
}

func TestWalk(t *testing.T) {
	d := newTestFS(t, 2, 0)
	fs := d.fs
	fs.MkdirAll("/a/b")
	fs.WriteFile("/a/f1", []byte("1"))
	fs.WriteFile("/a/b/f2", []byte("22"))
	fs.WriteFile("/top", []byte("333"))

	var paths []string
	err := fs.Walk("/", func(e EntryInfo) error {
		paths = append(paths, e.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/", "/a", "/a/b", "/a/b/f2", "/a/f1", "/top"}
	if len(paths) != len(want) {
		t.Fatalf("walked %v", paths)
	}
	sorted := append([]string{}, paths...)
	sort.Strings(sorted)
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("walked %v, want %v", sorted, want)
		}
	}
	// Walk from a subdirectory.
	paths = nil
	fs.Walk("/a/b", func(e EntryInfo) error { paths = append(paths, e.Path); return nil })
	if len(paths) != 2 {
		t.Fatalf("subtree walk %v", paths)
	}
	// Error propagation.
	sentinel := errors.New("stop")
	if err := fs.Walk("/", func(EntryInfo) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("walk error not propagated: %v", err)
	}
	if err := fs.Walk("/nope", func(EntryInfo) error { return nil }); !errors.Is(err, ErrNotExist) {
		t.Fatalf("walk of missing root: %v", err)
	}
}

func TestFsckHealthy(t *testing.T) {
	d := newTestFS(t, 2, 2)
	fs := d.fs
	fs.MkdirAll("/w")
	fs.WriteFile("/w/a", randomBytes(1, 20_000))
	fs.WriteFile("/w/b", randomBytes(2, 5_000))
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Files != 2 || rep.Dirs != 2 || rep.Bytes != 25_000 {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.Damaged) != 0 || rep.OrphanStripes != 0 {
		t.Fatalf("healthy fs reported damage: %+v", rep)
	}
}

func TestFsckFindsOrphans(t *testing.T) {
	d := newTestFS(t, 2, 1)
	fs := d.fs
	fs.WriteFile("/keep", randomBytes(5, 9_000))
	// Plant an orphan stripe directly in a store.
	d.own.Server(0).Store().Set("data:f-999#0", []byte("orphan"))
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphanStripes != 1 {
		t.Fatalf("orphans = %d, want 1", rep.OrphanStripes)
	}
}

// TestTruncateShrinkAndGrow shrinks a file to mid-stripe and grows it back:
// the grown range must read as zeros in both redundancy modes, so the
// boundary stripe's cut tail must not survive anywhere.
func TestTruncateShrinkAndGrow(t *testing.T) {
	for _, tc := range []struct {
		name               string
		deploy             func(t *testing.T) *testDeploy
		size, shrink, grow int
	}{
		{"plain", func(t *testing.T) *testDeploy { return newTestFS(t, 2, 2) }, 10_000, 6_000, 8_000},
		{"RS32", func(t *testing.T) *testDeploy {
			return newTestFS(t, 5, 0, withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 3, ParityShards: 2}))
		}, 9_000, 5_000, 8_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := tc.deploy(t).fs
			data := randomBytes(9, tc.size) // 3 stripes at 4 KiB
			fs.WriteFile("/t", data)

			if err := fs.Truncate("/t", int64(tc.shrink)); err != nil {
				t.Fatal(err)
			}
			got, err := fs.ReadFile("/t")
			if err != nil || !bytes.Equal(got, data[:tc.shrink]) {
				t.Fatalf("shrink mismatch: %v", err)
			}

			if err := fs.Truncate("/t", int64(tc.grow)); err != nil {
				t.Fatal(err)
			}
			got, err = fs.ReadFile("/t")
			if err != nil || len(got) != tc.grow {
				t.Fatalf("grow: len=%d err=%v", len(got), err)
			}
			if !bytes.Equal(got[:tc.shrink], data[:tc.shrink]) {
				t.Fatal("grow corrupted prefix")
			}
			nonzero := 0
			for _, b := range got[tc.shrink:] {
				if b != 0 {
					nonzero++
				}
			}
			if nonzero != 0 {
				t.Fatalf("%d of the %d grown bytes are not zero", nonzero, tc.grow-tc.shrink)
			}

			if err := fs.Truncate("/t", 0); err != nil {
				t.Fatal(err)
			}
			got, _ = fs.ReadFile("/t")
			if len(got) != 0 {
				t.Fatalf("truncate to zero left %d bytes", len(got))
			}
			// After truncate-to-zero no stripes remain anywhere; fsck agrees.
			rep, err := fs.Fsck()
			if err != nil || rep.OrphanStripes != 0 || len(rep.Damaged) != 0 {
				t.Fatalf("fsck after truncate: %+v %v", rep, err)
			}

			if err := fs.Truncate("/t", -1); err == nil {
				t.Fatal("negative truncate accepted")
			}
			fs.Mkdir("/d")
			if err := fs.Truncate("/d", 0); err == nil {
				t.Fatal("truncate of dir accepted")
			}
			if err := fs.Truncate("/ghost", 0); !errors.Is(err, ErrNotExist) {
				t.Fatalf("truncate missing: %v", err)
			}
		})
	}
}

func TestTruncateErasure(t *testing.T) {
	d := newTestFS(t, 5, 0, withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 3, ParityShards: 2}))
	data := randomBytes(11, 9_000)
	d.fs.WriteFile("/e", data)
	if err := d.fs.Truncate("/e", 4_096); err != nil {
		t.Fatal(err)
	}
	got, err := d.fs.ReadFile("/e")
	if err != nil || !bytes.Equal(got, data[:4_096]) {
		t.Fatalf("erasure shrink: %v", err)
	}
}

func TestCountersTrackActivity(t *testing.T) {
	d := newTestFS(t, 2, 2)
	fs := d.fs
	payload := randomBytes(3, 20_000)
	fs.WriteFile("/c", payload)
	fs.ReadFile("/c")
	c := fs.Counters()
	if c.BytesWritten != 20_000 || c.BytesRead != 20_000 {
		t.Fatalf("byte counters %+v", c)
	}
	if c.StripeWrites < 5 || c.StripeReads < 5 { // 20000/4096 = 5 stripes
		t.Fatalf("stripe counters %+v", c)
	}
	// An evacuation moves the victim's stripes to the slots' new nodes,
	// and the next read still counts.
	if _, err := fs.Evacuate(context.Background(), d.victims.Nodes[0].ID, EvacOptions{}); err != nil {
		t.Fatal(err)
	}
	fs.ReadFile("/c")
	c2 := fs.Counters()
	if c2.StripeReads <= c.StripeReads {
		t.Fatal("read counters did not advance")
	}
}

func TestParallelAndSerialIOAgree(t *testing.T) {
	payload := randomBytes(77, 300_000)
	for _, par := range []int{1, 8} {
		d := newTestFS(t, 2, 4, func(c *Config) { c.IOParallelism = par })
		if err := d.fs.WriteFile("/p", payload); err != nil {
			t.Fatalf("par=%d write: %v", par, err)
		}
		got, err := d.fs.ReadFile("/p")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("par=%d round trip failed: %v", par, err)
		}
	}
}
