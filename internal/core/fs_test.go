package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"memfss/internal/container"
)

// testDeploy is a full in-process MemFSS: own + victim stores and a client.
type testDeploy struct {
	fs      *FileSystem
	own     *LocalStores
	victims *LocalStores
}

type deployOpt func(*Config)

func withRedundancy(r Redundancy) deployOpt {
	return func(c *Config) { c.Redundancy = r }
}

func withStripeSize(n int64) deployOpt {
	return func(c *Config) { c.StripeSize = n }
}

// newTestFS brings up ownN own stores and victimN victim stores with an
// alpha=0.25 own-data fraction and 4 KiB stripes.
func newTestFS(t *testing.T, ownN, victimN int, opts ...deployOpt) *testDeploy {
	t.Helper()
	const password = "test-secret"
	own, err := StartLocalStores(ownN, "own", password, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(own.Close)
	var victims *LocalStores
	var victimNodes []NodeSpec
	if victimN > 0 {
		victims, err = StartLocalStores(victimN, "victim", password, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(victims.Close)
		victimNodes = victims.Nodes
	}
	classes, err := OwnVictimClasses(own.Nodes, victimNodes, 0.25, container.Limits{MemoryBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Classes:     classes,
		StripeSize:  4 << 10,
		Password:    password,
		DialTimeout: 5 * time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return &testDeploy{fs: fs, own: own, victims: victims}
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{}, // no classes
		{Classes: []ClassSpec{{Name: "v", Victim: true, Nodes: []NodeSpec{{ID: "a", Addr: "x"}}}}},
		{Classes: []ClassSpec{{Name: "own"}}}, // no nodes
		{Classes: []ClassSpec{
			{Name: "own", Nodes: []NodeSpec{{ID: "a", Addr: "x"}}},
			{Name: "own2", Nodes: []NodeSpec{{ID: "b", Addr: "y"}}}, // second non-victim
		}},
		{Classes: []ClassSpec{{Name: "own", Nodes: []NodeSpec{{ID: "a", Addr: "x"}}}},
			Redundancy: Redundancy{Mode: RedundancyReplicate, Replicas: 1}},
		{Classes: []ClassSpec{{Name: "own", Nodes: []NodeSpec{{ID: "a", Addr: "x"}}}},
			Redundancy: Redundancy{Mode: RedundancyReplicate, Replicas: 2}}, // 1 node < 2 replicas
		{Classes: []ClassSpec{{Name: "own", Nodes: []NodeSpec{{ID: "a", Addr: "x"}}}},
			Redundancy: Redundancy{Mode: RedundancyErasure, DataShards: 2, ParityShards: 1}},
		{Classes: []ClassSpec{{Name: "own", Nodes: []NodeSpec{{ID: "a", Addr: "x"}}}},
			StripeSize: -4},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newTestFS(t, 2, 4)
	for _, n := range []int{0, 1, 100, 4096, 4097, 40_000, 123_457} {
		path := fmt.Sprintf("/f%d", n)
		data := randomBytes(int64(n), n)
		if err := d.fs.WriteFile(path, data); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		got, err := d.fs.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: %d bytes corrupted", path, n)
		}
		st, err := d.fs.Stat(path)
		if err != nil || st.Size != int64(n) || st.IsDir {
			t.Fatalf("stat %s: %+v %v", path, st, err)
		}
	}
}

func TestNamespaceOperations(t *testing.T) {
	d := newTestFS(t, 2, 0)
	fs := d.fs
	if err := fs.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a"); !errors.Is(err, ErrExist) {
		t.Fatalf("double mkdir: %v", err)
	}
	if err := fs.Mkdir("/missing/child"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("mkdir without parent: %v", err)
	}
	if err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Fatalf("MkdirAll idempotence: %v", err)
	}
	if err := fs.WriteFile("/a/b/file.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/a/b/file.txt/x"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("MkdirAll through file: %v", err)
	}
	entries, err := fs.ReadDir("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name != "c" || entries[1].Name != "file.txt" {
		t.Fatalf("ReadDir = %+v", entries)
	}
	if !entries[0].IsDir || entries[1].IsDir || entries[1].Size != 5 {
		t.Fatalf("ReadDir attrs wrong: %+v", entries)
	}
	if _, err := fs.ReadDir("/a/b/file.txt"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("ReadDir on file: %v", err)
	}
	if err := fs.Remove("/a/b"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty dir: %v", err)
	}
	if err := fs.Remove("/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/a/b/c/d"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("removed dir still present: %v", err)
	}
	if err := fs.Remove("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("remove missing: %v", err)
	}
}

func TestCreateTruncates(t *testing.T) {
	d := newTestFS(t, 2, 2)
	if err := d.fs.WriteFile("/f", randomBytes(1, 50_000)); err != nil {
		t.Fatal(err)
	}
	short := []byte("short")
	if err := d.fs.WriteFile("/f", short); err != nil {
		t.Fatal(err)
	}
	got, err := d.fs.ReadFile("/f")
	if err != nil || !bytes.Equal(got, short) {
		t.Fatalf("truncate lost: %q %v", got, err)
	}
}

func TestCreateOnDirFails(t *testing.T) {
	d := newTestFS(t, 1, 0)
	d.fs.Mkdir("/d")
	if _, err := d.fs.Create("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("create over dir: %v", err)
	}
	if _, err := d.fs.Open("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("open dir as file: %v", err)
	}
}

func TestFileHandleSemantics(t *testing.T) {
	d := newTestFS(t, 2, 2)
	f, err := d.fs.Create("/h")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 11 {
		t.Fatalf("size = %d", f.Size())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}

	r, err := d.fs.Open("/h")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Write([]byte("x")); err == nil {
		t.Fatal("write on read-only handle accepted")
	}
	buf := make([]byte, 5)
	if _, err := r.ReadAt(buf, 6); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("ReadAt = %q", buf)
	}
	if _, err := r.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(r)
	if err != nil || string(all) != "world" {
		t.Fatalf("ReadAll after seek: %q %v", all, err)
	}
	if _, err := r.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("read past EOF: %v", err)
	}
	if _, err := r.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek accepted")
	}
	if _, err := r.Seek(0, 42); err == nil {
		t.Fatal("bad whence accepted")
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	d := newTestFS(t, 2, 2)
	f, err := d.fs.Create("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	// Write 100 bytes at a 20 KiB offset: stripes 0-4 are holes.
	payload := randomBytes(7, 100)
	if _, err := f.WriteAt(payload, 20<<10); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := d.fs.ReadFile("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != 20<<10+100 {
		t.Fatalf("size = %d", len(got))
	}
	for i, b := range got[:20<<10] {
		if b != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, b)
		}
	}
	if !bytes.Equal(got[20<<10:], payload) {
		t.Fatal("payload corrupted after hole")
	}
}

func TestRenameFileKeepsData(t *testing.T) {
	d := newTestFS(t, 2, 4)
	data := randomBytes(3, 30_000)
	if err := d.fs.WriteFile("/old", data); err != nil {
		t.Fatal(err)
	}
	if err := d.fs.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.fs.Stat("/old"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("old path lingers: %v", err)
	}
	got, err := d.fs.ReadFile("/new")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost on rename: %v", err)
	}
}

func TestRenameDirSubtree(t *testing.T) {
	d := newTestFS(t, 2, 0)
	fs := d.fs
	fs.MkdirAll("/src/sub")
	fs.WriteFile("/src/a", []byte("A"))
	fs.WriteFile("/src/sub/b", []byte("B"))
	if err := fs.Rename("/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{"/dst/a": "A", "/dst/sub/b": "B"} {
		got, err := fs.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("%s after rename: %q %v", path, got, err)
		}
	}
	if _, err := fs.Stat("/src"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("source dir lingers: %v", err)
	}
	if err := fs.Rename("/dst", "/dst2/deep"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("rename into missing parent: %v", err)
	}
}

// TestRemoveAllDeletesData drives the one stripe deleter through every
// caller: whichever way a file's stripes are dropped, no store keeps a
// data:<id># key of it and Fsck counts no orphan — in each redundancy
// mode, for a one-stripe file and for one whose key list crosses delBatch
// (and, sharded at PipelineDepth 2, takes several bursts per node). Each
// mode ends with RemoveAll("/"), after which the stores must hold nothing
// but the file-ID counter: records, directory sets and fileid: index
// entries are reclaimed too.
func TestRemoveAllDeletesData(t *testing.T) {
	modes := []struct {
		name string
		red  Redundancy
	}{
		{"plain", Redundancy{}},
		{"replicas2", Redundancy{Mode: RedundancyReplicate, Replicas: 2}},
		{"rs42", Redundancy{Mode: RedundancyErasure, DataShards: 4, ParityShards: 2}},
	}
	sizes := []struct {
		name  string
		bytes int
	}{
		{"1stripe", 3000},
		{"600stripes", 600*(4<<10) - 100},
	}
	ops := []struct {
		name string
		do   func(fs *FileSystem, dir, path string) error
	}{
		{"Remove", func(fs *FileSystem, _, path string) error { return fs.Remove(path) }},
		{"overwrite", func(fs *FileSystem, _, path string) error { return fs.WriteFile(path, []byte("v2")) }},
		{"RemoveAll", func(fs *FileSystem, dir, _ string) error {
			if err := fs.RemoveAll(dir); err != nil {
				return err
			}
			if _, err := fs.Stat(dir); !errors.Is(err, ErrNotExist) {
				return fmt.Errorf("tree lingers: %v", err)
			}
			return fs.RemoveAll(dir) // a missing path is not an error
		}},
		{"Truncate0", func(fs *FileSystem, _, path string) error { return fs.Truncate(path, 0) }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			d := newTestFS(t, 6, 6, withRedundancy(mode.red), withPipelineDepth(2))
			keysOf := func(id string) (keys []string) {
				for _, ls := range []*LocalStores{d.own, d.victims} {
					for i := range ls.Nodes {
						keys = append(keys, ls.Server(i).Store().Keys("data:"+id+"#")...)
					}
				}
				return keys
			}
			for _, size := range sizes {
				for _, op := range ops {
					t.Run(size.name+"/"+op.name, func(t *testing.T) {
						dir := "/" + size.name + "-" + op.name
						path := dir + "/a/b/f"
						if err := d.fs.MkdirAll(dir + "/a/b"); err != nil {
							t.Fatal(err)
						}
						if err := d.fs.WriteFile(path, randomBytes(7, size.bytes)); err != nil {
							t.Fatal(err)
						}
						rec, err := d.fs.meta.statRecord(path)
						if err != nil {
							t.Fatal(err)
						}
						if len(keysOf(rec.File.ID)) == 0 {
							t.Fatal("the write left no stripe keys to delete")
						}
						if err := op.do(d.fs, dir, path); err != nil {
							t.Fatal(err)
						}
						if left := keysOf(rec.File.ID); len(left) != 0 {
							t.Errorf("%d keys of %s survive, e.g. %s", len(left), rec.File.ID, left[0])
						}
						rep, err := d.fs.Fsck()
						if err != nil || rep.OrphanStripes != 0 || len(rep.Damaged) != 0 {
							t.Errorf("fsck: %+v, %v", rep, err)
						}
					})
				}
			}
			// The namespace's own keys go too: with the whole tree removed
			// (the overwrite and Truncate rows left live files behind) the
			// file-ID counter is the only key any store keeps — no record,
			// directory set or fileid: index of any row above.
			if err := d.fs.RemoveAll("/"); err != nil {
				t.Fatal(err)
			}
			for _, ls := range []*LocalStores{d.own, d.victims} {
				for i, n := range ls.Nodes {
					for _, k := range ls.Server(i).Store().Keys("") {
						if k != "nextid" {
							t.Errorf("node %s still holds %q", n.ID, k)
						}
					}
				}
			}
		})
	}
}

// TestDropAfterUnclosedWriterLeavesOrphans states the deleter's accepted
// loss (DESIGN "One way to delete", ROADMAP item 6a): it deletes what the
// record says exists, and a record's size is committed by Sync/Close. A
// writer that died before either — a crashed task about to be re-run —
// leaves stripes past the recorded size that neither Remove nor the
// re-run's overwrite reclaims; Fsck counts every one of them — orphans
// once the file ID is dead, past-EOF keys while it lives — and nothing
// else goes wrong (the new contents read back, no file is damaged).
func TestDropAfterUnclosedWriterLeavesOrphans(t *testing.T) {
	for _, drop := range []struct {
		name                 string
		do                   func(fs *FileSystem, path string) error
		wantOrphan, wantPast int
	}{
		{"Remove", func(fs *FileSystem, path string) error { return fs.Remove(path) }, 5, 0},
		{"overwrite", func(fs *FileSystem, path string) error { return fs.WriteFile(path, []byte("rerun")) }, 5, 0},
		{"left open", func(*FileSystem, string) error { return nil }, 0, 5},
	} {
		t.Run(drop.name, func(t *testing.T) {
			d := newTestFS(t, 2, 2) // 4 KiB stripes, no redundancy
			f, err := d.fs.Create("/task.out")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(randomBytes(9, 5*(4<<10))); err != nil {
				t.Fatal(err)
			}
			// No Sync, no Close: the writer is gone, the record still says 0 bytes.
			if err := drop.do(d.fs, "/task.out"); err != nil {
				t.Fatal(err)
			}
			rep, err := d.fs.Fsck()
			if err != nil || len(rep.Damaged) != 0 {
				t.Fatalf("fsck: %+v, %v", rep, err)
			}
			if rep.OrphanStripes != drop.wantOrphan || rep.PastEOFKeys != drop.wantPast || rep.StrayKeys != 0 {
				t.Errorf("%d orphans, %d past EOF, %d strays; want %d, %d and 0 for the 5 stripes the dead writer left",
					rep.OrphanStripes, rep.PastEOFKeys, rep.StrayKeys, drop.wantOrphan, drop.wantPast)
			}
			if drop.name == "overwrite" {
				if got, err := d.fs.ReadFile("/task.out"); err != nil || string(got) != "rerun" {
					t.Errorf("re-run reads %q, %v", got, err)
				}
			}
		})
	}
}

func TestPlacementSplitAcrossClasses(t *testing.T) {
	d := newTestFS(t, 2, 6) // alpha = 0.25
	total := 2 << 20
	if err := d.fs.WriteFile("/big", randomBytes(11, total)); err != nil {
		t.Fatal(err)
	}
	var ownBytes, victimBytes int64
	for _, st := range d.fs.StoreStats() {
		switch st.Class {
		case "own":
			ownBytes += st.BytesUsed
		case "victim":
			victimBytes += st.BytesUsed
		}
	}
	frac := float64(ownBytes) / float64(ownBytes+victimBytes)
	// Metadata lives on own nodes, so allow generous slack around 0.25.
	if frac < 0.10 || frac > 0.45 {
		t.Fatalf("own fraction = %.2f, want ~0.25", frac)
	}
	if victimBytes == 0 {
		t.Fatal("victims hold no data")
	}
}

func TestVictimsHoldNoMetadata(t *testing.T) {
	d := newTestFS(t, 2, 4)
	d.fs.MkdirAll("/x/y")
	d.fs.WriteFile("/x/y/f", randomBytes(5, 100_000))
	for i := range d.victims.Nodes {
		store := d.victims.Server(i).Store()
		for _, k := range store.Keys("") {
			if !strings.HasPrefix(k, "data:") {
				t.Errorf("victim %d holds non-data key %q", i, k)
			}
		}
	}
}

func TestReplicationSurvivesNodeLoss(t *testing.T) {
	d := newTestFS(t, 3, 4, withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}))
	data := randomBytes(21, 200_000)
	if err := d.fs.WriteFile("/r", data); err != nil {
		t.Fatal(err)
	}
	// Kill one victim store: every stripe it held has a second replica.
	d.victims.Server(1).Close()
	got, err := d.fs.ReadFile("/r")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after node loss: %v", err)
	}
	if err := d.fs.VerifyFile("/r"); err != nil {
		t.Fatal(err)
	}
}

func TestErasureSurvivesTwoNodeLosses(t *testing.T) {
	d := newTestFS(t, 6, 8, withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 3, ParityShards: 2}))
	data := randomBytes(31, 150_000)
	if err := d.fs.WriteFile("/e", data); err != nil {
		t.Fatal(err)
	}
	d.victims.Server(0).Close()
	d.victims.Server(3).Close()
	got, err := d.fs.ReadFile("/e")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after two losses: %v", err)
	}
}

func TestErasurePartialOverwrite(t *testing.T) {
	d := newTestFS(t, 5, 0, withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 3, ParityShards: 2}))
	base := randomBytes(41, 10_000)
	if err := d.fs.WriteFile("/rmw", base); err != nil {
		t.Fatal(err)
	}
	f, err := d.fs.Create("/rmw2")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(base)
	// Overwrite a span crossing a stripe boundary.
	patch := randomBytes(42, 3000)
	if _, err := f.WriteAt(patch, 3000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base...)
	copy(want[3000:], patch)
	got, err := d.fs.ReadFile("/rmw2")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("erasure RMW corrupted data: %v", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	d := newTestFS(t, 2, 4)
	const workers = 8
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			path := fmt.Sprintf("/w%d", w)
			data := randomBytes(int64(w), 20_000+w*1000)
			if err := d.fs.WriteFile(path, data); err != nil {
				errCh <- err
				return
			}
			got, err := d.fs.ReadFile(path)
			if err != nil {
				errCh <- err
				return
			}
			if !bytes.Equal(got, data) {
				errCh <- fmt.Errorf("worker %d corrupted", w)
				return
			}
			errCh <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	entries, err := d.fs.ReadDir("/")
	if err != nil || len(entries) != workers {
		t.Fatalf("ReadDir after concurrent writes: %d entries, %v", len(entries), err)
	}
}

// Property: random (size, offset) write/read patterns round trip.
func TestRandomAccessProperty(t *testing.T) {
	d := newTestFS(t, 2, 2)
	ctr := 0
	f := func(seed int64, rawSize uint16, ops []uint16) bool {
		ctr++
		path := fmt.Sprintf("/prop%d", ctr)
		size := int(rawSize%30000) + 1
		want := make([]byte, size)
		fh, err := d.fs.Create(path)
		if err != nil {
			return false
		}
		if _, err := fh.WriteAt(make([]byte, size), 0); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for range ops {
			off := rng.Intn(size)
			n := rng.Intn(size-off) + 1
			patch := make([]byte, n)
			rng.Read(patch)
			copy(want[off:], patch)
			if _, err := fh.WriteAt(patch, int64(off)); err != nil {
				return false
			}
		}
		if err := fh.Close(); err != nil {
			return false
		}
		got, err := d.fs.ReadFile(path)
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestClosedFileSystem(t *testing.T) {
	d := newTestFS(t, 1, 0)
	d.fs.Close()
	if err := d.fs.Mkdir("/x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("mkdir after close: %v", err)
	}
	if _, err := d.fs.Open("/x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("open after close: %v", err)
	}
}
