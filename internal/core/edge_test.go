package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"memfss/internal/container"
	"memfss/internal/kvstore"
	"memfss/internal/qos"
)

func TestWriteIntoMissingDirFails(t *testing.T) {
	d := newTestFS(t, 1, 0)
	if err := d.fs.WriteFile("/no/such/dir/f", []byte("x")); !errors.Is(err, ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	d := newTestFS(t, 1, 0)
	if _, err := d.fs.Open("/ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	if _, err := d.fs.ReadFile("/ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestRenameOntoExistingFails(t *testing.T) {
	d := newTestFS(t, 2, 0)
	d.fs.WriteFile("/a", []byte("a"))
	d.fs.WriteFile("/b", []byte("b"))
	if err := d.fs.Rename("/a", "/b"); !errors.Is(err, ErrExist) {
		t.Fatalf("rename onto existing: %v", err)
	}
	// Source must be intact after the failed rename.
	got, err := d.fs.ReadFile("/a")
	if err != nil || string(got) != "a" {
		t.Fatalf("source damaged: %q %v", got, err)
	}
}

// TestRenameIntoOwnSubtreeFails: a destination equal to or inside the
// source subtree is refused before any metadata moves. (Unchecked, the
// recursive rename listed its own freshly linked destination as a child
// and minted /a/b/b/b/... forever.)
func TestRenameIntoOwnSubtreeFails(t *testing.T) {
	d := newTestFS(t, 2, 0)
	if err := d.fs.MkdirAll("/a/sub"); err != nil {
		t.Fatal(err)
	}
	if err := d.fs.WriteFile("/a/sub/f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []string{"/a/b", "/a/sub/deeper", "/a"} {
		done := make(chan error, 1)
		go func() { done <- d.fs.Rename("/a", dst) }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("Rename(/a, %s) = %v, want ErrInvalid", dst, err)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("Rename(/a, %s) never returned", dst)
		}
	}
	var seen []string
	if err := d.fs.Walk("/", func(e EntryInfo) error {
		seen = append(seen, e.Path)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"/", "/a", "/a/sub", "/a/sub/f"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("tree after refused renames = %v, want %v", seen, want)
	}
	// A destination that merely shares the name prefix is not inside /a.
	if err := d.fs.Rename("/a", "/ab"); err != nil {
		t.Fatalf("rename to a prefix-sharing sibling: %v", err)
	}
	if got, err := d.fs.ReadFile("/ab/sub/f"); err != nil || string(got) != "payload" {
		t.Fatalf("source damaged: %q %v", got, err)
	}
}

func TestRenameMissingSource(t *testing.T) {
	d := newTestFS(t, 1, 0)
	if err := d.fs.Rename("/ghost", "/x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestIoCopyThroughFile(t *testing.T) {
	d := newTestFS(t, 2, 2)
	payload := randomBytes(99, 33_000)
	w, err := d.fs.Create("/copy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(w, bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := d.fs.Open("/copy")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out bytes.Buffer
	if _, err := io.Copy(&out, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("io.Copy round trip corrupted data")
	}
}

func TestVictimStoreFullSurfacesOOM(t *testing.T) {
	// Real mode has no silent spill: when a victim store's cap is
	// exhausted mid-write, the client sees the OOM so the scavenging
	// manager (or the user) can react.
	const password = "test-secret"
	own, err := StartLocalStores(1, "own", password, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(own.Close)
	victims, err := StartLocalStores(1, "victim", password, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(victims.Close)
	fs, err := New(Config{
		Classes: []ClassSpec{
			{Name: "own", Weight: 1, Nodes: own.Nodes}, // weight 1: everything victim-bound
			{Name: "victim", Nodes: victims.Nodes, Victim: true,
				Limits: container.Limits{MemoryBytes: 64 << 10}},
		},
		StripeSize: 4 << 10,
		Password:   password,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	err = fs.WriteFile("/big", randomBytes(5, 1<<20))
	if err == nil || !strings.Contains(err.Error(), "OOM") {
		t.Fatalf("expected OOM surfaced, got %v", err)
	}
}

// TestNoSpaceWritesCountedAtEverySize: a store-full rejection must bump
// NoSpaceWrites and run a low-priority partial drain whether the
// write is one partial stripe (the per-span path) or many stripes (the
// burst path) — the burst path used to do neither.
func TestNoSpaceWritesCountedAtEverySize(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
	}{{"one-stripe-3KiB", 3 << 10}, {"multi-stripe-1MiB", 1 << 20}} {
		t.Run(tc.name, func(t *testing.T) {
			const password = "test-secret"
			own, err := StartLocalStores(1, "own", password, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(own.Close)
			victims, err := StartLocalStores(1, "victim", password, 2<<10)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(victims.Close)
			tenants := qos.NewRegistry(qos.Options{})
			t.Cleanup(tenants.Close)
			fs, err := New(Config{
				Classes: []ClassSpec{
					{Name: "own", Weight: 1, Nodes: own.Nodes}, // weight 1: everything victim-bound
					{Name: "victim", Nodes: victims.Nodes, Victim: true},
				},
				StripeSize: 4 << 10,
				Password:   password,
				QoS:        QoSPolicy{Tenants: tenants},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			err = fs.WriteFile("/full", randomBytes(5, tc.size))
			if !errors.Is(err, kvstore.ErrNoSpace) {
				t.Fatalf("write to a full victim: %v, want ErrNoSpace", err)
			}
			if c := fs.Counters(); c.NoSpaceWrites == 0 {
				t.Fatal("NoSpaceWrites = 0 after a store-full write failure")
			}
			// The rejection sets the victim's goal to a partial drain, which
			// runs in the background and finishes at once: the store is empty.
			deadline := time.Now().Add(5 * time.Second)
			for familyTotal(fs.obs.reg.Snapshot(), "memfss_fs_partial_drains_total") == 0 {
				if time.Now().After(deadline) {
					t.Fatal("store-full rejection did not run a partial drain")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

func TestMultipleVictimClassesPlacement(t *testing.T) {
	const password = "test-secret"
	own, _ := StartLocalStores(2, "own", password, 0)
	t.Cleanup(own.Close)
	vA, _ := StartLocalStores(2, "victimA", password, 0)
	t.Cleanup(vA.Close)
	vB, _ := StartLocalStores(2, "victimB", password, 0)
	t.Cleanup(vB.Close)
	fs, err := New(Config{
		Classes: []ClassSpec{
			{Name: "own", Weight: 0.3, Nodes: own.Nodes},
			{Name: "victimA", Weight: 0.1, Nodes: vA.Nodes, Victim: true},
			{Name: "victimB", Weight: 0, Nodes: vB.Nodes, Victim: true},
		},
		StripeSize: 4 << 10,
		Password:   password,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	data := randomBytes(7, 400_000)
	if err := fs.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip with 3 classes: %v", err)
	}
	classBytes := map[string]int64{}
	for _, st := range fs.StoreStats() {
		classBytes[st.Class] += st.BytesUsed
	}
	for _, cls := range []string{"victimA", "victimB"} {
		if classBytes[cls] == 0 {
			t.Errorf("class %s holds no data", cls)
		}
	}
	// The heavier-weighted class attracts less data.
	if classBytes["victimA"] >= classBytes["victimB"] {
		t.Errorf("weights not respected: A=%d >= B=%d", classBytes["victimA"], classBytes["victimB"])
	}
}

func TestErasureEvacuation(t *testing.T) {
	d := newTestFS(t, 5, 6, withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 3, ParityShards: 2}))
	data := randomBytes(17, 120_000)
	if err := d.fs.WriteFile("/e", data); err != nil {
		t.Fatal(err)
	}
	if _, err := d.fs.Evacuate(context.Background(), d.victims.Nodes[0].ID, EvacOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := d.victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
		t.Fatalf("evacuated store still holds %d bytes", st.BytesUsed)
	}
	got, err := d.fs.ReadFile("/e")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("erasure file after evacuation: %v", err)
	}
}

func TestStatRoot(t *testing.T) {
	d := newTestFS(t, 1, 0)
	e, err := d.fs.Stat("/")
	if err != nil || !e.IsDir || e.Path != "/" {
		t.Fatalf("Stat(/) = %+v %v", e, err)
	}
	if err := d.fs.Remove("/"); err == nil {
		t.Fatal("removing / accepted")
	}
	entries, err := d.fs.ReadDir("/")
	if err != nil || len(entries) != 0 {
		t.Fatalf("empty root ReadDir = %v %v", entries, err)
	}
}

func TestInvalidPathsRejected(t *testing.T) {
	d := newTestFS(t, 1, 0)
	for _, p := range []string{"", "relative", "/.."} {
		if _, err := d.fs.Create(p); err == nil {
			t.Errorf("Create(%q) accepted", p)
		}
		if err := d.fs.Mkdir(p); err == nil {
			t.Errorf("Mkdir(%q) accepted", p)
		}
	}
	// Paths are cleaned: trailing slash and dot segments normalize.
	if err := d.fs.Mkdir("/dir/"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.fs.Stat("/dir/./"); err != nil {
		t.Fatalf("cleaned path stat: %v", err)
	}
}

func TestPoolSizeOneConcurrency(t *testing.T) {
	srv := kvstore.NewServer(kvstore.NewStore(0), "")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := kvstore.Dial(addr, kvstore.DialOptions{PoolSize: 1})
	defer cli.Close()
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			done <- cli.Set("k", []byte{byte(i)})
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSyncPersistsWithoutClose(t *testing.T) {
	d := newTestFS(t, 2, 0)
	f, err := d.fs.Create("/sync")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("persisted"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// A second handle opened before Close sees the synced size.
	got, err := d.fs.ReadFile("/sync")
	if err != nil || string(got) != "persisted" {
		t.Fatalf("after Sync: %q %v", got, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestEvacuatedNodeKeysRemovedFromProbe(t *testing.T) {
	d := newTestFS(t, 2, 3)
	if err := d.fs.WriteFile("/p", randomBytes(3, 60_000)); err != nil {
		t.Fatal(err)
	}
	victimID := d.victims.Nodes[2].ID
	if _, err := d.fs.Evacuate(context.Background(), victimID, EvacOptions{}); err != nil {
		t.Fatal(err)
	}
	// Evacuating the same node twice must fail cleanly (unknown node).
	if _, err := d.fs.Evacuate(context.Background(), victimID, EvacOptions{}); err == nil {
		t.Fatal("double evacuation accepted")
	}
	if err := d.fs.VerifyFile("/p"); err != nil {
		t.Fatal(err)
	}
}

func TestScrubRestoresReplica(t *testing.T) {
	d := newTestFS(t, 3, 3, withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}))
	data := randomBytes(5, 30_000)
	if err := d.fs.WriteFile("/s", data); err != nil {
		t.Fatal(err)
	}
	// Delete one replica of every stripe directly from the stores.
	deleted := 0
	seen := map[string]bool{}
	stores := []*kvstore.Store{}
	for i := range d.own.Nodes {
		stores = append(stores, d.own.Server(i).Store())
	}
	for i := range d.victims.Nodes {
		stores = append(stores, d.victims.Server(i).Store())
	}
	for _, st := range stores {
		for _, k := range st.KeysN("data:", 0) {
			if !seen[k] {
				seen[k] = true // keep the first copy, drop the second
				continue
			}
			st.Del(k)
			deleted++
		}
	}
	if deleted == 0 {
		t.Fatal("no duplicate replicas found to delete")
	}
	rep, err := d.fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Restored) != deleted {
		t.Fatalf("restored %d of %d deleted replicas", len(rep.Restored), deleted)
	}
	if len(rep.Unrepairable) != 0 {
		t.Fatalf("unrepairable: %v", rep.Unrepairable)
	}
	// Second pass finds nothing to do.
	rep2, _ := d.fs.Scrub()
	if len(rep2.Restored) != 0 {
		t.Fatalf("second scrub restored %d", len(rep2.Restored))
	}
	got, err := d.fs.ReadFile("/s")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data after scrub: %v", err)
	}
}

func TestScrubRebuildsErasureShards(t *testing.T) {
	d := newTestFS(t, 6, 0, withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 3, ParityShards: 2}))
	data := randomBytes(6, 20_000)
	if err := d.fs.WriteFile("/e", data); err != nil {
		t.Fatal(err)
	}
	// Drop every shard with suffix /s1 (one shard per stripe).
	dropped := 0
	for i := range d.own.Nodes {
		st := d.own.Server(i).Store()
		for _, k := range st.KeysN("data:", 0) {
			if strings.HasSuffix(k, "/s1") {
				st.Del(k)
				dropped++
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no /s1 shards found")
	}
	rep, err := d.fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Restored) != dropped {
		t.Fatalf("restored %d of %d dropped shards", len(rep.Restored), dropped)
	}
	got, err := d.fs.ReadFile("/e")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data after erasure scrub: %v", err)
	}
}

func TestScrubReportsUnrepairable(t *testing.T) {
	d := newTestFS(t, 2, 0, withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}))
	if err := d.fs.WriteFile("/gone", randomBytes(8, 5_000)); err != nil {
		t.Fatal(err)
	}
	for i := range d.own.Nodes {
		st := d.own.Server(i).Store()
		for _, k := range st.KeysN("data:", 0) {
			st.Del(k)
		}
	}
	rep, err := d.fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unrepairable) == 0 {
		t.Fatal("total data loss not reported")
	}
}
