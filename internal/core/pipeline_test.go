package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"memfss/internal/container"
	"memfss/internal/hrw"
)

func withPipelineDepth(n int) deployOpt {
	return func(c *Config) { c.PipelineDepth = n }
}

// newSharedStoresFS brings up one set of own+victim stores and returns a
// FileSystem factory over them, so tests can point clients with
// different configs (burst depths) at identical data.
func newSharedStoresFS(t *testing.T, ownN, victimN int) func(opts ...deployOpt) *FileSystem {
	t.Helper()
	const password = "test-secret"
	own, err := StartLocalStores(ownN, "own", password, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(own.Close)
	classes := []ClassSpec{{Name: "own", Nodes: own.Nodes}}
	if victimN > 0 {
		victims, err := StartLocalStores(victimN, "victim", password, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(victims.Close)
		d, err := hrw.DeltaForOwnFraction(0.25)
		if err != nil {
			t.Fatal(err)
		}
		classes[0].Weight = d
		classes = append(classes, ClassSpec{
			Name:   "victim",
			Nodes:  victims.Nodes,
			Victim: true,
			Limits: container.Limits{MemoryBytes: 1 << 30},
		})
	}
	return func(opts ...deployOpt) *FileSystem {
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
		return fs
	}
}

// TestPipelinedAndPerCommandIOAgree is the pipelining analogue of
// TestParallelAndSerialIOAgree: data written in depth-4 bursts must read
// back bit-exactly through a depth-1 client (bursts of one command), and
// vice versa, over the same stores and with full R=3 replication.
func TestPipelinedAndPerCommandIOAgree(t *testing.T) {
	mk := newSharedStoresFS(t, 3, 4)
	red := withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 3})
	perCmd := mk(red, withPipelineDepth(1))
	piped := mk(red, withPipelineDepth(4))
	payload := randomBytes(99, 300_000)

	if err := piped.WriteFile("/a", payload); err != nil {
		t.Fatalf("pipelined write: %v", err)
	}
	got, err := perCmd.ReadFile("/a")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("depth-1 read of depth-4 write failed: %v", err)
	}

	if err := perCmd.WriteFile("/b", payload); err != nil {
		t.Fatalf("depth-1 write: %v", err)
	}
	got, err = piped.ReadFile("/b")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("depth-4 read of depth-1 write failed: %v", err)
	}
}

// TestPipelinedSparseAndPartialAgree drives the batched paths through
// their awkward cases — partial-stripe spans at odd offsets and a
// multi-stripe hole — and checks both depths read the same bytes.
func TestPipelinedSparseAndPartialAgree(t *testing.T) {
	mk := newSharedStoresFS(t, 2, 3)
	perCmd := mk(withPipelineDepth(1))
	piped := mk() // default depth

	chunkA := randomBytes(1, 10_000)
	chunkB := randomBytes(2, 9_000)
	const offB = 50_000 // leaves a hole across several 4 KiB stripes
	f, err := piped.OpenFile("/sparse", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(chunkA, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(chunkB, offB); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	want := make([]byte, offB+len(chunkB))
	copy(want[3:], chunkA)
	copy(want[offB:], chunkB)
	for name, fs := range map[string]*FileSystem{"depth-1": perCmd, "pipelined": piped} {
		got, err := fs.ReadFile("/sparse")
		if err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s read disagrees with written bytes", name)
		}
	}
}

// TestBatchedEvacuationDrain writes replicated data, drains a victim
// with the batched (MGET + pipelined SETNX) path, and checks every byte
// is still readable through a depth-1 client — i.e. the batched
// drain re-homed stripes exactly where the probe path looks for them.
func TestBatchedEvacuationDrain(t *testing.T) {
	mk := newSharedStoresFS(t, 3, 3)
	red := withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2})
	piped := mk(red)
	perCmd := mk(red, withPipelineDepth(1))

	payload := randomBytes(7, 200_000)
	for _, p := range []string{"/e1", "/e2"} {
		if err := piped.WriteFile(p, payload); err != nil {
			t.Fatal(err)
		}
	}
	victim := piped.Classes()[1].Nodes[0].ID
	if _, err := piped.Evacuate(context.Background(), victim, EvacOptions{}); err != nil {
		t.Fatalf("batched evacuation: %v", err)
	}
	for _, p := range []string{"/e1", "/e2"} {
		got, err := perCmd.ReadFile(p)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s unreadable after batched drain: %v", p, err)
		}
	}
}

// TestTruncatePipelinedDeletes shrinks a multi-stripe file through the
// batched delete path and verifies both the surviving bytes and that the
// dropped stripes are really gone from every store.
func TestTruncatePipelinedDeletes(t *testing.T) {
	mk := newSharedStoresFS(t, 2, 2)
	piped := mk()
	perCmd := mk(withPipelineDepth(1))

	payload := randomBytes(5, 100_000)
	if err := piped.WriteFile("/t", payload); err != nil {
		t.Fatal(err)
	}
	const keep = 10_000
	if err := piped.Truncate("/t", keep); err != nil {
		t.Fatal(err)
	}
	got, err := perCmd.ReadFile("/t")
	if err != nil || !bytes.Equal(got, payload[:keep]) {
		t.Fatalf("read after pipelined truncate: %v", err)
	}
	rep, err := piped.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphanStripes != 0 || len(rep.Damaged) != 0 {
		t.Fatalf("fsck after pipelined truncate: %+v", rep)
	}
}
