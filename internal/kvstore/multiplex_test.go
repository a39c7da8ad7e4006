package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Tests for the connection pool under contention and the pooled-buffer
// lifecycle (the TestShardedPool names predate the single-mutex pool and
// are kept so test history stays continuous): checkout under contention, mid-pipeline connection death
// while many pipelines are in flight, poison-on-put hygiene, and
// tape-release balance on error paths.

// TestShardedPoolConcurrentCheckout hammers one client (PoolSize 16)
// from many goroutines mixing zero-copy reads, plain commands, and
// pipelines; under -race it checks the pool bookkeeping, and the data
// checks catch any cross-connection reply mixup.
func TestShardedPoolConcurrentCheckout(t *testing.T) {
	srv, _ := startServer(t, 0, "")
	addr := srv.ln.Addr().String()
	cli := Dial(addr, DialOptions{PoolSize: 16, Timeout: 5 * time.Second})
	defer cli.Close()

	const goroutines = 32
	const rounds = 25
	payloadFor := func(g int) []byte {
		p := make([]byte, 2048)
		for i := range p {
			p[i] = byte(g + i)
		}
		return p
	}
	for g := 0; g < goroutines; g++ {
		if err := cli.Set(fmt.Sprintf("shard:%d", g), payloadFor(g)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := payloadFor(g)
			key := fmt.Sprintf("shard:%d", g)
			dst := make([]byte, len(want))
			for i := 0; i < rounds; i++ {
				n, ok, err := cli.GetRangeInto(key, 0, int64(len(want)), dst)
				if err != nil || !ok || n != len(want) || !bytes.Equal(dst[:n], want) {
					errCh <- fmt.Errorf("g%d round %d: GetRangeInto n=%d ok=%v err=%v", g, i, n, ok, err)
					return
				}
				pl := cli.Pipeline()
				for j := 0; j < 4; j++ {
					pl.GetRangeInto(key, 0, 512, dst[:512])
				}
				replies, err := pl.Run()
				if err != nil {
					errCh <- err
					return
				}
				for _, r := range replies {
					if r.Err() != nil || !bytes.Equal(r.Bulk, want[:512]) {
						errCh <- fmt.Errorf("g%d round %d: burst reply err=%v", g, i, r.Err())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestShardedPoolMidConnectionDeathStress mirrors the PR 1 mid-pipeline
// death test at multiplexed concurrency: the first several connections
// die after two replies while many goroutines run pipelines over one
// client. Every burst must either recover on retry or fail with
// a diagnosable error — never hang, never deliver short/mixed replies.
func TestShardedPoolMidConnectionDeathStress(t *testing.T) {
	addr, _ := flakyServer(t, 2, 6)
	cli := Dial(addr, DialOptions{PoolSize: 12, Timeout: 2 * time.Second})
	defer cli.Close()

	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				pl := cli.Pipeline()
				for j := 0; j < 8; j++ {
					pl.Set(fmt.Sprintf("death:%d:%d", g, j), []byte("v"))
				}
				replies, err := pl.Run()
				if err != nil {
					continue // exhausted retries against a dying conn: acceptable
				}
				if len(replies) != 8 {
					errCh <- fmt.Errorf("g%d: %d of 8 replies", g, len(replies))
					return
				}
				for k, r := range replies {
					if r.Err() != nil {
						errCh <- fmt.Errorf("g%d reply %d: %v", g, k, r.Err())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestPoolHygienePoisonOnPut turns on poison-on-put (released buffers are
// scribbled with 0xDB) and re-runs data-integrity traffic over pooled
// tapes, zero-copy reads, and the server's reply tapes, which lend stored
// payloads. If any buffer were released while a caller still referenced
// it — a tape recycled before its replies were read — the poison turns
// that latent bug into a deterministic data mismatch here.
func TestPoolHygienePoisonOnPut(t *testing.T) {
	poisonPooled.Store(true)
	defer poisonPooled.Store(false)

	srv, _ := startServer(t, 0, "")
	addr := srv.ln.Addr().String()
	cli := Dial(addr, DialOptions{PoolSize: 8, Timeout: 5 * time.Second})
	defer cli.Close()

	// Payloads both sides of zeroCopyMin: small ones ride the header
	// arena, large ones the zero-copy iovec path.
	sizes := []int{16, zeroCopyMin - 1, zeroCopyMin, 4096, 64 << 10}
	for si, size := range sizes {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(si + i)
		}
		key := fmt.Sprintf("poison:%d", si)
		if err := cli.Set(key, payload); err != nil {
			t.Fatal(err)
		}
		v, ok, err := cli.Get(key)
		if err != nil || !ok || !bytes.Equal(v, payload) {
			t.Fatalf("size %d: Get mismatch ok=%v err=%v", size, ok, err)
		}
		dst := make([]byte, size)
		n, ok, err := cli.GetRangeInto(key, 0, int64(size), dst)
		if err != nil || !ok || n != size || !bytes.Equal(dst, payload) {
			t.Fatalf("size %d: GetRangeInto mismatch n=%d ok=%v err=%v", size, n, ok, err)
		}
	}
	// Pipelined bursts: replies decode into disjoint sinks while the
	// burst's own tape recycles under poison.
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				pl := cli.Pipeline()
				dsts := make([][]byte, len(sizes))
				for si := range sizes {
					dsts[si] = make([]byte, sizes[si])
					pl.GetRangeInto(fmt.Sprintf("poison:%d", si), 0, int64(sizes[si]), dsts[si])
				}
				replies, err := pl.Run()
				if err != nil {
					errCh <- err
					return
				}
				for si, r := range replies {
					if r.Err() != nil || len(r.Bulk) != sizes[si] {
						errCh <- fmt.Errorf("g%d round %d sink %d: err=%v len=%d", g, round, si, r.Err(), len(r.Bulk))
						return
					}
					for i, b := range r.Bulk {
						if b != byte(si+i) {
							errCh <- fmt.Errorf("g%d round %d sink %d: byte %d corrupted (%#x)", g, round, si, i, b)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestPipelineTapeReleaseBalance asserts pooled tape gets and puts stay
// balanced across every Run exit path — success, store-level error
// replies, transport failure after exhausted retries, and client close —
// so protocol errors and dying servers can't leak pooled buffers.
func TestPipelineTapeReleaseBalance(t *testing.T) {
	baseline := encGets.Load() - encPuts.Load()

	srv, cli := startServer(t, 0, "")
	// Success path.
	pl := cli.Pipeline()
	pl.Set("bal:a", []byte("v"))
	pl.GetRangeInto("bal:a", 0, 1, make([]byte, 1))
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	// Store-level error replies (WRONGTYPE) — burst still succeeds.
	if _, err := cli.SAdd("bal:set", "m"); err != nil {
		t.Fatal(err)
	}
	pl = cli.Pipeline()
	pl.GetRangeInto("bal:set", 0, 1, make([]byte, 1))
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	// Empty Run (no tape acquired).
	if _, err := cli.Pipeline().Run(); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	// Closed client: Run fails before any round trip.
	pl = cli.Pipeline()
	pl.Set("bal:closed", []byte("v"))
	if _, err := pl.Run(); err == nil {
		t.Fatal("Run on closed client succeeded")
	}
	srv.Close()

	// Transport failure: every connection dies mid-burst, retries exhaust.
	addr, _ := flakyServer(t, 1, 1<<30)
	cli2 := Dial(addr, DialOptions{Timeout: 2 * time.Second, MaxAttempts: 2})
	pl = cli2.Pipeline()
	for i := 0; i < 4; i++ {
		pl.Set(fmt.Sprintf("bal:dead:%d", i), []byte("v"))
	}
	if _, err := pl.Run(); err == nil {
		t.Fatal("Run against dying server succeeded")
	}
	cli2.Close()

	if leaked := encGets.Load() - encPuts.Load() - baseline; leaked != 0 {
		t.Fatalf("pooled tapes leaked: gets-puts delta %d", leaked)
	}
}
