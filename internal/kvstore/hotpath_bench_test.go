package kvstore

import (
	"fmt"
	"testing"
)

// Hot-path benchmarks: the per-operation allocation and latency profile of
// the wire client against a live loopback server. These are the numbers the
// CI benchmark gate holds to a budget (scripts/allocs_budget.txt): the
// zero-allocation hot path is a perf *contract*, not a one-off win, so a
// change that quietly reintroduces per-op garbage fails the build.
//
// The pipeline benchmarks measure one depth-32 burst of 4 KiB stripe
// payloads per iteration — the shape of core's pipelined stripe writes —
// so their allocs/op are per *burst*, not per command.

const (
	benchPayloadSize = 4096
	benchBurst       = 32
)

func newBenchClient(b *testing.B, opts DialOptions) *Client {
	b.Helper()
	srv := NewServer(NewStore(0), "")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c := Dial(addr, opts)
	b.Cleanup(func() { c.Close() })
	return c
}

func benchPayload() []byte {
	p := make([]byte, benchPayloadSize)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

func BenchmarkWireSet4K(b *testing.B) {
	c := newBenchClient(b, DialOptions{})
	payload := benchPayload()
	b.ReportAllocs()
	b.SetBytes(benchPayloadSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set("bench:set", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSet1MiB is one whole 1 MiB stripe SET — the dd-bag write
// shape. Its B/op is the gated number: what the server allocates per
// stored byte (the buffer the value is read into, and nothing else).
func BenchmarkWireSet1MiB(b *testing.B) {
	c := newBenchClient(b, DialOptions{})
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set("bench:set1m", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSetRange4KiBIn64KiB is an in-place partial-stripe write: a
// 4 KiB SETRANGE inside an existing 64 KiB value — the rmw-mix edge write.
func BenchmarkWireSetRange4KiBIn64KiB(b *testing.B) {
	c := newBenchClient(b, DialOptions{})
	const stripe = 64 << 10
	if err := c.Set("bench:sr", make([]byte, stripe)); err != nil {
		b.Fatal(err)
	}
	payload := benchPayload()
	b.ReportAllocs()
	b.SetBytes(benchPayloadSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%(stripe/benchPayloadSize)) * benchPayloadSize
		if err := c.SetRange("bench:sr", off, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireVSet1MiB is one whole-value 1 MiB VSET in a one-command
// pipeline burst — the dd-bag write as core sends it. Like SET, the value
// is read into the buffer the store keeps, with room for the header in
// front, so B/op stays one stripe.
func BenchmarkWireVSet1MiB(b *testing.B) {
	c := newBenchClient(b, DialOptions{})
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vsetBurst(c, "bench:vset1m", uint64(i), Whole, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireVSetRange4KiBIn64KiB is the rmw-mix edge write as core
// sends it: a 4 KiB VSET inside an existing 64 KiB copy, in place, in a
// one-command pipeline burst.
func BenchmarkWireVSetRange4KiBIn64KiB(b *testing.B) {
	c := newBenchClient(b, DialOptions{})
	const stripe = 64 << 10
	if _, err := vsetBurst(c, "bench:vr", 0, Whole, make([]byte, stripe)); err != nil {
		b.Fatal(err)
	}
	payload := benchPayload()
	b.ReportAllocs()
	b.SetBytes(benchPayloadSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%(stripe/benchPayloadSize)) * benchPayloadSize
		if _, err := vsetBurst(c, "bench:vr", uint64(i+1), off, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireGet4K(b *testing.B) {
	c := newBenchClient(b, DialOptions{})
	if err := c.Set("bench:get", benchPayload()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(benchPayloadSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok, err := c.Get("bench:get")
		if err != nil || !ok || len(v) != benchPayloadSize {
			b.Fatalf("get: ok=%v err=%v len=%d", ok, err, len(v))
		}
	}
}

func BenchmarkWireGetRange4K(b *testing.B) {
	c := newBenchClient(b, DialOptions{})
	if err := c.Set("bench:gr", benchPayload()); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, benchPayloadSize)
	b.ReportAllocs()
	b.SetBytes(benchPayloadSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, ok, err := c.GetRangeInto("bench:gr", 0, benchPayloadSize, dst)
		if err != nil || !ok || n != benchPayloadSize {
			b.Fatalf("getrange: ok=%v err=%v len=%d", ok, err, n)
		}
	}
}

// BenchmarkWirePipelineSet4K is the shape of a pipelined multi-stripe
// write: one depth-32 burst of 4 KiB SETs per iteration.
func BenchmarkWirePipelineSet4K(b *testing.B) {
	c := newBenchClient(b, DialOptions{})
	payload := benchPayload()
	keys := make([]string, benchBurst)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench:pset:%d", i)
	}
	b.ReportAllocs()
	b.SetBytes(benchPayloadSize * benchBurst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := c.Pipeline()
		for _, k := range keys {
			pl.Set(k, payload)
		}
		replies, err := pl.Run()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range replies {
			if err := r.Err(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWirePipelineGetRange4K is the shape of a pipelined multi-stripe
// read: one depth-32 burst of 4 KiB GETRANGEs per iteration.
func BenchmarkWirePipelineGetRange4K(b *testing.B) {
	c := newBenchClient(b, DialOptions{})
	payload := benchPayload()
	keys := make([]string, benchBurst)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench:pget:%d", i)
		if err := c.Set(keys[i], payload); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, benchPayloadSize*benchBurst)
	b.ReportAllocs()
	b.SetBytes(benchPayloadSize * benchBurst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := c.Pipeline()
		for j, k := range keys {
			pl.GetRangeInto(k, 0, benchPayloadSize, dst[j*benchPayloadSize:(j+1)*benchPayloadSize])
		}
		replies, err := pl.Run()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range replies {
			if r.Err() != nil || len(r.Bulk) != benchPayloadSize {
				b.Fatalf("burst reply: err=%v len=%d", r.Err(), len(r.Bulk))
			}
		}
	}
}

// BenchmarkWireMixedRW4K interleaves SETs and allocation-free reads
// (GetRangeInto with a caller-owned buffer) 50/50 over a small key set —
// the steady-state shape of a multi-tenant data plane where writers and
// readers share every connection. Because the server runs in-process,
// allocs/op gates the *server-side* per-command path (store mutation,
// reply encode) as well as the client encode/decode path: a change that
// makes the store copy on read or allocate per SET shows up here even if
// the client stays clean.
func BenchmarkWireMixedRW4K(b *testing.B) {
	c := newBenchClient(b, DialOptions{})
	payload := benchPayload()
	dst := make([]byte, benchPayloadSize)
	const keySpace = 8
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench:mix:%d", i)
		if err := c.Set(keys[i], payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(benchPayloadSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%keySpace]
		if i%2 == 0 {
			if err := c.Set(k, payload); err != nil {
				b.Fatal(err)
			}
		} else {
			n, ok, err := c.GetRangeInto(k, 0, benchPayloadSize, dst)
			if err != nil || !ok || n != benchPayloadSize {
				b.Fatalf("getrangeinto: ok=%v err=%v n=%d", ok, err, n)
			}
		}
	}
}

// BenchmarkWireConcurrentPipelines drives many goroutines of pipelined
// bursts through ONE client — the saturation shape where the old
// single-mutex connection pool serialized checkouts.
func BenchmarkWireConcurrentPipelines(b *testing.B) {
	c := newBenchClient(b, DialOptions{PoolSize: 16})
	payload := benchPayload()
	b.ReportAllocs()
	b.SetBytes(benchPayloadSize * benchBurst)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			pl := c.Pipeline()
			for j := 0; j < benchBurst; j++ {
				pl.Set(fmt.Sprintf("bench:conc:%d", (i+j)%256), payload)
			}
			if _, err := pl.Run(); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
