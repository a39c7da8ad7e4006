package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"memfss/internal/obs"
	"memfss/internal/obs/trace"
	"memfss/internal/stripe"
)

func withObs(pol ObsPolicy) deployOpt {
	return func(c *Config) { c.Obs = pol }
}

// findFamily returns the snapshot of one family, or nil.
func findFamily(fams []obs.FamilySnapshot, name string) *obs.FamilySnapshot {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

// familyTotal sums a counter family's series, or a histogram family's
// observation counts.
func familyTotal(fams []obs.FamilySnapshot, name string) int64 {
	f := findFamily(fams, name)
	if f == nil {
		return 0
	}
	var total int64
	for _, s := range f.Series {
		if f.Kind == obs.KindHistogram {
			total += s.Count
		} else {
			total += int64(s.Value)
		}
	}
	return total
}

// spanOutcomes returns memfss_fs_span_outcomes_total{op} by outcome,
// leaving out outcomes never counted.
func spanOutcomes(fams []obs.FamilySnapshot, op string) map[string]int64 {
	out := map[string]int64{}
	if f := findFamily(fams, "memfss_fs_span_outcomes_total"); f != nil {
		for _, s := range f.Series {
			if s.Labels.Get("op") == op && s.Value > 0 {
				out[s.Labels.Get("outcome")] = int64(s.Value)
			}
		}
	}
	return out
}

// TestFSMetricsEndToEnd drives writes and reads through a replicated
// deployment and checks that the registry's families — kvstore and core
// alike — saw them.
func TestFSMetricsEndToEnd(t *testing.T) {
	d := newTestFS(t, 2, 2, withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}))
	data := randomBytes(7, 50_000)
	if err := d.fs.WriteFile("/obs", data); err != nil {
		t.Fatal(err)
	}
	if _, err := d.fs.ReadFile("/obs"); err != nil {
		t.Fatal(err)
	}
	fams := d.fs.obs.reg.Snapshot()
	if fams == nil {
		t.Fatal("Metrics() = nil with telemetry enabled")
	}
	// One system, not two: the registry and Counters read the same numbers.
	c := d.fs.Counters()
	bytesF := findFamily(fams, "memfss_fs_bytes_total")
	if bytesF == nil {
		t.Fatal("memfss_fs_bytes_total family missing")
	}
	if s := bytesF.Find(obs.L("op", "write")); s == nil || int64(s.Value) != c.BytesWritten {
		t.Fatalf("bytes_total{op=write} = %v, Counters().BytesWritten = %d", s, c.BytesWritten)
	}
	if got := int64(50_000); c.BytesWritten != got {
		t.Fatalf("BytesWritten = %d, want %d", c.BytesWritten, got)
	}
	for _, name := range []string{
		"memfss_kvstore_ops_total",
		"memfss_kvstore_attempt_seconds",
		"memfss_fs_op_seconds",
		"memfss_fs_stripe_ops_total",
		"memfss_fs_span_outcomes_total",
	} {
		if familyTotal(fams, name) == 0 {
			t.Errorf("family %s saw no activity", name)
		}
	}
	// End-to-end op histograms: one write op, one read op.
	opsF := findFamily(fams, "memfss_fs_op_seconds")
	if s := opsF.Find(obs.L("op", "write")); s == nil || s.Count != 1 {
		t.Fatalf("op_seconds{op=write} = %+v, want 1 observation", s)
	}
	if s := opsF.Find(obs.L("op", "read")); s == nil || s.Count != 1 {
		t.Fatalf("op_seconds{op=read} = %+v, want 1 observation", s)
	}
	// kvstore ops carry node and class labels from the pool.
	kvF := findFamily(fams, "memfss_kvstore_ops_total")
	foundVictim := false
	for _, s := range kvF.Series {
		if s.Labels.Get("class") == "victim" && s.Value > 0 {
			foundVictim = true
		}
	}
	if !foundVictim {
		t.Error("no kvstore ops recorded against victim-class nodes")
	}
}

// TestSlowOpLog pins the acceptance criterion for tracing: with a
// threshold every op exceeds, the structured line names the trace ID,
// op, and per-phase node/class/attempt/duration detail.
func TestSlowOpLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	d := newTestFS(t, 2, 2, withObs(ObsPolicy{
		SlowOpThreshold: 1, // 1ns: everything is slow
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}))
	if err := d.fs.WriteFile("/slow", randomBytes(1, 20_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.fs.ReadFile("/slow"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 {
		t.Fatal("no slow-op lines logged at 1ns threshold")
	}
	var sawWrite bool
	for _, ln := range lines {
		if !strings.Contains(ln, "slow-op trace=") {
			t.Fatalf("line missing trace ID: %q", ln)
		}
		if !strings.Contains(ln, "phases=[") || !strings.Contains(ln, "att=") {
			t.Fatalf("line missing per-phase detail: %q", ln)
		}
		if strings.Contains(ln, "op=write path=/slow") {
			sawWrite = true
			if !strings.Contains(ln, "bytes=20000") {
				t.Fatalf("write line missing byte count: %q", ln)
			}
		}
	}
	if !sawWrite {
		t.Fatalf("no slow-op line for the write; got %q", lines)
	}
	fams := d.fs.obs.reg.Snapshot()
	if findFamily(fams, "memfss_fs_slow_ops_total") == nil || familyTotal(fams, "memfss_fs_slow_ops_total") == 0 {
		t.Error("memfss_fs_slow_ops_total did not count the slow ops")
	}
	// Slow ops are always retained: each logged trace ID resolves in the
	// store to a full span tree carrying at least one store span.
	store := d.fs.Traces()
	if store == nil {
		t.Fatal("Traces() = nil with telemetry enabled")
	}
	if slow := store.Slow(16); len(slow) == 0 {
		t.Fatal("no slow traces retained despite slow-op lines")
	}
	for _, ln := range lines {
		id := ln[strings.Index(ln, "trace=")+len("trace=") : strings.Index(ln, " op=")]
		td := store.Get(id)
		if td == nil {
			t.Fatalf("logged trace %s not retained in the store", id)
		}
		if !td.Slow {
			t.Fatalf("retained trace %s not marked slow", id)
		}
		stores := 0
		td.Root.Walk(func(_ int, sp *trace.SpanData) {
			if sp.Name == "store" || sp.Name == "burst" {
				stores++
			}
		})
		if stores == 0 {
			t.Fatalf("trace %s has no store spans: %+v", id, td.Root)
		}
	}
	// The p99 buckets carry exemplars: the op histograms must expose the
	// trace ID of a recent slow op.
	opsF := findFamily(fams, "memfss_fs_op_seconds")
	if opsF == nil {
		t.Fatal("memfss_fs_op_seconds family missing")
	}
	sawExemplar := false
	for i := range opsF.Series {
		if exs := opsF.Series[i].Exemplars; len(exs) > 0 {
			ex := exs[len(exs)-1] // the highest bucket's: the slowest op
			sawExemplar = true
			if store.Get(fmt.Sprintf("%016x", ex.TraceID)) == nil {
				t.Errorf("exemplar trace %016x not retained", ex.TraceID)
			}
		}
	}
	if !sawExemplar {
		t.Error("no op_seconds series carries an exemplar")
	}
}

// TestMetricsFamilyCoverage pins the exposition acceptance criterion: a
// live deployment's registry renders valid Prometheus text declaring at
// least 12 metric families, spanning the kvstore client, the data path,
// the failure detector, and the repair queue.
func TestMetricsFamilyCoverage(t *testing.T) {
	d := newTestFS(t, 2, 2, withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}))
	if err := d.fs.WriteFile("/cov", randomBytes(11, 30_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.fs.ReadFile("/cov"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.fs.obs.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page, err := obs.ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Types) < 12 {
		t.Fatalf("exposition declares %d families, want >= 12", len(page.Types))
	}
	subsystems := map[string]bool{}
	for name := range page.Types {
		for _, prefix := range []string{"memfss_kvstore_", "memfss_fs_", "memfss_health_", "memfss_repair_"} {
			if strings.HasPrefix(name, prefix) {
				subsystems[prefix] = true
			}
		}
	}
	for _, prefix := range []string{"memfss_kvstore_", "memfss_fs_", "memfss_health_", "memfss_repair_"} {
		if !subsystems[prefix] {
			t.Errorf("no %s* family in the exposition", prefix)
		}
	}
	// Both halves of the erasure coder's cost are declared from mount on,
	// so a dashboard can chart them before the first coded stripe.
	for _, name := range []string{"memfss_fs_ec_encode_seconds", "memfss_fs_ec_reconstruct_seconds"} {
		if page.Types[name] != "histogram" {
			t.Errorf("family %s has TYPE %q, want histogram", name, page.Types[name])
		}
	}
	// The page must parse back to the same sample set it was written
	// from: every declared family has a TYPE the parser understood.
	for name, typ := range page.Types {
		switch typ {
		case "counter", "gauge", "histogram":
		default:
			t.Errorf("family %s has unexpected TYPE %q", name, typ)
		}
	}
}

// TestECEncodeVisible checks that the erasure encode cost shows on both
// of the program's own surfaces: one memfss_fs_ec_encode_seconds
// observation and one ec-encode trace leg per coded stripe write.
func TestECEncodeVisible(t *testing.T) {
	d := newTestFS(t, 6, 0,
		withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 4, ParityShards: 2}),
		withObs(ObsPolicy{TraceSampleEvery: 1}))
	if err := d.fs.WriteFile("/enc", randomBytes(13, 3*4096+100)); err != nil { // 4 stripes
		t.Fatal(err)
	}
	h := findFamily(d.fs.obs.reg.Snapshot(), "memfss_fs_ec_encode_seconds")
	if h == nil || len(h.Series) != 1 || h.Series[0].Count != 4 {
		t.Fatalf("ec_encode_seconds = %+v, want one series with 4 observations", h)
	}
	legs := 0
	for _, td := range d.fs.Traces().Recent(16) {
		td.Root.Walk(func(_ int, sp *trace.SpanData) {
			if sp.Name == "ec-encode" && sp.Outcome == "ok" {
				legs++
			}
		})
	}
	if legs != 4 {
		t.Fatalf("retained traces hold %d ec-encode legs, want 4", legs)
	}
}

// benchFS mounts the benchmark deployment over in-process stores: two
// victims and one own node — or, per class, as many as the redundancy
// mode needs (one per replica, k+m for erasure).
func benchFS(b *testing.B, red Redundancy, stripeSize int64, opts ...deployOpt) *FileSystem {
	const password = "bench-secret"
	width := max(red.Replicas, red.DataShards+red.ParityShards)
	own, err := StartLocalStores(max(1, width), "own", password, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(own.Close)
	victims, err := StartLocalStores(max(2, red.DataShards+red.ParityShards), "victim", password, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(victims.Close)
	cfg := Config{
		Classes: []ClassSpec{
			{Name: "own", Nodes: own.Nodes},
			{Name: "victim", Nodes: victims.Nodes, Victim: true},
		},
		StripeSize: stripeSize,
		Redundancy: red,
		Password:   password,
	}
	for _, o := range opts {
		o(&cfg)
	}
	fs, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fs.Close() })
	return fs
}

// BenchmarkWriteTelemetryOn measures whole-file write throughput,
// telemetry included — the only configuration there is.
func BenchmarkWriteTelemetryOn(b *testing.B) {
	fs := benchFS(b, Redundancy{}, 16<<10)
	payload := randomBytes(17, 256<<10) // 16 stripes per write
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/bench-%d", i%32), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCoreAt times WriteAt or ReadAt of spans whole stripes on one open
// handle — the data path alone, no namespace ops — for the allocs/op
// gate in scripts/bench_gate.sh.
func benchCoreAt(b *testing.B, red Redundancy, stripeSize int64, spans int, read bool) {
	benchCoreOn(b, benchFS(b, red, stripeSize), stripeSize, spans, read, nil)
}

// benchCoreOn is benchCoreAt on fs, calling degrade, when not nil, once
// the file is written.
func benchCoreOn(b *testing.B, fs *FileSystem, stripeSize int64, spans int, read bool, degrade func(fs *FileSystem)) {
	f, err := fs.OpenFile("/bench", O_CREATE|O_RDWR)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := randomBytes(19, spans*int(stripeSize))
	if _, err := f.WriteAt(buf, 0); err != nil {
		b.Fatal(err)
	}
	if degrade != nil {
		degrade(fs)
	}
	op := f.WriteAt
	if read {
		op = f.ReadAt
	}
	// One untimed op fills the pools, so B/op holds at a small -benchtime.
	if _, err := op(buf, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

var benchR2 = Redundancy{Mode: RedundancyReplicate, Replicas: 2}

func BenchmarkCoreWriteAt1Span(b *testing.B)  { benchCoreAt(b, benchR2, 16<<10, 1, false) }
func BenchmarkCoreWriteAt16Span(b *testing.B) { benchCoreAt(b, benchR2, 16<<10, 16, false) }
func BenchmarkCoreReadAt1Span(b *testing.B)   { benchCoreAt(b, benchR2, 16<<10, 1, true) }
func BenchmarkCoreReadAt16Span(b *testing.B)  { benchCoreAt(b, benchR2, 16<<10, 16, true) }

// BenchmarkCoreReadAtEC8Span reads 8 whole 1 MiB RS(4,2) stripes — the
// benchmark's ec-stream read op. Its B/op is gated as well as its
// allocs/op: shard fetches land in pooled buffers, so a read allocates
// bookkeeping, not payload.
func BenchmarkCoreReadAtEC8Span(b *testing.B) { benchCoreAt(b, rs42, 1<<20, 8, true) }

// BenchmarkCoreReadAtEC8SpanDegraded is the same read with one victim
// store flushed and repair off, so every stripe placed on the victims
// misses one slot for good: its span is the gather's whenever the slot
// held a data shard, and a read reconstructs it.
func BenchmarkCoreReadAtEC8SpanDegraded(b *testing.B) {
	fs := benchFS(b, rs42, 1<<20, withRepair(RepairPolicy{Disable: true}))
	var before int64
	benchCoreOn(b, fs, 1<<20, 8, true, func(fs *FileSystem) {
		cli, err := fs.conns.client(fs.cfg.Classes[1].Nodes[0].ID)
		if err == nil {
			err = cli.FlushAll()
		}
		if err != nil {
			b.Fatal(err)
		}
		before = fs.Counters().ECReconstructs
	})
	// Counted from the untimed first read on: slightly over per timed op.
	b.ReportMetric(float64(fs.Counters().ECReconstructs-before)/float64(b.N), "reconstructs/op")
}

// BenchmarkCoreWriteAtEC8Span writes 8 whole 1 MiB RS(4,2) stripes — the
// benchmark's ec-stream write op: per span a headers gather, one encode
// and k+m shard SETs. Its B/op is gated too: the shards are encoded into
// one buffer per stripe, so a second stripe-size copy shows.
func BenchmarkCoreWriteAtEC8Span(b *testing.B) { benchCoreAt(b, rs42, 1<<20, 8, false) }

// The namespace ops of the benchmark's montage-meta workload, on the same
// R=2 deployment, gated before anything moves them (ROADMAP item 6).
// benchTree fills dir with n files of one 16 KiB stripe each.
func benchTree(b *testing.B, fs *FileSystem, dir string, n int) {
	if err := fs.MkdirAll(dir); err != nil {
		b.Fatal(err)
	}
	payload := randomBytes(23, 16<<10)
	for i := 0; i < n; i++ {
		if err := fs.WriteFile(fmt.Sprintf("%s/f%d", dir, i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNamespace times op(i) after one untimed op(-1) has filled the pools.
func benchNamespace(b *testing.B, op func(i int) error) {
	if err := op(-1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreCreate creates and closes one new empty file per op: the
// record and the directory entry, no stripe.
func BenchmarkCoreCreate(b *testing.B) {
	fs := benchFS(b, benchR2, 16<<10)
	benchTree(b, fs, "/bench", 0)
	paths := make([]string, b.N+1)
	for i := range paths {
		paths[i] = fmt.Sprintf("/bench/f%d", i)
	}
	benchNamespace(b, func(i int) error {
		f, err := fs.Create(paths[i+1])
		if err != nil {
			return err
		}
		return f.Close()
	})
}

// BenchmarkCoreStat stats one of 16 files per op.
func BenchmarkCoreStat(b *testing.B) {
	fs := benchFS(b, benchR2, 16<<10)
	benchTree(b, fs, "/bench", 16)
	paths := make([]string, 16)
	for i := range paths {
		paths[i] = fmt.Sprintf("/bench/f%d", i)
	}
	benchNamespace(b, func(i int) error {
		_, err := fs.Stat(paths[(i+16)%16])
		return err
	})
}

// BenchmarkCoreReadDir lists a directory of 16 files per op.
func BenchmarkCoreReadDir(b *testing.B) {
	fs := benchFS(b, benchR2, 16<<10)
	benchTree(b, fs, "/bench", 16)
	benchNamespace(b, func(int) error {
		_, err := fs.ReadDir("/bench")
		return err
	})
}

// BenchmarkCoreRemoveAll removes a directory of 4 one-stripe files per
// op; refilling it between ops is not timed.
func BenchmarkCoreRemoveAll(b *testing.B) {
	fs := benchFS(b, benchR2, 16<<10)
	benchNamespace(b, func(int) error {
		b.StopTimer()
		benchTree(b, fs, "/tree", 4)
		b.StartTimer()
		return fs.RemoveAll("/tree")
	})
}

// TestSharedRegistry checks that an embedder-provided registry receives
// the FileSystem's families (the memfsd gateway wiring).
func TestSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	d := newTestFS(t, 1, 1, withObs(ObsPolicy{Registry: reg}))
	if err := d.fs.WriteFile("/shared", randomBytes(3, 4_096)); err != nil {
		t.Fatal(err)
	}
	if d.fs.obs.reg != reg {
		t.Fatal("FileSystem did not adopt the provided registry")
	}
	if familyTotal(reg.Snapshot(), "memfss_fs_bytes_total") == 0 {
		t.Fatal("provided registry saw no fs activity")
	}
}

// TestPipelineDepthIsOnlyBurstSize pins that PipelineDepth selects no code
// path: the same 40-stripe R=2 write and read at depth 1, 4 and the
// default moves the same bytes and counts the same stripe ops, degraded
// writes and span outcomes.
func TestPipelineDepthIsOnlyBurstSize(t *testing.T) {
	type reading struct {
		stripeWrites, stripeReads, degraded int64
		writeOutcomes, readOutcomes         int64
	}
	outcomeTotal := func(fams []obs.FamilySnapshot, op string) int64 {
		var total int64
		for _, v := range spanOutcomes(fams, op) {
			total += v
		}
		return total
	}
	data := randomBytes(17, 40*4<<10)
	want := reading{stripeWrites: 40, stripeReads: 40, writeOutcomes: 40, readOutcomes: 40}
	for _, depth := range []int{1, 4, 0} {
		d := newTestFS(t, 2, 2,
			withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
			withPipelineDepth(depth))
		if err := d.fs.WriteFile("/depth", data); err != nil {
			t.Fatalf("depth %d: write: %v", depth, err)
		}
		got, err := d.fs.ReadFile("/depth")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("depth %d: read back differs from written bytes: %v", depth, err)
		}
		c, fams := d.fs.Counters(), d.fs.obs.reg.Snapshot()
		r := reading{
			stripeWrites: c.StripeWrites, stripeReads: c.StripeReads, degraded: c.DegradedWrites,
			writeOutcomes: outcomeTotal(fams, "write"), readOutcomes: outcomeTotal(fams, "read"),
		}
		if r != want {
			t.Fatalf("depth %d: %+v, want %+v", depth, r, want)
		}
	}
}

// TestWriteAccountingParity pins that one engine writes every stripe: an
// R=2 file and an RS(2,1) file, written one span or five at a time, with
// every target healthy or one of them killed or draining, read back the
// same bytes and account the write by the same rule — a function of how
// many spans were written and how many of them had the faulted node among
// their targets, never of the redundancy mode or the span count.
func TestWriteAccountingParity(t *testing.T) {
	type reading struct {
		stripeWrites, degraded, fenced, skipped, enqueued int64
		outcomes                                          string
		stripeSeconds                                     bool // memfss_fs_stripe_seconds{op="write"} observed
	}
	modes := []struct {
		name string
		red  Redundancy
	}{
		{"R2", Redundancy{Mode: RedundancyReplicate, Replicas: 2}},
		{"RS21", Redundancy{Mode: RedundancyErasure, DataShards: 2, ParityShards: 1}},
	}
	for _, mode := range modes {
		for _, spans := range []int{1, 5} {
			for _, fault := range []string{"healthy", "killed", "draining"} {
				t.Run(fmt.Sprintf("%s/%d-span/%s", mode.name, spans, fault), func(t *testing.T) {
					d := newTestFS(t, 3, 3, withRedundancy(mode.red), withRetry(fastRetry),
						// No detector skips: only the fence withholds a write.
						withHealth(HealthPolicy{ProbeInterval: -1, SuspectAfter: 1000}),
						// Own weight 1: every stripe is victim-bound, so faulting
						// a data target never touches metadata.
						func(c *Config) { c.Classes[0].Weight = 1 })
					f, err := d.fs.OpenFile("/parity", O_CREATE|O_RDWR)
					if err != nil {
						t.Fatal(err)
					}
					targets := func(i int) []string { return f.targets(stripe.Key(f.rec.ID, int64(i))) }
					node := targets(0)[1]
					var hit int64 // spans with the faulted node among their targets
					for i := 0; i < spans && fault != "healthy"; i++ {
						if slices.Contains(targets(i), node) {
							hit++
						}
					}
					switch fault {
					case "killed":
						for i, n := range d.victims.Nodes {
							if n.ID == node {
								d.victims.Server(i).Close()
							}
						}
					case "draining":
						d.fs.detector.SetDraining(node, true)
					}

					data := randomBytes(23, spans*int(d.fs.layout.Size()))
					if n, err := f.WriteAt(data, 0); err != nil || n != len(data) {
						t.Fatalf("write = %d, %v", n, err)
					}
					c, fams := d.fs.Counters(), d.fs.obs.reg.Snapshot()
					got := reading{
						stripeWrites: c.StripeWrites, degraded: c.DegradedWrites,
						fenced: c.FencedWrites, skipped: c.SkippedReplicaWrites,
						enqueued: d.fs.RepairStats().Enqueued,
						outcomes: fmt.Sprint(spanOutcomes(fams, "write")),
					}
					for _, s := range findFamily(fams, "memfss_fs_stripe_seconds").Series {
						if s.Labels.Get("op") == "write" && s.Count > 0 {
							got.stripeSeconds = true
						}
					}
					wantOutcomes := map[string]int64{}
					if ok := int64(spans) - hit; ok > 0 {
						wantOutcomes["ok"] = ok
					}
					if hit > 0 {
						wantOutcomes["degraded"] = hit
					}
					want := reading{
						stripeWrites: int64(spans), degraded: hit, enqueued: hit,
						outcomes: fmt.Sprint(wantOutcomes), stripeSeconds: true,
					}
					if fault == "draining" {
						want.fenced = hit
					}
					if got != want {
						t.Errorf("accounting = %+v, want %+v", got, want)
					}
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
					back, err := d.fs.ReadFile("/parity")
					if err != nil || !bytes.Equal(back, data) {
						t.Fatalf("read back differs from written bytes: %v", err)
					}
				})
			}
		}
	}
}
