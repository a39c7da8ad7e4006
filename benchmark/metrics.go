package main

import "fmt"

// metricDef names one metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; a
// test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	help   string
}

// endToEnd is what a user of the file system sees. Every workload reports
// every one of them; the workload decides what its "write" and "read" are
// (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "stores + mount + preload, median of the run's set-ups"},
	{"write_mb_s", "MB/s", "higher", 0.25, "payload written per second, median of 1 s windows"},
	{"read_mb_s", "MB/s", "higher", 0.25, "payload read per second, median of 1 s windows"},
	{"ops_s", "1/s", "higher", 0.25, "user operations per second, median of 1 s windows"},
	{"write_p50_ms", "ms", "lower", 0.25, "median latency of a write op"},
	{"read_p50_ms", "ms", "lower", 0.25, "median latency of a read op"},
	{"cpu_s_per_gb", "s/GB", "lower", 0.25, "process CPU (clients and in-process stores) per user GB moved"},
	{"cpu_us_per_op", "us", "lower", 0.25, "process CPU per user operation"},
	{"stored_bytes_per_user_byte", "B/B", "lower", 0.01, "sum of store BytesUsed over live logical bytes, after preload; repeats exactly"},
	{"peak_rss_mb", "MiB", "lower", 0.25, "resident high-water mark of the process (VmHWM)"},
}

// coreOps are the calls into internal/core the benchmark times one by one.
var coreOps = []string{"create", "open", "writeat", "readat", "close", "stat", "readdir", "rename", "mkdir", "removeall"}

// perLayer is measured on the traced run; layer = module name. These have
// no bound: they explain a change in an end-to-end metric, they do not
// gate one.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"hrw.place_us", "us", "lower", 0, "Placer.PlaceK on the op's real stripe keys and topology"},
		{"hrw.calls_per_op", "count", "lower", 0, "placements per sampled user op"},
		{"hrw.share", "ratio", "lower", 0, "replayed hrw time over max(op, replay) time; the shares and core.self_share sum to 1"},
		{"stripe.spans_us", "us", "lower", 0, "Layout.Spans on the op's real offset and length"},
		{"stripe.spans_per_op", "count", "lower", 0, "stripe spans per sampled user op"},
		{"stripe.share", "ratio", "lower", 0, "replayed stripe time over max(op, replay) time; the shares and core.self_share sum to 1"},
		{"fsmeta.clean_us", "us", "lower", 0, "fsmeta.Clean on the op's real path"},
		{"fsmeta.encode_us", "us", "lower", 0, "Record.Encode of this deployment's file record"},
		{"fsmeta.decode_us", "us", "lower", 0, "fsmeta.Decode of the same record"},
		{"fsmeta.share", "ratio", "lower", 0, "replayed fsmeta time over max(op, replay) time; the shares and core.self_share sum to 1"},
		{"erasure.encode_mb_s", "MB/s", "higher", 0, "Split+Encode of one stripe; 0 where erasure is never called"},
		{"erasure.reconstruct_mb_s", "MB/s", "higher", 0, "Reconstruct of one stripe with one data shard missing"},
		{"erasure.wrap_us", "us", "lower", 0, "WrapShard of one shard"},
		{"erasure.parse_us", "us", "lower", 0, "ParseShard of one shard"},
		{"erasure.calls_per_op", "count", "lower", 0, "erasure calls per sampled user op; 0 outside ec-stream"},
		{"erasure.reconstructs_per_stripe_read", "ratio", "lower", 0, "ECReconstructs over StripeReads, healthy read phase"},
		{"erasure.reconstructs_per_stripe_read_degraded", "ratio", "lower", 0, "the same after one victim store was wiped"},
		{"erasure.encode_share", "ratio", "lower", 0, "replayed Split+Encode time over the same base, write ops only"},
		{"erasure.share", "ratio", "lower", 0, "replayed erasure time over max(op, replay) time; the shares and core.self_share sum to 1"},
		{"kvstore.rtt_us", "us", "lower", 0, "1-byte SET to a scratch server over loopback"},
		{"kvstore.set_us", "us", "lower", 0, "SET of the workload's usual command size, scratch server"},
		{"kvstore.get_into_us", "us", "lower", 0, "GETRANGE of that size into a caller buffer"},
		{"kvstore.pipeline_set_us_per_cmd", "us", "lower", 0, "pipelined burst as core ships a multi-stripe write, per command"},
		{"kvstore.store_set_us", "us", "lower", 0, "Store.Set of that size, no wire"},
		{"kvstore.store_get_us", "us", "lower", 0, "Store.GetRangeAppend of that size, no wire"},
		{"kvstore.ops_per_user_op", "count", "lower", 0, "StoreOps per user op on the traced pass; repeats exactly"},
		{"kvstore.attempts_per_op", "ratio", "lower", 0, "StoreAttempts over StoreOps; 1.0 means no retries"},
		{"kvstore.wire_share", "ratio", "lower", 0, "replayed kvstore client time (wire + store), same base"},
		{"health.report_ns", "ns", "lower", 0, "Detector.ReportSuccess, paid per store op"},
		{"obs.observe_ns", "ns", "lower", 0, "Histogram.Observe, paid per store op and per stripe"},
	}
	for _, op := range coreOps {
		defs = append(defs,
			metricDef{"core." + op + ".p50_ms", "ms", "lower", 0, "median of FileSystem/File " + op + " calls, timed phases"},
			metricDef{"core." + op + ".tail_ms", "ms", "lower", 0, "highest percentile with at least ten samples beyond it"},
		)
	}
	return append(defs, []metricDef{
		{"core.meta_store_ops_per_op", "count", "lower", 0, "StoreOps per namespace call on the traced pass; repeats exactly"},
		{"core.stripe_ops_per_user_op", "count", "lower", 0, "StripeWrites+StripeReads per user op on the traced pass; repeats exactly"},
		{"core.allocs_per_op", "count", "lower", 0, "heap allocations per user op, one client, in-process stores included"},
		{"core.alloc_kb_per_op", "KiB", "lower", 0, "heap bytes allocated per user op, same scope"},
		{"core.self_share", "ratio", "lower", 0, "op time the replayed layer calls do not cover: glue, scheduling, waiting"},
		{"core.overlap_factor", "ratio", "higher", 0, "serial time of the replayed layer calls over op wall time; above 1, core's concurrency hid layer work"},
		{"core.deep_probes", "count", "lower", 0, "reads that looked beyond the primary placement; must be 0"},
		{"core.degraded_writes", "count", "lower", 0, "writes that landed short of full redundancy; must be 0"},
		{"write_p95_ms", "ms", "lower", 0, "95th percentile latency of a write op, timed phases; too unsteady on this box to gate on"},
		{"read_p95_ms", "ms", "lower", 0, "95th percentile latency of a read op, same"},
		{"degraded_read_mb_s", "MB/s", "higher", 0, "ec-stream read throughput after one victim store was wiped; 0 elsewhere"},
		{"runtime.gc_cpu_share", "ratio", "lower", 0, "GC CPU over process CPU, timed phases"},
		{"runtime.gc_pause_max_ms", "ms", "lower", 0, "longest stop-the-world pause, timed phases"},
		{"gen.overhead_share", "ratio", "lower", 0, "payload generation and verification over client wall time"},
		{"trace.overhead_pct", "%", "lower", 0, "traced over untraced median write op, same op list, one client"},
		{"trace.spans", "count", "lower", 0, "spans recorded"},
		{"trace.dropped", "count", "lower", 0, "spans not kept because the trace was full"},
	}...)
}

// value is one measured metric.
type value struct {
	v    float64
	unit string
	n    int    // samples behind the number; 0 where that has no meaning
	note string // e.g. which percentile a tail is
}

// metricSet is the result of one run in one mode, keyed by metric name.
type metricSet map[string]value

// fill completes a result against defs: every defined metric must be
// present with the catalogue's unit, absent ones read 0, and unknown names
// are a bug in the benchmark.
func (m metricSet) fill(defs []metricDef) error {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v := m[d.name]
		v.unit = d.unit
		m[d.name] = v
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("metric %q is not in the catalogue", name)
		}
	}
	return nil
}
