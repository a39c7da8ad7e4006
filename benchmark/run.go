package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"memfss/internal/core"
)

// result is one run of one workload in one mode.
type result struct {
	workload  string
	traced    bool
	metrics   metricSet
	attempted int
	failed    int
	firstErr  error
}

func (r *result) absorb(rec *recorder) {
	r.attempted += rec.attempted
	r.failed += rec.failed
	if r.firstErr == nil {
		r.firstErr = rec.firstErr
	}
}

func (r *result) fail(err error) {
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// Set-up is repeated so setup_s can be a median: at least minSetups times,
// and while they are quick up to maxSetups or setupShare of the run length
// in total.
const (
	minSetups  = 3
	maxSetups  = 15
	setupShare = 0.15
)

// repeatedSetup sets the deployment up several times within budget (once
// if budget is 0), keeps the last one mounted, and returns the set-up
// times.
func repeatedSetup(sp *spec, pay *payloads, budget time.Duration) (*env, workload, []float64, error) {
	var times []float64
	begin := time.Now()
	for {
		releaseMemory()
		w := newWorkload(sp)
		t0 := time.Now()
		e, err := setup(sp, w, pay)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		n := len(times)
		if budget == 0 || n >= maxSetups || (n >= minSetups && time.Since(begin) > budget) {
			return e, w, times, nil
		}
		e.close()
	}
}

// fsckClean runs Fsck and fails the run on damage or orphaned stripes.
func fsckClean(e *env, res *result) {
	rep, err := e.fs.Fsck()
	switch {
	case err != nil:
		res.fail(fmt.Errorf("fsck: %w", err))
	case len(rep.Damaged) > 0 || rep.OrphanStripes > 0:
		res.fail(fmt.Errorf("fsck: %d damaged files, %d orphan stripes", len(rep.Damaged), rep.OrphanStripes))
	default:
		res.attempted++
	}
}

// runUntraced measures the end-to-end metrics: tracing off, sp.clients
// closed-loop clients, the phases sharing seconds equally.
func runUntraced(sp *spec, seed int64, seconds float64) (*result, error) {
	res := &result{workload: sp.name, metrics: metricSet{}}
	pay := newPayloads(seed, sp.fileSize)
	e, w, setups, err := repeatedSetup(sp, pay, time.Duration(seconds*setupShare*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	defer e.close()
	epoch := time.Now()
	per := time.Duration(seconds / float64(len(sp.phases)) * float64(time.Second))
	var phases []*phaseResult
	for _, name := range sp.phases {
		ph := runPhase(e, w, name, per, epoch, seed)
		res.absorb(ph.rec)
		verify := newRecorder()
		w.verify(e, verify)
		res.absorb(verify)
		phases = append(phases, ph)
	}
	fsckClean(e, res)

	m := res.metrics
	m["setup_s"] = value{v: median(setups), n: len(setups)}
	m["stored_bytes_per_user_byte"] = value{v: e.storedPerUser}
	m["peak_rss_mb"] = value{v: peakRSSMiB()}
	endToEndMetrics(m, phases)
	return res, m.fill(endToEnd)
}

// window is the throughput window: one second, or less when a phase is
// too short to hold four of them.
func window(ph *phaseResult) time.Duration {
	w := time.Second
	if quarter := time.Duration(ph.to-ph.from) / 4; quarter < w {
		w = quarter
	}
	return w
}

// within returns the samples that ended inside the phase's measured
// interval.
func within(ss []sample, ph *phaseResult) []sample {
	var out []sample
	for _, s := range ss {
		if s.end >= ph.from && s.end < ph.to {
			out = append(out, s)
		}
	}
	return out
}

// phaseRate is the median of value-per-second over the phase's windows: one
// stalled second does not move it, where bytes over elapsed time would.
func phaseRate(ss []sample, ph *phaseResult, val func(sample) float64) (float64, int) {
	rates := windowRates(ss, ph.from, ph.to, window(ph), val)
	return median(rates), len(rates)
}

func sampleBytes(s sample) float64 { return float64(s.bytes) }
func sampleOne(sample) float64     { return 1 }

// endToEndMetrics derives throughput, latency and CPU cost from the timed
// phases. A rate is the median of its phase's windows, and the mean of the
// phases' rates where more than one phase has the op.
func endToEndMetrics(m metricSet, phases []*phaseResult) {
	for _, class := range []string{"write", "read"} {
		var rates, ms []float64
		windows := 0
		for _, ph := range phases {
			ss := ph.rec.user[class]
			if len(ss) == 0 {
				continue
			}
			r, n := phaseRate(ss, ph, sampleBytes)
			rates = append(rates, r)
			windows += n
			ms = append(ms, durationsMs(within(ss, ph))...)
		}
		sort.Float64s(ms)
		m[class+"_mb_s"] = value{v: meanOf(rates) / 1e6, n: windows, note: "windows"}
		m[class+"_p50_ms"] = value{v: percentile(ms, 0.50), n: len(ms)}
	}
	var cpu, bytes, ops float64
	var opRates []float64
	opWindows := 0
	for _, ph := range phases {
		var all []sample
		for _, ss := range ph.rec.user {
			all = append(all, ss...)
		}
		r, n := phaseRate(all, ph, sampleOne)
		opRates = append(opRates, r)
		opWindows += n
		for _, s := range within(all, ph) {
			bytes += float64(s.bytes)
			ops++
		}
		cpu += ph.cpuS
	}
	m["ops_s"] = value{v: meanOf(opRates), n: opWindows, note: "windows"}
	if bytes > 0 {
		m["cpu_s_per_gb"] = value{v: cpu / (bytes / 1e9), n: int(ops)}
	}
	if ops > 0 {
		m["cpu_us_per_op"] = value{v: cpu * 1e6 / ops, n: int(ops)}
	}
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// The traced run splits seconds: timedShare goes to untraced timed phases
// at the workload's client count (per-op latencies, GC, generator share),
// degradedShare to ec-stream's degraded read, and the rest is headroom for
// the fixed-count passes, which take the time they take.
const (
	timedShare    = 0.40
	degradedShare = 0.15
)

// runTraced measures the per-layer metrics.
func runTraced(sp *spec, seed int64, seconds float64, outDir string) (*result, error) {
	res := &result{workload: sp.name, traced: true, metrics: metricSet{}}
	pay := newPayloads(seed, sp.fileSize)
	e, w, _, err := repeatedSetup(sp, pay, 0)
	if err != nil {
		return nil, err
	}
	defer e.close()
	epoch := time.Now()
	m := res.metrics

	// 1. The same fixed op list twice with one client: tracing off and
	// tracing on, in alternating chunks so that drift in the machine's
	// speed falls on both alike. This comes first, straight after preload,
	// so that file IDs — and with them stripe placement and the number of
	// store commands — are the same on every run: the counts taken here
	// repeat exactly.
	tr := newTracer()
	rp, err := newReplayer(e, tr)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	steps := fixedSteps(sp, seconds)
	plain := newFixedPass(e, w, epoch, seed, nil, nil)
	traced := newFixedPass(e, w, epoch, seed, tr, rp)
	for _, name := range sp.phases {
		for _, n := range chunks(steps) {
			plain.run(name, n)
			traced.run(name, n)
		}
	}
	tracedPassMetrics(m, plain, traced)

	// 2. Timed phases, tracing off.
	per := time.Duration(seconds * timedShare / float64(len(sp.phases)) * float64(time.Second))
	var phases []*phaseResult
	for _, name := range sp.phases {
		ph := runPhase(e, w, name, per, epoch, seed)
		res.absorb(ph.rec)
		phases = append(phases, ph)
	}
	timedPhaseMetrics(m, phases)
	res.absorb(plain.c.rec)
	verify := newRecorder()
	w.verify(e, verify)
	res.absorb(verify)
	fsckClean(e, res)
	total := e.fs.Counters()
	m["core.deep_probes"] = value{v: float64(total.DeepProbes)}
	m["core.degraded_writes"] = value{v: float64(total.DegradedWrites)}
	if total.StoreOps > 0 {
		m["kvstore.attempts_per_op"] = value{v: float64(total.StoreAttempts) / float64(total.StoreOps), n: int(total.StoreOps)}
	}

	// 3. ec-stream: wipe one victim store — shard loss without transport
	// errors — and read again, timed and then traced.
	if sp.red.DataShards > 0 {
		e.victims.Server(0).Store().FlushAll()
		d := time.Duration(seconds * degradedShare * float64(time.Second))
		ph := runPhase(e, w, degradedPhase, d, epoch, seed)
		res.absorb(ph.rec)
		rate, n := phaseRate(ph.rec.user["read"], ph, sampleBytes)
		m["degraded_read_mb_s"] = value{v: rate / 1e6, n: n, note: "windows"}
		m["erasure.reconstructs_per_stripe_read_degraded"] = ratio(ph.counters.ECReconstructs, ph.counters.StripeReads)
		traced.run(degradedPhase, steps)
		verify := newRecorder()
		w.verify(e, verify)
		res.absorb(verify)
	}

	res.absorb(traced.c.rec)
	layerMetrics(m, rp)
	m["trace.spans"] = value{v: float64(len(tr.spans))}
	m["trace.dropped"] = value{v: float64(tr.dropped)}
	if err := writeTrace(filepath.Join(outDir, "trace-"+sp.name+".json"), tr.spans); err != nil {
		return nil, err
	}
	return res, m.fill(perLayer)
}

func ratio(num, den int64) value {
	if den == 0 {
		return value{}
	}
	return value{v: float64(num) / float64(den), n: int(den)}
}

// timedPhaseMetrics reports what the untraced timed phases of the traced
// run show: per-call latencies of internal/core, GC cost, generator share,
// and the reconstruct ratio of healthy reads.
func timedPhaseMetrics(m metricSet, phases []*phaseResult) {
	byOp := map[string][]sample{}
	var gcCPU, totalCPU, genNs, clientWallNs float64
	var pause time.Duration
	var recon, stripeReads int64
	for _, ph := range phases {
		for op, ss := range ph.rec.core {
			byOp[op] = append(byOp[op], ss...)
		}
		gcCPU += ph.gcCPU
		totalCPU += ph.totalCPU
		genNs += float64(ph.rec.genNs)
		clientWallNs += float64(ph.wallNs) * float64(ph.clients)
		if ph.pauseMax > pause {
			pause = ph.pauseMax
		}
		recon += ph.counters.ECReconstructs
		stripeReads += ph.counters.StripeReads
	}
	for _, class := range []string{"write", "read"} {
		var lat []sample
		for _, ph := range phases {
			lat = append(lat, within(ph.rec.user[class], ph)...)
		}
		ms := durationsMs(lat)
		m[class+"_p95_ms"] = value{v: percentile(ms, 0.95), n: len(ms)}
	}
	for _, op := range coreOps {
		ms := durationsMs(byOp[op])
		m["core."+op+".p50_ms"] = value{v: percentile(ms, 0.5), n: len(ms)}
		if p, ok := tailLevel(len(ms)); ok {
			m["core."+op+".tail_ms"] = value{v: percentile(ms, p), n: len(ms), note: fmt.Sprintf("p%g", p*100)}
		}
	}
	if totalCPU > 0 {
		m["runtime.gc_cpu_share"] = value{v: gcCPU / totalCPU}
	}
	m["runtime.gc_pause_max_ms"] = value{v: float64(pause) / 1e6}
	if clientWallNs > 0 {
		m["gen.overhead_share"] = value{v: genNs / clientWallNs}
	}
	m["erasure.reconstructs_per_stripe_read"] = ratio(recon, stripeReads)
}

// fixedSteps scales the workload's traced step count with the run length,
// so a short run stays short; at a given -seconds it is a fixed number.
func fixedSteps(sp *spec, seconds float64) int {
	n := int(float64(sp.tracedSteps)*seconds/runSeconds + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// chunks splits n steps into up to four nearly equal parts.
func chunks(n int) []int {
	k := 4
	if n < k {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = n / k
		if i < n%k {
			out[i]++
		}
	}
	return out
}

// fixedPass is one client running a fixed number of steps, with what its
// steps cost in store ops and allocations summed over its runs.
type fixedPass struct {
	c          *client
	w          workload
	counters   core.Counters
	mallocs    uint64
	allocBytes uint64
}

// newFixedPass makes the pass's single client. With a tracer the client
// records a root span per user op and replays one op in sampleEvery. Two
// passes given the same seed issue the same op list.
func newFixedPass(e *env, w workload, epoch time.Time, seed int64, tr *tracer, rp *replayer) *fixedPass {
	return &fixedPass{w: w, c: &client{
		id: 0, of: 1, e: e, rec: newRecorder(), epoch: epoch,
		rng: clientRand(seed, e.sp.name+"/fixed", 0),
		buf: make([]byte, e.sp.fileSize),
		tr:  tr, rp: rp,
	}}
}

func (p *fixedPass) run(phase string, steps int) {
	c := p.c
	if err := p.w.open(c, phase); err != nil {
		c.rec.fail(fmt.Errorf("open: %w", err))
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := c.e.fs.Counters()
	for i := 0; i < steps; i++ {
		p.w.step(c, phase)
	}
	p.counters = combine(p.counters, counterDelta(c0, c.e.fs.Counters()), 1)
	runtime.ReadMemStats(&m1)
	p.mallocs += m1.Mallocs - m0.Mallocs
	p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	if err := p.w.closeClient(c, phase); err != nil {
		c.rec.fail(fmt.Errorf("close: %w", err))
	}
}

func (p *fixedPass) userOps() int {
	n := 0
	for _, ss := range p.c.rec.user {
		n += len(ss)
	}
	return n
}

// tracedPassMetrics reports the counts of the traced fixed pass, the
// allocation cost of the untraced one, and what tracing added to the
// median write op, bookkeeping included.
func tracedPassMetrics(m metricSet, plain, traced *fixedPass) {
	if ops := traced.userOps(); ops > 0 {
		c := traced.counters
		m["kvstore.ops_per_user_op"] = value{v: float64(c.StoreOps) / float64(ops), n: ops}
		m["core.stripe_ops_per_user_op"] = value{v: float64(c.StripeWrites+c.StripeReads) / float64(ops), n: ops}
	}
	m["core.meta_store_ops_per_op"] = ratio(traced.c.metaOps, traced.c.metaCalls)
	if n := plain.userOps(); n > 0 {
		m["core.allocs_per_op"] = value{v: float64(plain.mallocs) / float64(n), n: n}
		m["core.alloc_kb_per_op"] = value{v: float64(plain.allocBytes) / 1024 / float64(n), n: n}
	}
	wall := func(s sample) int64 { return s.wall }
	off, on := sortedMs(plain.c.rec.user["write"], wall), sortedMs(traced.c.rec.user["write"], wall)
	if base := percentile(off, 0.5); base > 0 {
		m["trace.overhead_pct"] = value{v: (percentile(on, 0.5) - base) / base * 100, n: len(on)}
	}
}

// layerMetrics turns the replayer's per-call costs and the share sums into
// the per-layer metrics.
func layerMetrics(m metricSet, rp *replayer) {
	sums := &rp.sums
	med := func(name string) (float64, int) {
		xs := rp.perCall[name]
		if len(xs) == 0 {
			return 0, 0
		}
		return median(xs), len(xs)
	}
	us := func(metric, span string) {
		v, n := med(span)
		m[metric] = value{v: v / 1e3, n: n}
	}
	us("hrw.place_us", "hrw.place")
	us("stripe.spans_us", "stripe.spans")
	us("fsmeta.clean_us", "probe/fsmeta.clean")
	us("fsmeta.encode_us", "probe/fsmeta.encode")
	us("fsmeta.decode_us", "probe/fsmeta.decode")
	us("erasure.wrap_us", "erasure.wrap")
	us("erasure.parse_us", "erasure.parse")
	us("kvstore.rtt_us", "probe/kvstore.rtt")
	us("kvstore.set_us", "probe/kvstore.set")
	us("kvstore.get_into_us", "probe/kvstore.get_into")
	us("kvstore.pipeline_set_us_per_cmd", "kvstore.pipeline_set")
	us("kvstore.store_set_us", "probe/kvstore.store_set")
	us("kvstore.store_get_us", "probe/kvstore.store_get")
	for metric, span := range map[string]string{"health.report_ns": "probe/health.report", "obs.observe_ns": "probe/obs.observe"} {
		v, n := med(span)
		m[metric] = value{v: v, n: n}
	}
	for metric, span := range map[string]string{"erasure.encode_mb_s": "erasure.encode", "erasure.reconstruct_mb_s": "erasure.reconstruct"} {
		if v, n := med(span); v > 0 {
			m[metric] = value{v: float64(rp.sp.stripe) / 1e6 / (v / 1e9), n: n}
		}
	}
	if sums.ops == 0 {
		return
	}
	perOp := func(n int) value { return value{v: float64(n) / float64(sums.ops), n: sums.ops} }
	m["hrw.calls_per_op"] = perOp(rp.calls["hrw.place"])
	m["stripe.spans_per_op"] = perOp(rp.stripeSpans)
	erasureCalls := 0
	for name := range rp.calls {
		if strings.HasPrefix(name, "erasure.") {
			erasureCalls += rp.calls[name]
		}
	}
	m["erasure.calls_per_op"] = perOp(erasureCalls)
	if sums.writeBaseNs > 0 {
		m["erasure.encode_share"] = value{v: float64(sums.encodeNs) / float64(sums.writeBaseNs), n: sums.ops}
	}
	for _, layer := range layers {
		name := layer + ".share"
		if layer == "kvstore" {
			name = "kvstore.wire_share"
		}
		m[name] = value{v: float64(sums.layerNs[layer]) / float64(sums.baseNs), n: sums.ops}
	}
	m["core.self_share"] = value{v: float64(sums.selfNs) / float64(sums.baseNs), n: sums.ops}
	m["core.overlap_factor"] = value{v: float64(sums.replayNs) / float64(sums.opNs), n: sums.ops}
}
