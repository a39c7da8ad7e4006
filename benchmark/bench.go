package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memfss/internal/core"
	"memfss/internal/hrw"
)

const password = "bench"

// spec is one workload's deployment and load shape. Everything here is a
// constant of the benchmark: changing a value redefines the workload and
// the baseline must be measured again.
type spec struct {
	name         string
	own, victims int
	stripe       int64
	red          core.Redundancy
	repairOff    bool
	// clients is the closed-loop client count of the timed phases.
	clients int
	// files live files of fileSize bytes each, split evenly over clients.
	files    int
	fileSize int
	// phases are the timed phases in order, equal shares of --seconds.
	phases []string
	// probeBytes is the value size the kvstore probes use: the size of
	// the store commands this workload mostly issues.
	probeBytes int
	// tracedSteps is the fixed step count of each traced phase, and
	// sampleEvery the 1-in-N of user ops that get a layer replay.
	tracedSteps int
	sampleEvery int
}

// ownFraction is α of the paper's best Figure 2 configuration: a quarter
// of the stripes stay on own nodes, the rest are scavenged.
const ownFraction = 0.25

// env is one mounted deployment: in-process stores plus a FileSystem.
type env struct {
	sp      *spec
	own     *core.LocalStores
	victims *core.LocalStores
	fs      *core.FileSystem
	pay     *payloads
	classes []hrw.Class
	// storedPerUser is Σ BytesUsed over live logical bytes, taken right
	// after preload, where the number of creates (and so every key and
	// record length) is fixed and the ratio repeats exactly.
	storedPerUser float64
	// creates counts Create calls: file IDs are allocated in order, so the
	// n-th create made file "f-n" and a replay can name its real stripes.
	creates atomic.Int64
}

// setup starts the stores, mounts the file system and preloads the
// workload's live files. Its wall time is the setup_s metric.
func setup(sp *spec, w workload, pay *payloads) (*env, error) {
	e := &env{sp: sp, pay: pay}
	var err error
	if e.own, err = core.StartLocalStores(sp.own, "own", password, 0); err != nil {
		return nil, err
	}
	if e.victims, err = core.StartLocalStores(sp.victims, "victim", password, 0); err != nil {
		e.close()
		return nil, err
	}
	delta, err := hrw.DeltaForOwnFraction(ownFraction)
	if err != nil {
		e.close()
		return nil, err
	}
	cfg := core.Config{
		Classes: []core.ClassSpec{
			{Name: "own", Weight: delta, Nodes: e.own.Nodes},
			{Name: "victim", Nodes: e.victims.Nodes, Victim: true},
		},
		StripeSize: sp.stripe,
		Password:   password,
		Redundancy: sp.red,
		Repair:     core.RepairPolicy{Disable: sp.repairOff},
	}
	if e.fs, err = core.New(cfg); err != nil {
		e.close()
		return nil, err
	}
	for _, cs := range cfg.Classes {
		ids := make([]string, len(cs.Nodes))
		for i, n := range cs.Nodes {
			ids[i] = n.ID
		}
		e.classes = append(e.classes, hrw.Class{Name: cs.Name, Weight: cs.Weight, Nodes: ids})
	}
	live, err := w.preload(e)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	var used int64
	for _, st := range e.fs.StoreStats() {
		used += st.BytesUsed
	}
	e.storedPerUser = float64(used) / float64(live)
	return e, nil
}

func (e *env) close() {
	if e.fs != nil {
		e.fs.Close()
	}
	if e.victims != nil {
		e.victims.Close()
	}
	if e.own != nil {
		e.own.Close()
	}
}

// recorder collects one client's samples. core holds every timed call
// into internal/core by op name; user holds the user-level operations
// ("write", "read", "meta") those calls add up to.
type recorder struct {
	core      map[string][]sample
	user      map[string][]sample
	genNs     int64 // payload generation, verification and shadow upkeep
	attempted int
	failed    int
	firstErr  error
}

func newRecorder() *recorder {
	return &recorder{core: map[string][]sample{}, user: map[string][]sample{}}
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// merge folds other into r.
func (r *recorder) merge(o *recorder) {
	for k, v := range o.core {
		r.core[k] = append(r.core[k], v...)
	}
	for k, v := range o.user {
		r.user[k] = append(r.user[k], v...)
	}
	r.genNs += o.genNs
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// coreCall is one call into internal/core made on behalf of the current
// user op, with what a layer replay needs to re-enact it.
type coreCall struct {
	op       string
	path     string
	off, n   int64
	fileID   int64 // of the file a data call touches
	write    bool
	storeOps int64 // ΔStoreOps across the call (exact with one client)
	ecRecon  int64 // ΔECReconstructs across the call
	entries  int   // directory entries touched (readdir, removeall)
}

// client is one closed-loop load generator: it issues its next operation
// only when the previous one has returned, as a workflow task does.
type client struct {
	id    int
	of    int // clients in this pass
	e     *env
	rec   *recorder
	rng   *rand.Rand
	epoch time.Time
	buf   []byte // reused read buffer: reads must not measure the allocator
	state any    // workload-private per-client state

	// opNs and calls accumulate over the current user op, begun at opStart.
	opStart time.Time
	opNs    int64
	calls   []coreCall
	// oplog, when set, is told every call made: tests compare op lists.
	oplog func(coreCall)
	// tr is non-nil on a traced pass; root is the current user op's span.
	tr    *tracer
	rp    *replayer
	root  int32
	nthOp int
	// metaCalls / metaOps: namespace calls made and the store ops they cost.
	metaCalls, metaOps int64
}

// call times one call into internal/core. Only fn runs inside the timed
// span; bookkeeping stays outside it.
func (c *client) call(cc coreCall, fn func() error) error {
	var before core.Counters
	var sp int32
	if c.tr != nil {
		before = c.e.fs.Counters()
		sp = c.tr.begin(c.root, c.id, "core."+cc.op)
	}
	if c.oplog != nil {
		c.oplog(cc)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if c.tr != nil {
		c.tr.end(sp)
		after := c.e.fs.Counters()
		cc.storeOps = after.StoreOps - before.StoreOps
		cc.ecRecon = after.ECReconstructs - before.ECReconstructs
		c.calls = append(c.calls, cc)
		if cc.op != "writeat" && cc.op != "readat" {
			c.metaCalls++
			c.metaOps += cc.storeOps
		}
	}
	c.opNs += int64(d)
	c.rec.core[cc.op] = append(c.rec.core[cc.op], sample{
		end: int64(t0.Add(d).Sub(c.epoch)), dur: int64(d), bytes: cc.n,
	})
	return err
}

// begin opens a user op; finish closes it, records it under class, and on
// a traced pass replays its layer calls for one op in sampleEvery.
func (c *client) begin(class string) {
	c.opNs = 0
	c.calls = c.calls[:0]
	if c.tr != nil {
		c.root = c.tr.begin(-1, c.id, class)
	}
	c.opStart = time.Now()
}

func (c *client) finish(class string, bytes int64, err error) {
	wall := time.Since(c.opStart)
	c.rec.attempted++
	if err != nil {
		c.rec.fail(fmt.Errorf("%s: %w", class, err))
	}
	c.rec.user[class] = append(c.rec.user[class], sample{
		end: int64(c.opStart.Add(wall).Sub(c.epoch)), dur: c.opNs, wall: int64(wall), bytes: bytes,
	})
	if c.tr != nil {
		c.nthOp++
		if c.nthOp%c.e.sp.sampleEvery == 0 {
			c.rp.replay(c.root, c.id, c.calls, c.opNs)
		}
		c.tr.end(c.root)
	}
}

// gen brackets benchmark-side work (payloads, verification) so its share
// of the wall clock is reported and can be shown not to be the bottleneck.
func (c *client) gen(fn func()) {
	t0 := time.Now()
	fn()
	c.rec.genNs += int64(time.Since(t0))
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	rec      *recorder
	from, to int64 // measured interval, ns since epoch (warm-up excluded)
	cpuS     float64
	counters core.Counters // delta over the measured interval
	gcCPU    float64       // GC CPU seconds over the measured interval
	totalCPU float64
	pauseMax time.Duration
	wallNs   int64 // whole phase including warm-up, for gen share
	clients  int
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// warmup is the head of each timed phase that is thrown away: connection
// pools fill and the heap reaches its steady size.
func warmup(d time.Duration) time.Duration {
	w := d / 8
	if w > 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

// runPhase drives sp.clients closed-loop clients through w.step for d.
func runPhase(e *env, w workload, name string, d time.Duration, epoch time.Time, seed int64) *phaseResult {
	sp := e.sp
	res := &phaseResult{rec: newRecorder(), clients: sp.clients}
	clients := make([]*client, sp.clients)
	for i := range clients {
		clients[i] = &client{
			id: i, of: sp.clients, e: e, rec: newRecorder(), epoch: epoch,
			rng: clientRand(seed, sp.name+"/"+name, i),
			buf: make([]byte, sp.fileSize),
		}
		if err := w.open(clients[i], name); err != nil {
			res.rec.fail(fmt.Errorf("open client %d: %w", i, err))
			return res
		}
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.step(c, name)
			}
		}(c)
	}
	time.Sleep(warmup(d))
	res.from = int64(time.Since(epoch))
	cpu0, c0, rt0 := cpuSeconds(), e.fs.Counters(), readRuntime()
	time.Sleep(time.Until(deadline))
	res.to = int64(time.Since(epoch))
	cpu1, c1, rt1 := cpuSeconds(), e.fs.Counters(), readRuntime()
	wg.Wait()
	res.wallNs = int64(time.Since(start))
	res.cpuS = cpu1 - cpu0
	res.counters = counterDelta(c0, c1)
	res.gcCPU, res.totalCPU = rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU
	res.pauseMax = maxPause(rt0, rt1)
	for _, c := range clients {
		if err := w.closeClient(c, name); err != nil {
			c.rec.fail(fmt.Errorf("close client %d: %w", c.id, err))
		}
		res.rec.merge(c.rec)
	}
	return res
}

// counterDelta is b - a, field by field.
func counterDelta(a, b core.Counters) core.Counters { return combine(b, a, -1) }

// combine is a + sign*b over the counters the benchmark reads.
func combine(a, b core.Counters, sign int64) core.Counters {
	return core.Counters{
		BytesWritten:   a.BytesWritten + sign*b.BytesWritten,
		BytesRead:      a.BytesRead + sign*b.BytesRead,
		StripeWrites:   a.StripeWrites + sign*b.StripeWrites,
		StripeReads:    a.StripeReads + sign*b.StripeReads,
		DeepProbes:     a.DeepProbes + sign*b.DeepProbes,
		DegradedWrites: a.DegradedWrites + sign*b.DegradedWrites,
		ECReconstructs: a.ECReconstructs + sign*b.ECReconstructs,
		StoreOps:       a.StoreOps + sign*b.StoreOps,
		StoreAttempts:  a.StoreAttempts + sign*b.StoreAttempts,
	}
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// releaseMemory returns a discarded deployment's heap to the OS, so that
// repeated set-ups each pay the same page faults and the resident
// high-water mark is that of one deployment, not of several.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runtimeSnap is the Go runtime's view at one instant.
type runtimeSnap struct {
	gcCPU, totalCPU float64 // cumulative CPU seconds
	mem             runtime.MemStats
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var r runtimeSnap
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	runtime.ReadMemStats(&r.mem)
	return r
}

// maxPause is the longest stop-the-world pause of the collections between
// two snapshots (the runtime keeps the last 256).
func maxPause(a, b runtimeSnap) time.Duration {
	var worst uint64
	first := a.mem.NumGC
	if b.mem.NumGC > first+256 {
		first = b.mem.NumGC - 256
	}
	for n := first + 1; n <= b.mem.NumGC; n++ {
		if p := b.mem.PauseNs[(n+255)%256]; p > worst {
			worst = p
		}
	}
	return time.Duration(worst)
}
