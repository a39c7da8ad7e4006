package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memfss/internal/core"
	"memfss/internal/obs/trace"
	"memfss/internal/qos"
	"memfss/internal/workflow"
)

// RunOptions tunes a scenario execution.
type RunOptions struct {
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// Run executes one scenario end to end: build the topology, preload,
// drive the workload while stepping the timeline, then measure recovery
// and assert the SLO. The returned error covers setup failures only —
// SLO violations land in Result.Violations so a caller can report all of
// them, not just the first.
func Run(ctx context.Context, sc Scenario, opt RunOptions) (*Result, error) {
	cluster, err := buildCluster(sc.Topology)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	return RunOn(ctx, sc, cluster, opt)
}

// RunOn executes a scenario against an already-built cluster (the caller
// keeps ownership and Close). Tests that compare two runs over the same
// topology, or poke the cluster after the run, use this form.
func RunOn(ctx context.Context, sc Scenario, cluster *Cluster, opt RunOptions) (*Result, error) {
	r := &run{
		sc:      sc,
		cluster: cluster,
		logf:    opt.Logf,
		faultAt: map[string]time.Time{},
		detect:  map[string]time.Duration{},
		healed:  map[string]bool{},
	}
	if r.logf == nil {
		r.logf = func(string, ...any) {}
	}
	return r.execute(ctx)
}

// run is one scenario execution's mutable state.
type run struct {
	sc      Scenario
	cluster *Cluster
	logf    func(string, ...any)

	start   time.Time
	streams []*streamRun
	preload *streamRun

	totalOps atomic.Int64 // completed ops across all streams

	mu      sync.Mutex
	pending []*stepState
	faultAt map[string]time.Time     // nodeID -> outage start
	detect  map[string]time.Duration // nodeID -> fault-to-Down
	healAt  time.Time                // last heal action
	healed  map[string]bool          // nodes expected back Up after a heal
	evacs   []EvacSummary
	revokes []RevokeSummary
	stepErr []string

	asyncWG sync.WaitGroup
}

type stepState struct {
	step  Step
	fired bool
}

// streamRun aggregates one stream's measurements. Worker-local path
// expectations merge in at worker exit, so the hot path takes one short
// lock per op.
type streamRun struct {
	spec Stream

	issued atomic.Int64 // op slots handed out
	done   atomic.Int64 // ops completed (success or failure)

	mu         sync.Mutex
	writes     []time.Duration // write latencies
	reads      []time.Duration // read latencies
	ops        []opMark        // every op's offset + outcome, for window rates
	quota      int64           // quota rejections (not availability errors)
	mismatch   int64           // acknowledged content that read back wrong
	errSamples []string        // first few op errors, for violation reports
	paths      map[string][]byte
	tainted    map[string]bool
	order      []string
}

type opMark struct {
	at  time.Duration
	err bool
}

func (s *streamRun) record(at time.Duration, opErr error) {
	s.mu.Lock()
	s.ops = append(s.ops, opMark{at: at, err: opErr != nil})
	if opErr != nil && len(s.errSamples) < 8 {
		s.errSamples = append(s.errSamples, fmt.Sprintf("t+%s: %v", at.Round(time.Millisecond), opErr))
	}
	s.mu.Unlock()
}

func (r *run) elapsed() time.Duration { return time.Since(r.start) }

// note journals a chaos flight-recorder event so memfsctl shows injected
// faults interleaved with the health/evac/repair transitions they cause.
func (r *run) note(node, detail string) {
	r.cluster.FS.Events().Record(trace.Event{
		Type: "chaos", Node: node,
		Detail: fmt.Sprintf("[%s] %s", r.sc.Name, detail),
	})
	r.logf("chaos %s: %s %s", r.sc.Name, node, detail)
}

func (r *run) execute(ctx context.Context) (*Result, error) {
	sc := r.sc
	res := &Result{
		Scenario: sc.Name,
		Describe: sc.Describe,
		When:     time.Now().UTC(),
		Seed:     sc.Topology.Plan.Seed,
	}
	for _, s := range sc.Workload.Streams {
		r.streams = append(r.streams, newStreamRun(s))
	}
	for _, st := range sc.Timeline {
		r.pending = append(r.pending, &stepState{step: st})
	}

	if err := r.ensureDirs(); err != nil {
		return nil, fmt.Errorf("chaos: mkdir: %w", err)
	}

	// Preload: the working set, before the clock starts.
	if p := sc.Workload.Preload; p != nil {
		r.preload = newStreamRun(*p)
		if err := r.runPreload(ctx); err != nil {
			return nil, fmt.Errorf("chaos: preload: %w", err)
		}
	}

	r.start = time.Now()
	r.note("", "scenario start")

	// Workload context: Duration caps the streams; the timeline and
	// teardown keep the parent ctx so recovery can outlive the traffic.
	wctx := ctx
	var wcancel context.CancelFunc
	if d := sc.Workload.Duration; d > 0 {
		wctx, wcancel = context.WithTimeout(ctx, d)
		defer wcancel()
	}

	// Time-based timeline steps fire from one controller goroutine.
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		r.runTimed(ctx)
	}()

	var wg sync.WaitGroup
	for _, s := range r.streams {
		workers := s.spec.Workers
		if workers <= 0 {
			workers = 1
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(s *streamRun, w int) {
				defer wg.Done()
				r.worker(wctx, s, w)
			}(s, w)
		}
	}
	wg.Wait()
	workloadDur := r.elapsed()
	res.WorkloadCounters = r.cluster.FS.Counters()
	<-ctlDone
	r.asyncWG.Wait()
	r.note("", fmt.Sprintf("workload done in %s", workloadDur.Round(time.Millisecond)))

	// Detection: wait out MaxDetection for any still-undetected fault.
	r.settleDetection(ctx)

	// Recovery: from the last heal (or fault) until the repair queue
	// idles. The wait budget is the SLO bound plus slack so a miss is
	// reported as a violation with a number, not a hang.
	recovery := r.settleRecovery()
	// The repair stats are the recovery's own: the teardown Scrub, Fsck
	// and final verify below restore and enqueue on their account, and an
	// overflow their reads cause is not one the recovery SLO can judge.
	res.RepairStats = r.cluster.FS.RepairStats()
	r.note("", fmt.Sprintf("recovery settled after %s", recovery.dur.Round(time.Millisecond)))

	res.DurationMs = ms(workloadDur)
	res.RecoveryMs = ms(recovery.dur)
	res.RecoveryTimedOut = recovery.timedOut
	r.mu.Lock()
	for node, d := range r.detect {
		res.Detection = append(res.Detection, DetectionPoint{Node: node, Ms: ms(d)})
	}
	for node := range r.faultAt {
		if _, ok := r.detect[node]; !ok {
			res.Detection = append(res.Detection, DetectionPoint{Node: node, Ms: -1})
		}
	}
	res.Evacs = append(res.Evacs, r.evacs...)
	res.Revokes = append(res.Revokes, r.revokes...)
	stepErrs := append([]string(nil), r.stepErr...)
	r.mu.Unlock()
	sort.Slice(res.Detection, func(i, j int) bool { return res.Detection[i].Node < res.Detection[j].Node })

	// Post-recovery integrity: scrub, fsck, final content verify.
	fs := r.cluster.FS
	if !sc.Topology.Repair.Disable {
		if rep, err := fs.Scrub(); err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("scrub failed: %v", err))
		} else {
			res.ScrubRestored = len(rep.Restored)
			res.ScrubRestoredUnits = rep.Restored
			res.ScrubUnrepairable = len(rep.Unrepairable)
			res.ScrubDeferred = len(rep.Deferred)
		}
	}
	if rep, err := fs.Fsck(); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("fsck failed: %v", err))
	} else {
		res.FsckDamaged = len(rep.Damaged)
		res.FsckOrphans, res.FsckStrays = rep.OrphanStripes, rep.StrayKeys
	}
	r.finalVerify(res)

	res.Counters = fs.Counters()
	res.Faults = r.proxyStats()
	for _, s := range r.streams {
		res.Streams = append(res.Streams, s.summarize())
	}
	res.Violations = append(res.Violations, stepErrs...)
	res.Violations = append(res.Violations, r.evaluateSLO(res)...)
	if sc.Check != nil {
		res.Violations = append(res.Violations, sc.Check(r.cluster, res)...)
	}
	res.Passed = len(res.Violations) == 0
	verdict := "PASS"
	if !res.Passed {
		verdict = "FAIL " + strings.Join(res.Violations, "; ")
	}
	r.note("", "scenario end: "+verdict)
	return res, nil
}

func newStreamRun(spec Stream) *streamRun {
	if spec.FileSize <= 0 {
		spec.FileSize = 20 << 10
	}
	if spec.Files <= 0 {
		spec.Files = 8
	}
	return &streamRun{
		spec:    spec,
		paths:   map[string][]byte{},
		tainted: map[string]bool{},
	}
}

// ensureDirs creates every stream's base directory before traffic
// starts, so workers never race on Mkdir.
func (r *run) ensureDirs() error {
	specs := append([]Stream(nil), r.sc.Workload.Streams...)
	if p := r.sc.Workload.Preload; p != nil {
		specs = append(specs, *p)
	}
	for _, s := range specs {
		base := "/chaos/" + s.Name
		if s.Tenant != "" {
			base = "/tenants/" + s.Tenant + "/" + s.Name
		}
		if err := r.cluster.FS.MkdirAll(base); err != nil {
			return fmt.Errorf("stream %s: %w", s.Name, err)
		}
	}
	return nil
}

// runPreload writes the preload stream's full working set sequentially
// per worker, failing hard — a scenario cannot start from a broken base.
func (r *run) runPreload(ctx context.Context) error {
	s := r.preload
	workers := s.spec.Workers
	if workers <= 0 {
		workers = 1
	}
	ops := s.spec.Ops
	if ops <= 0 {
		ops = workers * s.spec.Files
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	per := (ops + workers - 1) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := newWorkerState(r, s, w)
			for i := 0; i < per; i++ {
				if ctx.Err() != nil {
					errCh <- ctx.Err()
					return
				}
				if _, err := local.writeOp(i, false); err != nil {
					errCh <- fmt.Errorf("preload %s op %d: %w", s.spec.Name, i, err)
					return
				}
			}
			local.merge()
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// workerState is one worker's lock-free view of its own files.
type workerState struct {
	r      *run
	s      *streamRun
	worker int
	rng    *rand.Rand
	expect map[string][]byte
	taint  map[string]bool
	order  []string
	vers   map[string]int
}

func newWorkerState(r *run, s *streamRun, worker int) *workerState {
	return &workerState{
		r: r, s: s, worker: worker,
		rng:    rand.New(rand.NewSource(s.spec.Seed*7919 + int64(worker)*104729 + 1)),
		expect: map[string][]byte{},
		taint:  map[string]bool{},
		vers:   map[string]int{},
	}
}

func (ws *workerState) path(i int) string {
	base := "/chaos/" + ws.s.spec.Name
	if t := ws.s.spec.Tenant; t != "" {
		base = "/tenants/" + t + "/" + ws.s.spec.Name
	}
	return fmt.Sprintf("%s/w%d-f%d", base, ws.worker, i%ws.s.spec.Files)
}

// content derives a path+version's deterministic payload.
func (ws *workerState) content(path string, version int) []byte {
	h := int64(2166136261)
	for _, c := range path {
		h = (h*16777619 + int64(c)) & (1<<48 - 1)
	}
	return seededBytes(ws.s.spec.Seed+h+int64(version)*1_000_003, ws.s.spec.FileSize)
}

func seededBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// writeOp performs op i's write (full rewrite, or RMW patch when due).
// It returns the latency; a failed write taints the path.
func (ws *workerState) writeOp(i int, rmwDue bool) (time.Duration, error) {
	fs := ws.r.cluster.FS
	path := ws.path(i)
	if rmwDue && ws.expect[path] != nil {
		// Partial overwrite of a known-good file: the RMW stripe path.
		size := ws.s.spec.FileSize
		off := size / 4
		patch := seededBytes(ws.s.spec.Seed+int64(i)*31+7, size/8)
		start := time.Now()
		f, err := fs.OpenFile(path, core.O_RDWR)
		if err == nil {
			_, err = f.WriteAt(patch, int64(off))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		dur := time.Since(start)
		if err != nil {
			ws.taint[path] = true
			ws.expect[path] = nil
			return dur, err
		}
		copy(ws.expect[path][off:], patch)
		return dur, nil
	}
	v := ws.vers[path] + 1
	data := ws.content(path, v)
	start := time.Now()
	err := fs.WriteFile(path, data)
	dur := time.Since(start)
	if err != nil {
		ws.taint[path] = true
		ws.expect[path] = nil
		return dur, err
	}
	ws.vers[path] = v
	if ws.expect[path] == nil && !slices.Contains(ws.order, path) {
		ws.order = append(ws.order, path)
	}
	ws.expect[path] = data
	ws.taint[path] = false
	return dur, nil
}

// readOp reads a previously-written path and verifies its content.
func (ws *workerState) readOp(path string, want []byte) (time.Duration, bool, error) {
	start := time.Now()
	got, err := ws.r.cluster.FS.ReadFile(path)
	dur := time.Since(start)
	if err != nil {
		return dur, false, err
	}
	if want != nil && !bytes.Equal(got, want) {
		return dur, true, nil
	}
	return dur, false, nil
}

// merge folds the worker's expectations into the stream for final verify.
func (ws *workerState) merge() {
	ws.s.mu.Lock()
	for p, b := range ws.expect {
		ws.s.paths[p] = b
	}
	for p, t := range ws.taint {
		if t {
			ws.s.tainted[p] = true
		}
	}
	ws.s.order = append(ws.s.order, ws.order...)
	ws.s.mu.Unlock()
}

// worker is one stream goroutine: claim an op slot, fire any due
// op-count timeline steps, pace, execute, record.
func (r *run) worker(ctx context.Context, s *streamRun, worker int) {
	ws := newWorkerState(r, s, worker)
	defer ws.merge()
	pacer := workflow.Pacer{Profile: s.spec.Profile, Workers: max(1, s.spec.Workers), Start: r.start}
	var readFrom *streamRun
	if s.spec.ReadFrom != "" {
		readFrom = r.findStream(s.spec.ReadFrom)
	}
	for {
		if ctx.Err() != nil {
			return
		}
		i := int(s.issued.Add(1) - 1)
		if s.spec.Ops > 0 && i >= s.spec.Ops {
			return
		}
		// Op-count steps fire before the op that crosses the threshold,
		// preserving the "kill the node, then write file N" ordering of
		// the bespoke soaks.
		r.fireOpSteps(s.spec.Name, i)
		if wait := pacer.Wait(time.Now()); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}

		isRead := false
		var readPath string
		var readWant []byte
		if readFrom != nil {
			readFrom.mu.Lock()
			if n := len(readFrom.order); n > 0 {
				readPath = readFrom.order[ws.rng.Intn(n)]
				if !readFrom.tainted[readPath] {
					readWant = readFrom.paths[readPath]
				}
				isRead = true
			}
			readFrom.mu.Unlock()
		} else if s.spec.ReadFraction > 0 && len(ws.order) > 0 &&
			ws.rng.Float64() < s.spec.ReadFraction {
			readPath = ws.order[ws.rng.Intn(len(ws.order))]
			if !ws.taint[readPath] {
				readWant = ws.expect[readPath]
			}
			isRead = true
		}

		at := r.elapsed()
		switch {
		case isRead:
			dur, mismatch, err := ws.readOp(readPath, readWant)
			s.mu.Lock()
			s.reads = append(s.reads, dur)
			if mismatch {
				s.mismatch++
			}
			s.mu.Unlock()
			s.record(at, err)
		default:
			rmw := s.spec.RMWEvery > 0 && i > 0 && i%s.spec.RMWEvery == 0
			dur, err := ws.writeOp(i, rmw)
			failed := err != nil
			quotaReject := failed && isQuotaErr(err)
			s.mu.Lock()
			s.writes = append(s.writes, dur)
			if quotaReject {
				s.quota++
			}
			s.mu.Unlock()
			// A quota rejection is admission control doing its job, not
			// unavailability.
			avErr := err
			if quotaReject {
				avErr = nil
			}
			s.record(at, avErr)
			if !failed && s.spec.VerifyEachWrite {
				path := ws.path(i)
				vdur, mismatch, verr := ws.readOp(path, ws.expect[path])
				s.mu.Lock()
				s.reads = append(s.reads, vdur)
				if mismatch {
					s.mismatch++
				}
				s.mu.Unlock()
				if verr != nil {
					s.record(r.elapsed(), verr)
				}
			}
		}
		s.done.Add(1)
		r.totalOps.Add(1)
	}
}

func isQuotaErr(err error) bool {
	return errors.Is(err, qos.ErrQuotaExceeded)
}

func (r *run) findStream(name string) *streamRun {
	if r.preload != nil && r.preload.spec.Name == name {
		return r.preload
	}
	for _, s := range r.streams {
		if s.spec.Name == name {
			return s
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
