// Package faultwrap is a chaos proxy for the kvstore wire protocol: a TCP
// forwarder that sits between a MemFSS client and one store server and
// injects the failures a scavenged victim node is contractually allowed to
// produce (paper §III-A): dropped connections (before a reply and in the
// middle of a pipelined burst), truncated request writes, added latency,
// temporary unreachability, and permanent node death.
//
// Faults are drawn from a Plan whose probabilities are sampled by a seeded
// PRNG, so a given (plan, workload) pair replays the same fault mix run
// after run — deterministic enough for CI soak tests, while goroutine
// scheduling still varies the exact interleaving. Tests point a ClassSpec
// node address at Proxy.Addr() instead of the real store; memfss-bench does
// the same under its -scenario flag.
//
// Plans are per direction (DirPlan): the client->server request stream and
// the server->client reply stream carry independent fault schedules, which
// is what lets a scenario express *asymmetric* partitions — requests
// blackholed while replies would flow, or replies cut while the server
// keeps applying writes it can never acknowledge. DropVerbs drops request
// segments carrying specific wire commands, so a scenario can partition
// the failure detector's PING probes away from a node that keeps serving
// data — the split-brain case for revocation fencing. SetPlan swaps the
// whole schedule at runtime (existing connections included), which is how
// the scenario runner ramps a gray failure or heals a partition mid-run.
package faultwrap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DirPlan is one direction's fault schedule. Probabilities are per
// forwarded segment (one Read's worth of bytes, typically one command or
// one pipelined burst), in [0, 1]. The zero DirPlan injects nothing.
type DirPlan struct {
	// Drop is the chance a segment is discarded and both sides of the
	// connection closed — the "peer died" reset-style failure. Clients see
	// it immediately as a broken connection.
	Drop float64
	// Discard is the chance a segment is silently swallowed while the
	// connection stays open — a blackhole. The sender learns nothing; the
	// receiver never sees the bytes. This is the asymmetric-partition
	// primitive: the side waiting on a response blocks until its deadline,
	// which is exactly how a real one-way partition presents.
	Discard float64
	// Cut is the chance a segment is truncated mid-write and the
	// connection closed — the partial frame that leaves a pipelined burst
	// half-answered or a request half-parsed.
	Cut float64
	// DelayProb is the chance a segment is held for Delay (plus a uniform
	// draw from [0, Jitter)) before forwarding — a slow NIC, a contended
	// victim, scavenging traffic behind tenant bursts. Delay without
	// failure is the gray-failure primitive: the node stays Up, just slow.
	DelayProb float64
	Delay     time.Duration
	Jitter    time.Duration
}

func (d DirPlan) active() bool {
	return d.Drop > 0 || d.Discard > 0 || d.Cut > 0 || (d.DelayProb > 0 && (d.Delay > 0 || d.Jitter > 0))
}

// Plan configures which faults a Proxy injects and how often.
type Plan struct {
	// Seed drives the PRNG that samples every probability below. SetPlan
	// keeps the proxy's PRNG stream, so the fault sequence stays a pure
	// function of the original seed and segment arrival order even across
	// plan swaps.
	Seed int64

	// Request is the client->server fault schedule.
	Request DirPlan
	// Reply is the server->client fault schedule.
	Reply DirPlan
	// DropVerbs lists wire commands (e.g. "PING") whose request segments
	// are dropped and the carrying connection reset, regardless of
	// probability. Matching is per segment against the bulk-string framing
	// of the verb, so a single-command write (the probe path) always
	// matches; a verb split across segments may escape — acceptable for a
	// chaos tool. This partitions one *kind* of traffic: probes can fail
	// 100% while data connections keep serving.
	DropVerbs []string
}

// compile pre-builds the verb matchers.
func (p Plan) compile() *compiledPlan {
	c := &compiledPlan{plan: p}
	for _, v := range p.DropVerbs {
		// A verb on the wire is a bulk string: $<len>\r\n<VERB>\r\n.
		c.verbs = append(c.verbs, []byte(fmt.Sprintf("$%d\r\n%s\r\n", len(v), v)))
	}
	return c
}

type compiledPlan struct {
	plan  Plan
	verbs [][]byte
}

// Stats counts the faults a Proxy actually injected.
type Stats struct {
	// Conns is how many client connections the proxy accepted.
	Conns int64
	// PreDrops / MidDrops / Cuts / Delays count injected reply-direction
	// faults by kind (reset drops, mid-segment cuts, added latency).
	PreDrops int64
	MidDrops int64
	Cuts     int64
	Delays   int64
	// Discards counts blackholed segments (either direction): swallowed
	// silently with the connection left open.
	Discards int64
	// VerbDrops counts request segments dropped by a DropVerbs match.
	VerbDrops int64
	// Refused counts connections rejected while paused or killed.
	Refused int64
	// PlanSwaps counts runtime SetPlan calls.
	PlanSwaps int64
}

func (s Stats) String() string {
	return fmt.Sprintf("conns=%d pre-drops=%d mid-drops=%d cuts=%d delays=%d discards=%d verb-drops=%d refused=%d",
		s.Conns, s.PreDrops, s.MidDrops, s.Cuts, s.Delays, s.Discards, s.VerbDrops, s.Refused)
}

// Proxy forwards one listener's connections to a target address, injecting
// faults per its Plan. It is safe for concurrent use.
type Proxy struct {
	target string
	plan   atomic.Pointer[compiledPlan]

	rngMu sync.Mutex
	rng   *rand.Rand

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	paused bool
	killed bool
	closed bool

	conNs     atomic.Int64
	preDrops  atomic.Int64
	midDrops  atomic.Int64
	cuts      atomic.Int64
	delays    atomic.Int64
	discards  atomic.Int64
	verbDrops atomic.Int64
	refused   atomic.Int64
	planSwaps atomic.Int64
	wg        sync.WaitGroup
}

// New starts a proxy on a fresh loopback port forwarding to target.
func New(target string, plan Plan) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultwrap: listen: %w", err)
	}
	p := &Proxy{
		target: target,
		rng:    rand.New(rand.NewSource(plan.Seed)),
		ln:     ln,
		conns:  make(map[net.Conn]struct{}),
	}
	p.plan.Store(plan.compile())
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return p, nil
}

// Addr returns the proxy's listening address; hand it to clients in place
// of the real store address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Target returns the wrapped store's real address.
func (p *Proxy) Target() string { return p.target }

// Plan returns the currently installed plan.
func (p *Proxy) Plan() Plan { return p.plan.Load().plan }

// SetPlan swaps the fault schedule at runtime. In-flight connections pick
// up the new plan on their next forwarded segment — a partition can open
// or heal under live traffic, a latency ramp can tighten mid-burst. The
// PRNG stream is kept, so the overall fault sequence remains a function of
// the original seed and segment order.
func (p *Proxy) SetPlan(plan Plan) {
	p.planSwaps.Add(1)
	p.plan.Store(plan.compile())
}

// Stats snapshots the injected-fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:     p.conNs.Load(),
		PreDrops:  p.preDrops.Load(),
		MidDrops:  p.midDrops.Load(),
		Cuts:      p.cuts.Load(),
		Delays:    p.delays.Load(),
		Discards:  p.discards.Load(),
		VerbDrops: p.verbDrops.Load(),
		Refused:   p.refused.Load(),
		PlanSwaps: p.planSwaps.Load(),
	}
}

// Pause makes the node temporarily unreachable: existing connections are
// dropped and new ones are refused until Resume — the full (symmetric)
// partition primitive.
func (p *Proxy) Pause() {
	p.mu.Lock()
	p.paused = true
	p.dropConnsLocked()
	p.mu.Unlock()
}

// Resume ends a Pause; new connections forward again.
func (p *Proxy) Resume() {
	p.mu.Lock()
	p.paused = false
	p.mu.Unlock()
}

// Paused reports whether the proxy is currently refusing connections due
// to Pause.
func (p *Proxy) Paused() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.paused
}

// Kill makes the node permanently dead: every current and future
// connection is dropped. Unlike Close it keeps the accept loop running so
// dialers see an immediate reset rather than a vanished listener (both
// look the same to clients on loopback, but Kill also keeps Stats serving).
func (p *Proxy) Kill() {
	p.mu.Lock()
	p.killed = true
	p.dropConnsLocked()
	p.mu.Unlock()
}

// Killed reports whether Kill was called.
func (p *Proxy) Killed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// Close shuts the proxy down and waits for its goroutines.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	p.dropConnsLocked()
	p.mu.Unlock()
	ln.Close()
	p.wg.Wait()
	return nil
}

// dropConnsLocked closes every tracked connection; callers hold p.mu.
func (p *Proxy) dropConnsLocked() {
	for c := range p.conns {
		c.Close()
		delete(p.conns, c)
	}
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed || p.killed || p.paused {
			p.mu.Unlock()
			p.refused.Add(1)
			conn.Close()
			continue
		}
		p.mu.Unlock()
		p.conNs.Add(1)
		p.wg.Add(1)
		go p.serve(conn)
	}
}

// roll samples the seeded PRNG; one shared stream keeps the fault sequence
// a pure function of the plan seed and the order segments arrive.
func (p *Proxy) roll() float64 {
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return p.rng.Float64()
}

// jitter draws a uniform duration from [0, max).
func (p *Proxy) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return time.Duration(p.rng.Int63n(int64(max)))
}

// errInjected marks a connection killed on purpose, distinguishing
// injected faults from real forwarding errors inside the copy loops.
var errInjected = errors.New("faultwrap: injected fault")

func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		client.Close()
		return
	}
	p.mu.Lock()
	if p.closed || p.killed || p.paused {
		p.mu.Unlock()
		client.Close()
		server.Close()
		return
	}
	p.conns[client] = struct{}{}
	p.conns[server] = struct{}{}
	p.mu.Unlock()

	done := func() {
		p.mu.Lock()
		delete(p.conns, client)
		delete(p.conns, server)
		p.mu.Unlock()
		client.Close()
		server.Close()
	}
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.copyLoop(server, client, p.injectRequest)
		once.Do(done)
	}()
	go func() {
		defer wg.Done()
		p.copyLoop(client, server, p.injectReply)
		once.Do(done)
	}()
	wg.Wait()
}

// copyLoop forwards segments from src to dst, letting inject mangle (or
// veto) each one. It exits on the first error in either direction.
func (p *Proxy) copyLoop(dst, src net.Conn, inject func(dst net.Conn, seg []byte) error) {
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if ierr := inject(dst, buf[:n]); ierr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// injectDir applies one direction's schedule to a segment. The sampling
// order (delay, drop, discard, cut) is fixed: it decides which faults
// consume PRNG rolls, so changing it would reshuffle every seeded soak.
func (p *Proxy) injectDir(dst net.Conn, seg []byte, d DirPlan, drops, cuts *atomic.Int64) error {
	if d.DelayProb > 0 && (d.Delay > 0 || d.Jitter > 0) && p.roll() < d.DelayProb {
		p.delays.Add(1)
		time.Sleep(d.Delay + p.jitter(d.Jitter))
	}
	if d.Drop > 0 && p.roll() < d.Drop {
		drops.Add(1)
		return errInjected
	}
	if d.Discard > 0 && p.roll() < d.Discard {
		p.discards.Add(1)
		return nil // blackhole: swallow, keep the connection
	}
	if d.Cut > 0 && len(seg) > 1 && p.roll() < d.Cut {
		cuts.Add(1)
		dst.Write(seg[:len(seg)/2]) // best effort: the point is the cut
		return errInjected
	}
	return writeAll(dst, seg)
}

// injectReply applies the server->client fault schedule to one segment.
func (p *Proxy) injectReply(dst net.Conn, seg []byte) error {
	return p.injectDir(dst, seg, p.plan.Load().plan.Reply, &p.preDrops, &p.midDrops)
}

// injectRequest applies the client->server fault schedule to one segment.
func (p *Proxy) injectRequest(dst net.Conn, seg []byte) error {
	pl := p.plan.Load()
	for _, v := range pl.verbs {
		if bytes.Contains(seg, v) {
			p.verbDrops.Add(1)
			return errInjected
		}
	}
	return p.injectDir(dst, seg, pl.plan.Request, &p.preDrops, &p.cuts)
}

func writeAll(dst net.Conn, b []byte) error {
	if _, err := dst.Write(b); err != nil {
		return err
	}
	return nil
}

// WrapAll starts one proxy per target address with per-proxy seeds derived
// from plan.Seed (seed+index), returning the proxies in input order. On
// error every already-started proxy is closed.
func WrapAll(targets []string, plan Plan) ([]*Proxy, error) {
	out := make([]*Proxy, 0, len(targets))
	for i, target := range targets {
		pl := plan
		pl.Seed = plan.Seed + int64(i)
		p, err := New(target, pl)
		if err != nil {
			for _, q := range out {
				q.Close()
			}
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// KillGroup kills a set of proxies at once — the correlated rack-scale
// failure primitive: every node sharing the failure domain dies in the
// same instant, not one by one.
func KillGroup(proxies ...*Proxy) {
	for _, p := range proxies {
		p.Kill()
	}
}

// PauseGroup partitions a set of proxies at once (correlated but
// recoverable — a rack losing its uplink). Undo with ResumeGroup.
func PauseGroup(proxies ...*Proxy) {
	for _, p := range proxies {
		p.Pause()
	}
}

// ResumeGroup heals a PauseGroup partition.
func ResumeGroup(proxies ...*Proxy) {
	for _, p := range proxies {
		p.Resume()
	}
}

// TotalStats sums the stats of several proxies.
func TotalStats(proxies []*Proxy) Stats {
	var t Stats
	for _, p := range proxies {
		s := p.Stats()
		t.Conns += s.Conns
		t.PreDrops += s.PreDrops
		t.MidDrops += s.MidDrops
		t.Cuts += s.Cuts
		t.Delays += s.Delays
		t.Discards += s.Discards
		t.VerbDrops += s.VerbDrops
		t.Refused += s.Refused
		t.PlanSwaps += s.PlanSwaps
	}
	return t
}
