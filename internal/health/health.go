// Package health is the per-node failure detector of MemFSS: a registry
// that fuses passive evidence (the outcome of every store operation the
// data path performs) with active probing (periodic single-attempt PINGs)
// and drives a per-node state machine
//
//	Up -> Suspect -> Down -> Up
//
// with hysteresis thresholds on both edges. Scavenged victim nodes vanish
// without warning by contract (paper §III-A); the detector is what lets
// the data path stop burning its retry budget against a node that is gone
// (writes skip Suspect/Down replicas and degrade to quorum immediately)
// and what triggers targeted re-replication the moment a node returns.
//
// A fourth state, Draining, is not part of the evidence machine: it is an
// administrative overlay the scavenging manager sets while it revokes a
// node, fencing new writes off without declaring the node unhealthy.
//
// The clock is injectable, so the state machine is deterministic under
// test: transitions depend only on the reported evidence sequence, never
// on wall-clock races.
package health

import (
	"sort"
	"sync"
	"time"

	"memfss/internal/obs"
)

// State is a node's health as judged by the detector.
type State uint8

const (
	// Up: the node answers; full member of every placement decision.
	Up State = iota
	// Suspect: recent consecutive failures, not yet enough to condemn it.
	// Writes route around it but the detector keeps probing; a flapping
	// connection must not take a node straight to Down.
	Suspect
	// Down: failures persisted past the hysteresis threshold. The node is
	// treated as gone until UpAfter consecutive successes prove otherwise.
	Down
	// Draining: revocation in progress. Unlike the evidence-driven states
	// this is an administrative overlay set by the scavenging manager: new
	// writes fence the node off (it is leaving anyway) while reads keep
	// probing it until the drain completes. The evidence machine keeps
	// running underneath, so clearing the overlay restores the judged
	// state, not a blind Up.
	Draining
)

func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Draining:
		return "draining"
	default:
		return "unknown"
	}
}

// Event records one state transition.
type Event struct {
	Node     string
	From, To State
	At       time.Time
}

// NodeHealth is a snapshot of one node's detector entry.
type NodeHealth struct {
	State State
	// Since is when the node entered its current state; setting or
	// clearing the Draining overlay counts as entering one.
	Since time.Time
	// ConsecFails / ConsecOKs are the streak counters the hysteresis
	// thresholds compare against.
	ConsecFails int
	ConsecOKs   int
	// LastSeen is the time of the last successful operation or probe
	// (zero if the node has never answered).
	LastSeen time.Time
}

// Age is how long the node has been in its current state as of now —
// the "Down for 40s" half of a health line, which matters operationally
// as much as the state itself (a node Suspect for 50ms is routine; one
// Suspect for a minute means the hysteresis is starved of traffic).
func (h NodeHealth) Age(now time.Time) time.Duration {
	if h.Since.IsZero() {
		return 0
	}
	return now.Sub(h.Since)
}

// SeenAge is how long ago the node last answered anything, and whether
// it ever has. A large seen-age on an Up node means the detector's
// opinion is stale, not that the node is healthy right now.
func (h NodeHealth) SeenAge(now time.Time) (time.Duration, bool) {
	if h.LastSeen.IsZero() {
		return 0, false
	}
	return now.Sub(h.LastSeen), true
}

// Options configures a Detector. Zero fields take defaults.
type Options struct {
	// SuspectAfter is how many consecutive failures move Up -> Suspect
	// (default 1: the first failed operation already makes the node worth
	// routing around).
	SuspectAfter int
	// DownAfter is how many *further* consecutive failures move
	// Suspect -> Down (default 3). Together with SuspectAfter this is the
	// flap suppression: one timeout can never condemn a node.
	DownAfter int
	// UpAfter is how many consecutive successes move Suspect/Down -> Up
	// (default 2) — the recovery hysteresis: one lucky probe against a
	// flapping node must not restore full traffic.
	UpAfter int
	// Now is the clock (default time.Now); tests inject a fake.
	Now func() time.Time
	// Metrics, when set, exports per-node state gauges
	// (memfss_health_node_state: 0=up, 1=suspect, 2=down, 3=draining;
	// removed on Unregister) and a transitions counter
	// (memfss_health_transitions_total{node,to}) on the registry.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 1
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 3
	}
	if o.UpAfter <= 0 {
		o.UpAfter = 2
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

type entry struct {
	state       State
	since       time.Time
	consecFails int
	consecOKs   int
	lastSeen    time.Time
	// draining is the administrative revocation overlay: while set, the
	// node reports Draining regardless of evidence. The evidence machine
	// (state + streaks) keeps running so clearing the overlay restores
	// the judged state.
	draining bool
}

// effective is the state the node reports: the revocation overlay masks
// the evidence-driven state while a drain is in progress.
func (e *entry) effective() State {
	if e.draining {
		return Draining
	}
	return e.state
}

// Detector tracks the health of a set of registered nodes. It is safe for
// concurrent use; evidence reports from the data path, the prober, and
// state queries may interleave freely.
type Detector struct {
	opts Options

	mu    sync.RWMutex
	nodes map[string]*entry
	subs  map[int]chan Event
	subID int
}

// New creates a detector. Nodes start reporting Up once registered.
func New(opts Options) *Detector {
	return &Detector{
		opts:  opts.withDefaults(),
		nodes: make(map[string]*entry),
		subs:  make(map[int]chan Event),
	}
}

// Register adds nodes to the registry in state Up. Re-registering an
// existing node is a no-op (its evidence streak is preserved).
func (d *Detector) Register(nodes ...string) {
	now := d.opts.Now()
	var added []string
	d.mu.Lock()
	for _, n := range nodes {
		if _, ok := d.nodes[n]; !ok {
			d.nodes[n] = &entry{state: Up, since: now}
			added = append(added, n)
		}
	}
	d.mu.Unlock()
	for _, n := range added {
		n := n
		d.opts.Metrics.Gauge("memfss_health_node_state",
			"Failure-detector state per node (0=up, 1=suspect, 2=down, 3=draining).",
			obs.L("node", n),
			func() float64 { return float64(d.State(n)) })
	}
}

// Unregister drops a node (evacuated or removed); later reports about it
// are ignored.
func (d *Detector) Unregister(node string) {
	d.mu.Lock()
	delete(d.nodes, node)
	d.mu.Unlock()
	d.opts.Metrics.Remove("memfss_health_node_state", obs.L("node", node))
}

// Known reports whether node is registered: a node never registered, or
// unregistered since (evacuated), has left the deployment.
func (d *Detector) Known(node string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nodes[node] != nil
}

// Nodes lists the registered node IDs, sorted.
func (d *Detector) Nodes() []string {
	d.mu.RLock()
	out := make([]string, 0, len(d.nodes))
	for n := range d.nodes {
		out = append(out, n)
	}
	d.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ReportSuccess records one successful operation or probe against node.
func (d *Detector) ReportSuccess(node string) { d.report(node, true) }

// ReportFailure records one transport-level failure against node. Only
// transport-class failures belong here: a store-level error (OOM, wrong
// type) is proof the node is alive.
func (d *Detector) ReportFailure(node string) { d.report(node, false) }

func (d *Detector) report(node string, ok bool) {
	now := d.opts.Now()
	var ev *Event
	d.mu.Lock()
	e := d.nodes[node]
	if e == nil {
		d.mu.Unlock()
		return // unregistered: stale report from a removed node
	}
	if ok {
		e.consecFails = 0
		e.consecOKs++
		e.lastSeen = now
		if e.state != Up && e.consecOKs >= d.opts.UpAfter {
			ev = d.transitionLocked(node, e, Up, now)
		}
	} else {
		e.consecOKs = 0
		e.consecFails++
		switch e.state {
		case Up:
			if e.consecFails >= d.opts.SuspectAfter {
				ev = d.transitionLocked(node, e, Suspect, now)
			}
		case Suspect:
			if e.consecFails >= d.opts.DownAfter {
				ev = d.transitionLocked(node, e, Down, now)
			}
		}
	}
	subs := d.subscribersLocked(ev)
	d.mu.Unlock()
	if ev != nil {
		d.opts.Metrics.Counter("memfss_health_transitions_total",
			"Failure-detector state transitions by destination state.",
			obs.L("node", ev.Node, "to", ev.To.String())).Inc()
	}
	deliver(subs, ev)
}

// transitionLocked moves e to state to, resets the streak counters (each
// edge demands a fresh streak), and returns the event to publish.
func (d *Detector) transitionLocked(node string, e *entry, to State, now time.Time) *Event {
	from := e.state
	e.state = to
	e.since = now
	e.consecFails = 0
	e.consecOKs = 0
	return &Event{Node: node, From: from, To: to, At: now}
}

func (d *Detector) subscribersLocked(ev *Event) []chan Event {
	if ev == nil || len(d.subs) == 0 {
		return nil
	}
	out := make([]chan Event, 0, len(d.subs))
	for _, ch := range d.subs {
		out = append(out, ch)
	}
	return out
}

// deliver fans an event out non-blocking: a subscriber that has fallen
// behind loses events rather than stalling the data path, so consumers
// must treat events as wake-up hints, not a complete log.
func deliver(subs []chan Event, ev *Event) {
	if ev == nil {
		return
	}
	for _, ch := range subs {
		select {
		case ch <- *ev:
		default:
		}
	}
}

// State returns node's current state. Unregistered nodes report Up: the
// detector is an optimization, and absence of evidence must never block
// traffic.
func (d *Detector) State(node string) State {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if e := d.nodes[node]; e != nil {
		return e.effective()
	}
	return Up
}

// SetDraining sets or clears the administrative Draining overlay on a
// node. While set, State and Snapshot report Draining; the evidence
// machine keeps judging underneath, so clearing restores the evidence
// state. Unregistered nodes are ignored. Toggling publishes a transition
// event (to Draining, or from Draining back to the evidence state) so
// subscribers such as the flight recorder see the fence come and go.
func (d *Detector) SetDraining(node string, on bool) {
	now := d.opts.Now()
	var ev *Event
	d.mu.Lock()
	e := d.nodes[node]
	if e == nil || e.draining == on {
		d.mu.Unlock()
		return
	}
	e.draining = on
	e.since = now
	if on {
		ev = &Event{Node: node, From: e.state, To: Draining, At: now}
	} else {
		ev = &Event{Node: node, From: Draining, To: e.state, At: now}
	}
	subs := d.subscribersLocked(ev)
	d.mu.Unlock()
	d.opts.Metrics.Counter("memfss_health_transitions_total",
		"Failure-detector state transitions by destination state.",
		obs.L("node", ev.Node, "to", ev.To.String())).Inc()
	deliver(subs, ev)
}

// Snapshot returns every registered node's health.
func (d *Detector) Snapshot() map[string]NodeHealth {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[string]NodeHealth, len(d.nodes))
	for n, e := range d.nodes {
		out[n] = e.health()
	}
	return out
}

// Health returns node's health, and whether the node is registered.
func (d *Detector) Health(node string) (NodeHealth, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if e := d.nodes[node]; e != nil {
		return e.health(), true
	}
	return NodeHealth{}, false
}

func (e *entry) health() NodeHealth {
	return NodeHealth{
		State:       e.effective(),
		Since:       e.since,
		ConsecFails: e.consecFails,
		ConsecOKs:   e.consecOKs,
		LastSeen:    e.lastSeen,
	}
}

// Subscribe returns a channel of state-change events (buffered to buf)
// and a cancel function. Events are delivered best-effort: if the buffer
// is full the event is dropped for that subscriber.
func (d *Detector) Subscribe(buf int) (<-chan Event, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Event, buf)
	d.mu.Lock()
	id := d.subID
	d.subID++
	d.subs[id] = ch
	d.mu.Unlock()
	cancel := func() {
		d.mu.Lock()
		delete(d.subs, id)
		d.mu.Unlock()
	}
	return ch, cancel
}
