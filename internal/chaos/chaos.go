// Package chaos is the declarative scenario runner: it composes a cluster
// topology, a fault timeline, and a workload into one reproducible run
// with asserted SLOs.
//
// The paper's scavenging premise — file data on victim nodes that can
// misbehave at any moment — is only credible if the filesystem's
// correctness and availability hold under *realistic* failure shapes, not
// just clean crashes: asymmetric partitions (the failure detector's
// probes die while data connections serve — the split-brain case for
// revocation fencing), correlated rack-scale outages, gray failures
// (slow, not dead), and tenant flash crowds. Each such shape is a
// Scenario: a Go value naming a Topology (how the cluster is built), a
// Timeline (faults and operations fired at offsets or op counts), a
// Workload (streams of paced, verified file traffic), and an SLO (the
// bounds the run must hold). One engine executes them all, so every
// scenario inherits the same measurement discipline: loss via Fsck,
// availability as a worst-window error rate, latency as stream p99s,
// detection as fault-to-Down time, recovery as heal-to-redundancy time.
//
// Results append to BENCH_scenarios.json — the robustness trajectory the
// ROADMAP's re-anchor calls for — and every injected fault is journaled
// as a "chaos" flight-recorder event next to the health transitions it
// caused, so a post-incident `memfsctl trace events` shows cause and
// effect in one timeline.
package chaos

import (
	"context"
	"time"

	"memfss/internal/core"
	"memfss/internal/faultwrap"
	"memfss/internal/qos"
	"memfss/internal/workflow"
)

// Scenario is one named chaos experiment. The zero value is not runnable;
// Topology and Workload must be set.
type Scenario struct {
	Name string
	// Describe is the one-line intent, recorded with results.
	Describe string
	Topology Topology
	// Timeline is the fault schedule, fired while the workload runs.
	// Steps fire in order; a step fires when its At offset (or AfterOps
	// count) is reached.
	Timeline []Step
	Workload Workload
	SLO      SLO
	// Check, when set, runs after recovery with the cluster still up —
	// the scenario-specific assertions (fencing counters moved, EC
	// reconstructions happened, quota rejections observed). Returned
	// strings are recorded as SLO violations.
	Check func(c *Cluster, r *Result) []string
}

// Topology declares the cluster a scenario runs against: own + victim
// store counts, placement fraction, redundancy, and the chaos-proxy plan
// every victim sits behind. Zero fields take the same defaults the core
// test deployments use.
type Topology struct {
	OwnNodes    int
	VictimNodes int
	// OwnFraction is the HRW own-data fraction alpha (default 0.25).
	OwnFraction float64
	// VictimMem is the per-victim container memory limit (default 1 GiB).
	VictimMem int64
	// Plan is the initial faultwrap plan installed on every victim proxy
	// (per-proxy seeds derive from Plan.Seed + index).
	Plan       faultwrap.Plan
	Redundancy core.Redundancy
	StripeSize int64
	// PipelineDepth 0 takes the core default; scenarios that want the
	// pipelined wire path set 8 like the soaks.
	PipelineDepth int
	Retry         core.RetryPolicy
	Health        core.HealthPolicy
	Repair        core.RepairPolicy
	// Tenants, when non-empty, builds a QoS registry, saves each spec,
	// applies victim caps, and starts a lease broker.
	Tenants []qos.TenantSpec
	// QoSBandwidth caps registry bandwidth (0 = uncapped).
	QoSBandwidth int64
	// LeaseNoticeSLO is the broker advertise notice (default 200ms) used
	// when Tenants is set.
	LeaseNoticeSLO time.Duration
	// Mutate, when set, gets the final Config before core.New — the
	// escape hatch for fields Topology does not surface.
	Mutate func(*core.Config)
}

// Workload is the traffic a scenario sustains while faults fire.
type Workload struct {
	// Preload runs to completion before the timeline clock starts:
	// the working set scenarios read back or repair later. Its ops and
	// latencies are not counted against stream SLOs.
	Preload *Stream
	// Streams run concurrently until each exhausts Ops (or Duration
	// elapses, whichever first).
	Streams []Stream
	// Duration caps the run wall-clock; 0 means "until every stream's
	// Ops budget is spent".
	Duration time.Duration
}

// Stream is one homogeneous traffic source: N workers issuing paced,
// seeded, verifiable file operations.
type Stream struct {
	Name string
	// Tenant prefixes paths with /tenants/<Tenant>/ so QoS quota and
	// priority apply.
	Tenant  string
	Workers int
	// Ops is the total operation budget across workers (0 = run until
	// Workload.Duration).
	Ops int
	// FileSize is the write payload size (default 20 KiB).
	FileSize int
	// Files is the per-worker working-set size; ops cycle over it
	// (default 8). New content is written each revisit, so the stream
	// exercises overwrite/supersede paths.
	Files int
	// ReadFraction is the fraction of ops that read instead of write
	// (reads verify against the last acknowledged content). Ignored when
	// ReadFrom is set.
	ReadFraction float64
	// ReadFrom names another stream (usually the Preload) whose files
	// this stream reads and verifies instead of writing its own.
	ReadFrom string
	// VerifyEachWrite re-reads and byte-compares after every write —
	// the dd write/read/verify discipline of the original soaks.
	VerifyEachWrite bool
	// RMWEvery makes every Nth write a partial overwrite (WriteAt into
	// the existing file) instead of a full rewrite, exercising the
	// read-modify-write stripe path. 0 disables.
	RMWEvery int
	// Profile paces the stream (nil or zero Steady = unpaced).
	Profile workflow.LoadProfile
	// Seed offsets this stream's content seeds so streams never collide.
	Seed int64
}

// Step is one timeline entry: when to fire, and what to do.
type Step struct {
	Name string
	// At fires the step once the workload has run this long. Ignored
	// when AfterOps is set.
	At time.Duration
	// AfterOps fires the step synchronously once the named stream (or
	// any stream, when Stream is empty) has completed this many ops —
	// the "kill the node at file 12" idiom with an exact happens-before:
	// the op that crosses the threshold fires the step before the next
	// op starts.
	AfterOps int
	Stream   string
	// Async runs the action in its own goroutine (for long actions like
	// Evacuate that must overlap the workload). The runner joins every
	// async step before teardown; errors become violations.
	Async  bool
	Action Action
}

// ActionKind enumerates what a Step does.
type ActionKind int

const (
	// ActKill permanently kills the victim proxies in Nodes.
	ActKill ActionKind = iota
	// ActPause makes the victim proxies in Nodes refuse connections
	// until ActResume — the symmetric partition.
	ActPause
	// ActResume heals an ActPause.
	ActResume
	// ActSetPlan swaps the faultwrap plan on the victim proxies in Nodes
	// (asymmetric partitions, gray-failure ramps, heals).
	ActSetPlan
	// ActEvacuate runs the full revocation protocol against victim
	// Nodes[0], retrying failed passes up to Retries times.
	ActEvacuate
	// ActWaitState polls until victim Nodes[0]'s detector state equals
	// State (or Timeout expires — a violation).
	ActWaitState
	// ActWaitRepairIdle blocks until the repair queue idles (or Timeout
	// expires — a violation).
	ActWaitRepairIdle
	// ActFunc runs Func — the escape hatch for scenario-specific moves.
	ActFunc
)

// Action is the payload of a Step. Build with the constructors below so
// fault-marking and defaults stay consistent.
type Action struct {
	Kind  ActionKind
	Nodes []int // victim proxy indices
	Plan  *faultwrap.Plan
	// State names the awaited health state for ActWaitState ("Down",
	// "Up", "Suspect", "Draining").
	State   string
	Timeout time.Duration
	Retries int
	Func    func(ctx context.Context, c *Cluster) error
	// Fault marks this action as the start of an outage for detection
	// accounting (Kill/Pause set it; SetPlanFault sets it for plans that
	// should be *noticed*, like a probe partition).
	Fault bool
	// Heal marks this action as the end of an outage for recovery
	// accounting (Resume and clean SetPlan swaps set it).
	Heal bool
}

// Kill returns an action that permanently kills the given victim proxies.
func Kill(nodes ...int) Action {
	return Action{Kind: ActKill, Nodes: nodes, Fault: true}
}

// Pause returns an action that partitions the given victim proxies
// (connections refused) until a Resume.
func Pause(nodes ...int) Action {
	return Action{Kind: ActPause, Nodes: nodes, Fault: true}
}

// Resume heals a Pause.
func Resume(nodes ...int) Action {
	return Action{Kind: ActResume, Nodes: nodes, Heal: true}
}

// SetPlan swaps the fault plan on the given victim proxies. A zero plan
// heals; the action is marked Heal so recovery clocks from it.
func SetPlan(plan faultwrap.Plan, nodes ...int) Action {
	p := plan
	return Action{Kind: ActSetPlan, Nodes: nodes, Plan: &p, Heal: planIsClean(p)}
}

// SetPlanFault is SetPlan marked as an outage start: the detector is
// expected to notice (probe partitions, total blackholes).
func SetPlanFault(plan faultwrap.Plan, nodes ...int) Action {
	p := plan
	return Action{Kind: ActSetPlan, Nodes: nodes, Plan: &p, Fault: true}
}

func planIsClean(p faultwrap.Plan) bool {
	return len(p.DropVerbs) == 0 &&
		p.Request == (faultwrap.DirPlan{}) && p.Reply == (faultwrap.DirPlan{})
}

// Evacuate runs the revocation protocol against victim node, retrying a
// failed drain up to retries times (chaos can abort a pass; the protocol
// is idempotent).
func Evacuate(node, retries int) Action {
	return Action{Kind: ActEvacuate, Nodes: []int{node}, Retries: retries}
}

// WaitState waits until victim node's detector state equals state.
func WaitState(node int, state string, timeout time.Duration) Action {
	return Action{Kind: ActWaitState, Nodes: []int{node}, State: state, Timeout: timeout}
}

// WaitRepairIdle waits for the targeted repair queue to drain.
func WaitRepairIdle(timeout time.Duration) Action {
	return Action{Kind: ActWaitRepairIdle, Timeout: timeout}
}

// Do wraps an arbitrary function as an action.
func Do(f func(ctx context.Context, c *Cluster) error) Action {
	return Action{Kind: ActFunc, Func: f}
}

// SLO is the bounds a scenario run must hold. Zero fields are not
// asserted.
type SLO struct {
	// ZeroLoss demands a clean final Fsck (no damaged files) and zero
	// verify mismatches on acknowledged writes.
	ZeroLoss bool
	// MaxDetection bounds fault-to-Down time for every Fault-marked
	// node.
	MaxDetection time.Duration
	// MaxRecovery bounds heal-to-redundancy time: from the last
	// Heal-marked action (or last fault if none) until the repair queue
	// idles.
	MaxRecovery time.Duration
	// CleanScrub demands the post-recovery Scrub restore nothing and
	// find nothing unrepairable (the targeted queue already did it all).
	CleanScrub bool
	// RequireDeferred demands the post-recovery Scrub defer at least one
	// unit — proof a permanent kill actually bit.
	RequireDeferred bool
	// NoDeferred demands zero deferred units — full redundancy restored
	// (heal-and-rejoin scenarios).
	NoDeferred bool
	// TargetedRepairOnly demands the repair queue never fell back to a
	// full-namespace scan.
	TargetedRepairOnly bool
	// Streams are per-stream availability and latency bounds.
	Streams []StreamSLO
}

// StreamSLO bounds one stream's availability and latency. Stream empty
// applies to every stream.
type StreamSLO struct {
	Stream string
	// MaxErrorRate caps the worst error rate over any Window with at
	// least MinWindowOps ops (Window 0 = whole run as one window).
	// Quota rejections are counted separately and never against this.
	MaxErrorRate float64
	Window       time.Duration
	MinWindowOps int
	// MaxWriteP99 / MaxReadP99 bound stream latency tails.
	MaxWriteP99 time.Duration
	MaxReadP99  time.Duration
	// MinOps is the liveness floor: the stream must have completed at
	// least this many ops (a stalled cluster must not pass by idling).
	MinOps int64
}
