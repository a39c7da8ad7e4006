// Package core implements MemFSS itself: an in-memory distributed file
// system whose storage space is extended by scavenging memory from victim
// nodes reserved by other tenants (paper §III).
//
// The package glues the substrates together: files are striped
// (internal/stripe), stripes are placed by the two-layer weighted HRW
// protocol (internal/hrw), data and metadata live in per-node in-memory
// stores (internal/kvstore), victim-side stores are capped and throttled
// (internal/container), and redundancy is provided by HRW-rank replication
// or Reed–Solomon coding (internal/erasure).
//
// Only own nodes mount the file system (run FileSystem clients); victim
// nodes only run capped stores (paper §III-C).
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"memfss/internal/container"
	"memfss/internal/hrw"
	"memfss/internal/obs"
	"memfss/internal/stripe"
)

// NodeSpec identifies one store process: a stable node ID (used in HRW
// hashing, so placement survives address changes) and its TCP address.
type NodeSpec struct {
	ID   string
	Addr string
}

// ClassSpec describes one placement class: the own class or a victim class.
type ClassSpec struct {
	// Name is the class identity fed to the class-level hash.
	Name string
	// Weight is the HRW class weight; larger attracts fewer keys. Use
	// hrw.DeltaForOwnFraction (or OwnVictimClasses) to derive the weight
	// from a desired own/victim data split.
	Weight float64
	// Nodes are the class members.
	Nodes []NodeSpec
	// Victim marks a scavenged class: its traffic passes through the
	// per-node throttle in Limits and its stores may be evacuated.
	Victim bool
	// Limits is the container budget applied to each node of a victim
	// class (ignored for the own class).
	Limits container.Limits
}

// ParseNodes turns a comma-separated address list into node specs with
// the positional IDs every binary agrees on ("own" -> own-0, own-1, ...).
func ParseNodes(idPrefix, addrs string) []NodeSpec {
	if addrs == "" {
		return nil
	}
	var out []NodeSpec
	for i, addr := range strings.Split(addrs, ",") {
		out = append(out, NodeSpec{ID: fmt.Sprintf("%s-%d", idPrefix, i), Addr: strings.TrimSpace(addr)})
	}
	return out
}

// OwnVictimClasses assembles the standard deployment: the own class and,
// when there are victim nodes, one scavenged class under limits, weighted
// so that about ownFraction of the stripes stay on own nodes. A larger HRW
// weight attracts fewer keys, so the split's delta loads the own class
// when positive (ownFraction <= 1/2) and the victim class when negative.
func OwnVictimClasses(own, victims []NodeSpec, ownFraction float64, limits container.Limits) ([]ClassSpec, error) {
	classes := []ClassSpec{{Name: "own", Nodes: own}}
	if len(victims) == 0 {
		return classes, nil
	}
	d, err := hrw.DeltaForOwnFraction(ownFraction)
	if err != nil {
		return nil, err
	}
	vc := ClassSpec{Name: "victim", Nodes: victims, Victim: true, Limits: limits}
	if d >= 0 {
		classes[0].Weight = d
	} else {
		vc.Weight = -d
	}
	return append(classes, vc), nil
}

// RedundancyMode selects how stripes survive node loss.
type RedundancyMode int

const (
	// RedundancyNone stores one copy of each stripe.
	RedundancyNone RedundancyMode = iota
	// RedundancyReplicate stores Replicas copies on the stripe's top HRW
	// ranks within its class (paper §III-E).
	RedundancyReplicate
	// RedundancyErasure splits each stripe into DataShards+ParityShards
	// Reed–Solomon shards across the class (the paper's in-progress
	// erasure extension).
	RedundancyErasure
)

// Redundancy configures the redundancy mode.
type Redundancy struct {
	Mode RedundancyMode
	// Replicas is the copy count for RedundancyReplicate (>= 2). A
	// replicated write has a fixed quorum of one copy: when some replicas
	// fail with *transport* errors but one persisted, the write reports
	// degraded success (Counters.DegradedWrites increments) — scavenged
	// victims vanish without warning, and one reachable copy keeps the
	// data readable. Store-level errors (OOM, wrong type) always fail it.
	Replicas int
	// DataShards/ParityShards configure RedundancyErasure. Erasure writes
	// have a fixed write quorum of DataShards (k): a write with fewer than
	// k new shards landed would be unreadable, so k shards must persist;
	// transport failures on up to ParityShards (m) targets degrade the
	// write (the repair queue rebuilds the missing shards) instead of
	// failing it.
	DataShards   int
	ParityShards int
	// ReadSpare is how many spare shards an erasure read may fetch as a
	// hedge against slow nodes (default 1; only ParityShards spares exist).
	// A read starts with exactly DataShards fetches per stripe — the data
	// shards, which land in the caller's buffer without decoding, carried
	// by one burst per node beside the read's other stripes — and hedges
	// only once the spares could stand in for every burst or fetch still
	// out and those have taken as long again as the ones already in
	// (within 500µs to 5ms; the delay is derived per read, not
	// configured). A straggling burst is then aborted and its stripes are
	// gathered with their spares at once; a gather's straggling fetch
	// gets the spares. Reconstruction starts as soon as any k shards of
	// one write are in, so a slow-not-dead node costs the hedge delay,
	// not its own latency. Shards a read *needs* — a slot answered miss,
	// error or a stale write — are fetched at once and do not count
	// against the spares. Negative means no spares: a read never hedges
	// on slowness. A replicated span the read burst did not serve is
	// gathered the same way, as k = 1 over its R copies; the replicated
	// burst itself does not hedge.
	ReadSpare int
}

// Config assembles a MemFSS deployment.
type Config struct {
	// Classes lists the placement classes. Exactly one class must be the
	// own (non-victim) class, and it must come first; additional victim
	// classes may follow (and may be added later via AddVictimClass).
	Classes []ClassSpec
	// StripeSize is the striping granularity (default stripe.DefaultSize).
	StripeSize int64
	// Password authenticates to every store (paper §III-F). All stores in
	// a deployment share one password.
	Password string
	// Redundancy selects the redundancy mode (default RedundancyNone).
	Redundancy Redundancy
	// DialTimeout bounds store round trips (default 10s).
	DialTimeout time.Duration
	// IOParallelism bounds concurrent stripe transfers within one file
	// operation (default 8; 1 = strictly sequential). Parallel stripe
	// I/O is how MemFS-family systems saturate premium networks (paper
	// §II-C).
	IOParallelism int
	// PipelineDepth bounds how many commands the data paths queue in one
	// wire pipeline burst to a store (default 32). It is only a burst
	// size: depth 1 ships bursts of one command through the same engine.
	PipelineDepth int
	// Retry is the uniform data-path retry policy applied to every store
	// operation. Zero fields take defaults.
	Retry RetryPolicy
	// Health configures the per-node failure detector (internal/health),
	// which every deployment runs. Zero fields take defaults.
	Health HealthPolicy
	// Repair configures the targeted background repair queue. Zero fields
	// take defaults; set Disable to fall back to operator-driven Scrub.
	Repair RepairPolicy
	// Evac paces every background reclamation of a victim node after a
	// failed run. Zero fields take defaults.
	Evac EvacPolicy
	// Obs configures the telemetry layer (internal/obs): latency
	// histograms, the Prometheus-exposable registry, and slow-op tracing.
	// Zero value = a private registry and defaults.
	Obs ObsPolicy
	// QoS wires multi-tenant attribution, quotas, weighted-fair bandwidth
	// shares, and priority-ordered reclamation into the data path (see
	// internal/qos). Zero value = QoS off, no per-operation cost.
	QoS QoSPolicy
}

// ObsPolicy configures telemetry. Every FileSystem has a registry, the
// histograms on it, a tracer and a flight recorder: the hot-path cost is a
// handful of atomic adds per stripe plus span appends on operations that
// already paid for I/O. Retention takes internal/obs/trace's defaults: 256
// traces in each ring (one for interesting traces — errored/degraded/slow
// — and one for sampled healthy traces) and 1024 cluster events (health
// transitions, evacuations, leases, repairs, quota rejections) in the
// flight recorder.
type ObsPolicy struct {
	// Registry, if set, receives every metric family instead of a private
	// registry — this is how memfsd folds store and file-system telemetry
	// into one /metrics page.
	Registry *obs.Registry
	// SlowOpThreshold is the elapsed time past which a WriteAt/ReadAt
	// emits a structured slow-op log line carrying the operation's trace
	// ID and per-phase (stripe, node, class, attempts, duration) timings.
	// 0 means the 1s default; negative disables slow-op tracing.
	SlowOpThreshold time.Duration
	// Logf receives slow-op lines (default log.Printf).
	Logf func(format string, args ...any)
	// TraceSampleEvery keeps one in every N healthy fast traces (0 means
	// the 1-in-16 default; negative retains only interesting traces).
	TraceSampleEvery int
}

// RetryPolicy bounds how the data path handles transport failures against
// a store: bounded attempts with exponential backoff + jitter, all inside
// a per-operation deadline. One policy covers single commands and pipeline
// bursts alike, replacing ad-hoc per-call retries — victim nodes are
// unreliable by contract (paper §III-A), so every store operation must
// tolerate a flapping or vanishing node without retrying forever.
type RetryPolicy struct {
	// MaxAttempts bounds connections burned per operation (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// attempt with jitter, capped at MaxDelay (defaults 5ms / 250ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// OpTimeout is the whole-operation deadline including retries and
	// backoff sleeps (default: DialTimeout).
	OpTimeout time.Duration
}

// validate rejects negative retry knobs.
func (r RetryPolicy) validate() error {
	if r.MaxAttempts < 0 {
		return fmt.Errorf("core: negative retry attempts %d", r.MaxAttempts)
	}
	if r.BaseDelay < 0 || r.MaxDelay < 0 || r.OpTimeout < 0 {
		return fmt.Errorf("core: negative retry delay in %+v", r)
	}
	return nil
}

// HealthPolicy configures the failure detector that watches every
// registered store node. The detector fuses passive evidence (the outcome
// of every data-path operation) with active probing (periodic
// single-attempt PINGs) and drives the Up -> Suspect -> Down state machine
// with hysteresis; writes skip Suspect/Down replicas instead of burning
// the retry budget against a node that is gone (paper §III-A: victims
// vanish without warning). The detector also holds the revocation fence
// (the Draining overlay), so it is part of the protocol, not an option. A
// policy that never condemns a node — SuspectAfter: math.MaxInt32 with
// ProbeInterval: -1 — keeps every node Up through the same code.
type HealthPolicy struct {
	// SuspectAfter consecutive failures move Up -> Suspect (default 1).
	SuspectAfter int
	// DownAfter further consecutive failures move Suspect -> Down
	// (default 3) — flap suppression: one timeout never condemns a node.
	DownAfter int
	// ProbeInterval is the active-probe cadence (default 500ms; negative
	// disables active probing, leaving passive evidence only).
	ProbeInterval time.Duration
}

func (h HealthPolicy) validate() error {
	if h.SuspectAfter < 0 || h.DownAfter < 0 {
		return fmt.Errorf("core: negative health threshold in %+v", h)
	}
	return nil
}

// RepairPolicy configures the targeted repair queue: degraded writes and
// reads enqueue path#stripe units, and a background repairer restores
// their redundancy at once — re-replicating only what is known damaged
// (cf. Hydra's targeted re-replication), up to repairWorkers stripes at a
// time, started repairPace apart. A unit whose fix is blocked leaves its
// stripe owed to a census pass, run when one can make progress.
type RepairPolicy struct {
	// Disable turns the queue off: degraded stripes wait for Scrub.
	Disable bool
	// QueueCap bounds the stripes queued, in flight or owed (default
	// 1024). An overflow holds every stripe until a census pass begun
	// after it defers nothing — correctness never depends on capacity.
	QueueCap int
}

func (r RepairPolicy) validate() error {
	if r.QueueCap < 0 {
		return fmt.Errorf("core: negative repair knob in %+v", r)
	}
	return nil
}

// EvacPolicy paces background reclamation (paper §III-A: the tenant is
// waiting for its memory back, so revocation cannot run open-ended; each
// evacuation's own deadline is EvacOptions.Deadline). A partial drain
// without an explicit target evicts down to drainSoftTarget of the store's
// memory cap.
type EvacPolicy struct {
	// Backoff / MaxBackoff pace a victim node's background runs (the
	// Monitor's, a store-full write's) after one fails or stalls, doubling
	// per consecutive failure (defaults 2s / 30s).
	Backoff    time.Duration
	MaxBackoff time.Duration
}

func (e EvacPolicy) validate() error {
	if e.Backoff < 0 || e.MaxBackoff < 0 {
		return fmt.Errorf("core: negative evacuation knob in %+v", e)
	}
	return nil
}

// defaultPipelineDepth is the burst size used when PipelineDepth is 0.
// 32 commands of a 64 KiB stripe each keep a burst around 2 MiB — big
// enough to amortize the round trip, small enough to stay inside the
// store's per-connection buffers.
const defaultPipelineDepth = 32

// validate checks the configuration and returns the own class.
func (c *Config) validate() error {
	if len(c.Classes) == 0 {
		return errors.New("core: config needs at least the own class")
	}
	if c.Classes[0].Victim {
		return errors.New("core: first class must be the own class")
	}
	for i, cls := range c.Classes {
		if i > 0 && !cls.Victim {
			return fmt.Errorf("core: class %q: only the first class may be the own class", cls.Name)
		}
		if len(cls.Nodes) == 0 {
			return fmt.Errorf("core: class %q has no nodes", cls.Name)
		}
		if cls.Victim {
			if err := cls.Limits.Validate(); err != nil {
				return err
			}
		}
	}
	if c.StripeSize < 0 {
		return fmt.Errorf("core: negative stripe size %d", c.StripeSize)
	}
	if c.IOParallelism < 0 {
		return fmt.Errorf("core: negative I/O parallelism %d", c.IOParallelism)
	}
	if c.PipelineDepth < 0 {
		return fmt.Errorf("core: negative pipeline depth %d", c.PipelineDepth)
	}
	if err := c.Retry.validate(); err != nil {
		return err
	}
	if err := c.Health.validate(); err != nil {
		return err
	}
	if err := c.Repair.validate(); err != nil {
		return err
	}
	if err := c.Evac.validate(); err != nil {
		return err
	}
	switch c.Redundancy.Mode {
	case RedundancyNone:
	case RedundancyReplicate:
		if c.Redundancy.Replicas < 2 {
			return fmt.Errorf("core: replication needs >= 2 replicas, got %d", c.Redundancy.Replicas)
		}
		for _, cls := range c.Classes {
			if len(cls.Nodes) < c.Redundancy.Replicas {
				return fmt.Errorf("core: class %q has %d nodes < %d replicas",
					cls.Name, len(cls.Nodes), c.Redundancy.Replicas)
			}
		}
	case RedundancyErasure:
		k, m := c.Redundancy.DataShards, c.Redundancy.ParityShards
		if k < 1 || m < 1 {
			return fmt.Errorf("core: erasure needs k>=1 and m>=1, got k=%d m=%d", k, m)
		}
		for _, cls := range c.Classes {
			if len(cls.Nodes) < k+m {
				return fmt.Errorf("core: class %q has %d nodes < k+m=%d",
					cls.Name, len(cls.Nodes), k+m)
			}
		}
	default:
		return fmt.Errorf("core: unknown redundancy mode %d", c.Redundancy.Mode)
	}
	return nil
}

// placerClasses converts the class specs into hrw classes.
func placerClasses(specs []ClassSpec) []hrw.Class {
	out := make([]hrw.Class, len(specs))
	for i, cs := range specs {
		ids := make([]string, len(cs.Nodes))
		for j, n := range cs.Nodes {
			ids[j] = n.ID
		}
		out[i] = hrw.Class{Name: cs.Name, Weight: cs.Weight, Nodes: ids}
	}
	return out
}

// layoutFor resolves the configured stripe size.
func (c *Config) layoutFor() (stripe.Layout, error) {
	size := c.StripeSize
	if size == 0 {
		size = stripe.DefaultSize
	}
	return stripe.NewLayout(size)
}
