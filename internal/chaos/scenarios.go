package chaos

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"memfss/internal/core"
	"memfss/internal/erasure"
	"memfss/internal/faultwrap"
	"memfss/internal/health"
	"memfss/internal/obs"
	"memfss/internal/qos"
	"memfss/internal/workflow"
)

// chaosRetry is the soak retry posture: room to ride out injected faults
// without letting a dead node stall an op for long.
var chaosRetry = core.RetryPolicy{
	MaxAttempts: 8,
	BaseDelay:   time.Millisecond,
	MaxDelay:    8 * time.Millisecond,
	OpTimeout:   10 * time.Second,
}

// fastProbes is the detector posture scenarios with detection SLOs use:
// default hysteresis (1 failure to Suspect, 3 more to Down, 2 successes
// back to Up) over a tight probe cadence.
func fastProbes(interval time.Duration) core.HealthPolicy {
	return core.HealthPolicy{ProbeInterval: interval}
}

// Scenarios returns the named scenario library, the matrix CI runs.
func Scenarios() []Scenario {
	return []Scenario{
		SplitBrainFence(),
		AsymPartitionDuringEvac(),
		GrayNodeECRead(),
		RackFailureRS42(),
		FlashCrowdQuota(),
		PartitionHealRejoin(),
		RevocationStorm("revocation-storm",
			core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2}),
		RevocationStorm("revocation-storm-rs42",
			core.Redundancy{Mode: core.RedundancyErasure, DataShards: 4, ParityShards: 2}),
	}
}

// Names lists the scenario names, sorted.
func Names() []string {
	var out []string
	for _, sc := range Scenarios() {
		out = append(out, sc.Name)
	}
	sort.Strings(out)
	return out
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// SplitBrainFence is the split-brain fencing proof: victim-0's failure
// detector probes are partitioned away (every PING dropped) while its
// data connections keep serving, so the detector condemns a node that is
// still alive — the classic asymmetric-partition split brain. A
// concurrent evacuation must fence and drain the node without losing a
// single acknowledged byte, and the fence must be visible in the
// FencedWrites accounting.
func SplitBrainFence() Scenario {
	return Scenario{
		Name:     "split-brain-fence",
		Describe: "probes partitioned, data serving: detector says Down, evacuation fences and drains with zero loss",
		Topology: Topology{
			OwnNodes: 2, VictimNodes: 3,
			Redundancy:    core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
			PipelineDepth: 8,
			Retry:         chaosRetry,
			Health:        fastProbes(5 * time.Millisecond),
			Repair:        core.RepairPolicy{QueueCap: 4096},
		},
		Workload: Workload{
			// A fat preload stretches the drain (≈ 570 keys, ≈ 30 ms) so the
			// fence window overlaps live writes.
			Preload: &Stream{Name: "base", Workers: 1, Files: 48, Ops: 48, FileSize: 96 << 10, Seed: 11},
			Streams: []Stream{{
				// Sparse while the detector latches Down (passive data
				// successes reset the probe-failure streak), then a burst
				// timed over the evacuation so writes hit the fence.
				Name: "writers", Workers: 1, Ops: 300, Files: 8, FileSize: 12 << 10,
				Profile: workflow.FlashCrowd{
					Base: 30, Burst: 300,
					At: 600 * time.Millisecond, Rise: 100 * time.Millisecond, Hold: 1500 * time.Millisecond,
				},
				VerifyEachWrite: true, Seed: 12,
			}},
		},
		Timeline: []Step{
			{Name: "probe-partition", At: 200 * time.Millisecond,
				Action: SetPlanFault(faultwrap.Plan{DropVerbs: []string{"PING"}}, 0)},
			{Name: "witness-down", At: 210 * time.Millisecond,
				Action: WaitState(0, "down", 3*time.Second)},
			// The controller is sequential, so this waits for the Down
			// witness and then holds the drain until the burst is at rate.
			{Name: "evacuate", At: 700 * time.Millisecond,
				Action: Evacuate(0, 8)},
		},
		SLO: SLO{
			ZeroLoss:     true,
			MaxDetection: 3 * time.Second,
			MaxRecovery:  15 * time.Second,
			CleanScrub:   true,
			Streams: []StreamSLO{{
				Stream: "writers", MaxErrorRate: 0, MinOps: 150,
			}},
		},
		Check: func(c *Cluster, r *Result) []string {
			var v []string
			if r.Counters.FencedWrites == 0 {
				v = append(v, "fencing never bit: FencedWrites == 0 during the drain")
			}
			if r.Faults.VerbDrops == 0 {
				v = append(v, "probe partition injected nothing: VerbDrops == 0")
			}
			if len(r.Evacs) == 0 {
				v = append(v, "evacuation never completed")
			} else if st := c.Victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
				v = append(v, fmt.Sprintf("evacuated store still holds %d bytes", st.BytesUsed))
			}
			return v
		},
	}
}

// AsymPartitionDuringEvac drains victim-0 while victim-1 — a rehome
// destination — sits behind a one-way partial partition: a quarter of
// the requests it is sent vanish (reset) and a fifth of its replies are
// cut mid-frame. The drain's per-pass retries must ride it out and the
// heal must leave full redundancy with zero loss.
func AsymPartitionDuringEvac() Scenario {
	asym := faultwrap.Plan{
		Request: faultwrap.DirPlan{Drop: 0.25},
		Reply:   faultwrap.DirPlan{Cut: 0.2},
	}
	return Scenario{
		Name:     "asym-partition-during-evac",
		Describe: "evacuation races a one-way partial partition on a rehome destination",
		Topology: Topology{
			OwnNodes: 2, VictimNodes: 3,
			Plan:          faultwrap.Plan{Seed: 23},
			Redundancy:    core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
			PipelineDepth: 8,
			Retry:         chaosRetry,
			Health:        fastProbes(50 * time.Millisecond),
			Repair:        core.RepairPolicy{QueueCap: 4096},
		},
		Workload: Workload{
			Preload: &Stream{Name: "base", Workers: 1, Files: 10, Ops: 10, FileSize: 30 << 10, Seed: 21},
			Streams: []Stream{{
				Name: "writers", Workers: 2, Ops: 60, Files: 6, FileSize: 16 << 10,
				Profile: workflow.Steady{OpsPerSec: 100}, VerifyEachWrite: true, Seed: 22,
			}},
		},
		Timeline: []Step{
			{Name: "asym-partition", At: 50 * time.Millisecond, Action: SetPlan(asym, 1)},
			{Name: "evacuate", At: 100 * time.Millisecond, Action: Evacuate(0, 8)},
			{Name: "heal", At: 150 * time.Millisecond, Action: SetPlan(faultwrap.Plan{}, 1)},
		},
		SLO: SLO{
			ZeroLoss:    true,
			MaxRecovery: 20 * time.Second,
			CleanScrub:  true,
			NoDeferred:  true,
			Streams: []StreamSLO{{
				Stream: "writers", MaxErrorRate: 0, MinOps: 30,
			}},
		},
		Check: func(c *Cluster, r *Result) []string {
			var v []string
			if len(r.Evacs) == 0 {
				v = append(v, "evacuation never completed under the asymmetric partition")
			} else if st := c.Victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
				v = append(v, fmt.Sprintf("evacuated store still holds %d bytes", st.BytesUsed))
			}
			if r.Faults.PreDrops+r.Faults.MidDrops == 0 {
				v = append(v, "asymmetric plan injected nothing")
			}
			return v
		},
	}
}

// GrayNodeECRead is the gray-failure scenario: one shard holder of an
// RS(4,2) deployment turns slow — every reply delayed ~40ms — while
// staying Up (nothing fails, so the detector has nothing to condemn).
// The hedged gather (k data-first fetches; a ReadSpare parity fetch once
// a straggler has outlasted a delay derived from the shards that did
// arrive; reconstruct when k are in hand) must keep read p99 well under
// the injected delay: the slow node costs the hedge delay, at most
// 10 ms, as long as a spare answers.
func GrayNodeECRead() Scenario {
	gray := faultwrap.Plan{
		Reply: faultwrap.DirPlan{DelayProb: 1, Delay: 40 * time.Millisecond, Jitter: 10 * time.Millisecond},
	}
	return Scenario{
		Name:     "gray-node-ec-read",
		Describe: "slow-not-dead shard holder: EC hedged reads hold p99 under the injected delay",
		Topology: Topology{
			OwnNodes: 6, VictimNodes: 6,
			Plan: faultwrap.Plan{Seed: 31},
			Redundancy: core.Redundancy{
				Mode: core.RedundancyErasure, DataShards: 4, ParityShards: 2,
			},
			PipelineDepth: 8,
			Retry:         chaosRetry,
			Health:        fastProbes(50 * time.Millisecond),
			Repair:        core.RepairPolicy{QueueCap: 4096},
		},
		Workload: Workload{
			Preload: &Stream{Name: "dataset", Workers: 2, Files: 6, Ops: 12, FileSize: 24 << 10, Seed: 31},
			Streams: []Stream{{
				Name: "readers", Workers: 3, Ops: 300, ReadFrom: "dataset",
				Profile: workflow.Steady{OpsPerSec: 300}, Seed: 32,
			}},
		},
		Timeline: []Step{
			{Name: "gray-onset", At: 100 * time.Millisecond, Action: SetPlan(gray, 0)},
			// Heal after the read phase so the teardown scrub is not paced
			// by the injected delay; every asserted read ran under it.
			{Name: "gray-heal", At: 1400 * time.Millisecond, Action: SetPlan(faultwrap.Plan{}, 0)},
		},
		SLO: SLO{
			ZeroLoss: true,
			Streams: []StreamSLO{{
				Stream: "readers", MaxErrorRate: 0, MaxReadP99: 30 * time.Millisecond, MinOps: 150,
			}},
		},
		Check: func(c *Cluster, r *Result) []string {
			var v []string
			if st, ok := c.FS.Health()[c.VictimID(0)]; ok && st.State != health.Up {
				v = append(v, fmt.Sprintf("gray node was condemned (%s) — the failure was supposed to be gray", st.State))
			}
			if r.Faults.Delays == 0 {
				v = append(v, "gray plan delayed nothing")
			}
			return v
		},
	}
}

// RackFailureRS42 pauses exactly m=2 victims in the same instant — a
// rack losing its uplink — under an RS(4,2) workload. Writes must
// degrade (never tear), reads must reconstruct, the detector must
// condemn both nodes fast, and after the rack returns the targeted
// repair queue must restore full redundancy within the bound.
func RackFailureRS42() Scenario {
	return Scenario{
		Name:     "rack-failure-rs42",
		Describe: "correlated loss of m=2 shard holders, then heal: degrade, reconstruct, re-redundify",
		Topology: Topology{
			OwnNodes: 6, VictimNodes: 6,
			Plan: faultwrap.Plan{Seed: 41},
			Redundancy: core.Redundancy{
				Mode: core.RedundancyErasure, DataShards: 4, ParityShards: 2,
			},
			PipelineDepth: 8,
			Retry:         chaosRetry,
			Health:        fastProbes(10 * time.Millisecond),
			Repair:        core.RepairPolicy{QueueCap: 4096},
		},
		Workload: Workload{
			Preload: &Stream{Name: "base", Workers: 2, Files: 6, Ops: 12, FileSize: 24 << 10, Seed: 41},
			Streams: []Stream{{
				Name: "writers", Workers: 2, Ops: 60, Files: 6, FileSize: 20 << 10,
				Profile: workflow.Steady{OpsPerSec: 60}, VerifyEachWrite: true, RMWEvery: 5, Seed: 42,
			}},
		},
		Timeline: []Step{
			{Name: "rack-out", At: 300 * time.Millisecond, Action: Pause(1, 2)},
			{Name: "rack-back", At: 1200 * time.Millisecond, Action: Resume(1, 2)},
		},
		SLO: SLO{
			ZeroLoss:           true,
			MaxDetection:       2 * time.Second,
			MaxRecovery:        20 * time.Second,
			CleanScrub:         true,
			NoDeferred:         true,
			TargetedRepairOnly: true,
			Streams: []StreamSLO{{
				Stream: "writers", MaxErrorRate: 0, MinOps: 40,
			}},
		},
		Check: func(c *Cluster, r *Result) []string {
			var v []string
			if r.Counters.DegradedWrites == 0 {
				v = append(v, "no degraded writes despite a dead rack — the outage never bit the write path")
			}
			if r.Counters.ECReconstructs == 0 {
				v = append(v, "no EC reconstructions despite two dead shard holders")
			}
			if r.Faults.Refused == 0 {
				v = append(v, "paused proxies refused nothing — the partition never happened")
			}
			return v
		},
	}
}

// FlashCrowdQuota throws a flash crowd from a low-priority tenant at a
// cluster a high-priority tenant depends on. Admission control must
// throttle the burst tenant at its quota (rejections counted as policy,
// not unavailability) while the production tenant's availability and
// latency hold.
func FlashCrowdQuota() Scenario {
	return Scenario{
		Name:     "flash-crowd-quota",
		Describe: "low-priority burst hits its quota; high-priority tenant's SLOs hold",
		Topology: Topology{
			OwnNodes: 2, VictimNodes: 3,
			Redundancy:    core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
			PipelineDepth: 8,
			Retry:         chaosRetry,
			Repair:        core.RepairPolicy{QueueCap: 4096},
			Tenants: []qos.TenantSpec{
				{Name: "prod", Weight: 3, Priority: qos.PriorityHigh},
				{Name: "batch", Weight: 1, Priority: qos.PriorityLow, QuotaBytes: 1 << 20},
			},
		},
		Workload: Workload{
			Duration: 2200 * time.Millisecond,
			Streams: []Stream{
				{
					Name: "prod", Tenant: "prod", Workers: 2, Files: 6, FileSize: 16 << 10,
					Profile: workflow.Steady{OpsPerSec: 80}, VerifyEachWrite: true, Seed: 51,
				},
				{
					Name: "batch", Tenant: "batch", Workers: 3, Files: 64, FileSize: 32 << 10,
					Profile: workflow.FlashCrowd{
						Base: 20, Burst: 400,
						At: 600 * time.Millisecond, Rise: 200 * time.Millisecond, Hold: 800 * time.Millisecond,
					},
					Seed: 52,
				},
			},
		},
		SLO: SLO{
			ZeroLoss: true,
			Streams: []StreamSLO{{
				Stream: "prod", MaxErrorRate: 0, MaxWriteP99: time.Second, MinOps: 60,
			}},
		},
		Check: func(c *Cluster, r *Result) []string {
			var v []string
			var prod, batch *StreamResult
			for i := range r.Streams {
				switch r.Streams[i].Name {
				case "prod":
					prod = &r.Streams[i]
				case "batch":
					batch = &r.Streams[i]
				}
			}
			if batch == nil || batch.QuotaRejects == 0 {
				v = append(v, "the flash crowd never hit its quota — admission control untested")
			}
			if prod != nil && prod.QuotaRejects != 0 {
				v = append(v, fmt.Sprintf("quota rejected %d prod writes — throttled the wrong tenant", prod.QuotaRejects))
			}
			return v
		},
	}
}

// PartitionHealRejoin pauses one victim (a full symmetric partition),
// demands fast detection, heals it, and demands the node rejoin with
// every owed stripe released by the repair queue's census pass — the
// scrub afterwards must find nothing at all to do.
func PartitionHealRejoin() Scenario {
	return Scenario{
		Name:     "partition-heal-rejoin",
		Describe: "full partition, detection, heal, rejoin: redundancy fully restored by the targeted queue",
		Topology: Topology{
			OwnNodes: 2, VictimNodes: 3,
			Redundancy:    core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
			PipelineDepth: 8,
			Retry:         chaosRetry,
			Health:        fastProbes(10 * time.Millisecond),
			Repair:        core.RepairPolicy{QueueCap: 4096},
		},
		Workload: Workload{
			Preload: &Stream{Name: "base", Workers: 1, Files: 8, Ops: 8, FileSize: 16 << 10, Seed: 61},
			Streams: []Stream{{
				Name: "writers", Workers: 2, Ops: 50, Files: 6, FileSize: 16 << 10,
				Profile: workflow.Steady{OpsPerSec: 50}, VerifyEachWrite: true, RMWEvery: 2, Seed: 62,
			}},
		},
		Timeline: []Step{
			{Name: "partition", At: 300 * time.Millisecond, Action: Pause(0)},
			{Name: "heal", At: 1200 * time.Millisecond, Action: Resume(0)},
		},
		SLO: SLO{
			ZeroLoss:           true,
			MaxDetection:       2 * time.Second,
			MaxRecovery:        15 * time.Second,
			CleanScrub:         true,
			NoDeferred:         true,
			TargetedRepairOnly: true,
			Streams: []StreamSLO{{
				Stream: "writers", MaxErrorRate: 0, MinOps: 40,
			}},
		},
		Check: func(c *Cluster, r *Result) []string {
			var v []string
			if r.Counters.SkippedReplicaWrites == 0 {
				v = append(v, "no replica writes skipped — the detector never influenced placement")
			}
			if r.Counters.DegradedWrites == 0 {
				v = append(v, "no degraded writes despite a partitioned replica target")
			}
			return v
		},
	}
}

// RevocationStorm takes K = 2 victims back, 50 ms apart, through
// FileSystem.Revoke (paper §III-A: the monitor reclaims a victim whenever
// its tenant needs the memory) while two tenants stream writes and a
// reader re-reads a preload. Each revoked victim holds a broker lease
// under a 200 ms notice. The own class is exactly as wide as a stripe (R
// copies, or k+m shards), and the victim class starts one node wider: the
// first revocation leaves it at that width, and the second takes it one
// below, so every run also measures what happens past that point. Check
// pins the outcome: every notice met, every leave within its bound, slots
// of the victim class passed to own nodes through slots' probe order, and
// no stripe with two slots of its winning write on one node.
func RevocationStorm(name string, red core.Redundancy) Scenario {
	const notice, maxLeave = 200 * time.Millisecond, 3 * time.Second
	width := max(red.Replicas, red.DataShards+red.ParityShards)
	return Scenario{
		Name:     name,
		Describe: fmt.Sprintf("2 leased victims revoked 50 ms apart under two tenants' writes; the victim class ends one below stripe width %d", width),
		Topology: Topology{
			OwnNodes: width, VictimNodes: width + 1,
			Redundancy:     red,
			PipelineDepth:  8,
			Retry:          chaosRetry,
			Repair:         core.RepairPolicy{QueueCap: 4096},
			LeaseNoticeSLO: notice,
			Tenants: []qos.TenantSpec{
				{Name: "prod", Weight: 3, Priority: qos.PriorityHigh},
				{Name: "batch", Weight: 1, Priority: qos.PriorityLow},
			},
		},
		Workload: Workload{
			Duration: 2 * time.Second,
			Preload:  &Stream{Name: "dataset", Workers: 2, Files: 8, Ops: 16, FileSize: 64 << 10, Seed: 81},
			Streams: []Stream{
				{Name: "prod", Tenant: "prod", Workers: 2, Files: 8, FileSize: 32 << 10,
					Profile: workflow.Steady{OpsPerSec: 100}, VerifyEachWrite: true, Seed: 82},
				{Name: "batch", Tenant: "batch", Workers: 1, Files: 16, FileSize: 32 << 10,
					Profile: workflow.Steady{OpsPerSec: 50}, Seed: 83},
				{Name: "readers", Workers: 1, ReadFrom: "dataset",
					Profile: workflow.Steady{OpsPerSec: 50}, Seed: 84},
			},
		},
		Timeline: []Step{
			// Offers are advertised at build time on empty victims, so
			// the broker grants the first lease on victim-0 and, with that
			// offer now the smaller, the second on victim-1.
			{Name: "lease", Action: Do(func(_ context.Context, c *Cluster) error {
				for i := range 2 {
					if l, err := c.FS.Broker().Request("batch", 1<<20); err != nil || l.Node != c.VictimID(i) {
						return fmt.Errorf("lease %+v, %v: want one on %s", l, err, c.VictimID(i))
					}
				}
				return nil
			})},
			{Name: "revoke-0", At: 500 * time.Millisecond, Async: true, Action: Revoke(0, 10*time.Second)},
			{Name: "revoke-1", At: 550 * time.Millisecond, Async: true, Action: Revoke(1, 10*time.Second)},
		},
		SLO: SLO{
			ZeroLoss:           true,
			MaxRecovery:        15 * time.Second,
			CleanScrub:         true,
			NoDeferred:         true,
			TargetedRepairOnly: true,
			Streams: []StreamSLO{
				{Stream: "prod", MaxErrorRate: 0.05, MaxWriteP99: 3 * time.Second, MaxReadP99: 3 * time.Second, MinOps: 50},
				{Stream: "batch", MaxErrorRate: 0.05, MinOps: 25},
				{Stream: "readers", MaxErrorRate: 0.05, MaxReadP99: 3 * time.Second, MinOps: 25},
			},
		},
		Check: func(c *Cluster, r *Result) []string {
			var v []string
			if len(r.Revokes) != 2 {
				v = append(v, fmt.Sprintf("%d of 2 revocations returned", len(r.Revokes)))
			}
			for _, rv := range r.Revokes {
				if rv.Leases < 1 || !rv.SLOMet || min(rv.NoticeMs, rv.NoticeSLOMs) < ms(notice) || rv.LeaveMs > ms(maxLeave) {
					v = append(v, fmt.Sprintf("revocation %+v: want a lease noticed >= %v and a leave within %v", rv, notice, maxLeave))
				}
			}
			for i := range 2 {
				if st := c.Victims.Server(i).Store().Stats(); st.BytesUsed != 0 {
					v = append(v, fmt.Sprintf("revoked store %s still holds %d bytes", c.VictimID(i), st.BytesUsed))
				}
			}
			for _, f := range c.Obs.Snapshot() {
				if s := f.Find(obs.L("outcome", "met")); f.Name == "memfss_qos_lease_revocations_total" && (s == nil || s.Value != 2) {
					v = append(v, fmt.Sprintf("%s{outcome=\"met\"} = %+v, want 2", f.Name, s))
				}
			}
			passed, shared, err := listStripes(c, max(red.DataShards, 1))
			r.Measured = map[string]int{"passed_to_own": passed, "shared_node": shared}
			if err != nil {
				v = append(v, err.Error())
			}
			if passed == 0 {
				v = append(v, "past the class's width no victim-class slot passed to an own node")
			}
			if shared > 0 {
				v = append(v, fmt.Sprintf("%d stripes hold two slots of their winning write on one node", shared))
			}
			return v
		},
	}
}

// listStripes lists every store still in the deployment and reads each
// stripe value's header. It counts readable stripes only: those whose
// winning write (the write ID holding the highest generation any of its
// values carries) fills at least k slots. passedToOwn counts those whose
// winning write spans own and victim nodes: an own-class stripe never
// leaves the own class, so these are victim-class slots passed on to own
// nodes. sharedNode counts those whose slots (shard indices, or holders
// under replication) cannot each be given a node of its own among the
// nodes holding it; a copy no read asks for, which an overlapping
// evacuation can leave behind, does not make two slots share its node.
func listStripes(c *Cluster, k int) (passedToOwn, sharedNode int, err error) {
	type value struct {
		node, slot string
		own        bool
		gen, id    uint64
	}
	live := map[string]bool{}
	for _, cs := range c.FS.Classes() {
		for _, n := range cs.Nodes {
			live[n.ID] = true
		}
	}
	values := map[string][]value{} // stripe key -> every value held of it
	for _, ls := range []*core.LocalStores{c.Own, c.Victims} {
		for i, n := range ls.Nodes {
			st := ls.Server(i).Store()
			for cursor, more := int64(0), live[n.ID]; more; more = cursor != 0 {
				var keys []string
				keys, cursor = st.Scan(cursor, 256)
				for _, key := range keys {
					hdr, _, _ := st.GetRangeAppend(nil, key, 0, erasure.HeaderSize)
					gen, id, _, err := erasure.ParseShard(hdr)
					if err != nil {
						return 0, 0, fmt.Errorf("stripe value %s on %s: %w", key, n.ID, err)
					}
					sk, slot := strings.TrimPrefix(key, "data:"), n.ID
					if j := strings.LastIndex(sk, "/s"); j >= 0 && k > 1 {
						sk, slot = sk[:j], sk[j:]
					}
					values[sk] = append(values[sk], value{n.ID, slot, ls == c.Own, gen, id})
				}
			}
		}
	}
	for _, vs := range values {
		win := slices.MaxFunc(vs, func(a, b value) int { return cmp.Compare(a.gen, b.gen) })
		holders := map[string][]string{} // slot -> the nodes holding it
		var own, victim bool
		for _, v := range vs {
			if v.id == win.id {
				holders[v.slot] = append(holders[v.slot], v.node)
				own, victim = own || v.own, victim || !v.own
			}
		}
		if len(holders) < k {
			continue // no file's readable stripe: Result.FsckOrphans counts it
		}
		if own && victim {
			passedToOwn++
		}
		if !distinctNodes(holders) {
			sharedNode++
		}
	}
	return passedToOwn, sharedNode, nil
}

// distinctNodes reports whether every slot can be given its own node
// among those holding it: a bipartite matching by augmenting paths.
func distinctNodes(holders map[string][]string) bool {
	owner := map[string]string{} // node -> the slot it serves
	var seat func(slot string, seen map[string]bool) bool
	seat = func(slot string, seen map[string]bool) bool {
		for _, n := range holders[slot] {
			if !seen[n] {
				seen[n] = true
				if o, taken := owner[n]; !taken || seat(o, seen) {
					owner[n] = slot
					return true
				}
			}
		}
		return false
	}
	for slot := range holders {
		if !seat(slot, map[string]bool{}) {
			return false
		}
	}
	return true
}
