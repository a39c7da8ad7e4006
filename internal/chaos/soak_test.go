package chaos

// The chaos soaks that grew up alongside the subsystems they test
// (health, erasure, revocation) live here now, rewritten on the
// scenario runner. Test names are unchanged so CI history and -run
// patterns keep working; the assertions are the originals', expressed as
// SLOs plus Check hooks, with every fixed sleep replaced by condition
// polling (WaitState / journal scans / Draining polls).

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"memfss/internal/core"
	"memfss/internal/faultwrap"
	"memfss/internal/workflow"
)

// soakPlan is the shared low-grade background chaos: a few percent of
// replies dropped or cut, a few percent of requests cut, a sprinkle of
// millisecond delays.
func soakPlan(seed int64) faultwrap.Plan {
	return faultwrap.Plan{
		Seed:    seed,
		Request: faultwrap.DirPlan{Cut: 0.02},
		Reply:   faultwrap.DirPlan{Drop: 0.03, Cut: 0.02, DelayProb: 0.05, Delay: time.Millisecond},
	}
}

// TestHealthChaosSoak drives the identical write/verify workload twice —
// under a detector that never condemns a node with repair disabled, then
// under the defaults — kills a victim halfway
// through each, and demands the health-aware run detect the death, skip
// the dead replica (strictly fewer store attempts than the baseline),
// restore redundancy through the targeted queue only, and lose nothing.
func TestHealthChaosSoak(t *testing.T) {
	const files = 24
	scenario := func(health core.HealthPolicy, repair core.RepairPolicy, slo SLO) Scenario {
		return Scenario{
			Name: "health-soak",
			Topology: Topology{
				OwnNodes: 2, VictimNodes: 4,
				Plan:          soakPlan(42),
				Redundancy:    core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
				PipelineDepth: 8,
				Retry:         chaosRetry,
				Health:        health,
				Repair:        repair,
			},
			Workload: Workload{
				Streams: []Stream{{
					Name: "soak", Workers: 1, Ops: files, Files: files, FileSize: 20_000,
					VerifyEachWrite: true, Seed: 42,
				}},
			},
			Timeline: []Step{
				{Name: "kill", AfterOps: files / 2, Stream: "soak", Action: Kill(1)},
			},
			SLO: slo,
		}
	}

	// Baseline: a detector that keeps every node Up and no repair — every
	// write to the dead node burns the full retry budget.
	baselineRes, err := Run(context.Background(), scenario(
		core.HealthPolicy{SuspectAfter: math.MaxInt32, ProbeInterval: -1},
		core.RepairPolicy{Disable: true},
		SLO{ZeroLoss: true, Streams: []StreamSLO{{Stream: "soak", MaxErrorRate: 0, MinOps: files}}},
	), RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !baselineRes.Passed {
		t.Fatalf("baseline run: %v", baselineRes.Violations)
	}
	baseline := baselineRes.WorkloadCounters
	if baseline.StoreAttempts == 0 {
		t.Fatal("baseline run recorded no store attempts")
	}

	// Enabled: default detector posture, targeted repair queue sized above
	// the worst-case degraded-stripe count so full redundancy must come
	// back without a full-namespace scan.
	res, err := Run(context.Background(), scenario(
		core.HealthPolicy{},
		core.RepairPolicy{QueueCap: 4096},
		SLO{
			ZeroLoss:           true,
			MaxDetection:       5 * time.Second,
			MaxRecovery:        30 * time.Second,
			CleanScrub:         true,
			RequireDeferred:    true,
			TargetedRepairOnly: true,
			Streams:            []StreamSLO{{Stream: "soak", MaxErrorRate: 0, MinOps: files}},
		},
	), RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("health-aware run: %v", res.Violations)
	}
	c := res.WorkloadCounters
	if c.SkippedReplicaWrites == 0 {
		t.Fatal("no replica writes skipped despite a detected-dead node")
	}
	if c.StoreAttempts >= baseline.StoreAttempts {
		t.Fatalf("health-aware run burned %d store attempts, baseline %d — skipping dead replicas must cost strictly less",
			c.StoreAttempts, baseline.StoreAttempts)
	}
	if res.RepairStats.Enqueued == 0 {
		t.Fatal("no degraded stripes were enqueued for targeted repair")
	}
	t.Logf("TTD %+v, recovery %.0fms; workload counters %+v; repair %+v",
		res.Detection, res.RecoveryMs, c, res.RepairStats)
}

// TestErasureChaosSoak runs the RS(4,2) soak: full writes plus partial
// RMW overwrites under background chaos, a shard holder partitioned early
// and another killed halfway, degraded writes and reconstructing reads
// demanded, targeted repair restoring everything restorable within the
// recovery bound, and zero loss at teardown. Every stripe has a slot on
// each victim, so only the stripes written during the partition, restored
// once the node rejoins and before the kill, can reach full redundancy:
// the p99 of their time from enqueue to restored redundancy is held to
// the recovery bound too. The stream waits for that restore: a stripe
// written with only k slots during the partition would not survive the
// kill without it.
func TestErasureChaosSoak(t *testing.T) {
	const files = 24
	const maxRecovery = 30 * time.Second
	var waits int64
	var waitP99 time.Duration
	sc := Scenario{
		Name: "erasure-soak",
		Topology: Topology{
			OwnNodes: 6, VictimNodes: 6,
			Plan: soakPlan(7),
			Redundancy: core.Redundancy{
				Mode: core.RedundancyErasure, DataShards: 4, ParityShards: 2,
			},
			PipelineDepth: 8,
			Retry:         chaosRetry,
			Repair:        core.RepairPolicy{QueueCap: 4096},
		},
		Workload: Workload{
			Streams: []Stream{{
				// Ops > Files so the tail of the stream revisits files:
				// rewrites exercise generation supersession, and every
				// third revisit is a partial RMW patch spanning stripes.
				Name: "ec", Workers: 1, Ops: files + 12, Files: files, FileSize: 20_000,
				VerifyEachWrite: true, RMWEvery: 3, Seed: 7,
			}},
		},
		Timeline: []Step{
			{Name: "partition", AfterOps: 2, Stream: "ec", Action: Pause(3)},
			{Name: "heal", AfterOps: 8, Stream: "ec", Action: Resume(3)},
			{Name: "rejoin", AfterOps: 8, Stream: "ec", Action: WaitState(3, "up", 10*time.Second)},
			{Name: "restored", AfterOps: 8, Stream: "ec", Action: Do(func(_ context.Context, c *Cluster) error {
				// An idle queue may still owe stripes on a node a chaos
				// fault holds Suspect; wait for their release too.
				deadline := time.Now().Add(10 * time.Second)
				for st := c.FS.RepairStats(); st.Owed > 0 || !c.FS.WaitRepairIdle(0); st = c.FS.RepairStats() {
					if time.Now().After(deadline) {
						return fmt.Errorf("stripes still owed after the partition healed: %+v", st)
					}
					time.Sleep(5 * time.Millisecond)
				}
				return nil
			})},
			{Name: "kill", AfterOps: files / 2, Stream: "ec", Action: Kill(1)},
		},
		SLO: SLO{
			ZeroLoss:           true,
			MaxRecovery:        maxRecovery,
			CleanScrub:         true,
			RequireDeferred:    true,
			TargetedRepairOnly: true,
			Streams:            []StreamSLO{{Stream: "ec", MaxErrorRate: 0, MinOps: files + 12}},
		},
		Check: func(c *Cluster, r *Result) []string {
			var v []string
			if r.WorkloadCounters.DegradedWrites == 0 {
				v = append(v, "a dead shard target degraded no writes — the kill never bit")
			}
			if r.WorkloadCounters.ECReconstructs == 0 {
				v = append(v, "no reads reconstructed despite a dead shard holder")
			}
			if r.RepairStats.Enqueued == 0 {
				v = append(v, "no degraded stripes were enqueued for targeted repair")
			}
			for _, f := range c.Obs.Snapshot() {
				if f.Name == "memfss_repair_wait_seconds" {
					waits, waitP99 = f.Series[0].Count, f.Series[0].Quantile(f.Bounds, 0.99)
				}
			}
			if waits == 0 {
				v = append(v, "no stripe's redundancy was restored through the repair queue")
			}
			if waitP99 > maxRecovery {
				v = append(v, fmt.Sprintf("memfss_repair_wait_seconds p99 %v, bound %v", waitP99, maxRecovery))
			}
			return v
		},
	}
	res, err := Run(context.Background(), sc, RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("erasure soak: %v; repair %+v; counters %+v", res.Violations, res.RepairStats, res.WorkloadCounters)
	}
	t.Logf("recovery %.0fms, repair wait p99 %v over %d stripes; workload counters %+v; repair %+v",
		res.RecoveryMs, waitP99, waits, res.WorkloadCounters, res.RepairStats)
}

// TestRevocationChaosSoak interrupts an evacuation mid-drain under reply
// chaos, resumes it to completion, and demands the node end empty and
// unregistered with zero loss. The interrupt point is condition-based —
// cancel fires when the drain is observably underway (the node reports
// Draining), not after a fixed sleep.
func TestRevocationChaosSoak(t *testing.T) {
	sc := Scenario{
		Name: "revocation-soak",
		Topology: Topology{
			OwnNodes: 2, VictimNodes: 3,
			Plan: faultwrap.Plan{
				Seed:  13,
				Reply: faultwrap.DirPlan{Cut: 0.15, DelayProb: 0.3, Delay: 2 * time.Millisecond},
			},
			Redundancy:    core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
			PipelineDepth: 8,
			Retry:         chaosRetry,
		},
		Workload: Workload{
			Preload: &Stream{Name: "soak", Workers: 1, Files: 12, Ops: 12, FileSize: 40_000, Seed: 13},
		},
		Timeline: []Step{
			{Name: "interrupted-evac", Action: Do(func(ctx context.Context, c *Cluster) error {
				victimID := c.VictimID(0)
				ectx, cancel := context.WithCancel(ctx)
				defer cancel()
				done := make(chan error, 1)
				go func() {
					_, err := c.FS.Evacuate(ectx, victimID, core.EvacOptions{})
					done <- err
				}()
				// Cancel once the drain is observably underway. A fast run
				// may finish first — both outcomes are legitimate; the
				// interesting assertions come after.
				var firstErr error
				draining := func() bool {
					for _, id := range c.FS.Draining() {
						if id == victimID {
							return true
						}
					}
					return false
				}
				for {
					if draining() {
						cancel()
						firstErr = <-done
						break
					}
					select {
					case firstErr = <-done:
					case <-time.After(200 * time.Microsecond):
						continue
					}
					break
				}
				if firstErr == nil {
					return nil
				}
				// The abort left the node in place; re-run to completion.
				var err error
				for try := 0; try < 8; try++ {
					if _, err = c.FS.Evacuate(context.Background(), victimID, core.EvacOptions{}); err == nil {
						return nil
					}
				}
				return fmt.Errorf("evacuation never completed after interrupt: %w", err)
			})},
		},
		SLO: SLO{
			ZeroLoss:    true,
			MaxRecovery: 15 * time.Second,
		},
		Check: func(c *Cluster, r *Result) []string {
			var v []string
			if st := c.Victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
				v = append(v, fmt.Sprintf("evacuated store still holds %d bytes", st.BytesUsed))
			}
			victimID := c.VictimID(0)
			for _, cls := range c.FS.Classes() {
				for _, n := range cls.Nodes {
					if n.ID == victimID {
						v = append(v, "node still registered after resumed evacuation")
					}
				}
			}
			return v
		},
	}
	res, err := Run(context.Background(), sc, RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("revocation soak: %v", res.Violations)
	}
	if res.VerifiedPaths != 12 {
		t.Fatalf("final verify covered %d of 12 preload files", res.VerifiedPaths)
	}
}

// TestErasureEvacuationChaos evacuates three of nine victims in turn under
// RS(4,2) while two writers overwrite and patch files. Each evacuation
// copies a shard to the node that holds its slot once the source has left,
// and the repair queue refills the slots the release re-seats, so the
// teardown Scrub finds nothing to restore and no file is damaged. It is a
// test, not a named scenario: the scenario matrix stays as it is.
func TestErasureEvacuationChaos(t *testing.T) {
	sc := Scenario{
		Name: "erasure-evacuation",
		Topology: Topology{
			OwnNodes: 6, VictimNodes: 9,
			Redundancy: core.Redundancy{
				Mode: core.RedundancyErasure, DataShards: 4, ParityShards: 2,
			},
			PipelineDepth: 8,
			Retry:         chaosRetry,
			Repair:        core.RepairPolicy{QueueCap: 4096},
		},
		Workload: Workload{
			Preload: &Stream{Name: "base", Workers: 1, Files: 12, Ops: 12, FileSize: 64 << 10, Seed: 91},
			Streams: []Stream{{
				Name: "writers", Workers: 2, Ops: 120, Files: 6, FileSize: 20 << 10,
				Profile: workflow.Steady{OpsPerSec: 100}, VerifyEachWrite: true, RMWEvery: 3, Seed: 92,
			}},
		},
		Timeline: []Step{
			{Name: "evacuate-0", At: 100 * time.Millisecond, Action: Evacuate(0, 8)},
			{Name: "evacuate-1", At: 300 * time.Millisecond, Action: Evacuate(1, 8)},
			{Name: "evacuate-2", At: 500 * time.Millisecond, Action: Evacuate(2, 8)},
		},
		SLO: SLO{
			ZeroLoss:   true,
			CleanScrub: true,
			NoDeferred: true,
			Streams:    []StreamSLO{{Stream: "writers", MaxErrorRate: 0, MinOps: 120}},
		},
		Check: func(c *Cluster, r *Result) []string {
			if len(r.Evacs) != 3 {
				return []string{fmt.Sprintf("%d of 3 evacuations completed", len(r.Evacs))}
			}
			return nil
		},
	}
	res, err := Run(context.Background(), sc, RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("erasure evacuation: %v", res.Violations)
	}
	t.Logf("evacuations %+v; repair %+v", res.Evacs, res.RepairStats)
}
