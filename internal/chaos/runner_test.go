package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memfss/internal/core"
	"memfss/internal/workflow"
)

func TestScenarioRegistry(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("scenario library has %d entries, want >= 8: %v", len(names), names)
	}
	for _, name := range names {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("Names() lists %q but Lookup misses it", name)
		}
		if sc.Name != name {
			t.Fatalf("Lookup(%q) returned scenario named %q", name, sc.Name)
		}
		if sc.Describe == "" {
			t.Errorf("scenario %q has no description", name)
		}
		if len(sc.Workload.Streams) == 0 {
			t.Errorf("scenario %q drives no workload", name)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup invented a scenario")
	}
}

func TestAppendResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_scenarios.json")
	for i := 0; i < 2; i++ {
		res := &Result{Scenario: "unit", When: time.Now().UTC(), Passed: true}
		if err := AppendResult(path, res); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []Result
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("trajectory file is not a JSON array: %v", err)
	}
	if len(records) != 2 || records[0].Scenario != "unit" {
		t.Fatalf("got %d records: %+v", len(records), records)
	}

	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendResult(path, &Result{}); err == nil {
		t.Fatal("appending to a corrupt trajectory file should fail, not clobber it")
	}
}

// tinyScenario is a fault-free smoke scenario used by the runner unit
// tests: small cluster, short unpaced stream, verify-each-write.
func tinyScenario() Scenario {
	return Scenario{
		Name: "unit-tiny",
		Topology: Topology{
			OwnNodes: 2, VictimNodes: 3,
			Redundancy:    core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
			PipelineDepth: 4,
			Retry:         chaosRetry,
		},
		Workload: Workload{
			Preload: &Stream{Name: "base", Workers: 1, Files: 2, Ops: 2, FileSize: 8 << 10, Seed: 1},
			Streams: []Stream{{
				Name: "w", Workers: 2, Ops: 12, Files: 3, FileSize: 8 << 10,
				VerifyEachWrite: true, ReadFraction: 0.25, Seed: 2,
			}},
		},
		SLO: SLO{
			ZeroLoss:   true,
			CleanScrub: true,
			Streams:    []StreamSLO{{Stream: "w", MaxErrorRate: 0, MinOps: 12}},
		},
	}
}

func TestRunnerCleanPass(t *testing.T) {
	sc := tinyScenario()
	cluster, err := buildCluster(sc.Topology)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	res, err := RunOn(context.Background(), sc, cluster, RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("fault-free scenario failed: %v", res.Violations)
	}
	if res.VerifiedPaths == 0 {
		t.Fatal("final verify checked nothing")
	}
	if res.Streams[0].Ops < 12 {
		t.Fatalf("stream completed %d ops, want >= 12", res.Streams[0].Ops)
	}
	// The runner must leave a chaos trail in the flight recorder.
	evs := cluster.FS.Events().Events(16, "chaos")
	if len(evs) == 0 {
		t.Fatal("no chaos.* events journaled")
	}
	var sawStart, sawEnd bool
	for _, ev := range evs {
		if strings.Contains(ev.Detail, "scenario start") {
			sawStart = true
		}
		if strings.Contains(ev.Detail, "scenario end: PASS") {
			sawEnd = true
		}
	}
	if !sawStart || !sawEnd {
		t.Fatalf("journal missing start/end markers: %+v", evs)
	}
}

// TestRepairStatsTakenWhenRecoverySettles pins when Result.RepairStats is
// taken: when recovery settles, before the teardown Scrub, Fsck and final
// verify. Right after that moment the test writes a 64-stripe file, wipes
// every stripe copy on the node holding the most and reads the file back:
// the reads that ask a wiped copy first enqueue repairs, as the teardown's
// verification reads can. The filesystem counts them; the result must not.
func TestRepairStatsTakenWhenRecoverySettles(t *testing.T) {
	sc := tinyScenario()
	sc.SLO.CleanScrub = false // the teardown scrub restores what the test wipes
	cluster, err := buildCluster(sc.Topology)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var atSettle core.RepairStats
	wiped := 0
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		t.Log(line)
		if !strings.Contains(line, "recovery settled") {
			return
		}
		atSettle = cluster.FS.RepairStats()
		probe := bytes.Repeat([]byte("settled "), 64*(4<<10)/8)
		if err := cluster.FS.WriteFile("/chaos/probe", probe); err != nil {
			t.Errorf("write probe: %v", err)
			return
		}
		most, keys := cluster.Own.Server(0).Store(), []string(nil)
		for _, ls := range []*core.LocalStores{cluster.Own, cluster.Victims} {
			for i := range ls.Nodes {
				if k, _ := ls.Server(i).Store().Scan(0, 1<<20); len(k) > len(keys) {
					most, keys = ls.Server(i).Store(), k
				}
			}
		}
		wiped = most.Del(keys...)
		if got, err := cluster.FS.ReadFile("/chaos/probe"); err != nil || !bytes.Equal(got, probe) {
			t.Errorf("read probe past wiped copies: %v (bytes equal %v)", err, bytes.Equal(got, probe))
		}
	}
	res, err := RunOn(context.Background(), sc, cluster, RunOptions{Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("violations: %v", res.Violations)
	}
	after := cluster.FS.RepairStats()
	if wiped == 0 || after.Enqueued <= atSettle.Enqueued {
		t.Fatalf("wiped %d stripe copies after recovery, enqueued %d -> %d; want both to move",
			wiped, atSettle.Enqueued, after.Enqueued)
	}
	got := res.RepairStats
	if got.Enqueued != atSettle.Enqueued || got.Restored != atSettle.Restored || got.Overflows != atSettle.Overflows {
		t.Fatalf("Result.RepairStats %+v, want the snapshot at recovery %+v", got, atSettle)
	}
}

func TestRunnerReportsViolations(t *testing.T) {
	sc := tinyScenario()
	// Impossible bounds: the runner must report every miss, not panic or
	// stop at the first.
	sc.SLO.Streams = []StreamSLO{{
		Stream: "w", MaxErrorRate: 0, MinOps: 1 << 20, MaxWriteP99: time.Nanosecond,
	}}
	res, err := Run(context.Background(), sc, RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("scenario passed impossible SLOs")
	}
	var sawLiveness, sawLatency bool
	for _, v := range res.Violations {
		if strings.Contains(v, "liveness") {
			sawLiveness = true
		}
		if strings.Contains(v, "write p99") {
			sawLatency = true
		}
	}
	if !sawLiveness || !sawLatency {
		t.Fatalf("want liveness and latency violations, got: %v", res.Violations)
	}
}

func TestRunnerOpCountSteps(t *testing.T) {
	sc := tinyScenario()
	fired := make(chan int, 1)
	sc.Timeline = []Step{{
		Name: "mark", AfterOps: 5, Stream: "w",
		Action: Do(func(ctx context.Context, c *Cluster) error {
			select {
			case fired <- 1:
			default:
			}
			return nil
		}),
	}}
	res, err := Run(context.Background(), sc, RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("violations: %v", res.Violations)
	}
	select {
	case <-fired:
	default:
		t.Fatal("AfterOps step never fired")
	}
}

func TestWindowRate(t *testing.T) {
	s := newStreamRun(Stream{Name: "w"})
	boom := errors.New("boom")
	failIf := func(b bool) error {
		if b {
			return boom
		}
		return nil
	}
	// 10 ops in [0,100ms): 1 error. 10 ops in [100,200ms): 5 errors.
	for i := 0; i < 10; i++ {
		s.record(time.Duration(i)*10*time.Millisecond, failIf(i == 0))
	}
	for i := 0; i < 10; i++ {
		s.record(100*time.Millisecond+time.Duration(i)*10*time.Millisecond, failIf(i < 5))
	}
	if got := s.windowRate(100*time.Millisecond, 5); got != 0.5 {
		t.Fatalf("worst window rate = %v, want 0.5", got)
	}
	if got := s.windowRate(0, 0); got != 0.3 {
		t.Fatalf("whole-run rate = %v, want 0.3", got)
	}
	// Windows below the op floor don't count.
	if got := s.windowRate(100*time.Millisecond, 11); got != 0 {
		t.Fatalf("floored window rate = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{5, 1, 3, 2, 4}
	if got := percentile(ds, 0.5); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(ds, 0.99); got != 5 {
		t.Fatalf("p99 = %v", got)
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
}

func TestLoadProfilesWireUp(t *testing.T) {
	// The scenario library leans on the workflow profiles; pin the shapes
	// the SLOs assume.
	fc := workflow.FlashCrowd{Base: 20, Burst: 400, At: 600 * time.Millisecond,
		Rise: 200 * time.Millisecond, Hold: 800 * time.Millisecond}
	if r := fc.Rate(0); r != 20 {
		t.Fatalf("flash crowd base rate = %v", r)
	}
	if r := fc.Rate(900 * time.Millisecond); r != 400 {
		t.Fatalf("flash crowd burst rate = %v", r)
	}
}

// runNamed executes one library scenario and fails the test on any SLO
// violation — the in-repo scenario matrix.
func runNamed(t *testing.T, name string) *Result {
	t.Helper()
	if testing.Short() {
		t.Skip("scenario matrix skipped in -short")
	}
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	res, err := Run(context.Background(), sc, RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	if !res.Passed {
		t.Fatalf("scenario %s violated its SLOs:\n  %s", name, strings.Join(res.Violations, "\n  "))
	}
	t.Logf("scenario %s: %d streams, detection %+v, recovery %.0fms",
		name, len(res.Streams), res.Detection, res.RecoveryMs)
	return res
}

func TestScenarioSplitBrainFence(t *testing.T) {
	res := runNamed(t, "split-brain-fence")
	if res.Counters.FencedWrites == 0 {
		t.Fatal("no fenced writes")
	}
	if len(res.Detection) == 0 || res.Detection[0].Ms < 0 {
		t.Fatalf("split brain never witnessed: %+v", res.Detection)
	}
}

func TestScenarioAsymPartitionDuringEvac(t *testing.T) {
	res := runNamed(t, "asym-partition-during-evac")
	if len(res.Evacs) == 0 {
		t.Fatal("no evacuation recorded")
	}
}

func TestScenarioGrayNodeECRead(t *testing.T) {
	res := runNamed(t, "gray-node-ec-read")
	if res.Faults.Delays == 0 {
		t.Fatal("gray plan never delayed")
	}
}

func TestScenarioRackFailureRS42(t *testing.T) {
	res := runNamed(t, "rack-failure-rs42")
	if res.Counters.ECReconstructs == 0 {
		t.Fatal("no EC reconstructions")
	}
}

func TestScenarioFlashCrowdQuota(t *testing.T) {
	res := runNamed(t, "flash-crowd-quota")
	var batch *StreamResult
	for i := range res.Streams {
		if res.Streams[i].Name == "batch" {
			batch = &res.Streams[i]
		}
	}
	if batch == nil || batch.QuotaRejects == 0 {
		t.Fatal("flash crowd never tripped the quota")
	}
}

func TestScenarioPartitionHealRejoin(t *testing.T) {
	res := runNamed(t, "partition-heal-rejoin")
	if res.RecoveryTimedOut {
		t.Fatal("recovery timed out")
	}
}

func TestScenarioRevocationStorm(t *testing.T) {
	logStorm(t, runNamed(t, "revocation-storm"))
}

func TestScenarioRevocationStormRS42(t *testing.T) {
	logStorm(t, runNamed(t, "revocation-storm-rs42"))
}

// logStorm logs what a revocation storm measured: each revocation's
// notice and leave, each stream's error rate and tails, and the stripe
// listing's counts.
func logStorm(t *testing.T, res *Result) {
	t.Helper()
	for _, rv := range res.Revokes {
		t.Logf("storm revoke %s: leases %d, notice %.1fms (SLO %.0fms), leave %.1fms",
			rv.Node, rv.Leases, rv.NoticeMs, rv.NoticeSLOMs, rv.LeaveMs)
	}
	for _, s := range res.Streams {
		t.Logf("storm stream %s: ops %d, error rate %.4f, write p99 %.1fms, read p99 %.1fms",
			s.Name, s.Ops, s.WorstWindowRate, s.WriteP99Ms, s.ReadP99Ms)
	}
	t.Logf("storm stripes %v, fsck orphans %d, strays %d", res.Measured, res.FsckOrphans, res.FsckStrays)
}
