package eval

import (
	"strings"
	"testing"

	"memfss/internal/cluster"
	"memfss/internal/tenant"
)

// The eval tests assert the *shapes* the paper establishes, at reduced
// scale so the suite stays fast. cmd/experiments reproduces the full-size
// numbers recorded in EXPERIMENTS.md.

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.OwnNodes != 8 || c.VictimNodes != 32 || c.Scale != 1.0 || c.VictimMemCap != 10<<30 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if got := c.scaled(100); got != 100 {
		t.Fatalf("scaled(100) = %d", got)
	}
	small := Config{Scale: 0.001}.withDefaults()
	if got := small.scaled(100); got != 1 {
		t.Fatalf("scaled floor = %d, want 1", got)
	}
}

func TestGeneratorsAndWarmups(t *testing.T) {
	cfg := Config{Scale: 0.02}.withDefaults()
	for _, wl := range []Workload{WorkloadDD, WorkloadMontage, WorkloadBLAST} {
		dag := cfg.generator(wl)()
		if err := dag.Validate(); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if len(dag.Tasks()) == 0 {
			t.Fatalf("%s generated empty DAG", wl)
		}
		if warmupFor(wl) <= 0 {
			t.Fatalf("%s has no warmup", wl)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown workload accepted")
		}
	}()
	cfg.generator(Workload("bogus"))
}

// Figure 2 shapes: victim CPU < 5%, victim NIC < 16% of capacity, and
// runtime not improved by pushing most data to the own nodes.
func TestFigure2Shapes(t *testing.T) {
	rows, err := Figure2(Config{Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byAlpha := map[int]Figure2Row{}
	for _, r := range rows {
		byAlpha[r.AlphaPct] = r
		if r.VictimCPUPct >= 5 {
			t.Errorf("α=%d%%: victim CPU %.1f%% >= 5%%", r.AlphaPct, r.VictimCPUPct)
		}
		if r.VictimNetPct >= 17 {
			t.Errorf("α=%d%%: victim NIC %.1f%% >= 17%%", r.AlphaPct, r.VictimNetPct)
		}
		if r.RuntimeSeconds <= 0 {
			t.Errorf("α=%d%%: zero runtime", r.AlphaPct)
		}
	}
	// Victim load must fall as α grows, reaching zero at 100%.
	if byAlpha[0].VictimNetMBps <= byAlpha[75].VictimNetMBps {
		t.Error("victim bandwidth did not fall with α")
	}
	if byAlpha[100].VictimNetMBps != 0 || byAlpha[100].VictimCPUPct != 0 {
		t.Error("victims loaded at α=100%")
	}
	// Runtime: the balanced low-α configurations beat the store-bound
	// high-α ones; 25% is no worse than 0% (the paper's optimum).
	if byAlpha[25].RuntimeSeconds > byAlpha[0].RuntimeSeconds*1.02 {
		t.Errorf("α=25%% (%.1fs) worse than α=0%% (%.1fs)",
			byAlpha[25].RuntimeSeconds, byAlpha[0].RuntimeSeconds)
	}
	if byAlpha[100].RuntimeSeconds <= byAlpha[25].RuntimeSeconds {
		t.Errorf("α=100%% (%.1fs) not worse than α=25%% (%.1fs)",
			byAlpha[100].RuntimeSeconds, byAlpha[25].RuntimeSeconds)
	}
	out := FormatFigure2(rows)
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "victimCPU%") {
		t.Error("FormatFigure2 missing headers")
	}
}

// pickBench fetches one benchmark from a suite by name.
func pickBench(t *testing.T, suite []tenant.Benchmark, name string) tenant.Benchmark {
	t.Helper()
	for _, b := range suite {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("benchmark %s not found", name)
	return tenant.Benchmark{}
}

// Figure 3 shapes on representative cells: STREAM and Latency are hit the
// hardest; dd dominates bandwidth-side interference, BLAST latency-side;
// Montage is gentlest; α=50% hurts less than 25%.
func TestFigure3Shapes(t *testing.T) {
	cfg := Config{Scale: 1.0}
	hpcc := tenant.HPCC()
	stream := pickBench(t, hpcc, "EP-STREAM")
	latency := pickBench(t, hpcc, "RR-Latency")
	dgemm := pickBench(t, hpcc, "EP-DGEMM")

	cell := func(b tenant.Benchmark, wl Workload, alpha int) float64 {
		rows, err := Slowdowns(cfg, []tenant.Benchmark{b}, []Workload{wl}, []int{alpha})
		if err != nil {
			t.Fatal(err)
		}
		return rows[0].SlowdownPct
	}

	streamDD25 := cell(stream, WorkloadDD, 25)
	streamDD50 := cell(stream, WorkloadDD, 50)
	if streamDD25 < 2 || streamDD25 > 15 {
		t.Errorf("STREAM under dd at 25%%: %.1f%%, want single digits to low teens", streamDD25)
	}
	if streamDD50 >= streamDD25 {
		t.Errorf("STREAM: α=50%% (%.1f%%) not gentler than 25%% (%.1f%%)", streamDD50, streamDD25)
	}

	latBLAST := cell(latency, WorkloadBLAST, 25)
	latMontage := cell(latency, WorkloadMontage, 25)
	if latBLAST < 5 {
		t.Errorf("Latency under BLAST: %.1f%%, want ~10%%", latBLAST)
	}
	if latMontage >= latBLAST {
		t.Errorf("Montage (%.1f%%) not gentler than BLAST (%.1f%%) on latency", latMontage, latBLAST)
	}

	dgemmDD := cell(dgemm, WorkloadDD, 25)
	if dgemmDD >= streamDD25 {
		t.Errorf("DGEMM (%.1f%%) hit harder than STREAM (%.1f%%)", dgemmDD, streamDD25)
	}
	if dgemmDD > 10 {
		t.Errorf("DGEMM slowdown %.1f%% > 10%%", dgemmDD)
	}
}

// Figure 4/5 shapes: TeraSort is the worst Hadoop benchmark under dd,
// DFSIO-read exceeds 10%, and Spark suffers more than Hadoop.
func TestFigure45Shapes(t *testing.T) {
	cfg := Config{Scale: 1.0}
	hadoop := tenant.HiBenchHadoop()
	spark := tenant.HiBenchSpark()

	cell := func(b tenant.Benchmark, wl Workload, alpha int) float64 {
		rows, err := Slowdowns(cfg, []tenant.Benchmark{b}, []Workload{wl}, []int{alpha})
		if err != nil {
			t.Fatal(err)
		}
		return rows[0].SlowdownPct
	}
	teraDD25 := cell(pickBench(t, hadoop, "TeraSort"), WorkloadDD, 25)
	teraDD50 := cell(pickBench(t, hadoop, "TeraSort"), WorkloadDD, 50)
	wordDD25 := cell(pickBench(t, hadoop, "WordCount"), WorkloadDD, 25)
	dfsioDD25 := cell(pickBench(t, hadoop, "DFSIO-read"), WorkloadDD, 25)
	if teraDD25 <= wordDD25 {
		t.Errorf("TeraSort (%.1f%%) not worse than WordCount (%.1f%%)", teraDD25, wordDD25)
	}
	if teraDD25 < 10 {
		t.Errorf("TeraSort under dd at 25%%: %.1f%%, want >10%%", teraDD25)
	}
	if teraDD50 >= teraDD25 {
		t.Errorf("TeraSort: 50%% (%.1f%%) not gentler than 25%% (%.1f%%)", teraDD50, teraDD25)
	}
	if dfsioDD25 < 10 {
		t.Errorf("DFSIO-read under dd: %.1f%%, want >10%% (page-cache competition)", dfsioDD25)
	}
	sparkTera := cell(pickBench(t, spark, "TeraSort"), WorkloadDD, 50)
	if sparkTera <= teraDD50 {
		t.Errorf("Spark TeraSort (%.1f%%) not worse than Hadoop (%.1f%%)", sparkTera, teraDD50)
	}
}

func TestFigure6Aggregation(t *testing.T) {
	rows3 := []SlowdownRow{
		{Suite: "HPCC", AlphaPct: 25, SlowdownPct: 4},
		{Suite: "HPCC", AlphaPct: 25, SlowdownPct: 8},
		{Suite: "HPCC", AlphaPct: 50, SlowdownPct: 2},
	}
	rows5 := []SlowdownRow{{Suite: "HiBench-Spark", AlphaPct: 50, SlowdownPct: 18}}
	got := Figure6(rows3, nil, rows5)
	if len(got) != 3 {
		t.Fatalf("%d rows", len(got))
	}
	if got[0].Suite != "HPCC" || got[0].AlphaPct != 25 || got[0].AvgSlowdownPct != 6 {
		t.Fatalf("row 0 = %+v", got[0])
	}
	if got[2].Suite != "HiBench-Spark" || got[2].AvgSlowdownPct != 18 {
		t.Fatalf("row 2 = %+v", got[2])
	}
	out := FormatFigure6(got)
	if !strings.Contains(out, "HiBench-Spark") {
		t.Error("FormatFigure6 missing suite")
	}
}

func TestTableIMeasuredShowsUnderutilization(t *testing.T) {
	m, err := TableIMeasured(Config{VictimNodes: 8, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.CPUPct <= 5 || m.CPUPct > 95 {
		t.Errorf("CPU util %.1f%% implausible", m.CPUPct)
	}
	// The motivating observation: memory and network stay under-utilized.
	if m.MemPct >= 70 {
		t.Errorf("memory util %.1f%%, want the under-utilization the surveys report", m.MemPct)
	}
	if m.NetPct >= 30 {
		t.Errorf("network util %.1f%%, want well under capacity", m.NetPct)
	}
	out := FormatTableI(TableIReference(), m)
	for _, want := range []string{"Google Traces", "Mesos", "This work"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTableI missing %q", want)
		}
	}
	if len(TableIReference()) != 6 {
		t.Error("Table I reference rows drifted from the paper")
	}
}

func TestTableIIShapes(t *testing.T) {
	rows, err := TableII(Config{Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	var standalone *TableIIRow
	var scavenged []TableIIRow
	infeasible := 0
	for i := range rows {
		r := rows[i]
		switch {
		case !r.Feasible:
			infeasible++
		case r.VictimNodes == 0:
			standalone = &rows[i]
		default:
			scavenged = append(scavenged, r)
		}
	}
	if standalone == nil || len(scavenged) != 3 || infeasible != 1 {
		t.Fatalf("row structure wrong: %+v", rows)
	}
	for _, r := range scavenged {
		if r.RuntimeSeconds <= standalone.RuntimeSeconds*0.99 {
			t.Errorf("%d own nodes ran faster (%.0fs) than standalone (%.0fs)",
				r.OwnNodes, r.RuntimeSeconds, standalone.RuntimeSeconds)
		}
		if r.NodeHours >= standalone.NodeHours {
			t.Errorf("%d own nodes consumed %.2f node-hours >= standalone %.2f",
				r.OwnNodes, r.NodeHours, standalone.NodeHours)
		}
	}
	// Fewer own nodes -> slower but cheaper.
	if scavenged[0].RuntimeSeconds < scavenged[len(scavenged)-1].RuntimeSeconds {
		t.Error("runtime not monotone in own-node count")
	}

	fig7 := Figure7(rows)
	if len(fig7) != 3 {
		t.Fatalf("Figure7 rows = %d", len(fig7))
	}
	for _, r := range fig7 {
		if r.NormalizedRuntime < 1 {
			t.Errorf("normalized runtime %.2f < 1", r.NormalizedRuntime)
		}
		if r.NormalizedNodeHour >= 1 {
			t.Errorf("normalized node-hours %.2f >= 1", r.NormalizedNodeHour)
		}
	}
	out := FormatTableII(rows)
	if !strings.Contains(out, "unable to run") {
		t.Error("FormatTableII missing the infeasible row")
	}
	if Figure7(nil) != nil {
		t.Error("Figure7 of no rows should be nil")
	}
	if !strings.Contains(FormatFigure7(fig7), "normalized runtime") {
		t.Error("FormatFigure7 missing header")
	}
}

func TestFormatSlowdowns(t *testing.T) {
	rows := []SlowdownRow{
		{Suite: "HPCC", Benchmark: "EP-STREAM", Workload: WorkloadDD, AlphaPct: 25, SlowdownPct: 6.5},
		{Suite: "HPCC", Benchmark: "EP-STREAM", Workload: WorkloadBLAST, AlphaPct: 25, SlowdownPct: 1.0},
	}
	out := FormatSlowdowns("Figure 3", rows)
	for _, want := range []string{"Figure 3", "EP-STREAM", "α=25%", "6.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatSlowdowns missing %q", want)
		}
	}
}

// The loop driver must keep the workload alive across iterations and
// stop cleanly.
func TestLoopDriver(t *testing.T) {
	cfg := Config{OwnNodes: 2, VictimNodes: 4, Scale: 0.02}.withDefaults()
	w, err := newWorld(cfg, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := &loopDriver{w: w, gen: cfg.generator(WorkloadDD)}
	if err := d.start(); err != nil {
		t.Fatal(err)
	}
	w.eng.RunUntil(200)
	if d.iters < 2 {
		t.Fatalf("driver looped only %d times in 200s", d.iters)
	}
	d.stop()
	w.eng.RunUntil(1000)
	iters := d.iters
	w.eng.Run()
	if d.iters > iters+1 {
		t.Error("driver kept restarting after stop")
	}
}

// Extension: the scavenging trade-off must hold for every workflow shape —
// higher runtime, lower node-hours than standalone.
func TestWorkflowSweepShapes(t *testing.T) {
	rows, err := WorkflowSweep(Config{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows)%2 != 0 || len(rows) < 8 {
		t.Fatalf("row structure: %d rows", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		base, scav := rows[i], rows[i+1]
		if base.Workflow != scav.Workflow {
			t.Fatalf("row pairing broken at %d", i)
		}
		if scav.RuntimeFactor < 0.99 {
			t.Errorf("%s: scavenging ran faster (×%.2f) than standalone", scav.Workflow, scav.RuntimeFactor)
		}
		if scav.NodeHourFactor >= 1 {
			t.Errorf("%s: scavenging consumed more node-hours (×%.2f)", scav.Workflow, scav.NodeHourFactor)
		}
	}
	out := FormatWorkflowSweep(rows)
	if !strings.Contains(out, "CyberShake") || !strings.Contains(out, "scavenged") {
		t.Error("FormatWorkflowSweep missing content")
	}
}

func TestFigure2SeriesAndCSV(t *testing.T) {
	samples, err := Figure2Series(Config{Scale: 0.1}, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 3 {
		t.Fatalf("only %d samples", len(samples))
	}
	peakCPU, meanCPU, peakNet, meanNet := SummarizeFigure2Series(samples)
	if peakCPU < meanCPU || peakNet < meanNet {
		t.Fatal("peaks below means")
	}
	if peakCPU >= 5 {
		t.Errorf("victim CPU peak %.1f%% >= 5%%", peakCPU)
	}
	if peakNet >= 550 {
		t.Errorf("victim net peak %.0f MB/s >= the paper's ~500 bound", peakNet)
	}
	var buf strings.Builder
	if err := WriteFigure2CSV(&buf, samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(samples)+1 || !strings.HasPrefix(lines[0], "time_s,") {
		t.Fatalf("CSV malformed: %d lines", len(lines))
	}
	spark := FormatFigure2Series(25, samples, cluster.DAS5.NICBytesPerSec/1e6)
	if !strings.Contains(spark, "α=25%") || !strings.Contains(spark, "net|") {
		t.Errorf("sparkline malformed: %q", spark)
	}
	if FormatFigure2Series(25, nil, cluster.DAS5.NICBytesPerSec/1e6) == "" {
		t.Error("empty series should still render the summary line")
	}
}

// Extension: mid-run revocations must never break the workflow and cost
// only modest runtime overhead.
func TestRevocationSweepShapes(t *testing.T) {
	rows, err := RevocationSweep(Config{Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Revoked != 0 {
		t.Fatal("first row must be the baseline")
	}
	prev := -1.0
	for _, r := range rows {
		if !r.DrainedAll {
			t.Errorf("K=%d: drain incomplete", r.Revoked)
		}
		if r.RuntimeSeconds <= 0 {
			t.Errorf("K=%d: zero runtime", r.Revoked)
		}
		if r.Revoked > 0 && r.OverheadPct < -2 {
			t.Errorf("K=%d: negative overhead %.1f%%", r.Revoked, r.OverheadPct)
		}
		_ = prev
	}
	// Losing half the victims should cost well under a doubling.
	last := rows[len(rows)-1]
	if last.OverheadPct > 100 {
		t.Errorf("K=%d overhead %.1f%% implausibly high", last.Revoked, last.OverheadPct)
	}
	if !strings.Contains(FormatRevocationSweep(rows), "revocation storm") {
		t.Error("format missing title")
	}
}
