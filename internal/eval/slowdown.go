package eval

import (
	"fmt"
	"sort"
	"strings"

	"memfss/internal/obs"
	"memfss/internal/tenant"
)

// SlowdownRow is one bar of Figures 3–5: the slowdown of one tenant
// benchmark under one MemFSS workload at one α.
type SlowdownRow struct {
	Suite       string
	Benchmark   string
	Workload    Workload
	AlphaPct    int
	Baseline    float64
	Measured    float64
	SlowdownPct float64
}

// Slowdowns measures every (benchmark, workload, α) combination for a
// suite, running each benchmark's baseline once. One-element slices give
// a single cell, the unit the per-figure benchmarks time.
func Slowdowns(cfg Config, suite []tenant.Benchmark, workloads []Workload, alphas []int) ([]SlowdownRow, error) {
	cfg = cfg.withDefaults()
	var rows []SlowdownRow
	for _, b := range suite {
		base, err := runBenchmarkAlone(cfg, b)
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", b.Name, err)
		}
		if base <= 0 {
			return nil, fmt.Errorf("baseline %s ran in zero time", b.Name)
		}
		for _, alphaPct := range alphas {
			for _, wl := range workloads {
				measured, err := runBenchmarkScavenged(cfg, b, float64(alphaPct)/100, warmupFor(wl), cfg.generator(wl))
				if err != nil {
					return nil, fmt.Errorf("%s under %s α=%d%%: %w", b.Name, wl, alphaPct, err)
				}
				rows = append(rows, SlowdownRow{
					Suite:       b.Suite,
					Benchmark:   b.Name,
					Workload:    wl,
					AlphaPct:    alphaPct,
					Baseline:    base,
					Measured:    measured,
					SlowdownPct: obs.Slowdown(base, measured),
				})
			}
		}
	}
	return rows, nil
}

var allWorkloads = []Workload{WorkloadMontage, WorkloadBLAST, WorkloadDD}

// Figure3 reproduces §IV-C Figure 3: HPCC slowdown under Montage, BLAST
// and dd scavenging, at α = 25% and 50%.
func Figure3(cfg Config) ([]SlowdownRow, error) {
	return Slowdowns(cfg, tenant.HPCC(), allWorkloads, []int{25, 50})
}

// Figure4 reproduces Figure 4: HiBench-on-Hadoop slowdown at α = 25%/50%.
func Figure4(cfg Config) ([]SlowdownRow, error) {
	return Slowdowns(cfg, tenant.HiBenchHadoop(), allWorkloads, []int{25, 50})
}

// Figure5 reproduces Figure 5: HiBench-on-Spark slowdown at α = 50% only
// (storing more in the victims would starve Spark's own memory, §IV-C).
func Figure5(cfg Config) ([]SlowdownRow, error) {
	return Slowdowns(cfg, tenant.HiBenchSpark(), allWorkloads, []int{50})
}

// AverageRow is one bar of Figure 6: the average slowdown of a suite at
// one α across all benchmarks and MemFSS workloads.
type AverageRow struct {
	Suite          string
	AlphaPct       int
	AvgSlowdownPct float64
}

// Figure6 aggregates Figures 3–5 into the per-suite averages of Figure 6.
func Figure6(rows3, rows4, rows5 []SlowdownRow) []AverageRow {
	type key struct {
		suite string
		alpha int
	}
	sums := map[key][]float64{}
	for _, rows := range [][]SlowdownRow{rows3, rows4, rows5} {
		for _, r := range rows {
			k := key{r.Suite, r.AlphaPct}
			sums[k] = append(sums[k], r.SlowdownPct)
		}
	}
	out := make([]AverageRow, 0, len(sums))
	for k, v := range sums {
		out = append(out, AverageRow{Suite: k.suite, AlphaPct: k.alpha, AvgSlowdownPct: obs.MeanOf(v)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].AlphaPct < out[j].AlphaPct
	})
	return out
}

// FormatSlowdowns renders slowdown rows grouped like the paper's bar
// charts: one block per α, one line per benchmark, one column per
// workload.
func FormatSlowdowns(title string, rows []SlowdownRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	alphas := map[int]bool{}
	benches := []string{}
	seen := map[string]bool{}
	for _, r := range rows {
		alphas[r.AlphaPct] = true
		if !seen[r.Benchmark] {
			seen[r.Benchmark] = true
			benches = append(benches, r.Benchmark)
		}
	}
	alphaList := []int{}
	for a := range alphas {
		alphaList = append(alphaList, a)
	}
	sort.Ints(alphaList)
	lookup := map[string]float64{}
	for _, r := range rows {
		lookup[fmt.Sprintf("%s/%s/%d", r.Benchmark, r.Workload, r.AlphaPct)] = r.SlowdownPct
	}
	for _, a := range alphaList {
		fmt.Fprintf(&b, "  α=%d%% (slowdown %%)\n", a)
		fmt.Fprintf(&b, "  %-16s %10s %10s %10s\n", "benchmark", "Montage", "BLAST", "dd")
		for _, bench := range benches {
			fmt.Fprintf(&b, "  %-16s %10.1f %10.1f %10.1f\n", bench,
				lookup[fmt.Sprintf("%s/Montage/%d", bench, a)],
				lookup[fmt.Sprintf("%s/BLAST/%d", bench, a)],
				lookup[fmt.Sprintf("%s/dd/%d", bench, a)])
		}
	}
	return b.String()
}

// FormatFigure6 renders the Figure 6 averages.
func FormatFigure6(rows []AverageRow) string {
	var b strings.Builder
	b.WriteString("Figure 6 — average slowdown induced by memory scavenging\n")
	fmt.Fprintf(&b, "%-18s %-8s %-12s\n", "suite", "alpha", "avg slowdown %")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-8d %-12.1f\n", r.Suite, r.AlphaPct, r.AvgSlowdownPct)
	}
	return b.String()
}
