// Command benchmark is the repository's one repeatable benchmark of
// MemFSS. It starts in-process store servers, mounts a FileSystem, and
// drives one of four seeded closed-loop workloads through it, checking
// every byte it reads back.
//
//	go run -C benchmark . -workload dd-bag -seed 1 -trace 0   # end-to-end metrics
//	go run -C benchmark . -workload dd-bag -seed 1 -trace 1   # per-layer metrics + trace file
//	go run -C benchmark .                                     # all workloads, both modes
//	go run -C benchmark . -aa 3                               # A/A calibration of the bounds
//
// The last line of standard output is one JSON object; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// runSeconds is how long one run measures when -seconds is not given; it
// matches run_seconds in BENCHMARK.json. Phase lengths derive from it and
// from nothing else: there are no per-workload tuning flags.
const runSeconds = 20

func main() {
	workloadFlag := flag.String("workload", "all", "dd-bag, ec-stream, montage-meta, rmw-mix, or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "seconds one run measures")
	traceFlag := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; -1: both")
	aa := flag.Int("aa", 0, "A/A mode: run every workload 2×N times as alternating sets A and B and compare them with the bounds")
	out := flag.String("out", "out", "directory for trace files, relative to the benchmark's module root")
	flag.Parse()

	var chosen []*spec
	if *workloadFlag == "all" {
		chosen = specs
	} else if sp := specByName(*workloadFlag); sp != nil {
		chosen = []*spec{sp}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
	}
	if *seconds <= 0 || *traceFlag < -1 || *traceFlag > 1 || *aa < 0 {
		fatal(errors.New("bad -seconds, -trace or -aa"))
	}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), *seed, *seconds)

	if *aa > 0 {
		if err := runAA(chosen, *aa, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	var outDir string
	if *traceFlag != 0 {
		var err error
		if outDir, err = resolveOut(*out); err != nil {
			fatal(err)
		}
	}
	var results []*result
	for _, sp := range chosen {
		if *traceFlag != 1 {
			res, err := runUntraced(sp, *seed, *seconds)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", sp.name, err))
			}
			printResult(res, endToEnd)
			results = append(results, res)
		}
		if *traceFlag != 0 {
			res, err := runTraced(sp, *seed, *seconds, outDir)
			if err != nil {
				fatal(fmt.Errorf("%s traced: %w", sp.name, err))
			}
			printResult(res, perLayer)
			results = append(results, res)
		}
	}
	failed := printSummary(results, len(chosen) > 1 || *traceFlag == -1)
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// commit is the VCS revision the binary was built from, when the
// toolchain recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// moduleRoot finds the benchmark's own directory from the working
// directory: the directory itself, an ancestor, or ./benchmark below the
// repository root — wherever the go.mod of module memfss/benchmark is.
func moduleRoot() (string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	isRoot := func(dir string) bool {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		return err == nil && strings.HasPrefix(string(data), "module memfss/benchmark\n")
	}
	for dir := cwd; ; dir = filepath.Dir(dir) {
		if isRoot(dir) {
			return dir, nil
		}
		if sub := filepath.Join(dir, "benchmark"); isRoot(sub) {
			return sub, nil
		}
		if dir == filepath.Dir(dir) {
			return "", fmt.Errorf("module memfss/benchmark not found above %s", cwd)
		}
	}
}

// resolveOut anchors a relative -out at the module root, not at the
// working directory, so `go run ./benchmark`-style invocations from
// different directories never scatter nested out/ directories.
func resolveOut(out string) (string, error) {
	if !filepath.IsAbs(out) {
		root, err := moduleRoot()
		if err != nil {
			return "", err
		}
		out = filepath.Join(root, out)
	}
	return out, os.MkdirAll(out, 0o755)
}

// printResult lists every metric of the catalogue by name with its unit
// and the sample count behind it.
func printResult(res *result, defs []metricDef) {
	mode := "untraced"
	if res.traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s (%s): ops_attempted=%d ops_failed=%d\n", res.workload, mode, res.attempted, res.failed)
	if res.firstErr != nil {
		fmt.Printf("   first failure: %v\n", res.firstErr)
	}
	for _, d := range defs {
		v := res.metrics[d.name]
		extra := ""
		if v.n > 0 {
			extra = fmt.Sprintf("n=%d", v.n)
		}
		if v.note != "" {
			extra = strings.TrimSpace(extra + " " + v.note)
		}
		fmt.Printf("%-46s %14.6g %-6s %s\n", d.name, v.v, d.unit, extra)
	}
}

// jsonMetric and jsonResult are the machine-readable last line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printSummary prints the final JSON line. With one workload in one mode
// the metric names are the catalogue's; otherwise each is prefixed with
// its workload.
func printSummary(results []*result, prefix bool) (failed int) {
	out := jsonResult{Metrics: map[string]jsonMetric{}}
	for _, res := range results {
		out.Attempted += res.attempted
		out.Failed += res.failed
		for name, v := range res.metrics {
			if prefix {
				name = res.workload + "/" + name
			}
			out.Metrics[name] = jsonMetric{Value: v.v, Unit: v.unit}
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s\n", line)
	return out.Failed
}
