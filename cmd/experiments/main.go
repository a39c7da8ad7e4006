// Command experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated cluster and prints the results in the
// layout of the paper's tables/plots.
//
// Usage:
//
//	experiments -run all            # everything (minutes at scale 1.0)
//	experiments -run fig2,tab2      # selected experiments
//	experiments -run fig3 -scale 0.2  # quick, scaled-down sweep
//
// Experiment IDs: tab1, fig2, fig3, fig4, fig5, fig6, tab2, fig7, ext
// (the workflow-sweep extension). fig6 implies fig3+fig4+fig5; fig7
// implies tab2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"memfss/internal/eval"
)

// csvDir is the optional output directory for per-figure CSV time series.
var csvDir *string

func main() {
	log.SetFlags(0)
	runList := flag.String("run", "all", "comma-separated experiment IDs (tab1,fig2,fig3,fig4,fig5,fig6,tab2,fig7,ext) or 'all'")
	scale := flag.Float64("scale", 1.0, "workload scale (1.0 = paper size)")
	own := flag.Int("own", 8, "own nodes")
	victims := flag.Int("victims", 32, "victim nodes")
	csvDir = flag.String("csv", "", "directory to write per-figure CSV time series (empty = off)")
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	pick := func(ids ...string) bool {
		if all {
			return true
		}
		for _, id := range ids {
			if want[id] {
				return true
			}
		}
		return false
	}
	cfg := eval.Config{Scale: *scale, OwnNodes: *own, VictimNodes: *victims}

	section := func(name string, fn func() error) {
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if pick("tab1") {
		section("Table I", func() error {
			m, err := eval.TableIMeasured(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.FormatTableI(eval.TableIReference(), m))
			return nil
		})
	}

	if pick("fig2") {
		section("Figure 2", func() error {
			rows, err := eval.Figure2(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.FormatFigure2(rows))
			// Time-resolved view (Figures 2a–2e plot utilization over the
			// run): sparkline per α, CSV per α when -csv is set.
			for _, alpha := range []int{0, 25, 50, 75, 100} {
				samples, err := eval.Figure2Series(cfg, alpha, 1)
				if err != nil {
					return err
				}
				// Sparkline full scale: 600 MB/s, just above the paper's
				// "never higher than 500 MB/s" victim bound, so the bars
				// are legible (the NIC itself is 3000 MB/s).
				fmt.Print(eval.FormatFigure2Series(alpha, samples, 600))
				if *csvDir != "" {
					if err := os.MkdirAll(*csvDir, 0o755); err != nil {
						return err
					}
					name := filepath.Join(*csvDir, fmt.Sprintf("fig2_alpha%d.csv", alpha))
					f, err := os.Create(name)
					if err != nil {
						return err
					}
					if err := eval.WriteFigure2CSV(f, samples); err != nil {
						f.Close()
						return err
					}
					if err := f.Close(); err != nil {
						return err
					}
					fmt.Printf("  wrote %s\n", name)
				}
			}
			return nil
		})
	}

	var rows3, rows4, rows5 []eval.SlowdownRow
	if pick("fig3", "fig6") {
		section("Figure 3", func() error {
			var err error
			rows3, err = eval.Figure3(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.FormatSlowdowns("Figure 3 — HPCC slowdown under memory scavenging", rows3))
			return nil
		})
	}
	if pick("fig4", "fig6") {
		section("Figure 4", func() error {
			var err error
			rows4, err = eval.Figure4(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.FormatSlowdowns("Figure 4 — HiBench (Hadoop) slowdown under memory scavenging", rows4))
			return nil
		})
	}
	if pick("fig5", "fig6") {
		section("Figure 5", func() error {
			var err error
			rows5, err = eval.Figure5(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.FormatSlowdowns("Figure 5 — HiBench (Spark) slowdown, α=50%", rows5))
			return nil
		})
	}
	if pick("fig6") {
		section("Figure 6", func() error {
			fmt.Print(eval.FormatFigure6(eval.Figure6(rows3, rows4, rows5)))
			return nil
		})
	}

	var tab2 []eval.TableIIRow
	if pick("tab2", "fig7") {
		section("Table II", func() error {
			var err error
			tab2, err = eval.TableII(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.FormatTableII(tab2))
			return nil
		})
	}
	if pick("fig7") {
		section("Figure 7", func() error {
			fmt.Print(eval.FormatFigure7(eval.Figure7(tab2)))
			return nil
		})
	}

	if pick("ext") {
		section("Extension: workflow sweep", func() error {
			rows, err := eval.WorkflowSweep(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.FormatWorkflowSweep(rows))
			return nil
		})
	}

	if !all && len(want) == 0 {
		fmt.Fprintln(os.Stderr, "nothing selected; see -run")
		os.Exit(2)
	}
}
