package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the calibration mode: every workload is run 2×n times, each run
// a fresh process with another seed (as the driver runs it), alternately
// counted into set A and set B. For each end-to-end metric it prints both
// sets' quartiles, their spread as a share of the median, and how much
// worse B's median is than A's, against the metric's bound. Two sets of
// the same code must agree within the bounds; BENCHMARK.json's bounds were
// chosen from this output.
func runAA(chosen []*spec, n int, seed int64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][set][metric]
	values := map[string][2]map[string][]float64{}
	for _, sp := range chosen {
		values[sp.name] = [2]map[string][]float64{{}, {}}
	}
	for i := 0; i < 2*n; i++ {
		for _, sp := range chosen {
			runSeed := seed + int64(i)
			cmd := exec.Command(exe, "-workload", sp.name, "-trace", "0",
				"-seed", strconv.FormatInt(runSeed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output() // Output waits for the child to end
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", sp.name, runSeed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res jsonResult
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: last line: %w", sp.name, runSeed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", sp.name, runSeed, res.Failed, res.Attempted)
			}
			set := values[sp.name][i%2]
			for name, m := range res.Metrics {
				set[name] = append(set[name], m.Value)
			}
			fmt.Printf("# run %d/%d set %c %s seed=%d ok\n", i+1, 2*n, 'A'+rune(i%2), sp.name, runSeed)
		}
	}
	ok := true
	for _, sp := range chosen {
		fmt.Printf("\n== %s: A/A over %d+%d runs\n", sp.name, n, n)
		fmt.Printf("%-28s %12s %12s %12s %8s | %12s %8s | %8s %6s\n",
			"metric", "A.q1", "A.median", "A.q3", "A.spread", "B.median", "B.spread", "B worse", "bound")
		for _, d := range endToEnd {
			a, b := values[sp.name][0][d.name], values[sp.name][1][d.name]
			aq1, amed, aq3, aspread := quartileSpread(a)
			_, bmed, _, bspread := quartileSpread(b)
			worse := 0.0
			if amed != 0 {
				worse = (bmed - amed) / amed
				if d.better == "higher" {
					worse = -worse
				}
			}
			verdict := ""
			if worse > d.bound || aspread > d.bound || bspread > d.bound {
				verdict = "  OUT OF BOUND"
				ok = false
			}
			fmt.Printf("%-28s %12.6g %12.6g %12.6g %7.1f%% | %12.6g %7.1f%% | %+7.1f%% %5.0f%%%s\n",
				d.name, aq1, amed, aq3, aspread*100, bmed, bspread*100, worse*100, d.bound*100, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("A/A sets disagree beyond the bounds")
	}
	return nil
}
