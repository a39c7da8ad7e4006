package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"memfss/internal/chaos"
)

// runScenarios executes named scenarios from the internal/chaos library,
// prints one trajectory point per scenario, appends each result to the
// JSON trajectory file, and exits nonzero if any SLO was violated. Each
// scenario builds (and tears down) its own cluster.
func runScenarios(spec, out string) {
	var scs []chaos.Scenario
	if spec == "all" {
		scs = chaos.Scenarios()
	} else {
		for _, name := range strings.Split(spec, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			sc, ok := chaos.Lookup(name)
			if !ok {
				log.Fatalf("memfss-bench: unknown scenario %q (have: %s)",
					name, strings.Join(chaos.Names(), ", "))
			}
			scs = append(scs, sc)
		}
	}
	if len(scs) == 0 {
		log.Fatalf("memfss-bench: -scenario %q selected nothing (have: %s)",
			spec, strings.Join(chaos.Names(), ", "))
	}

	failed := 0
	for _, sc := range scs {
		fmt.Printf("scenario %-26s %s\n", sc.Name+":", sc.Describe)
		res, err := chaos.Run(context.Background(), sc, chaos.RunOptions{})
		if err != nil {
			log.Fatalf("scenario %s: %v", sc.Name, err)
		}
		printScenarioPoint(res)
		if out != "" {
			if err := chaos.AppendResult(out, res); err != nil {
				log.Fatalf("scenario %s: append %s: %v", sc.Name, out, err)
			}
		}
		if !res.Passed {
			failed++
		}
	}
	if out != "" {
		fmt.Printf("scenario: appended %d trajectory point(s) to %s\n", len(scs), out)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "scenario: %d/%d scenarios FAILED their SLOs\n", failed, len(scs))
		os.Exit(1)
	}
	fmt.Printf("scenario: all %d scenarios passed their SLOs\n", len(scs))
}

// printScenarioPoint renders one Result as a few human-readable lines —
// the same numbers AppendResult persists, for eyeballing a run in CI logs.
func printScenarioPoint(res *chaos.Result) {
	for _, st := range res.Streams {
		fmt.Printf("  stream %-10s ops=%-5d errors=%-3d rate=%.4f wp99=%.2fms rp99=%.2fms quota_rejects=%d\n",
			st.Name, st.Ops, st.Errors, st.WorstWindowRate, st.WriteP99Ms, st.ReadP99Ms, st.QuotaRejects)
	}
	for _, d := range res.Detection {
		if d.Ms < 0 {
			fmt.Printf("  detection %s: never condemned\n", d.Node)
		} else {
			fmt.Printf("  detection %s: %.0fms\n", d.Node, d.Ms)
		}
	}
	if res.RecoveryMs > 0 || res.RecoveryTimedOut {
		fmt.Printf("  recovery: %.0fms (timed_out=%v)\n", res.RecoveryMs, res.RecoveryTimedOut)
	}
	for _, ev := range res.Evacs {
		fmt.Printf("  evac %s: moved=%d deferred=%d at_risk=%d in %.0fms\n",
			ev.Node, ev.Moved, ev.Deferred, ev.AtRisk, ev.ElapsedMs)
	}
	for _, rv := range res.Revokes {
		fmt.Printf("  revoke %s: leases=%d notice=%.0fms (slo %.0fms, met=%v) leave=%.0fms\n",
			rv.Node, rv.Leases, rv.NoticeMs, rv.NoticeSLOMs, rv.SLOMet, rv.LeaveMs)
	}
	if len(res.Measured) > 0 {
		fmt.Printf("  measured: %v\n", res.Measured)
	}
	fmt.Printf("  loss: fsck_damaged=%d mismatches=%d verified=%d tainted=%d scrub(restored=%d unrepairable=%d)\n",
		res.FsckDamaged, res.LossMismatches, res.VerifiedPaths, res.TaintedPaths,
		res.ScrubRestored, res.ScrubUnrepairable)
	fmt.Printf("  faults: pre_drops=%d mid_drops=%d cuts=%d delays=%d verb_drops=%d refused=%d\n",
		res.Faults.PreDrops, res.Faults.MidDrops, res.Faults.Cuts,
		res.Faults.Delays, res.Faults.VerbDrops, res.Faults.Refused)
	if res.Passed {
		fmt.Printf("  verdict: PASS (%.0fms workload)\n", res.DurationMs)
		return
	}
	fmt.Printf("  verdict: FAIL\n")
	for _, v := range res.Violations {
		fmt.Printf("    violation: %s\n", v)
	}
}
