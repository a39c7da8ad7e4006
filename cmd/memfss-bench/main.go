// Command memfss-bench runs the named chaos scenarios from internal/chaos
// on real TCP stores: fault plans, kills, partitions and revocations under
// live traffic. It asserts each scenario's SLOs, exits nonzero on any
// violation and appends a trajectory point per scenario to
// BENCH_scenarios.json. Throughput, latency and per-layer numbers live in
// the repository's benchmark (benchmark/, `bash benchmark/run.sh`).
//
// Usage:
//
//	memfss-bench -scenario all
//	memfss-bench -scenario gray-node-ec-read -scenario-out ''
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"memfss/internal/chaos"
)

func main() {
	log.SetFlags(0)
	scenario := flag.String("scenario", "", "run named chaos scenarios from the declarative library and exit nonzero on any SLO violation: 'all' or a comma-separated subset of "+strings.Join(chaos.Names(), ", "))
	scenarioOut := flag.String("scenario-out", "BENCH_scenarios.json", "append each -scenario result as a trajectory point to this JSON file ('' disables)")
	flag.Parse()

	if *scenario == "" {
		fmt.Fprint(os.Stderr, `memfss-bench: select scenarios: -scenario <name|all> (chaos scenario matrix, SLO gates).
Throughput, latency and per-layer numbers: bash benchmark/run.sh --workload <name>
`)
		os.Exit(2)
	}
	runScenarios(*scenario, *scenarioOut)
}
