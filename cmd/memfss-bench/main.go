// Command memfss-bench runs the two real-mode (actual TCP stores) legs that
// the repository's benchmark (benchmark/, `bash benchmark/run.sh`) does not
// cover. Throughput, latency and per-layer numbers live there; this
// command gates behaviour under faults and contention:
//
//   - -scenario runs named chaos scenarios from internal/chaos (fault
//     plans, kills, partitions, revocations under live traffic), asserts
//     each scenario's SLOs and appends a trajectory point per scenario to
//     BENCH_scenarios.json.
//   - -tenants runs the multi-tenant QoS leg on an in-process deployment: a
//     high-priority tenant's write throughput solo vs under low-priority
//     saturation, then a lease revocation mid-traffic; it fails on an
//     isolation delta above 25 %, a missed eviction-notice SLO, or any
//     lost byte.
//
// Usage:
//
//	memfss-bench -scenario all
//	memfss-bench -scenario gray-node-ec-read -scenario-out ''
//	memfss-bench -tenants -own 2 -victims 3 -tasks 12 -size 1048576
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	chaospkg "memfss/internal/chaos"
	"memfss/internal/container"
	"memfss/internal/core"
	"memfss/internal/qos"
)

// ownFraction is the share of data the tenants leg keeps on own nodes —
// the paper's 25 % own / 75 % scavenged split.
const ownFraction = 0.25

func main() {
	log.SetFlags(0)
	scenario := flag.String("scenario", "", "run named chaos scenarios from the declarative library and exit nonzero on any SLO violation: 'all' or a comma-separated subset of "+strings.Join(chaospkg.Names(), ", "))
	scenarioOut := flag.String("scenario-out", "BENCH_scenarios.json", "append each -scenario result as a trajectory point to this JSON file ('' disables)")
	tenantsLeg := flag.Bool("tenants", false, "run the multi-tenant QoS leg: a high-priority tenant's throughput solo vs under low-priority saturation, then a mid-workload lease revocation; reports the isolation delta and notice SLO")
	ownN := flag.Int("own", 2, "tenants leg: number of own-node stores to launch")
	victimN := flag.Int("victims", 6, "tenants leg: number of victim-node stores to launch")
	tasks := flag.Int("tasks", 64, "tenants leg: files the high-priority tenant writes per run")
	size := flag.Int64("size", 8<<20, "tenants leg: bytes written per file")
	qosBW := flag.Int64("qos-bw", 8<<20, "tenants leg: aggregate tenant bandwidth budget in bytes/sec, split 3:1 high:low")
	flag.Parse()

	switch {
	case *scenario != "":
		// Each scenario declares its own topology, redundancy and fault
		// plans, so this leg ignores the tenants-leg flags.
		runScenarios(*scenario, *scenarioOut)
	case *tenantsLeg:
		runTenants(*ownN, *victimN, *tasks, *size, *qosBW)
	default:
		fmt.Fprint(os.Stderr, `memfss-bench: select a leg: -scenario <name|all> (chaos scenario matrix, SLO gates)
                            or -tenants (QoS isolation + eviction-notice SLO gate).
Throughput, latency and per-layer numbers: bash benchmark/run.sh --workload <name>
`)
		os.Exit(2)
	}
}

// runTenants is the -tenants workload: two tenants (prod, weight 3,
// high priority; batch, weight 1, low priority) share a loopback
// deployment under an aggregate bandwidth budget. The leg measures prod's
// write throughput alone, then again while batch saturates its own share —
// under strict weighted-fair shares the two numbers should match — and
// finishes with a lease revocation (notice, then evacuation) mid-traffic,
// reporting the eviction-notice SLO and verifying zero prod data loss.
func runTenants(ownN, victimN, tasks int, size, qosBW int64) {
	const password = "bench-secret"
	own, err := core.StartLocalStores(ownN, "own", password, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer own.Close()
	victims, err := core.StartLocalStores(victimN, "victim", password, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer victims.Close()
	classes, err := core.OwnVictimClasses(own.Nodes, victims.Nodes, ownFraction, container.Limits{MemoryBytes: 1 << 34})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("memfss-bench: %d tasks x %d B over %d own + %d victim stores (alpha=%.2f)\n",
		tasks, size, ownN, victimN, ownFraction)

	tenants := qos.NewRegistry(qos.Options{TotalBandwidth: qosBW})
	defer tenants.Close()
	fs, err := core.New(core.Config{
		Classes: classes, Password: password,
		QoS: core.QoSPolicy{Tenants: tenants},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()
	if err := fs.SaveTenant(qos.TenantSpec{Name: "prod", Weight: 3, Priority: qos.PriorityHigh}); err != nil {
		log.Fatal(err)
	}
	if err := fs.SaveTenant(qos.TenantSpec{Name: "batch", Weight: 1, Priority: qos.PriorityLow}); err != nil {
		log.Fatal(err)
	}
	if err := fs.ApplyVictimCaps(); err != nil {
		log.Fatal(err)
	}
	payload := make([]byte, size)
	rand.New(rand.NewSource(42)).Read(payload)
	total := float64(tasks) * float64(size)

	writeAll := func(dir string) time.Duration {
		if err := fs.MkdirAll(dir); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < tasks; i++ {
			if err := fs.WriteFile(fmt.Sprintf("%s/task-%d", dir, i), payload); err != nil {
				log.Fatal(err)
			}
		}
		return time.Since(start)
	}

	soloDur := writeAll("/tenants/prod/solo")
	// Let prod's token bucket (burst = 1s of its share) fill back up so the
	// solo and contended runs start from the same state.
	time.Sleep(1200 * time.Millisecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		junk := payload
		if len(junk) > 256<<10 {
			junk = junk[:256<<10]
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = fs.WriteFile(fmt.Sprintf("/tenants/batch/junk-%d", i%8), junk)
		}
	}()
	contendedDur := writeAll("/tenants/prod/contended")
	close(stop)
	wg.Wait()

	delta := 100 * (soloDur.Seconds() - contendedDur.Seconds()) / soloDur.Seconds()
	if delta < 0 {
		delta = -delta
	}
	fmt.Printf("tenants: prod solo  %6.1f MB in %8v (%6.1f MB/s)\n",
		total/1e6, soloDur.Round(time.Millisecond), total/1e6/soloDur.Seconds())
	fmt.Printf("tenants: contended  %6.1f MB in %8v (%6.1f MB/s)  delta %.1f%% (isolation target <= 25%%)\n",
		total/1e6, contendedDur.Round(time.Millisecond), total/1e6/contendedDur.Seconds(), delta)
	if delta > 25 {
		log.Fatalf("tenants: isolation violated: %.1f%% > 25%%", delta)
	}

	// Revocation leg: lease a victim to batch, then take it back (notice
	// window + graduated evacuation) and check prod lost nothing. Skipped
	// when the deployment has no victims to lease.
	if victimN == 0 {
		return
	}
	const noticeSLO = 100 * time.Millisecond
	if err := fs.AdvertiseCapacity(noticeSLO); err != nil {
		log.Fatal(err)
	}
	lease, err := fs.Broker().Request("batch", 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	rev, err := fs.Revoke(context.Background(), lease.Node, core.RevokeOptions{EvacDeadline: 30 * time.Second})
	took := time.Since(start)
	if err != nil {
		log.Fatalf("tenants: revocation of %s failed: %v", lease.Node, err)
	}
	for i := 0; i < tasks; i++ {
		for _, dir := range []string{"/tenants/prod/solo", "/tenants/prod/contended"} {
			if err := fs.VerifyFile(fmt.Sprintf("%s/task-%d", dir, i)); err != nil {
				log.Fatalf("tenants: prod data lost to revocation: %v", err)
			}
		}
	}
	fmt.Printf("tenants: revoked %s: notice %v (SLO %v, met=%v), evacuated in %v; prod verified, zero loss\n",
		rev.Node, rev.Notice.Round(time.Millisecond), rev.SLO, rev.SLOMet, took.Round(time.Millisecond))
	if !rev.SLOMet {
		log.Fatal("tenants: eviction-notice SLO violated")
	}
}
