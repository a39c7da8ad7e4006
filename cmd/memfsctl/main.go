// Command memfsctl is the MemFSS client CLI: it mounts the file system
// (in the library sense) against a set of running memfsd stores and
// performs namespace and file operations.
//
// Node sets are given as comma-separated host:port lists; node IDs are
// assigned positionally (own-0, own-1, ..., victim-0, ...), so pass the
// lists in the same order on every invocation.
//
// Usage:
//
//	memfsctl -own 127.0.0.1:7700,127.0.0.1:7701 \
//	         -victims 127.0.0.1:7800,127.0.0.1:7801 \
//	         -alpha 0.25 -password secret <command> [args]
//
// Commands:
//
//	put <memfss-path> <local-file>   upload a file ("-" reads stdin)
//	get <memfss-path> <local-file>   download a file ("-" writes stdout)
//	ls <dir>                         list a directory
//	stat <path>                      show entry metadata
//	mkdir <dir>                      create a directory (with parents)
//	rm <path>                        remove a file or empty directory
//	rmr <path>                       remove recursively
//	mv <old> <new>                   rename
//	df                               per-store usage
//	verify <path>                    re-read every stripe of a file
//	fsck                             read-only census: every stripe's slot
//	                                 headers and every node's data keys by
//	                                 class (in slot, stray, orphan, past EOF)
//	scrub                            the census, restoring short stripes
//	health                           probe every node and show detector state
//	repair [path]                    repair one file's redundancy, or show
//	                                 the background repair queue's stats
//	evacuate <node-id>               full revocation: drain a victim store
//	                                 and drop it from the deployment,
//	                                 bounded by -evac-deadline (on expiry
//	                                 the node is force-released and unmoved
//	                                 keys are handed to the repair queue)
//	drain <node-id>                  partial eviction: move data off a
//	                                 victim store until it is at or below
//	                                 -drain-target bytes (default 75% of
//	                                 its cap); the node stays registered,
//	                                 each moved key goes to its slot's
//	                                 successor for good (a whole-stripe
//	                                 rewrite lands back on the slot)
//	stats <health-addr>              fetch a daemon's /metrics and print a
//	                                 compact telemetry summary (this verb
//	                                 needs no -own; it talks HTTP to a
//	                                 memfsd -health-addr endpoint)
//	trace <health-addr> [slow|errors|degraded|recent]
//	                                 list retained operation traces
//	trace <health-addr> get <id>     print one trace's full span tree
//	trace <health-addr> events [type]
//	                                 print the cluster flight recorder
//	                                 (health, evac, lease, repair, quota,
//	                                 chaos)
//	tenant add <name>                register a tenant (namespace
//	                                 /tenants/<name>/) with -quota,
//	                                 -priority and -weight
//	tenant list                      show registered tenants and usage
//	tenant rm <name>                 unregister a tenant (its files stay)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"memfss/internal/container"
	"memfss/internal/core"
	"memfss/internal/qos"
)

// Revocation and tenant tuning shared between main's flag set and run's
// verbs.
var (
	evacDeadline   time.Duration
	drainTarget    int64
	tenantQuota    int64
	tenantWeight   float64
	tenantPriority string
)

func main() {
	log.SetFlags(0)
	ownList := flag.String("own", "", "comma-separated own-node store addresses (required)")
	victimList := flag.String("victims", "", "comma-separated victim-node store addresses")
	alpha := flag.Float64("alpha", 0.25, "fraction of data kept on own nodes")
	password := flag.String("password", "", "store password")
	stripeSize := flag.Int64("stripe", 0, "stripe size in bytes (default 1 MiB)")
	replicas := flag.Int("replicas", 0, "replication factor (0/1 = none)")
	victimCap := flag.Int64("victim-mem", 10<<30, "per-victim scavenged memory cap in bytes")
	flag.DurationVar(&evacDeadline, "evac-deadline", 0,
		"revocation deadline for evacuate (0 = server default); on expiry the node is force-released")
	flag.Int64Var(&drainTarget, "drain-target", 0,
		"drain until the store is at or below this many bytes (0 = 75% of its memory cap)")
	flag.Int64Var(&tenantQuota, "quota", 0,
		"tenant add: memory quota in bytes (0 = unlimited)")
	flag.Float64Var(&tenantWeight, "weight", 1,
		"tenant add: bandwidth share weight")
	flag.StringVar(&tenantPriority, "priority", "normal",
		"tenant add: reclamation priority (low, normal, high)")
	flag.Parse()

	// stats talks HTTP to a daemon's health endpoint — no mount needed.
	if flag.NArg() > 0 && flag.Arg(0) == "stats" {
		if flag.NArg() != 2 {
			log.Fatal("memfsctl: stats needs a daemon health address (host:port or URL)")
		}
		if err := runStats(flag.Arg(1)); err != nil {
			log.Fatalf("memfsctl: %v", err)
		}
		return
	}

	// trace talks HTTP to the forensics endpoints — no mount needed.
	if flag.NArg() > 0 && flag.Arg(0) == "trace" {
		if flag.NArg() < 2 {
			log.Fatal("memfsctl: trace needs a daemon health/debug address (host:port or URL)")
		}
		if err := runTrace(flag.Arg(1), flag.Args()[2:]); err != nil {
			log.Fatalf("memfsctl: %v", err)
		}
		return
	}

	if *ownList == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	fs, err := connect(*ownList, *victimList, *alpha, *password, *stripeSize, *replicas, *victimCap)
	if err != nil {
		log.Fatalf("memfsctl: %v", err)
	}
	defer fs.Close()

	if err := run(fs, flag.Args()); err != nil {
		log.Fatalf("memfsctl: %v", err)
	}
}

func connect(ownList, victimList string, alpha float64, password string,
	stripeSize int64, replicas int, victimCap int64) (*core.FileSystem, error) {
	classes, err := core.OwnVictimClasses(core.ParseNodes("own", ownList), core.ParseNodes("victim", victimList),
		alpha, container.Limits{MemoryBytes: victimCap})
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Classes:    classes,
		StripeSize: stripeSize,
		Password:   password,
		// The CLI always mounts with tenant awareness (unpaced — the
		// daemon enforces bandwidth) so tenant verbs work and writes under
		// /tenants/ are quota-checked against the stored directory.
		QoS: core.QoSPolicy{Tenants: qos.NewRegistry(qos.Options{})},
	}
	if replicas > 1 {
		cfg.Redundancy = core.Redundancy{Mode: core.RedundancyReplicate, Replicas: replicas}
	}
	fs, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := fs.LoadTenants(); err != nil {
		fs.Close()
		return nil, fmt.Errorf("loading tenant directory: %w", err)
	}
	return fs, nil
}

func run(fs *core.FileSystem, args []string) error {
	cmd, rest := args[0], args[1:]
	need := func(n int) error {
		if len(rest) != n {
			return fmt.Errorf("%s needs %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "put":
		if err := need(2); err != nil {
			return err
		}
		var data []byte
		var err error
		if rest[1] == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(rest[1])
		}
		if err != nil {
			return err
		}
		return fs.WriteFile(rest[0], data)
	case "get":
		if err := need(2); err != nil {
			return err
		}
		data, err := fs.ReadFile(rest[0])
		if err != nil {
			return err
		}
		if rest[1] == "-" {
			_, err = os.Stdout.Write(data)
			return err
		}
		return os.WriteFile(rest[1], data, 0o644)
	case "ls":
		if err := need(1); err != nil {
			return err
		}
		entries, err := fs.ReadDir(rest[0])
		if err != nil {
			return err
		}
		for _, e := range entries {
			kind := "f"
			if e.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %12d  %s\n", kind, e.Size, e.Name)
		}
		return nil
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		e, err := fs.Stat(rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("path: %s\ndir: %v\nsize: %d\n", e.Path, e.IsDir, e.Size)
		return nil
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return fs.MkdirAll(rest[0])
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return fs.Remove(rest[0])
	case "rmr":
		if err := need(1); err != nil {
			return err
		}
		return fs.RemoveAll(rest[0])
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return fs.Rename(rest[0], rest[1])
	case "df":
		stats := fs.StoreStats()
		idList := make([]string, 0, len(stats))
		for id := range stats {
			idList = append(idList, id)
		}
		sort.Strings(idList)
		fmt.Printf("%-12s %-8s %14s %14s %8s %s\n", "node", "class", "used", "cap", "keys", "pressure")
		for _, id := range idList {
			s := stats[id]
			pressure := ""
			if s.Pressure {
				pressure = "PRESSURE"
			}
			fmt.Printf("%-12s %-8s %14d %14d %8d %s\n", id, s.Class, s.BytesUsed, s.MaxMemory, s.NumKeys, pressure)
		}
		return nil
	case "verify":
		if err := need(1); err != nil {
			return err
		}
		if err := fs.VerifyFile(rest[0]); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	case "fsck", "scrub":
		if err := need(0); err != nil {
			return err
		}
		census := fs.Fsck
		if cmd == "scrub" {
			census = fs.Scrub
		}
		rep, err := census()
		if err != nil {
			return err
		}
		return printCensus(rep)
	case "health":
		if err := need(0); err != nil {
			return err
		}
		snap := fs.ProbeHealth()
		ids := make([]string, 0, len(snap))
		for id := range snap {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		now := time.Now()
		fmt.Printf("%-12s %-8s %10s %10s %6s %4s\n", "node", "state", "since", "seen", "fails", "oks")
		for _, id := range ids {
			h := snap[id]
			seen := "never"
			if age, ok := h.SeenAge(now); ok {
				seen = age.Round(time.Second).String()
			}
			fmt.Printf("%-12s %-8s %10s %10s %6d %4d\n",
				id, h.State, h.Age(now).Round(time.Second), seen, h.ConsecFails, h.ConsecOKs)
		}
		return nil
	case "repair":
		if len(rest) > 1 {
			return fmt.Errorf("repair takes at most one path")
		}
		if len(rest) == 1 {
			rep, err := fs.RepairFile(rest[0])
			if err != nil {
				return err
			}
			return printCensus(rep)
		}
		st := fs.RepairStats()
		fmt.Printf("enqueued: %d\nrepaired: %d\nintact: %d\nrestored: %d\nunrepairable: %d\n",
			st.Enqueued, st.Repaired, st.Intact, st.Restored, st.Unrepairable)
		fmt.Printf("queued: %d\nowed: %d\nin flight: %d\n", st.Queued, st.Owed, st.InFlight)
		fmt.Printf("overflows: %d\ncensus passes: %d\n", st.Overflows, st.Passes)
		return nil
	case "evacuate":
		if err := need(1); err != nil {
			return err
		}
		rep, err := fs.Evacuate(context.Background(), rest[0],
			core.EvacOptions{Deadline: evacDeadline})
		if rep != nil {
			fmt.Printf("node: %s\nkeys moved: %d\norphans dropped: %d\ndeferred to repair: %d\npasses: %d\n",
				rep.Node, rep.Moved, rep.Orphans, rep.Deferred, rep.Passes)
			fmt.Printf("elapsed: %s (deadline %s)\n",
				rep.Elapsed.Round(time.Millisecond), rep.Deadline)
			if rep.Forced {
				fmt.Printf("FORCED RELEASE: %d at-risk key(s) flushed before a copy was confirmed; "+
					"redundancy restored via replicas and the repair queue\n", rep.AtRisk)
			}
		}
		return err
	case "drain":
		if err := need(1); err != nil {
			return err
		}
		rep, err := fs.DrainNode(context.Background(), rest[0], drainTarget)
		if rep != nil {
			fmt.Printf("node: %s\nkeys moved: %d\nkeys skipped: %d\npasses: %d\n",
				rep.Node, rep.Moved, rep.Skipped, rep.Passes)
			fmt.Printf("bytes: %d -> %d (target %d)\nelapsed: %s\n",
				rep.BytesBefore, rep.BytesAfter, rep.Target, rep.Elapsed.Round(time.Millisecond))
		}
		return err
	case "tenant":
		if len(rest) == 0 {
			return fmt.Errorf("tenant needs a subcommand: add, list, rm")
		}
		sub, subArgs := rest[0], rest[1:]
		switch sub {
		case "add":
			if len(subArgs) != 1 {
				return fmt.Errorf("tenant add needs a tenant name")
			}
			p, err := qos.ParsePriority(tenantPriority)
			if err != nil {
				return err
			}
			spec := qos.TenantSpec{
				Name:       subArgs[0],
				QuotaBytes: tenantQuota,
				Weight:     tenantWeight,
				Priority:   p,
			}
			if err := fs.SaveTenant(spec); err != nil {
				return err
			}
			fmt.Printf("tenant %s registered: namespace %s quota %d weight %g priority %s\n",
				spec.Name, qos.TenantRoot(spec.Name), spec.QuotaBytes, spec.Weight, spec.Priority)
			return nil
		case "list", "ls":
			specs, err := fs.LoadTenants()
			if err != nil {
				return err
			}
			fmt.Printf("%-16s %14s %14s %8s %s\n", "tenant", "quota", "used", "weight", "priority")
			for _, s := range specs {
				fmt.Printf("%-16s %14d %14d %8g %s\n",
					s.Name, s.QuotaBytes, fs.TenantUsage(s.Name), s.Weight, s.Priority)
			}
			return nil
		case "rm":
			if len(subArgs) != 1 {
				return fmt.Errorf("tenant rm needs a tenant name")
			}
			return fs.DeleteTenant(subArgs[0])
		default:
			return fmt.Errorf("unknown tenant subcommand %q", sub)
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printCensus prints a census: the stripe verdicts, each restored slot,
// and one row per node of its data keys by class. It fails on damage.
func printCensus(rep *core.CensusReport) error {
	fmt.Printf("files: %d\ndirs: %d\nbytes: %d\nstripes checked: %d\n"+
		"short stripes: %d\ndeferred stripes: %d\ndamaged stripes: %d\nrestored: %d\n",
		rep.Files, rep.Dirs, rep.Bytes, rep.StripesChecked,
		rep.Short, len(rep.Deferred), len(rep.Unrepairable), len(rep.Restored))
	if len(rep.Nodes) > 0 {
		fmt.Printf("%-12s %8s %8s %8s %8s\n", "node", "in-slot", "stray", "orphan", "past-eof")
		for _, n := range rep.Nodes {
			fmt.Printf("%-12s %8d %8d %8d %8d\n", n.Node, n.InSlot, n.Stray, n.Orphan, n.PastEOF)
		}
	}
	for _, u := range rep.Restored {
		fmt.Printf("RESTORED: %s\n", u)
	}
	for _, u := range rep.Deferred {
		fmt.Printf("DEFERRED: %s\n", u)
	}
	for _, u := range rep.Unrepairable {
		fmt.Printf("DAMAGED: %s\n", u)
	}
	if len(rep.Damaged) > 0 {
		return fmt.Errorf("%d damaged file(s)", len(rep.Damaged))
	}
	fmt.Println("ok")
	return nil
}
