// Command memfsd runs one MemFSS store daemon — the per-node in-memory
// data store (the role Redis plays in the paper). Start one per own node
// and one per victim node, then point memfsctl or the core library at
// them.
//
// With -health-addr the daemon also serves an HTTP observability
// endpoint:
//
//	GET /healthz   liveness plus the store's usage stats as JSON
//	GET /metrics   Prometheus text exposition of the telemetry registry
//
// so orchestrators and operators can watch a node without speaking the
// store wire protocol (clients additionally probe the wire port directly
// via PING, which is what the failure detector consumes). In gateway
// mode the same listener also serves the forensics endpoints:
//
//	GET /debug/traces  retained operation traces (tail-sampled span trees)
//	GET /debug/events  the cluster flight recorder (health, evac, lease,
//	                   repair, quota events)
//	PUT/GET /io/<path> read and write files through the gateway's own
//	                   (traced) data path
//
// With -debug-addr the daemon additionally serves net/http/pprof and the
// same forensics endpoints on a separate listener, and exports Go
// runtime gauges (goroutines, heap, GC pauses) into /metrics.
//
// With -own (and optionally -victims) the daemon additionally mounts a
// MemFSS client over the listed stores — gateway mode. The mounted
// FileSystem shares the daemon's telemetry registry, so /metrics exposes
// the full stack (store gauges, per-node kvstore client latency, data
// path, health detector, repair queue) and /healthz folds in the failure
// detector's per-node states and the repair queue's backlog. One gateway
// next to a workload gives the whole deployment's observability from a
// single scrape target.
//
// Usage:
//
//	memfsd -addr :7700 -password secret -maxmem 10737418240 -health-addr :7780
//	memfsd -addr :7700 -health-addr :7780 \
//	       -own 127.0.0.1:7700 -victims 127.0.0.1:7800,127.0.0.1:7801
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memfss/internal/container"
	"memfss/internal/core"
	"memfss/internal/kvstore"
	"memfss/internal/obs"
	"memfss/internal/obs/trace"
	"memfss/internal/qos"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "listen address")
	password := flag.String("password", "", "require AUTH with this password")
	maxMem := flag.Int64("maxmem", 0, "memory cap in bytes (0 = unlimited); on victim nodes this is the scavenged-memory budget")
	healthAddr := flag.String("health-addr", "", "serve GET /healthz and GET /metrics on this address; empty disables")
	ownList := flag.String("own", "", "gateway mode: comma-separated own-node store addresses to mount")
	victimList := flag.String("victims", "", "gateway mode: comma-separated victim-node store addresses")
	alpha := flag.Float64("alpha", 0.25, "gateway mode: fraction of data kept on own nodes")
	replicas := flag.Int("replicas", 0, "gateway mode: replication factor (0/1 = none)")
	victimCap := flag.Int64("victim-mem", 10<<30, "gateway mode: per-victim scavenged memory cap in bytes")
	slowOp := flag.Duration("slow-op", 0, "gateway mode: log ops slower than this with a trace (0 = 1s default, negative disables)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /debug/{traces,events} on this address, and export Go runtime gauges; empty disables")
	qosBW := flag.Int64("qos-bw", 0, "gateway mode: aggregate tenant bandwidth budget in bytes/sec split by weight (0 = tenants metered but unpaced)")
	flag.Parse()

	store := kvstore.NewStore(*maxMem)
	srv := kvstore.NewServer(store, *password)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("memfsd: %v", err)
	}
	fmt.Printf("memfsd: serving on %s (maxmem=%d, auth=%v)\n", bound, *maxMem, *password != "")

	started := time.Now()
	reg := obs.NewRegistry()
	registerStoreGauges(reg, store, started)

	var fs *core.FileSystem
	if *ownList != "" {
		fs, err = mountGateway(reg, *ownList, *victimList, *alpha, *password, *replicas, *victimCap, *slowOp, *qosBW)
		if err != nil {
			log.Fatalf("memfsd: gateway mount: %v", err)
		}
		defer fs.Close()
		fmt.Printf("memfsd: gateway mounted over own=[%s] victims=[%s]\n", *ownList, *victimList)
		// Reload the persisted tenant directory so quotas, weights and
		// priorities survive a gateway restart.
		if specs, err := fs.LoadTenants(); err != nil {
			log.Printf("memfsd: tenant reload: %v", err)
		} else if len(specs) > 0 {
			fmt.Printf("memfsd: %d tenant(s) loaded (qos-bw=%d B/s)\n", len(specs), *qosBW)
		}
	}

	if *healthAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(healthzPayload(store, bound, started, fs))
		})
		if fs != nil {
			// Trace/event forensics ride the health listener too, so a
			// gateway scrape target answers "why was that op slow" without
			// opening the debug port.
			mux.Handle("/debug/traces", trace.Handler(fs.Traces()))
			mux.Handle("/debug/events", trace.EventsHandler(fs.Events()))
			// /io routes HTTP reads and writes through the gateway's own
			// data path, so the traces and exemplars above reflect real
			// traffic.
			mux.Handle("/io/", ioHandler(fs))
		}
		hsrv := &http.Server{Addr: *healthAddr, Handler: mux}
		go func() {
			if err := hsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("memfsd: health endpoint: %v", err)
			}
		}()
		defer hsrv.Close()
		fmt.Printf("memfsd: health endpoint on http://%s/healthz (metrics on /metrics)\n", *healthAddr)
	}

	if *debugAddr != "" {
		stop := make(chan struct{})
		defer close(stop)
		registerRuntimeGauges(reg, stop)
		dsrv := serveDebug(*debugAddr, fs)
		defer dsrv.Close()
		fmt.Printf("memfsd: debug endpoint on http://%s/debug/pprof/ (traces on /debug/traces)\n", *debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("memfsd: shutting down")
	if err := srv.Close(); err != nil {
		log.Fatalf("memfsd: close: %v", err)
	}
}

// registerStoreGauges exports the local store's usage as gauge families,
// read live at scrape time.
func registerStoreGauges(reg *obs.Registry, store *kvstore.Store, started time.Time) {
	reg.Gauge("memfss_store_uptime_seconds", "Daemon uptime.", nil, func() float64 {
		return time.Since(started).Seconds()
	})
	reg.Gauge("memfss_store_bytes_used", "Payload bytes resident in the store.", nil, func() float64 {
		return float64(store.Stats().BytesUsed)
	})
	reg.Gauge("memfss_store_max_memory_bytes", "Configured memory cap (0 = unlimited).", nil, func() float64 {
		return float64(store.Stats().MaxMemory)
	})
	reg.Gauge("memfss_store_keys", "Resident keys.", nil, func() float64 {
		return float64(store.Stats().NumKeys)
	})
	reg.Gauge("memfss_store_ops", "Commands processed since start.", nil, func() float64 {
		return float64(store.Stats().TotalOps)
	})
	reg.Gauge("memfss_store_pressure", "1 while the store is above its memory-pressure watermark.", nil, func() float64 {
		if store.Stats().Pressure {
			return 1
		}
		return 0
	})
}

// mountGateway builds the core Config from the CLI node lists and mounts
// a FileSystem sharing reg.
func mountGateway(reg *obs.Registry, ownList, victimList string, alpha float64,
	password string, replicas int, victimCap int64, slowOp time.Duration, qosBW int64) (*core.FileSystem, error) {
	classes, err := core.OwnVictimClasses(core.ParseNodes("own", ownList), core.ParseNodes("victim", victimList),
		alpha, container.Limits{MemoryBytes: victimCap})
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Classes:  classes,
		Password: password,
		Obs:      core.ObsPolicy{Registry: reg, SlowOpThreshold: slowOp},
		// The gateway is the QoS enforcement point: tenants share one
		// registry with the telemetry registry so /metrics exposes the
		// memfss_qos_* families alongside the data path.
		QoS: core.QoSPolicy{Tenants: qos.NewRegistry(qos.Options{
			TotalBandwidth: qosBW,
			Obs:            reg,
		})},
	}
	if replicas > 1 {
		cfg.Redundancy = core.Redundancy{Mode: core.RedundancyReplicate, Replicas: replicas}
	}
	return core.New(cfg)
}

// healthzPayload assembles the /healthz JSON: always the local store's
// stats; in gateway mode also the detector's per-node states, the repair
// queue, and the data-path counters.
func healthzPayload(store *kvstore.Store, bound string, started time.Time, fs *core.FileSystem) map[string]any {
	st := store.Stats()
	out := map[string]any{
		"status":         "ok",
		"addr":           bound,
		"uptime_seconds": int64(time.Since(started).Seconds()),
		"bytes_used":     st.BytesUsed,
		"max_memory":     st.MaxMemory,
		"num_keys":       st.NumKeys,
		"total_ops":      st.TotalOps,
		"pressure":       st.Pressure,
		"over_cap":       st.MaxMemory > 0 && st.BytesUsed > st.MaxMemory,
	}
	if fs == nil {
		return out
	}
	if draining := fs.Draining(); len(draining) > 0 {
		out["draining"] = draining
	}
	snap := fs.Health()
	now := time.Now()
	nodes := make(map[string]any, len(snap))
	for id, h := range snap {
		n := map[string]any{
			"state":        h.State.String(),
			"since":        h.Since.Format(time.RFC3339),
			"age_seconds":  h.Age(now).Seconds(),
			"consec_fails": h.ConsecFails,
			"consec_oks":   h.ConsecOKs,
			"last_seen":    h.LastSeen.Format(time.RFC3339),
		}
		if age, ok := h.SeenAge(now); ok {
			n["last_seen_age_seconds"] = age.Seconds()
		}
		nodes[id] = n
	}
	out["health"] = nodes
	rs := fs.RepairStats()
	out["repair"] = map[string]any{
		"enqueued":     rs.Enqueued,
		"repaired":     rs.Repaired,
		"restored":     rs.Restored,
		"unrepairable": rs.Unrepairable,
		"overflows":    rs.Overflows,
		"full_scrubs":  rs.FullScrubs,
		"queued":       rs.Queued,
		"parked":       rs.Parked,
		"in_flight":    rs.InFlight,
	}
	c := fs.Counters()
	out["fs"] = map[string]any{
		"bytes_written":          c.BytesWritten,
		"bytes_read":             c.BytesRead,
		"stripe_writes":          c.StripeWrites,
		"stripe_reads":           c.StripeReads,
		"deep_probes":            c.DeepProbes,
		"degraded_writes":        c.DegradedWrites,
		"skipped_replica_writes": c.SkippedReplicaWrites,
		"fenced_replica_writes":  c.FencedWrites,
		"no_space_writes":        c.NoSpaceWrites,
		"store_ops":              c.StoreOps,
		"store_attempts":         c.StoreAttempts,
	}
	if specs := fs.Tenants(); len(specs) > 0 {
		tenants := make(map[string]any, len(specs))
		for _, s := range specs {
			tenants[s.Name] = map[string]any{
				"quota":    s.QuotaBytes,
				"used":     fs.TenantUsage(s.Name),
				"weight":   s.Weight,
				"priority": s.Priority.String(),
			}
		}
		out["tenants"] = tenants
	}
	return out
}
