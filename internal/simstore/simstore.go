// Package simstore is the simulated MemFSS data plane: it reuses the real
// two-layer weighted HRW placement (internal/hrw) and striping
// (internal/stripe) to turn workflow I/O into network flows, store-side CPU
// and memory-bandwidth work, memory occupancy, and small-request load on
// the simulated cluster's nodes. It is the bridge between the workflow
// workloads and the contention the paper's figures measure.
package simstore

import (
	"fmt"
	"sort"

	"memfss/internal/cluster"
	"memfss/internal/hrw"
	"memfss/internal/simnet"
	"memfss/internal/stripe"
)

// CostModel holds the store-side resource costs of moving one byte (or
// serving one request) through a MemFSS store process. Defaults are
// calibrated so that a victim node absorbing ~500 MB/s of scavenging
// traffic shows <5% CPU load, matching Figure 2 of the paper.
type CostModel struct {
	// CPUSecPerByte is store CPU per payload byte (hashing, copying,
	// protocol handling).
	CPUSecPerByte float64
	// CPUSecPerRequest is the fixed CPU cost of each store request.
	CPUSecPerRequest float64
	// MemBWBytesPerByte is memory traffic per payload byte: NIC ring to
	// kernel to user space, protocol parse, heap copy, and the hash pass
	// — in-memory stores touch each byte several times.
	MemBWBytesPerByte float64
	// ClientBytesPerSec is the per-stream throughput of the FUSE/client
	// pipeline for large requests: one task writing one stripe stream
	// cannot exceed it.
	ClientBytesPerSec float64
	// PerRequestOverheadSec is the synchronous round-trip overhead each
	// store request adds on the client side; small-request workloads
	// (BLAST's 8 KiB I/O) therefore stream far below ClientBytesPerSec
	// and keep their transfers — and the request pressure they put on
	// victims — alive much longer.
	PerRequestOverheadSec float64
	// StoreIngestBytesPerSec is the single store process's serving
	// capacity per node (the paper runs exactly one Redis per node,
	// §V-C; Redis is single-threaded).
	StoreIngestBytesPerSec float64
}

// DefaultCosts reflects a tuned in-memory store on DAS-5-class hardware:
// ~0.8 CPU-core-seconds per GB handled plus ~5 µs per request, six memory
// passes per payload byte, a ~120 MB/s per-stream client pipeline and a
// 1.2 GB/s single-threaded store.
var DefaultCosts = CostModel{
	CPUSecPerByte:          0.8e-9,
	CPUSecPerRequest:       5e-6,
	MemBWBytesPerByte:      7,
	ClientBytesPerSec:      120e6,
	PerRequestOverheadSec:  150e-6,
	StoreIngestBytesPerSec: 1.2e9,
}

// streamCap returns the effective per-stream rate for a request size:
// 1 / (1/ClientBytesPerSec + overhead/reqBytes).
func (c CostModel) streamCap(reqBytes int64) float64 {
	if c.ClientBytesPerSec <= 0 {
		return 0
	}
	inv := 1 / c.ClientBytesPerSec
	if c.PerRequestOverheadSec > 0 && reqBytes > 0 {
		inv += c.PerRequestOverheadSec / float64(reqBytes)
	}
	return 1 / inv
}

// IO describes one file-sized I/O operation issued by a workflow task.
type IO struct {
	// Bytes is the total payload.
	Bytes int64
	// RequestBytes is the store-request granularity: the FUSE layer of a
	// dd-style writer issues ~1 MiB requests, while BLAST-style codes
	// issue many small (~8 KiB) requests. Small requests raise the
	// request rate on victim nodes, which is what latency-sensitive MPI
	// tenants feel (paper §IV-C).
	RequestBytes int64
}

// FS is the simulated MemFSS deployment: own nodes run tasks and store
// data; victim nodes only store data (paper §III-A).
type FS struct {
	cls        *cluster.Cluster
	own        []*cluster.Node
	victims    []*cluster.Node
	placer     *hrw.Placer
	layout     stripe.Layout
	costs      CostModel
	victimCap  int64 // per-victim-node scavenged memory cap
	nextFileID int

	nodeByID map[string]*cluster.Node
	// stored tracks bytes resident per node for occupancy accounting.
	stored map[string]int64
	// storeThread is each node's store-process ingest constraint.
	storeThread map[string]*simnet.Constraint
}

// Config configures a simulated deployment.
type Config struct {
	// OwnFraction is α: the fraction of data stored on own nodes
	// (Figure 2's parameter). 1.0 with no victims is the standalone
	// MemFS configuration.
	OwnFraction float64
	// StripeSize is the striping granularity (default 1 MiB).
	StripeSize int64
	// VictimMemCap caps scavenged bytes per victim node (0 = unlimited).
	VictimMemCap int64
	// Costs overrides the store cost model (zero value = DefaultCosts).
	Costs CostModel
}

// New builds the simulated file system over the given own and victim
// nodes.
func New(cls *cluster.Cluster, own, victims []*cluster.Node, cfg Config) (*FS, error) {
	if len(own) == 0 {
		return nil, fmt.Errorf("simstore: need at least one own node")
	}
	if cfg.OwnFraction < 0 || cfg.OwnFraction > 1 {
		return nil, fmt.Errorf("simstore: own fraction %v outside [0,1]", cfg.OwnFraction)
	}
	stripeSize := cfg.StripeSize
	if stripeSize == 0 {
		stripeSize = stripe.DefaultSize
	}
	layout, err := stripe.NewLayout(stripeSize)
	if err != nil {
		return nil, err
	}
	costs := cfg.Costs
	if costs == (CostModel{}) {
		costs = DefaultCosts
	}
	if costs.ClientBytesPerSec < 0 || costs.StoreIngestBytesPerSec < 0 {
		return nil, fmt.Errorf("simstore: negative pipeline rate in cost model")
	}

	ownIDs := make([]string, len(own))
	for i, n := range own {
		ownIDs[i] = n.ID
	}
	classes := []hrw.Class{{Name: "own", Nodes: ownIDs}}
	if len(victims) > 0 && cfg.OwnFraction < 1 {
		d, err := hrw.DeltaForOwnFraction(cfg.OwnFraction)
		if err != nil {
			return nil, err
		}
		vIDs := make([]string, len(victims))
		for i, n := range victims {
			vIDs[i] = n.ID
		}
		if d >= 0 {
			classes[0].Weight = d
		}
		vc := hrw.Class{Name: "victim", Nodes: vIDs}
		if d < 0 {
			vc.Weight = -d
		}
		classes = append(classes, vc)
	}
	placer, err := hrw.NewPlacer(classes...)
	if err != nil {
		return nil, err
	}
	fs := &FS{
		cls:         cls,
		own:         own,
		victims:     victims,
		placer:      placer,
		layout:      layout,
		costs:       costs,
		victimCap:   cfg.VictimMemCap,
		nodeByID:    make(map[string]*cluster.Node),
		stored:      make(map[string]int64),
		storeThread: make(map[string]*simnet.Constraint),
	}
	for _, n := range append(append([]*cluster.Node{}, own...), victims...) {
		fs.nodeByID[n.ID] = n
		if costs.StoreIngestBytesPerSec > 0 {
			fs.storeThread[n.ID] = cls.Net.NewConstraint(n.ID+"/store", costs.StoreIngestBytesPerSec)
		}
	}
	return fs, nil
}

// StoredBytes returns the bytes currently resident on a node's store.
func (fs *FS) StoredBytes(nodeID string) int64 { return fs.stored[nodeID] }

// PreFillVictims seeds each victim store with perVictim resident bytes
// (clamped to the victim cap), modeling the standing intermediate-data
// footprint a long-running workflow keeps scavenged — the memory-occupancy
// state the paper's tenant experiments run against. No traffic is
// generated; only occupancy accounting changes.
func (fs *FS) PreFillVictims(perVictim int64) {
	if perVictim <= 0 {
		return
	}
	for _, v := range fs.victims {
		b := perVictim
		if fs.victimCap > 0 && b > fs.victimCap {
			b = fs.victimCap
		}
		if fs.stored[v.ID] < b {
			fs.stored[v.ID] = b
		}
	}
}

// plan computes, for one file-sized I/O, the per-destination byte totals
// under the two-layer HRW protocol, in deterministic order.
type destShare struct {
	node  *cluster.Node
	bytes int64
}

func (fs *FS) plan(fileID string, bytes int64) []destShare {
	count := fs.layout.Count(bytes)
	shares := make(map[string]int64)
	for idx := int64(0); idx < count; idx++ {
		node := fs.placer.Place(stripe.Key(fileID, idx))
		shares[node] += fs.layout.StripeLen(bytes, idx)
	}
	ids := make([]string, 0, len(shares))
	for id := range shares {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]destShare, 0, len(ids))
	for _, id := range ids {
		dst := fs.nodeByID[id]
		b := shares[id]
		// Victim cap: bytes beyond the scavenged budget spill to the own
		// class (the monitor would otherwise evict; spilling models the
		// cap conservatively).
		if fs.victimCap > 0 && fs.isVictim(id) && fs.stored[id]+b > fs.victimCap {
			over := fs.stored[id] + b - fs.victimCap
			if over > b {
				over = b
			}
			b -= over
			spill := fs.own[len(out)%len(fs.own)]
			out = append(out, destShare{node: spill, bytes: over})
		}
		if b > 0 {
			out = append(out, destShare{node: dst, bytes: b})
		}
	}
	return out
}

func (fs *FS) isVictim(id string) bool {
	for _, v := range fs.victims {
		if v.ID == id {
			return true
		}
	}
	return false
}

// Write simulates a task on src writing a fresh file of io.Bytes: stripes
// flow sequentially to each destination; the destination store burns CPU
// and memory bandwidth and holds the bytes; while a transfer to a victim
// runs, its small-request rate is accounted for latency interference.
func (fs *FS) Write(src *cluster.Node, io IO, done func()) {
	fs.nextFileID++
	fileID := fmt.Sprintf("f-%d", fs.nextFileID)
	fs.transfer(src, fileID, io, true, done)
}

// Read simulates a task on src reading a file of io.Bytes that was placed
// by the same protocol (flows run storage→reader).
func (fs *FS) Read(src *cluster.Node, io IO, done func()) {
	fs.nextFileID++
	fileID := fmt.Sprintf("r-%d", fs.nextFileID)
	fs.transfer(src, fileID, io, false, done)
}

// Release returns bytes previously written (file deletion at workflow
// stage boundaries); occupancy accounting only.
func (fs *FS) Release(bytes int64) {
	// Proportionally reduce stored bytes; exact per-file tracking is not
	// needed for the experiments, which measure occupancy trends.
	total := int64(0)
	for _, b := range fs.stored {
		total += b
	}
	if total == 0 {
		return
	}
	for id, b := range fs.stored {
		rel := int64(float64(bytes) * float64(b) / float64(total))
		if rel > b {
			rel = b
		}
		fs.stored[id] = b - rel
	}
}

// transfer runs the per-destination flows of one I/O sequentially (the
// FUSE layer forwards stripe after stripe, so a single task keeps roughly
// one transfer in flight, as on the real system).
func (fs *FS) transfer(src *cluster.Node, fileID string, io IO, isWrite bool, done func()) {
	if io.Bytes <= 0 {
		if done != nil {
			done()
		}
		return
	}
	reqBytes := io.RequestBytes
	if reqBytes <= 0 {
		reqBytes = 1 << 20
	}
	plan := fs.plan(fileID, io.Bytes)
	var next func(i int)
	next = func(i int) {
		if i >= len(plan) {
			if done != nil {
				done()
			}
			return
		}
		ds := plan[i]
		from, to := src, ds.node
		if !isWrite {
			from, to = ds.node, src
		}
		bytes := float64(ds.bytes)
		store := ds.node // the store side is always the placed node
		requests := bytes / float64(reqBytes)
		cpuWork := bytes*fs.costs.CPUSecPerByte + requests*fs.costs.CPUSecPerRequest
		memWork := bytes * fs.costs.MemBWBytesPerByte

		flowDone := func() {
			if isWrite {
				fs.stored[store.ID] += ds.bytes
			}
			next(i + 1)
		}
		// Every transfer passes through the client pipeline (per-flow
		// cap) and the destination's single store thread, even when it
		// is node-local.
		var extra []*simnet.Constraint
		if th := fs.storeThread[store.ID]; th != nil {
			extra = append(extra, th)
		}
		// Request-rate accounting for latency interference on the store
		// node: while the transfer runs, its initial fair rate divided by
		// the request size approximates the store's request rate (fluid
		// approximation; rate changes mid-flight are ignored).
		var rps float64
		f := fs.cls.Net.StartFlowExt(from.ID, to.ID, bytes, fs.costs.streamCap(reqBytes), extra, func() {
			store.AddRequestLoad(-rps)
			flowDone()
		})
		if f == nil {
			// No pipeline limits configured and node-local: store costs
			// apply at memory speed. done already fired synchronously.
			store.CPU.Submit(cpuWork, nil)
			store.MemBW.Submit(memWork, nil)
			return
		}
		rps = f.Rate() / float64(reqBytes)
		store.AddRequestLoad(rps)
		// Store-side costs run concurrently with the transfer, but a
		// store cannot process data faster than it arrives: cap the
		// resource demand rates at the flow's ingest rate so the store
		// never grabs a full fair share of the victim's CPU or memory
		// bandwidth (it is a trickle, not a batch job).
		rate := f.Rate()
		cpuCap := rate*fs.costs.CPUSecPerByte + rps*fs.costs.CPUSecPerRequest
		store.CPU.SubmitCapped(cpuWork, cpuCap, nil)
		store.MemBW.SubmitCapped(memWork, rate*fs.costs.MemBWBytesPerByte, nil)
	}
	next(0)
}
