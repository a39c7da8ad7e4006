// Package cluster models the compute cluster the paper evaluates on: DAS-5
// nodes (dual 8-core Xeon, 64 GB RAM, FDR InfiniBand at ~3 GB/s IPoIB),
// a reservation system with a primary queue, and the secondary
// "scavenging" queue through which victim reservations offer spare memory
// to MemFSS (paper §III-A).
//
// Each simulated node exposes the three contended resources the
// evaluation's slowdowns come from — CPU cores (processor sharing), memory
// bandwidth, and the NIC — plus a memory-capacity ledger and a small-
// request load gauge that models the latency interference of many small
// I/O requests on co-located MPI applications.
package cluster

import (
	"fmt"

	"memfss/internal/sim"
	"memfss/internal/simnet"
	"memfss/internal/simres"
)

// NodeSpec is a node's hardware description.
type NodeSpec struct {
	// Cores is the number of schedulable cores.
	Cores int
	// MemoryBytes is the RAM capacity.
	MemoryBytes int64
	// NICBytesPerSec is the per-direction NIC bandwidth.
	NICBytesPerSec float64
	// MemBWBytesPerSec is the aggregate memory bandwidth.
	MemBWBytesPerSec float64
}

// DAS5 is the node type of the paper's testbed: dual 8-core E5-2630v3
// (16 cores), 64 GB RAM, 54 Gb/s FDR InfiniBand ≈ 3 GB/s usable via IPoIB,
// and ~40 GB/s of memory bandwidth per node.
var DAS5 = NodeSpec{
	Cores:            16,
	MemoryBytes:      64 << 30,
	NICBytesPerSec:   3e9,
	MemBWBytesPerSec: 40e9,
}

// Node is one simulated cluster node.
type Node struct {
	ID   string
	Spec NodeSpec
	// CPU serves core-seconds; each job is capped at one core.
	CPU *simres.PS
	// MemBW serves memory-traffic bytes, uncapped per job.
	MemBW *simres.PS
	// Mem is the RAM ledger.
	Mem *simres.Memory
	// NIC is the node's network interface in the cluster fabric.
	NIC *simnet.NIC

	eng     *sim.Engine
	reqLoad float64 // small I/O requests/sec imposed by co-located stores
	reqInt  float64 // ∫reqLoad dt
	reqLast float64
}

func (n *Node) advanceReq() {
	now := n.eng.Now()
	if now > n.reqLast {
		n.reqInt += n.reqLoad * (now - n.reqLast)
		n.reqLast = now
	}
}

// AddRequestLoad registers rps small requests per second hitting this
// node's store (negative removes load). Latency-sensitive tenant phases
// integrate the load via RequestIntegral.
func (n *Node) AddRequestLoad(rps float64) {
	n.advanceReq()
	n.reqLoad += rps
	if n.reqLoad < 0 {
		n.reqLoad = 0
	}
}

// RequestLoad returns the current small-request rate on the node.
func (n *Node) RequestLoad() float64 { return n.reqLoad }

// RequestIntegral returns the cumulative request count served by stores
// on this node up to the current virtual time. Latency-sensitive tenant
// phases difference it across a work slice to get the average request
// rate they endured — bursty I/O (BLAST's read storms) is thereby charged
// in proportion to its duration, not just its instantaneous presence.
func (n *Node) RequestIntegral() float64 {
	n.advanceReq()
	return n.reqInt
}

// Cluster is a set of nodes sharing one event engine and network fabric.
type Cluster struct {
	Eng   *sim.Engine
	Net   *simnet.Network
	nodes map[string]*Node
	order []string
}

// New creates an empty cluster on the engine.
func New(eng *sim.Engine) *Cluster {
	return &Cluster{
		Eng:   eng,
		Net:   simnet.New(eng),
		nodes: make(map[string]*Node),
	}
}

// AddNode creates a node with the given spec.
func (c *Cluster) AddNode(id string, spec NodeSpec) *Node {
	if _, dup := c.nodes[id]; dup {
		panic(fmt.Sprintf("cluster: node %s added twice", id))
	}
	if spec.Cores <= 0 || spec.MemoryBytes <= 0 || spec.NICBytesPerSec <= 0 || spec.MemBWBytesPerSec <= 0 {
		panic(fmt.Sprintf("cluster: invalid spec %+v for %s", spec, id))
	}
	n := &Node{
		ID:    id,
		Spec:  spec,
		CPU:   simres.NewPS(c.Eng, id+"/cpu", float64(spec.Cores), 1),
		MemBW: simres.NewPS(c.Eng, id+"/membw", spec.MemBWBytesPerSec, 0),
		Mem:   simres.NewMemory(spec.MemoryBytes),
		NIC:   c.Net.AddNode(id, spec.NICBytesPerSec, spec.NICBytesPerSec),
		eng:   c.Eng,
	}
	c.nodes[id] = n
	c.order = append(c.order, id)
	return n
}

// AddNodes creates count nodes named prefix-0..count-1 and returns them.
func (c *Cluster) AddNodes(prefix string, count int, spec NodeSpec) []*Node {
	out := make([]*Node, count)
	for i := range out {
		out[i] = c.AddNode(fmt.Sprintf("%s-%d", prefix, i), spec)
	}
	return out
}

// Nodes returns all nodes in creation order.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, len(c.order))
	for i, id := range c.order {
		out[i] = c.nodes[id]
	}
	return out
}

// UtilWindow captures resource-usage integrals at a start time so average
// utilization over [start, now] can be computed at the end of a run.
type UtilWindow struct {
	c       *Cluster
	start   float64
	cpu     map[string]float64
	membw   map[string]float64
	egress  map[string]float64
	ingress map[string]float64
}

// StartWindow begins a measurement window at the current virtual time.
func (c *Cluster) StartWindow() *UtilWindow {
	w := &UtilWindow{
		c:       c,
		start:   c.Eng.Now(),
		cpu:     make(map[string]float64),
		membw:   make(map[string]float64),
		egress:  make(map[string]float64),
		ingress: make(map[string]float64),
	}
	for id, n := range c.nodes {
		w.cpu[id] = n.CPU.UsedIntegral()
		w.membw[id] = n.MemBW.UsedIntegral()
		eg, in := n.NIC.UsedIntegrals()
		w.egress[id] = eg
		w.ingress[id] = in
	}
	return w
}

// NodeUtil is a node's average utilization over a window.
type NodeUtil struct {
	// CPUFrac is average CPU utilization in [0,1].
	CPUFrac float64
	// NetBytesPerSec is the average combined NIC rate (max of directions,
	// matching how the paper plots per-node bandwidth).
	NetBytesPerSec float64
	// NetFrac is NetBytesPerSec over NIC capacity.
	NetFrac float64
	// MemBWFrac is average memory-bandwidth utilization in [0,1].
	MemBWFrac float64
}

// Node returns a node's average utilization since the window started.
func (w *UtilWindow) Node(id string) NodeUtil {
	n := w.c.nodes[id]
	dur := w.c.Eng.Now() - w.start
	if n == nil || dur <= 0 {
		return NodeUtil{}
	}
	cpu := (n.CPU.UsedIntegral() - w.cpu[id]) / (n.CPU.Capacity() * dur)
	mbw := (n.MemBW.UsedIntegral() - w.membw[id]) / (n.MemBW.Capacity() * dur)
	eg, in := n.NIC.UsedIntegrals()
	egRate := (eg - w.egress[id]) / dur
	inRate := (in - w.ingress[id]) / dur
	net := egRate
	if inRate > net {
		net = inRate
	}
	return NodeUtil{
		CPUFrac:        cpu,
		NetBytesPerSec: net,
		NetFrac:        net / n.Spec.NICBytesPerSec,
		MemBWFrac:      mbw,
	}
}

// GroupAverage averages utilization across a set of node IDs.
func (w *UtilWindow) GroupAverage(ids []string) NodeUtil {
	if len(ids) == 0 {
		return NodeUtil{}
	}
	var sum NodeUtil
	for _, id := range ids {
		u := w.Node(id)
		sum.CPUFrac += u.CPUFrac
		sum.NetBytesPerSec += u.NetBytesPerSec
		sum.NetFrac += u.NetFrac
		sum.MemBWFrac += u.MemBWFrac
	}
	n := float64(len(ids))
	return NodeUtil{
		CPUFrac:        sum.CPUFrac / n,
		NetBytesPerSec: sum.NetBytesPerSec / n,
		NetFrac:        sum.NetFrac / n,
		MemBWFrac:      sum.MemBWFrac / n,
	}
}
