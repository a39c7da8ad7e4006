package memfss

// Repository-level benchmarks: one per table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md §6. The per-figure benchmarks run the same harness as
// cmd/experiments at a reduced scale so `go test -bench=.` stays
// laptop-friendly; run cmd/experiments -scale 1.0 for paper-scale output.

import (
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"

	"memfss/internal/chash"
	"memfss/internal/cluster"
	"memfss/internal/container"
	"memfss/internal/core"
	"memfss/internal/erasure"
	"memfss/internal/eval"
	"memfss/internal/fsmeta"
	"memfss/internal/hrw"
	"memfss/internal/sim"
	"memfss/internal/simstore"
	"memfss/internal/tenant"
	"memfss/internal/workflow"
)

// benchCfg is the reduced-scale configuration used by the per-figure
// benchmarks.
var benchCfg = eval.Config{OwnNodes: 4, VictimNodes: 8, Scale: 0.05}

func BenchmarkTableIUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := eval.TableIMeasured(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if m.CPUPct <= 0 {
			b.Fatal("no utilization measured")
		}
	}
}

func BenchmarkFigure2Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure2(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// slowdownBench runs one representative (suite, benchmark, workload, α)
// cell of a slowdown figure.
func slowdownBench(b *testing.B, suite []tenant.Benchmark, name string, wl eval.Workload, alpha int) {
	b.Helper()
	var bench *tenant.Benchmark
	for i := range suite {
		if suite[i].Name == name {
			bench = &suite[i]
		}
	}
	if bench == nil {
		b.Fatalf("benchmark %s not in suite", name)
	}
	for i := 0; i < b.N; i++ {
		rows, err := eval.Slowdowns(benchCfg, []tenant.Benchmark{*bench}, []eval.Workload{wl}, []int{alpha})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Baseline <= 0 || rows[0].Measured <= 0 {
			b.Fatal("degenerate slowdown cell")
		}
	}
}

func BenchmarkFigure3HPCC(b *testing.B) {
	slowdownBench(b, tenant.HPCC(), "EP-STREAM", eval.WorkloadDD, 25)
}

func BenchmarkFigure4HiBenchHadoop(b *testing.B) {
	slowdownBench(b, tenant.HiBenchHadoop(), "TeraSort", eval.WorkloadDD, 25)
}

func BenchmarkFigure5HiBenchSpark(b *testing.B) {
	slowdownBench(b, tenant.HiBenchSpark(), "TeraSort", eval.WorkloadDD, 50)
}

func BenchmarkFigure6Average(b *testing.B) {
	rows := []eval.SlowdownRow{
		{Suite: "HPCC", AlphaPct: 25, SlowdownPct: 5},
		{Suite: "HPCC", AlphaPct: 25, SlowdownPct: 7},
		{Suite: "HiBench-Spark", AlphaPct: 50, SlowdownPct: 18},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := eval.Figure6(rows, nil, nil); len(got) != 2 {
			b.Fatalf("%d averages", len(got))
		}
	}
}

func BenchmarkTableIIResource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.TableII(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) < 5 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

func BenchmarkFigure7Normalized(b *testing.B) {
	rows, err := eval.TableII(benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := eval.Figure7(rows); len(got) == 0 {
			b.Fatal("no normalized rows")
		}
	}
}

// --- ablations (DESIGN.md §6) ----------------------------------------------

// Ablation (paper §V-C): placement decision cost of the two-layer
// weighted HRW scheme vs flat HRW over all 40 nodes vs a consistent-hash
// ring with enough virtual nodes for comparable balance. The ring needs
// O(log V) lookups but V = 40×128 points of state — and carrying weights
// on a ring multiplies the virtual-node count, which is exactly the
// overhead (one bin ≈ one store process) the paper rejects.
func BenchmarkAblationPlacementSchemes(b *testing.B) {
	own := make([]string, 8)
	for i := range own {
		own[i] = fmt.Sprintf("own-%d", i)
	}
	victims := make([]string, 32)
	for i := range victims {
		victims[i] = fmt.Sprintf("victim-%d", i)
	}
	d, _ := hrw.DeltaForOwnFraction(0.25)
	placer, err := hrw.NewPlacer(
		hrw.Class{Name: "own", Weight: d, Nodes: own},
		hrw.Class{Name: "victim", Nodes: victims},
	)
	if err != nil {
		b.Fatal(err)
	}
	all := append(append([]string{}, own...), victims...)
	ring, err := chash.New(all, 128)
	if err != nil {
		b.Fatal(err)
	}
	// A weighted ring carrying the 25/75 split: own nodes need 4/3 the
	// per-node share of victims ((25/8)/(75/32) = 4/3).
	weighted := map[string]int{}
	for _, n := range own {
		weighted[n] = 4 * 128
	}
	for _, n := range victims {
		weighted[n] = 3 * 128
	}
	wring, err := chash.NewWeighted(weighted)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("f-%d#%d", i%37, i)
	}
	b.Run("two-layer-weighted-hrw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			placer.Place(keys[i%len(keys)])
		}
	})
	b.Run("flat-hrw-40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hrw.Top(all, keys[i%len(keys)])
		}
	})
	b.Run(fmt.Sprintf("chash-ring-%dpts", ring.Points()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ring.Place(keys[i%len(keys)])
		}
	})
	b.Run(fmt.Sprintf("chash-weighted-%dpts", wring.Points()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wring.Place(keys[i%len(keys)])
		}
	})
}

// Ablation: minimal disruption of two-layer HRW when a victim node leaves
// (evacuation) — fraction of keys that move, vs the 1/N ideal.
func BenchmarkAblationDisruptionOnEvacuation(b *testing.B) {
	victims := make([]string, 32)
	for i := range victims {
		victims[i] = fmt.Sprintf("victim-%d", i)
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("f-%d#%d", i%127, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moved := 0
		shrunk := victims[1:]
		for _, k := range keys {
			if hrw.Top(victims, k) != hrw.Top(shrunk, k) {
				moved++
			}
		}
		if frac := float64(moved) / float64(len(keys)); frac > 2.0/float64(len(victims)) {
			b.Fatalf("disruption %.3f far above 1/N", frac)
		}
	}
}

// Ablation: replication vs erasure coding — storage overhead and encode
// cost for equivalent two-failure tolerance.
func BenchmarkAblationReplicationVsErasure(b *testing.B) {
	payload := make([]byte, 1<<20)
	b.Run("replicate-3x", func(b *testing.B) {
		b.SetBytes(1 << 20)
		for i := 0; i < b.N; i++ {
			// Replication "encode" is two extra copies.
			c1 := append([]byte(nil), payload...)
			c2 := append([]byte(nil), payload...)
			_, _ = c1, c2
		}
	})
	b.Run("erasure-rs-8-2", func(b *testing.B) {
		c, err := erasure.NewCoder(8, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(1 << 20)
		for i := 0; i < b.N; i++ {
			shards := c.Split(payload)
			if _, err := c.Encode(shards); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: stripe-size sweep on the real (TCP) file system — write+read
// throughput per stripe size.
func BenchmarkAblationStripeSize(b *testing.B) {
	for _, stripeSize := range []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("stripe-%dKiB", stripeSize>>10), func(b *testing.B) {
			stores, err := core.StartLocalStores(4, "node", "", 0)
			if err != nil {
				b.Fatal(err)
			}
			defer stores.Close()
			fs, err := core.New(core.Config{
				Classes:    []core.ClassSpec{{Name: "own", Nodes: stores.Nodes}},
				StripeSize: stripeSize,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			payload := make([]byte, 4<<20)
			b.SetBytes(8 << 20) // write + read
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path := fmt.Sprintf("/f%d", i%8)
				if err := fs.WriteFile(path, payload); err != nil {
					b.Fatal(err)
				}
				if _, err := fs.ReadFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: metadata placement — modulo sharding (the paper's choice) vs
// HRW for metadata keys; measures lookup decision cost only (the paper's
// argument is latency locality, the decision cost is the mechanical part).
func BenchmarkAblationMetadataSharding(b *testing.B) {
	own := make([]string, 8)
	for i := range own {
		own[i] = fmt.Sprintf("own-%d", i)
	}
	paths := make([]string, 512)
	for i := range paths {
		paths[i] = fmt.Sprintf("/wf/stage-%d/part-%d", i%17, i)
	}
	b.Run("modulo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fsmeta.Shard(paths[i%len(paths)], len(own))
		}
	})
	b.Run("hrw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hrw.Top(own, paths[i%len(paths)])
		}
	})
}

// Ablation: parallel vs sequential stripe I/O on the real (TCP) file
// system — the client-side concurrency that lets MemFS-family systems
// saturate fast networks.
func BenchmarkAblationIOParallelism(b *testing.B) {
	for _, par := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("par-%d", par), func(b *testing.B) {
			stores, err := core.StartLocalStores(4, "node", "", 0)
			if err != nil {
				b.Fatal(err)
			}
			defer stores.Close()
			fs, err := core.New(core.Config{
				Classes:       []core.ClassSpec{{Name: "own", Nodes: stores.Nodes}},
				StripeSize:    256 << 10,
				IOParallelism: par,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			payload := make([]byte, 8<<20) // 32 stripes
			b.SetBytes(16 << 20)           // write + read
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fs.WriteFile("/f", payload); err != nil {
					b.Fatal(err)
				}
				if _, err := fs.ReadFile("/f"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: evacuation drain cost by burst size — MGET + pipelined SETNX
// batches of one key vs the default PipelineDepth. Each iteration rebuilds
// the deployment (evacuation permanently removes the node), so only the
// Evacuate call itself is timed.
func BenchmarkEvacuateDrain(b *testing.B) {
	for _, mode := range []struct {
		name  string
		depth int
	}{{"depth-1", 1}, {"depth-default", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				own, err := core.StartLocalStores(2, "own", "", 0)
				if err != nil {
					b.Fatal(err)
				}
				victims, err := core.StartLocalStores(2, "victim", "", 0)
				if err != nil {
					b.Fatal(err)
				}
				d, err := hrw.DeltaForOwnFraction(0.25)
				if err != nil {
					b.Fatal(err)
				}
				fs, err := core.New(core.Config{
					Classes: []core.ClassSpec{
						{Name: "own", Weight: d, Nodes: own.Nodes},
						{Name: "victim", Nodes: victims.Nodes, Victim: true,
							Limits: container.Limits{MemoryBytes: 1 << 30}},
					},
					StripeSize:    4 << 10,
					Redundancy:    core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
					PipelineDepth: mode.depth,
				})
				if err != nil {
					b.Fatal(err)
				}
				payload := make([]byte, 64<<10)
				for j := 0; j < 16; j++ {
					if err := fs.WriteFile(fmt.Sprintf("/f%d", j), payload); err != nil {
						b.Fatal(err)
					}
				}
				victim := victims.Nodes[0].ID
				b.StartTimer()
				if _, err := fs.Evacuate(context.Background(), victim, core.EvacOptions{}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				fs.Close()
				victims.Close()
				own.Close()
			}
		})
	}
}

// Ablation: the wire bytes of a partial drain per moved key, at the
// drained node. The mover reads each key off it (out), copies it to its
// destination and releases it with a compare-and-delete (in): DELVAL
// sends a stripe's 18-byte header, not the whole value. 64 KiB stripes
// and 2 replicas, as rmw-mix; the drain halves victim-0's fill.
func BenchmarkDrainNodePartial(b *testing.B) {
	var in, out, drainIn, drainOut atomic.Int64
	moved := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		own, err := core.StartLocalStores(2, "own", "", 0)
		if err != nil {
			b.Fatal(err)
		}
		victims, err := core.StartLocalStores(2, "victim", "", 0)
		if err != nil {
			b.Fatal(err)
		}
		proxy, err := countingProxy(victims.Nodes[0].Addr, &in, &out)
		if err != nil {
			b.Fatal(err)
		}
		nodes := slices.Clone(victims.Nodes)
		nodes[0].Addr = proxy.Addr().String()
		classes, err := core.OwnVictimClasses(own.Nodes, nodes, 0.25, container.Limits{MemoryBytes: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		fs, err := core.New(core.Config{
			Classes:    classes,
			StripeSize: 64 << 10,
			Redundancy: core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, 1<<20)
		for j := 0; j < 16; j++ {
			for k := range payload {
				payload[k] = byte(j + k)
			}
			if err := fs.WriteFile(fmt.Sprintf("/f%d", j), payload); err != nil {
				b.Fatal(err)
			}
		}
		target := victims.Server(0).Store().Stats().BytesUsed / 2
		in0, out0 := in.Load(), out.Load()
		b.StartTimer()
		rep, err := fs.DrainNode(context.Background(), nodes[0].ID, target)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		drainIn.Add(in.Load() - in0)
		drainOut.Add(out.Load() - out0)
		moved += rep.Moved
		fs.Close()
		proxy.Close()
		victims.Close()
		own.Close()
	}
	if moved == 0 {
		b.Fatal("the drain moved nothing")
	}
	b.ReportMetric(float64(drainIn.Load())/float64(moved), "in-B/key")
	b.ReportMetric(float64(drainOut.Load())/float64(moved), "out-B/key")
}

// countingProxy forwards each connection it accepts to target, adding the
// bytes it passes toward target to in and those coming back to out.
func countingProxy(target string, in, out *atomic.Int64) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	pipe := func(dst, src net.Conn, n *atomic.Int64) {
		io.Copy(countingWriter{dst, n}, src)
		dst.Close()
		src.Close()
	}
	go func() {
		for {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			srv, err := net.Dial("tcp", target)
			if err != nil {
				cli.Close()
				continue
			}
			go pipe(srv, cli, in)
			go pipe(cli, srv, out)
		}
	}()
	return ln, nil
}

// countingWriter adds the bytes written through it to n.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// Ablation: workflow DAG shapes — makespan of each generator on the
// simulated cluster with scavenging. All four real-world shapes share the
// wide-stage/sequential-tail structure that caps scalability (§II-A).
func BenchmarkAblationWorkflowShapes(b *testing.B) {
	gens := []struct {
		name string
		gen  func() *workflow.DAG
	}{
		{"dd", func() *workflow.DAG { return workflow.DDBag(64, 32<<20) }},
		{"montage", func() *workflow.DAG {
			return workflow.Montage(workflow.MontageConfig{Tiles: 64, TileBytes: 4 << 20})
		}},
		{"blast", func() *workflow.DAG { return workflow.BLAST(workflow.BLASTConfig{Queries: 32}) }},
		{"epigenomics", func() *workflow.DAG {
			return workflow.Epigenomics(workflow.EpigenomicsConfig{Lanes: 2, ChunksPerLane: 16})
		}},
		{"cybershake", func() *workflow.DAG {
			return workflow.CyberShake(workflow.CyberShakeConfig{Ruptures: 128})
		}},
	}
	for _, g := range gens {
		b.Run(g.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var e sim.Engine
				c := cluster.New(&e)
				own := c.AddNodes("own", 2, cluster.DAS5)
				victims := c.AddNodes("victim", 6, cluster.DAS5)
				fs, err := simstore.New(c, own, victims, simstore.Config{OwnFraction: 0.25})
				if err != nil {
					b.Fatal(err)
				}
				ex, err := workflow.NewExecutor(&e, own, fs)
				if err != nil {
					b.Fatal(err)
				}
				if err := ex.Start(g.gen()); err != nil {
					b.Fatal(err)
				}
				e.Run()
				if !ex.Done() {
					b.Fatal("workflow did not finish")
				}
			}
		})
	}
}
