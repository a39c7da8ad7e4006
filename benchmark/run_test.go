package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// small returns a copy of the named workload with few files and every op
// sampled, so a one-second run finishes in a second or two. The load
// shape is otherwise the real one.
func small(t *testing.T, name string) *spec {
	t.Helper()
	sp := *specByName(name)
	if name != "montage-meta" {
		sp.files = 4
	}
	sp.sampleEvery = 1
	return &sp
}

// smokeSeconds is the -seconds of the smoke runs.
const smokeSeconds = 1

var smoke struct {
	once     sync.Once
	untraced map[string]*result
	traced   map[string]*result
	outDir   string
	err      error
}

// smokeRuns runs every workload once in each mode and shares the results
// between tests.
func smokeRuns(t *testing.T) {
	t.Helper()
	smoke.once.Do(func() {
		smoke.untraced, smoke.traced = map[string]*result{}, map[string]*result{}
		smoke.outDir, smoke.err = os.MkdirTemp("", "bench-smoke")
		for _, sp := range specs {
			if smoke.err != nil {
				return
			}
			s := small(t, sp.name)
			if smoke.untraced[sp.name], smoke.err = runUntraced(s, 7, smokeSeconds); smoke.err != nil {
				return
			}
			smoke.traced[sp.name], smoke.err = runTraced(s, 7, smokeSeconds, smoke.outDir)
		}
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if smoke.outDir != "" {
		os.RemoveAll(smoke.outDir)
	}
	os.Exit(code)
}

func TestSmokeEveryMetricPresentWithUnit(t *testing.T) {
	smokeRuns(t)
	for _, sp := range specs {
		for _, c := range []struct {
			res  *result
			defs []metricDef
		}{{smoke.untraced[sp.name], endToEnd}, {smoke.traced[sp.name], perLayer}} {
			if c.res.failed != 0 || c.res.attempted == 0 {
				t.Errorf("%s: attempted %d failed %d: %v", sp.name, c.res.attempted, c.res.failed, c.res.firstErr)
			}
			if len(c.res.metrics) != len(c.defs) {
				t.Errorf("%s: %d metrics, catalogue has %d", sp.name, len(c.res.metrics), len(c.defs))
			}
			for _, d := range c.defs {
				v, ok := c.res.metrics[d.name]
				if !ok || v.unit != d.unit || v.unit == "" {
					t.Errorf("%s: metric %s missing or without unit (%+v)", sp.name, d.name, v)
				}
				if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
					t.Errorf("%s: metric %s = %v", sp.name, d.name, v.v)
				}
			}
		}
		// End-to-end metrics are never 0 on any workload.
		for _, d := range endToEnd {
			if v := smoke.untraced[sp.name].metrics[d.name]; v.v <= 0 && !raceEnabled {
				t.Errorf("%s: end-to-end metric %s = %v", sp.name, d.name, v.v)
			}
		}
		if _, err := os.Stat(filepath.Join(smoke.outDir, "trace-"+sp.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", sp.name, err)
		}
	}
}

// The traced run's layer predictions, on the seed repository.
func TestLayerPredictionsHold(t *testing.T) {
	smokeRuns(t)
	for _, sp := range specs {
		m := smoke.traced[sp.name].metrics
		for name, v := range m {
			if strings.HasPrefix(name, "erasure.") && sp.name != "ec-stream" && v.v != 0 {
				t.Errorf("%s: %s = %v, want 0 outside ec-stream", sp.name, name, v.v)
			}
		}
		if sp.name == "ec-stream" && !raceEnabled {
			for _, name := range []string{"erasure.calls_per_op", "erasure.encode_mb_s", "erasure.share", "degraded_read_mb_s"} {
				if m[name].v <= 0 {
					t.Errorf("ec-stream: %s = %v, want > 0", name, m[name].v)
				}
			}
		}
		if m["core.deep_probes"].v != 0 || m["core.degraded_writes"].v != 0 {
			t.Errorf("%s: deep probes %v, degraded writes %v, want 0", sp.name, m["core.deep_probes"].v, m["core.degraded_writes"].v)
		}
		if m["kvstore.attempts_per_op"].v != 1 {
			t.Errorf("%s: attempts per op %v, want exactly 1", sp.name, m["kvstore.attempts_per_op"].v)
		}
		if _, ok := m["trace.overhead_pct"]; !ok {
			t.Errorf("%s: trace.overhead_pct not reported", sp.name)
		}
		sum := m["core.self_share"].v
		for _, name := range []string{"hrw.share", "stripe.share", "fsmeta.share", "erasure.share", "kvstore.wire_share"} {
			if m[name].v < 0 || m[name].v > 1 {
				t.Errorf("%s: %s = %v outside [0, 1]", sp.name, name, m[name].v)
			}
			sum += m[name].v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: layer shares + core.self_share = %v, want 1", sp.name, sum)
		}
	}
}

// Counts made by the program repeat exactly for one seed.
func TestExactCountsRepeat(t *testing.T) {
	smokeRuns(t)
	exact := []string{"kvstore.ops_per_user_op", "core.meta_store_ops_per_op", "core.stripe_ops_per_user_op"}
	for _, name := range []string{"dd-bag", "montage-meta"} {
		again, err := runTraced(small(t, name), 7, smokeSeconds, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, metric := range exact {
			a, b := smoke.traced[name].metrics[metric].v, again.metrics[metric].v
			if a != b || a == 0 {
				t.Errorf("%s: %s = %v then %v, want identical and nonzero", name, metric, a, b)
			}
		}
	}
	// stored_bytes_per_user_byte is taken right after preload, so any two
	// set-ups of one spec agree to the byte, whatever the seed.
	for _, sp := range specs {
		s := small(t, sp.name)
		e, _, _, err := repeatedSetup(s, newPayloads(99, s.fileSize), 0)
		if err != nil {
			t.Fatal(err)
		}
		got := e.storedPerUser
		e.close()
		if want := smoke.untraced[sp.name].metrics["stored_bytes_per_user_byte"].v; got != want || got < 1 {
			t.Errorf("%s: stored_bytes_per_user_byte %v then %v", sp.name, want, got)
		}
	}
}

// opList runs the fixed pass of a small deployment and returns the calls
// it made, in order.
func opList(t *testing.T, name string, seed int64) []string {
	t.Helper()
	sp := small(t, name)
	pay := newPayloads(seed, sp.fileSize)
	e, w, _, err := repeatedSetup(sp, pay, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	p := newFixedPass(e, w, time.Now(), seed, nil, nil)
	var ops []string
	p.c.oplog = func(cc coreCall) {
		ops = append(ops, fmt.Sprintf("%s %s %d+%d", cc.op, cc.path, cc.off, cc.n))
	}
	for _, phase := range sp.phases {
		p.run(phase, 6)
	}
	if p.c.rec.failed != 0 {
		t.Fatalf("%s: %v", name, p.c.rec.firstErr)
	}
	return ops
}

func TestSameSeedSameOpList(t *testing.T) {
	for _, name := range []string{"dd-bag", "montage-meta", "rmw-mix"} {
		a, b, c := opList(t, name, 3), opList(t, name, 3), opList(t, name, 4)
		if len(a) == 0 || strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: same seed gave different op lists (%d vs %d calls)", name, len(a), len(b))
		}
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 3 and 4 gave the same op list", name)
		}
	}
	p, q := newPayloads(3, 1<<16), newPayloads(4, 1<<16)
	if string(p.get(1, 2, 4096)) != string(newPayloads(3, 1<<16).get(1, 2, 4096)) {
		t.Error("payload is not a function of (seed, file, version)")
	}
	if string(p.get(1, 2, 4096)) == string(q.get(1, 2, 4096)) || string(p.get(1, 2, 4096)) == string(p.get(1, 3, 4096)) {
		t.Error("payloads of different seeds or versions coincide")
	}
}

// A mismatch must fail the run: corrupt one stripe behind the file
// system's back and verify.
func TestVerificationCatchesCorruption(t *testing.T) {
	sp := small(t, "dd-bag")
	e, w, _, err := repeatedSetup(sp, newPayloads(1, sp.fileSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	clean := newRecorder()
	w.verify(e, clean)
	if clean.failed != 0 || clean.attempted != sp.files {
		t.Fatalf("clean deployment: attempted %d failed %d: %v", clean.attempted, clean.failed, clean.firstErr)
	}
	corrupted := 0
	for i := 0; i < sp.own+sp.victims && corrupted == 0; i++ {
		ls, j := e.own, i
		if i >= sp.own {
			ls, j = e.victims, i-sp.own
		}
		store := ls.Server(j).Store()
		for _, key := range store.KeysN("data:", 1) {
			if err := store.SetRange(key, 100, []byte("flipped")); err != nil {
				t.Fatal(err)
			}
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("found no stripe to corrupt")
	}
	dirty := newRecorder()
	w.verify(e, dirty)
	if dirty.failed != 1 {
		t.Errorf("after corrupting one stripe: %d verification failures, want 1", dirty.failed)
	}
}

// -out resolves against the module root whatever the working directory,
// and never creates a nested benchmark/benchmark.
func TestOutResolvesAgainstModuleRoot(t *testing.T) {
	repo := t.TempDir()
	mod := filepath.Join(repo, "benchmark")
	if err := os.MkdirAll(filepath.Join(mod, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module memfss/benchmark\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(repo, "go.mod"), []byte("module memfss\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	want, err := filepath.EvalSymlinks(mod)
	if err != nil {
		t.Fatal(err)
	}
	for _, cwd := range []string{repo, mod, filepath.Join(mod, "sub")} {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
		got, err := resolveOut("out")
		if err != nil {
			t.Fatalf("from %s: %v", cwd, err)
		}
		if got, _ = filepath.EvalSymlinks(got); got != filepath.Join(want, "out") {
			t.Errorf("from %s: -out resolved to %s, want %s", cwd, got, filepath.Join(want, "out"))
		}
	}
	for _, stray := range []string{filepath.Join(mod, "benchmark"), filepath.Join(repo, "out"), filepath.Join(mod, "sub", "out")} {
		if _, err := os.Stat(stray); err == nil {
			t.Errorf("stray directory %s was created", stray)
		}
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := resolveOut("out"); err == nil {
		t.Error("outside the module a relative -out must be refused, not created in the working directory")
	}
}

// BENCHMARK.json and the catalogue in metrics.go must say the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, runSeconds %d", file.RunSeconds, runSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths %v", file.Paths)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads, %d specs", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q", i, w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: %+v vs catalogue %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v vs catalogue %v", kind, i, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
