package hrw

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func nodeSet(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return out
}

func keySet(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("file/%d/stripe-%d", i%97, i)
	}
	return out
}

func TestScoreDeterministic(t *testing.T) {
	if Score("node0", "key0") != Score("node0", "key0") {
		t.Fatal("Score not deterministic")
	}
	if Score("node0", "key0") == Score("node1", "key0") {
		t.Fatal("distinct nodes gave identical score (astronomically unlikely)")
	}
	if Score("node0", "key0") == Score("node0", "key1") {
		t.Fatal("distinct keys gave identical score (astronomically unlikely)")
	}
}

func TestScoreSeparatorMatters(t *testing.T) {
	// Without a separator, ("ab","c") and ("a","bc") would collide by
	// construction of FNV over concatenated bytes.
	if Score("ab", "c") == Score("a", "bc") {
		t.Fatal("node/key boundary not separated in hash input")
	}
}

func TestUnitRange(t *testing.T) {
	f := func(node, key string) bool {
		u := Unit(node, key)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopEmpty(t *testing.T) {
	if got := Top(nil, "k"); got != "" {
		t.Fatalf("Top(nil) = %q, want empty", got)
	}
	if got := TopK(nil, "k", 3); got != nil {
		t.Fatalf("TopK(nil) = %v, want nil", got)
	}
}

func TestTopMatchesRank(t *testing.T) {
	nodes := nodeSet("n", 17)
	for _, k := range keySet(200) {
		rank := Rank(nodes, k)
		if Top(nodes, k) != rank[0] {
			t.Fatalf("Top != Rank[0] for key %q", k)
		}
		top3 := TopK(nodes, k, 3)
		for i := 0; i < 3; i++ {
			if top3[i] != rank[i] {
				t.Fatalf("TopK[%d] != Rank[%d] for key %q", i, i, k)
			}
		}
	}
}

func TestTopKClampsToLen(t *testing.T) {
	nodes := nodeSet("n", 3)
	if got := TopK(nodes, "k", 10); len(got) != 3 {
		t.Fatalf("TopK over-long k returned %d nodes, want 3", len(got))
	}
}

func TestRankIsPermutation(t *testing.T) {
	nodes := nodeSet("n", 9)
	for _, k := range keySet(50) {
		rank := Rank(nodes, k)
		seen := map[string]bool{}
		for _, n := range rank {
			seen[n] = true
		}
		if len(seen) != len(nodes) {
			t.Fatalf("Rank dropped or duplicated nodes: %v", rank)
		}
	}
}

// Uniformity: plain HRW should spread keys evenly across nodes.
func TestUniformDistribution(t *testing.T) {
	nodes := nodeSet("n", 10)
	keys := keySet(50000)
	counts := map[string]int{}
	for _, k := range keys {
		counts[Top(nodes, k)]++
	}
	want := float64(len(keys)) / float64(len(nodes))
	for n, c := range counts {
		dev := math.Abs(float64(c)-want) / want
		if dev > 0.06 {
			t.Errorf("node %s holds %d keys, want ~%.0f (dev %.1f%%)", n, c, want, dev*100)
		}
	}
}

// Minimal disruption: removing one of N nodes must remap only the keys that
// lived on it; every other key keeps its placement.
func TestMinimalDisruptionOnRemove(t *testing.T) {
	nodes := nodeSet("n", 12)
	keys := keySet(20000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = Top(nodes, k)
	}
	removed := nodes[5]
	shrunk := append(append([]string{}, nodes[:5]...), nodes[6:]...)
	moved := 0
	for _, k := range keys {
		after := Top(shrunk, k)
		if before[k] == removed {
			if after == removed {
				t.Fatalf("key %q still maps to removed node", k)
			}
			moved++
			continue
		}
		if after != before[k] {
			t.Fatalf("key %q moved from surviving node %q to %q", k, before[k], after)
		}
	}
	want := float64(len(keys)) / float64(len(nodes))
	if dev := math.Abs(float64(moved)-want) / want; dev > 0.10 {
		t.Errorf("removed node held %d keys, want ~%.0f", moved, want)
	}
}

// Minimal disruption: adding a node steals ~M/(N+1) keys and moves nothing
// else.
func TestMinimalDisruptionOnAdd(t *testing.T) {
	nodes := nodeSet("n", 12)
	keys := keySet(20000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = Top(nodes, k)
	}
	grown := append(append([]string{}, nodes...), "extra00")
	stolen := 0
	for _, k := range keys {
		after := Top(grown, k)
		if after == "extra00" {
			stolen++
			continue
		}
		if after != before[k] {
			t.Fatalf("key %q moved between pre-existing nodes on add", k)
		}
	}
	want := float64(len(keys)) / float64(len(grown))
	if dev := math.Abs(float64(stolen)-want) / want; dev > 0.10 {
		t.Errorf("new node stole %d keys, want ~%.0f", stolen, want)
	}
}

// Property: after removing the top-ranked node, the old second-ranked node
// becomes the placement — the basis for replica failover and lazy probing.
func TestFailoverToSecondRank(t *testing.T) {
	nodes := nodeSet("n", 8)
	for _, k := range keySet(500) {
		rank := Rank(nodes, k)
		survivors := make([]string, 0, len(nodes)-1)
		for _, n := range nodes {
			if n != rank[0] {
				survivors = append(survivors, n)
			}
		}
		if got := Top(survivors, k); got != rank[1] {
			t.Fatalf("key %q: after losing %s expected %s, got %s", k, rank[0], rank[1], got)
		}
	}
}

func TestNewPlacerValidation(t *testing.T) {
	cases := []struct {
		name    string
		classes []Class
	}{
		{"no classes", nil},
		{"empty class name", []Class{{Name: "", Nodes: []string{"a"}}}},
		{"duplicate class", []Class{{Name: "x", Nodes: []string{"a"}}, {Name: "x", Nodes: []string{"b"}}}},
		{"empty node list", []Class{{Name: "x"}}},
		{"empty node id", []Class{{Name: "x", Nodes: []string{""}}}},
		{"node in two classes", []Class{{Name: "x", Nodes: []string{"a"}}, {Name: "y", Nodes: []string{"a"}}}},
	}
	for _, c := range cases {
		if _, err := NewPlacer(c.classes...); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewPlacer(Class{Name: "own", Nodes: []string{"a", "b"}}); err != nil {
		t.Errorf("valid placer rejected: %v", err)
	}
}

func TestPlacerIsolatesCallerSlices(t *testing.T) {
	nodes := []string{"a", "b"}
	p, err := NewPlacer(Class{Name: "own", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	nodes[0] = "mutated"
	for _, k := range keySet(200) {
		if got := p.Place(k); got != "a" && got != "b" {
			t.Fatalf("placer aliased caller slice: placed %q", got)
		}
	}
}

func TestPlacerPlaceWithinWinningClass(t *testing.T) {
	own := Class{Name: "own", Weight: 0, Nodes: nodeSet("o", 4)}
	victim := Class{Name: "victim", Weight: 0.3, Nodes: nodeSet("v", 16)}
	p, err := NewPlacer(own, victim)
	if err != nil {
		t.Fatal(err)
	}
	inClass := func(node string, c Class) bool {
		for _, n := range c.Nodes {
			if n == node {
				return true
			}
		}
		return false
	}
	for _, k := range keySet(2000) {
		cls := p.ClassFor(k)
		node := p.Place(k)
		if !inClass(node, *cls) {
			t.Fatalf("key %q placed on %s outside winning class %s", k, node, cls.Name)
		}
	}
}

func TestPlacerPlaceKReplicasDistinct(t *testing.T) {
	p, err := NewPlacer(
		Class{Name: "own", Nodes: nodeSet("o", 5)},
		Class{Name: "victim", Weight: 0.2, Nodes: nodeSet("v", 10)},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keySet(500) {
		reps := p.PlaceK(k, 3)
		if len(reps) != 3 {
			t.Fatalf("PlaceK returned %d replicas, want 3", len(reps))
		}
		if reps[0] != p.Place(k) {
			t.Fatalf("first replica %s != Place %s", reps[0], p.Place(k))
		}
		seen := map[string]bool{}
		for _, r := range reps {
			if seen[r] {
				t.Fatalf("duplicate replica %s for key %q", r, k)
			}
			seen[r] = true
		}
	}
}

func TestProbeOrderCoversAllNodesOnce(t *testing.T) {
	p, err := NewPlacer(
		Class{Name: "own", Nodes: nodeSet("o", 4)},
		Class{Name: "victimA", Weight: 0.2, Nodes: nodeSet("v", 8)},
		Class{Name: "victimB", Weight: 0.5, Nodes: nodeSet("w", 6)},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keySet(200) {
		order := p.ProbeOrder(k)
		if len(order) != p.NumNodes() {
			t.Fatalf("probe order has %d entries, want %d", len(order), p.NumNodes())
		}
		if order[0] != p.Place(k) {
			t.Fatalf("probe order must start at the primary placement")
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("node %s probed twice", n)
			}
			seen[n] = true
		}
	}
}

// Weighted split accuracy: the analytic two-class weight must land the
// requested fraction of keys on the own class.
func TestWeightedClassFractions(t *testing.T) {
	keys := keySet(60000)
	for _, alpha := range []float64{0.25, 0.5, 0.75} {
		d, err := DeltaForOwnFraction(alpha)
		if err != nil {
			t.Fatal(err)
		}
		var ownW, vicW float64
		if d >= 0 {
			ownW, vicW = d, 0
		} else {
			ownW, vicW = 0, -d
		}
		p, err := NewPlacer(
			Class{Name: "own", Weight: ownW, Nodes: nodeSet("o", 8)},
			Class{Name: "victim", Weight: vicW, Nodes: nodeSet("v", 32)},
		)
		if err != nil {
			t.Fatal(err)
		}
		own := 0
		for _, k := range keys {
			if p.ClassFor(k).Name == "own" {
				own++
			}
		}
		got := float64(own) / float64(len(keys))
		if math.Abs(got-alpha) > 0.02 {
			t.Errorf("alpha=%.2f: got own fraction %.3f", alpha, got)
		}
	}
}

func TestDeltaForOwnFractionEdges(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := DeltaForOwnFraction(bad); err == nil {
			t.Errorf("fraction %v accepted", bad)
		}
	}
	d0, _ := DeltaForOwnFraction(0)
	if d0 != 1 {
		t.Errorf("DeltaForOwnFraction(0) = %v, want 1", d0)
	}
	d1, _ := DeltaForOwnFraction(1)
	if d1 != -1 {
		t.Errorf("DeltaForOwnFraction(1) = %v, want -1", d1)
	}
	dHalf, _ := DeltaForOwnFraction(0.5)
	if math.Abs(dHalf) > 1e-12 {
		t.Errorf("DeltaForOwnFraction(0.5) = %v, want 0", dHalf)
	}
}

// Property: OwnFractionForDelta inverts DeltaForOwnFraction across [0,1].
func TestDeltaFractionRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		frac := float64(raw) / math.MaxUint16
		d, err := DeltaForOwnFraction(frac)
		if err != nil {
			return false
		}
		return math.Abs(OwnFractionForDelta(d)-frac) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnFractionForDeltaClamps(t *testing.T) {
	if got := OwnFractionForDelta(5); got != 0 {
		t.Errorf("delta 5 -> %v, want 0", got)
	}
	if got := OwnFractionForDelta(-5); got != 1 {
		t.Errorf("delta -5 -> %v, want 1", got)
	}
}

// Node-level balance inside the winning class must stay uniform even when
// class weights are skewed (paper: layer two is plain HRW).
func TestWithinClassBalanceUnderWeights(t *testing.T) {
	d, _ := DeltaForOwnFraction(0.25)
	classes := []Class{
		{Name: "own", Weight: d, Nodes: nodeSet("o", 8)},
		{Name: "victim", Weight: 0, Nodes: nodeSet("v", 32)},
	}
	p, err := NewPlacer(classes...)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	classTotal := map[string]int{}
	for _, k := range keySet(80000) {
		cls := p.ClassFor(k)
		counts[p.Place(k)]++
		classTotal[cls.Name]++
	}
	check := func(c Class) {
		want := float64(classTotal[c.Name]) / float64(len(c.Nodes))
		for _, n := range c.Nodes {
			dev := math.Abs(float64(counts[n])-want) / want
			if dev > 0.10 {
				t.Errorf("class %s node %s holds %d, want ~%.0f", c.Name, n, counts[n], want)
			}
		}
	}
	for _, c := range classes {
		check(c)
	}
}

func BenchmarkScore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Score("node07", "file/42/stripe-1234")
	}
}

func BenchmarkPlaceTwoLayer40Nodes(b *testing.B) {
	d, _ := DeltaForOwnFraction(0.25)
	p, err := NewPlacer(
		Class{Name: "own", Weight: d, Nodes: nodeSet("o", 8)},
		Class{Name: "victim", Nodes: nodeSet("v", 32)},
	)
	if err != nil {
		b.Fatal(err)
	}
	keys := keySet(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Place(keys[i%len(keys)])
	}
}

func BenchmarkFlatHRW40Nodes(b *testing.B) {
	nodes := nodeSet("n", 40)
	keys := keySet(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Top(nodes, keys[i%len(keys)])
	}
}
