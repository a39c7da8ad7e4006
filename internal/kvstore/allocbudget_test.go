package kvstore

import (
	"bytes"
	"fmt"
	"testing"
)

// TestHotPathAllocBudget asserts steady-state allocation ceilings for the
// hot-path commands directly, independent of the CI benchmark gate
// (scripts/bench_gate.sh). Budgets are deliberately looser than the
// benchmark-measured numbers — they exist to catch a reintroduced
// per-command allocation (a lost pooled buffer, a resurrected string
// conversion), not to pin exact counts. The remaining inherent
// allocations: GET's caller-owned result slice and the pipeline's per-Run
// reply arena. The buffer the server reads a SET value into is not among
// them: a SET over a key reads its value into the buffer the previous one
// freed, which the store recycles (a 4 KiB value is pooled).
func TestHotPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI gate")
	}
	_, cli := startServer(t, 0, "")
	payload := bytes.Repeat([]byte{0xA5}, 4096)
	if err := cli.Set("alloc:k", payload); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4096)

	check := func(name string, budget float64, fn func()) {
		fn() // warm connections and pools outside the measured window
		if got := testing.AllocsPerRun(200, fn); got > budget {
			t.Errorf("%s: %.1f allocs/op exceeds budget %.1f", name, got, budget)
		}
	}
	check("Set4K", 8, func() {
		if err := cli.Set("alloc:k", payload); err != nil {
			t.Fatal(err)
		}
	})
	check("Get4K", 6, func() {
		v, ok, err := cli.Get("alloc:k")
		if err != nil || !ok || len(v) != len(payload) {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	})
	check("GetRangeInto4K", 6, func() {
		n, ok, err := cli.GetRangeInto("alloc:k", 0, 4096, dst)
		if err != nil || !ok || n != 4096 {
			t.Fatalf("GetRangeInto: n=%d ok=%v err=%v", n, ok, err)
		}
	})
	// 32-deep burst: the budget covers the whole Run (reply arena, sink
	// bookkeeping), so per-command overhead is ~2 allocs.
	keys := make([]string, 32)
	dsts := make([][]byte, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc:p:%d", i)
		dsts[i] = make([]byte, 4096)
		if err := cli.Set(keys[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	check("PipelineGetRangeInto32", 72, func() {
		pl := cli.Pipeline()
		for i := range keys {
			pl.GetRangeInto(keys[i], 0, 4096, dsts[i])
		}
		replies, err := pl.Run()
		if err != nil || len(replies) != len(keys) {
			t.Fatalf("Run: %d replies, err=%v", len(replies), err)
		}
	})
	check("PipelineSet32", 170, func() {
		pl := cli.Pipeline()
		for i := range keys {
			pl.Set(keys[i], payload)
		}
		if _, err := pl.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
