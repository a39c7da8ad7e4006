package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "write", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "core.create", StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 0, Name: "core.writeat", StartNs: 30, EndNs: 70},
		// Overlaps its sibling: [60,70) must not be subtracted twice.
		{ID: 3, Parent: 0, Name: "probe", StartNs: 60, EndNs: 90},
		// A grandchild takes from its parent only.
		{ID: 4, Parent: 2, Name: "hrw.place", StartNs: 35, EndNs: 45},
		// A child that outlives its parent is clipped to it.
		{ID: 5, Parent: 3, Name: "kvstore.rtt", StartNs: 80, EndNs: 120},
	}
	want := []int64{
		100 - (20 + 40 + 20), // children cover [10,90)
		20,
		40 - 10,
		30 - 10, // clipped child covers [80,90)
		10,
		40,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerDropsPastCapacityAndWritesJSON(t *testing.T) {
	tr := newTracer()
	root := tr.begin(-1, 0, "write")
	child := tr.begin(root, 0, "core.create")
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("trace file is not a JSON array of spans: %v", err)
	}
	if len(back) != 2 || back[1].Parent != 0 || back[1].Name != "core.create" || back[0].EndNs < back[1].EndNs {
		t.Errorf("round trip lost spans: %+v", back)
	}

	tr.spans = make([]span, maxSpans)
	if id := tr.begin(-1, 0, "read"); id != -1 || tr.dropped != 1 {
		t.Errorf("full tracer: id %d dropped %d", id, tr.dropped)
	}
	tr.end(-1) // must not panic
}
