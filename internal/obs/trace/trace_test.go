package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestSpanTree checks parent/child structure, outcomes, and snapshot
// shape for a representative degraded write.
func TestSpanTree(t *testing.T) {
	tr := New(Config{SlowThreshold: -1, SampleEvery: -1})
	op := tr.Start("write", "/f", 0, 4096)
	root := op.Root()

	st := root.Stripe("stripe", 0)
	st.Record("store", "victim-1", "victim", 0, 3, 5*time.Millisecond, "error")
	st.Record("store", "own-0", "own", 0, 1, time.Millisecond, "ok")
	re := st.Child("repair-enqueue")
	re.End(nil)
	st.EndOutcome("degraded")
	op.MarkDegraded()

	data, kept := op.Finish(nil)
	if !kept {
		t.Fatal("degraded trace was not retained")
	}
	if data.Status != "degraded" || !data.Degraded {
		t.Fatalf("status = %q, degraded = %v", data.Status, data.Degraded)
	}
	if data.Root.Name != "write" || len(data.Root.Children) != 1 {
		t.Fatalf("root = %+v", data.Root)
	}
	stripe := data.Root.Children[0]
	if stripe.Name != "stripe" || stripe.Stripe != 0 || len(stripe.Children) != 3 {
		t.Fatalf("stripe span = %+v", stripe)
	}
	if stripe.Children[0].Outcome != "error" || stripe.Children[0].Node != "victim-1" {
		t.Fatalf("failed attempt span = %+v", stripe.Children[0])
	}
	if stripe.Children[1].Outcome != "ok" || stripe.Children[1].Class != "own" {
		t.Fatalf("retry span = %+v", stripe.Children[1])
	}
	if stripe.Children[2].Name != "repair-enqueue" {
		t.Fatalf("repair leg = %+v", stripe.Children[2])
	}
	if got := tr.Store().Get(data.ID); got != data {
		t.Fatal("retained trace not retrievable by ID")
	}
}

// TestTailSampling pins the retention policy: error, degraded, and slow
// traces are always kept; healthy fast traces one-in-N.
func TestTailSampling(t *testing.T) {
	const n = 8
	tr := New(Config{SampleEvery: n, SlowThreshold: 50 * time.Millisecond, Capacity: 4096})

	// 100 healthy fast traces: exactly 100/n sampled.
	for i := 0; i < 100; i++ {
		op := tr.Start("read", "/ok", 0, 1)
		if _, kept := op.Finish(nil); kept != ((i+1)%n == 0) {
			t.Fatalf("ok trace %d: kept = %v", i, kept)
		}
	}

	// Errors are always kept, and do not consume the sampling budget.
	before := tr.sampleCtr.Load()
	op := tr.Start("read", "/err", 0, 1)
	if _, kept := op.Finish(errors.New("boom")); !kept {
		t.Fatal("errored trace dropped")
	}
	if tr.sampleCtr.Load() != before {
		t.Fatal("errored trace consumed the sampling budget")
	}

	// Degraded always kept.
	op = tr.Start("write", "/deg", 0, 1)
	op.MarkDegraded()
	if _, kept := op.Finish(nil); !kept {
		t.Fatal("degraded trace dropped")
	}

	// Slow always kept: back-date the start past the threshold.
	op = tr.Start("write", "/slow", 0, 1)
	op.start = op.start.Add(-time.Second)
	data, kept := op.Finish(nil)
	if !kept || !data.Slow || data.Status != "slow" {
		t.Fatalf("slow trace: kept=%v data=%+v", kept, data)
	}

	// SampleEvery < 0 keeps no healthy traces at all.
	none := New(Config{SampleEvery: -1, SlowThreshold: -1})
	for i := 0; i < 50; i++ {
		op := none.Start("read", "/ok", 0, 1)
		if _, kept := op.Finish(nil); kept {
			t.Fatal("interesting-only tracer kept a healthy trace")
		}
	}
}

// TestRingEviction pins overwrite order: oldest retained traces leave
// first, newest stay queryable, and the ID index follows eviction.
func TestRingEviction(t *testing.T) {
	tr := New(Config{Capacity: 4, SampleEvery: -1, SlowThreshold: -1})
	var ids []string
	for i := 0; i < 10; i++ {
		op := tr.Start("write", fmt.Sprintf("/f%d", i), 0, 1)
		data, kept := op.Finish(errors.New("x"))
		if !kept {
			t.Fatalf("errored trace %d dropped", i)
		}
		ids = append(ids, data.ID)
	}
	st := tr.Store()
	for i, id := range ids {
		got := st.Get(id)
		if i < 6 && got != nil {
			t.Fatalf("trace %d should have been evicted", i)
		}
		if i >= 6 && got == nil {
			t.Fatalf("trace %d missing from the ring", i)
		}
	}
	recent := st.Errors(100)
	if len(recent) != 4 {
		t.Fatalf("got %d retained, want 4", len(recent))
	}
	for i, d := range recent {
		if want := ids[len(ids)-1-i]; d.ID != want {
			t.Fatalf("eviction order: slot %d = %s, want %s", i, d.ID, want)
		}
	}
	if s := st.Stats(); s.Kept != 10 || s.Evicted != 6 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestHotRingIsolation checks that a flood of sampled-OK traces cannot
// evict a retained degraded trace.
func TestHotRingIsolation(t *testing.T) {
	tr := New(Config{Capacity: 8, SampleEvery: 1, SlowThreshold: -1})
	op := tr.Start("write", "/victim-of-flood", 0, 1)
	op.MarkDegraded()
	data, _ := op.Finish(nil)
	for i := 0; i < 100; i++ {
		ok := tr.Start("read", "/flood", 0, 1)
		ok.Finish(nil)
	}
	if tr.Store().Get(data.ID) == nil {
		t.Fatal("sampled-OK flood evicted the degraded trace")
	}
	if got := tr.Store().Degraded(10); len(got) != 1 || got[0].ID != data.ID {
		t.Fatalf("Degraded() = %+v", got)
	}
}

// TestConcurrentSpanHammer drives one trace from many goroutines under
// -race: concurrent child creation, records, and a racing
// MarkDegraded, then Finish while stragglers may still be appending
// (span count is capped, never corrupted).
func TestConcurrentSpanHammer(t *testing.T) {
	tr := New(Config{SlowThreshold: -1})
	for round := 0; round < 4; round++ {
		op := tr.Start("write", "/hammer", 0, 1<<20)
		root := op.Root()
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sp := root.Stripe("stripe", int64(g))
				for i := 0; i < 64; i++ {
					sp.Record("store", fmt.Sprintf("node-%d", g), "own", int64(g), 1, time.Microsecond, "ok")
				}
				if g%3 == 0 {
					op.MarkDegraded()
				}
				sp.End(nil)
			}(g)
		}
		wg.Wait()
		data, kept := op.Finish(nil)
		if !kept {
			t.Fatal("degraded hammer trace dropped")
		}
		total := 0
		data.Root.Walk(func(_ int, _ *SpanData) { total++ })
		if total > maxSpansPerTrace {
			t.Fatalf("span cap not respected: %d spans", total)
		}
		if data.DroppedSpans == 0 {
			t.Fatal("expected dropped spans past the cap")
		}
	}
}

// TestJournal pins ring bounds, newest-first ordering, type filtering,
// and trace links.
func TestJournal(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 20; i++ {
		typ := "health"
		if i%2 == 1 {
			typ = "repair"
		}
		j.Note(typ, fmt.Sprintf("node-%d", i), fmt.Sprintf("event %d", i), ID(uint64(i+1)))
	}
	evs := j.Events(0, "")
	if len(evs) != 8 {
		t.Fatalf("got %d events, want ring capacity 8", len(evs))
	}
	for i, e := range evs {
		if want := uint64(20 - i); e.Seq != want {
			t.Fatalf("event %d: seq %d, want %d (newest first)", i, e.Seq, want)
		}
	}
	if evs[0].Trace != ID(20).String() {
		t.Fatalf("trace link = %q", evs[0].Trace)
	}
	health := j.Events(100, "health")
	if len(health) != 4 {
		t.Fatalf("got %d health events, want 4 of the retained 8", len(health))
	}
	for _, e := range health {
		if e.Type != "health" {
			t.Fatalf("type filter leaked %+v", e)
		}
	}
	if j.Dropped() != 12 {
		t.Fatalf("dropped = %d, want 12", j.Dropped())
	}
}

// TestJournalConcurrent hammers Record/Events under -race.
func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.Note("health", "n", "x", ID(uint64(g)))
				if i%10 == 0 {
					j.Events(16, "")
				}
			}
		}(g)
	}
	wg.Wait()
	if len(j.Events(0, "")) != 64 {
		t.Fatal("journal lost its ring shape under concurrency")
	}
}

// TestNilSafety drives every public method through nil receivers.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	op := tr.Start("write", "/x", 0, 1)
	if op != nil {
		t.Fatal("nil tracer minted a trace")
	}
	root := op.Root()
	sp := root.Stripe("stripe", 1)
	sp.Record("store", "n", "own", 1, 1, time.Millisecond, "ok")
	sp.Child("leg").End(nil)
	sp.EndOutcome("ok")
	op.MarkDegraded()
	if _, kept := op.Finish(nil); kept {
		t.Fatal("nil trace retained")
	}
	if tr.Store() != nil {
		t.Fatal("nil tracer store")
	}
	var st *Store
	if st.Get("x") != nil || st.Slow(1) != nil || st.Recent(1) != nil {
		t.Fatal("nil store returned data")
	}
	var j *Journal
	j.Note("health", "n", "x", 0)
	j.Record(Event{})
	if j.Events(1, "") != nil || j.Dropped() != 0 {
		t.Fatal("nil journal returned data")
	}
}

// TestHandlers exercises the /debug HTTP surface end to end.
func TestHandlers(t *testing.T) {
	tr := New(Config{SampleEvery: 1, SlowThreshold: -1})
	op := tr.Start("write", "/h", 0, 9)
	op.Root().Record("store", "own-0", "own", 0, 1, time.Millisecond, "ok")
	errData, _ := op.Finish(errors.New("boom"))
	ok := tr.Start("read", "/h2", 0, 3)
	ok.Finish(nil)

	h := Handler(tr.Store())
	get := func(url string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/debug/traces?kind=errors"); code != 200 {
		t.Fatalf("errors: %d %s", code, body)
	} else {
		var out []*TraceData
		if err := json.Unmarshal([]byte(body), &out); err != nil || len(out) != 1 || out[0].ID != errData.ID {
			t.Fatalf("errors body: %v %s", err, body)
		}
	}
	if code, body := get("/debug/traces?id=" + errData.ID); code != 200 {
		t.Fatalf("by id: %d %s", code, body)
	} else {
		var out TraceData
		if err := json.Unmarshal([]byte(body), &out); err != nil || out.Err != "boom" {
			t.Fatalf("by-id body: %v %s", err, body)
		}
	}
	if code, _ := get("/debug/traces?id=ffffffffffffffff"); code != 404 {
		t.Fatalf("missing id: %d", code)
	}
	if code, _ := get("/debug/traces?kind=bogus"); code != 400 {
		t.Fatalf("bad kind: %d", code)
	}
	if code, _ := get("/debug/traces?kind=recent"); code != 200 {
		t.Fatalf("recent: %d", code)
	}
	var nilStore *Store
	rec := httptest.NewRecorder()
	Handler(nilStore).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 503 {
		t.Fatalf("nil store: %d", rec.Code)
	}

	j := NewJournal(8)
	j.Note("health", "victim-1", "Up->Down", errData.idOrZero())
	eh := EventsHandler(j)
	rec = httptest.NewRecorder()
	eh.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?type=health", nil))
	if rec.Code != 200 {
		t.Fatalf("events: %d", rec.Code)
	}
	var evs []Event
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil || len(evs) != 1 || evs[0].Node != "victim-1" {
		t.Fatalf("events body: %v %s", err, rec.Body.String())
	}
}

// idOrZero parses a TraceData's rendered ID back (test helper).
func (d *TraceData) idOrZero() ID {
	id, err := ParseID(d.ID)
	if err != nil {
		return 0
	}
	return id
}

// TestParseID round-trips rendered IDs.
func TestParseID(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xdeadbeefcafe0123, ^uint64(0)} {
		id := ID(v)
		back, err := ParseID(id.String())
		if err != nil || back != id {
			t.Fatalf("round trip %x: %v %v", v, back, err)
		}
	}
	if _, err := ParseID("zz"); err == nil {
		t.Fatal("bad ID parsed")
	}
}
