package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Parent is -1 for the root
// span of a user op; every other span names the span that caused it.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Client  int    `json:"client"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. It is used by the
// single client of a traced pass and is not safe for concurrent use.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID, or -1 when the trace is full.
func (t *tracer) begin(parent int32, client int, name string) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Client: client, Name: name,
		StartNs: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].EndNs = int64(time.Since(t.epoch))
	}
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover (overlapping children are not counted twice), indexed by
// span ID.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := k.StartNs, k.EndNs
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// writeTrace writes the spans as one JSON array, one span per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	bw.WriteString("[\n")
	for i, s := range spans {
		if i > 0 {
			bw.WriteString(",")
		}
		if err := enc.Encode(s); err != nil { // Encode ends the line
			f.Close()
			return err
		}
	}
	bw.WriteString("]\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
