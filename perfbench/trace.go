package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call made by the benchmark into a layer of the
// engine. Spans of one frame or query share a Trace id; Parent is the
// enclosing span's ID (0 for a root).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans kept in memory; spans beyond it are counted
// but not stored.
const maxSpans = 400_000

// Tracer keeps spans in memory until the run ends. A nil or disabled
// Tracer records nothing and costs one branch per call.
type Tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	on      bool
	nextID  uint64
	spans   []Span
	dropped int64
}

// NewTracer returns a tracer that records when enabled is true.
func NewTracer(enabled bool) *Tracer {
	return &Tracer{epoch: time.Now(), on: enabled}
}

// SetEnabled switches recording on or off (the traced run alternates
// to measure the tracer's own overhead).
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// NewID allocates a span or trace id.
func (t *Tracer) NewID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// Record stores a finished span; it returns the span's id (0 when the
// tracer is off).
func (t *Tracer) Record(trace, parent uint64, layer, name string, start, end time.Time) uint64 {
	return t.RecordID(0, trace, parent, layer, name, start, end)
}

// RecordID is Record for a span whose id was taken with NewID before
// its children were recorded; id 0 allocates one.
func (t *Tracer) RecordID(id, trace, parent uint64, layer, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	out := struct {
		Dropped int64  `json:"dropped"`
		Spans   []Span `json:"spans"`
	}{t.dropped, t.spans}
	data, err := json.Marshal(out)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTime sums, per layer, each span's duration minus the part of its
// interval covered by its children (overlapping children are counted
// once). Children are matched by Parent id.
func SelfTime(spans []Span) map[string]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := coveredWithin(s.Start, s.End, children[s.ID])
		out[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredWithin returns how much of [start, end) the union of the
// children's intervals covers.
func coveredWithin(start, end int64, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}
