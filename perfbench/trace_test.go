package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	// frame [0,100) with children parse [10,30) and upsert [40,90),
	// and upsert's own child wal [50,70).
	spans := []Span{
		{ID: 1, Trace: 7, Layer: "bench", Name: "frame", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 7, Layer: "adm", Name: "parse", Start: 10, End: 30},
		{ID: 3, Parent: 1, Trace: 7, Layer: "lsm", Name: "upsert", Start: 40, End: 90},
		{ID: 4, Parent: 3, Trace: 7, Layer: "wal", Name: "commit", Start: 50, End: 70},
	}
	got := SelfTime(spans)
	want := map[string]time.Duration{"bench": 30, "adm": 20, "lsm": 30, "wal": 20}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestSelfTimeOverlappingAndOverhangingChildren(t *testing.T) {
	// Children overlap each other ([10,50) and [30,60)) and one runs
	// past its parent's end ([90,120)); covered time is counted once
	// and clipped to the parent.
	spans := []Span{
		{ID: 1, Layer: "query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "lsm", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "lsm", Start: 30, End: 60},
		{ID: 4, Parent: 1, Layer: "lsm", Start: 90, End: 120},
	}
	got := SelfTime(spans)
	if got["query"] != 40 { // 100 - (50 covered by [10,60) + 10 by [90,100))
		t.Errorf("parent self time = %v, want 40", got["query"])
	}
	if got["lsm"] != 40+30+30 {
		t.Errorf("children self time = %v, want 100", got["lsm"])
	}
}

func TestTracerRecordsOnlyWhenEnabled(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.Record(1, 0, "x", "y", time.Now(), time.Now()) // must not panic
	tr := NewTracer(false)
	t0 := time.Now()
	tr.Record(1, 0, "core", "emit", t0, t0.Add(time.Millisecond))
	if len(tr.Spans()) != 0 {
		t.Fatal("disabled tracer recorded a span")
	}
	tr.SetEnabled(true)
	id := tr.Record(1, 0, "core", "emit", t0, t0.Add(time.Millisecond))
	tr.Record(1, id, "lsm", "get", t0, t0.Add(time.Microsecond))
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != id || spans[0].End-spans[0].Start != int64(time.Millisecond) {
		t.Fatalf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Spans []Span }
	if err := json.Unmarshal(data, &out); err != nil || len(out.Spans) != 2 {
		t.Fatalf("written spans = %s (%v)", data, err)
	}
}
