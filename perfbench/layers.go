package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/sqlpp"
	"github.com/ideadb/idea/internal/workload"
)

// Layer replay sizes.
const (
	replayFrame     = 128    // records per frame, the default frame capacity
	replayRecords   = 60_000 // cap on records replayed through storage
	replayParseRecs = 8_192  // records in the parse and probe passes
	replayUpdates   = 5      // reference upserts before each Prepare
	sqlppReps       = 200
)

// replayLayers pushes a fixed slice of the workload's inputs through
// each layer's exported entry point, one span per call, and reports
// the per-layer metrics. Spans of one frame share a trace id.
func (r *run) replayLayers() error {
	tr := r.tracer
	tr.SetEnabled(true)
	in := r.replayIn
	n := min(len(in.raw), replayRecords)

	// Reference data and the Q1 plan, on an engine-internal catalog.
	cat, err := cluster.New(nodes, cluster.DefaultTuning())
	if err != nil {
		return err
	}
	defer cat.Close()
	g := workload.NewGenerator(r.seed, workload.Scaled(refScale))
	refDS, err := cat.CreateDataset("SafetyRatings", "", "country_code")
	if err != nil {
		return err
	}
	if err := g.FillSafetyRatings(refDS); err != nil {
		return err
	}
	stmts, err := sqlpp.Parse(q1DDL)
	if err != nil {
		return err
	}
	cf := stmts[0].(*sqlpp.CreateFunction)
	plan, err := query.CompileEnrich(cf.Name, cf.Params, cf.Body, cat, query.PlanOptions{})
	if err != nil {
		return err
	}

	// One trace id per frame, shared by that frame's spans in every pass.
	frameTrace := make([]uint64, (n+replayFrame-1)/replayFrame)
	for i := range frameTrace {
		frameTrace[i] = tr.NewID()
	}

	// adm: parse with one reused arena.
	arena := adm.NewArena(64 << 10)
	var dst []adm.Value
	parseN := min(n, replayParseRecs)
	var parseNs int64
	m0, c0 := mallocs(), cpuTime()
	for f := 0; f < parseN; f += replayFrame {
		trace := frameTrace[f/replayFrame]
		t0 := time.Now()
		arena.Reset()
		dst = dst[:0]
		for _, raw := range in.raw[f:min(f+replayFrame, parseN)] {
			if dst, err = adm.ParseJSONInto(raw, dst, arena); err != nil {
				return err
			}
		}
		t1 := time.Now()
		parseNs += t1.Sub(t0).Nanoseconds()
		tr.Record(trace, 0, "adm", "adm.ParseJSONInto", t0, t1)
	}
	parseAllocs, parseCPU := mallocs()-m0, cpuTime()-c0

	// Heap copies of the parsed records for the later layers.
	recs := make([]adm.Value, n)
	for i := range recs {
		if recs[i], err = adm.ParseJSON(in.raw[i]); err != nil {
			return err
		}
	}

	// query: Prepare against the catalog while reference updates land,
	// then EvalRecord over the parsed records.
	var prepNs, updNs []int64
	var prepAllocs uint64
	var prepCPU time.Duration
	var pe *query.PreparedEnrich
	prepares := 0
	for f := 0; f < parseN; f += enrichBatch {
		for u := 0; u < replayUpdates; u++ {
			v, _ := g.UpdateRecord("SafetyRatings")
			t0 := time.Now()
			if err := refDS.Upsert(v); err != nil {
				return err
			}
			t1 := time.Now()
			updNs = append(updNs, t1.Sub(t0).Nanoseconds())
			tr.Record(tr.NewID(), 0, "lsm", "lsm.Dataset.Upsert", t0, t1)
		}
		m0, c0 := mallocs(), cpuTime()
		t0 := time.Now()
		if pe, err = plan.Prepare(cat); err != nil {
			return err
		}
		t1 := time.Now()
		prepAllocs += mallocs() - m0
		prepCPU += cpuTime() - c0
		prepNs = append(prepNs, t1.Sub(t0).Nanoseconds())
		tr.Record(tr.NewID(), 0, "query", "EnrichPlan.Prepare", t0, t1)
		prepares++
	}
	enriched := make([]adm.Value, parseN)
	var evalNs int64
	m0, c0 = mallocs(), cpuTime()
	for f := 0; f < parseN; f += replayFrame {
		trace := frameTrace[f/replayFrame]
		t0 := time.Now()
		for i := f; i < min(f+replayFrame, parseN); i++ {
			if enriched[i], err = pe.EvalRecord(recs[i]); err != nil {
				return err
			}
		}
		t1 := time.Now()
		evalNs += t1.Sub(t0).Nanoseconds()
		tr.Record(trace, 0, "query", "PreparedEnrich.EvalRecord", t0, t1)
	}
	evalAllocs, evalCPU := mallocs()-m0, cpuTime()-c0

	// lsm: UpsertBatch of frames into a dataset on the real filesystem.
	dir := filepath.Join(r.workDir, "replay-lsm")
	ds, err := lsm.OpenDataset(lsm.NewOSFS(), dir, "Replay", workload.TweetType(), "id", nodes, cluster.DefaultTuning().Storage)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st0, c0 := ds.Stats(), cpuTime()
	var upsertNs int64
	var inBytes int64
	for f := 0; f < n; f += replayFrame {
		trace := frameTrace[f/replayFrame]
		frame := recs[f:min(f+replayFrame, n)]
		if r.udf && f < parseN {
			frame = enriched[f:min(f+replayFrame, parseN)]
		}
		for _, raw := range in.raw[f:min(f+replayFrame, n)] {
			inBytes += int64(len(raw))
		}
		t0 := time.Now()
		if err := ds.UpsertBatch(frame); err != nil {
			ds.Close()
			return err
		}
		t1 := time.Now()
		upsertNs += t1.Sub(t0).Nanoseconds()
		tr.Record(trace, 0, "lsm", "lsm.Dataset.UpsertBatch", t0, t1)
	}
	st1 := ds.Stats()
	if err := ds.Close(); err != nil {
		return err
	}
	upsertCPU := cpuTime() - c0
	disk := dirBytes(dir)

	// sqlpp: the serving queries and the Q1 DDL.
	texts := []string{
		fmt.Sprintf(lookupQuery, "Tweets"), fmt.Sprintf(probeQuery, "Tweets"), fmt.Sprintf(topkQuery, "Tweets"), q1DDL,
	}
	t0 := time.Now()
	for i := 0; i < sqlppReps; i++ {
		for _, text := range texts {
			s0 := time.Now()
			if _, err := sqlpp.Parse(text); err != nil {
				return err
			}
			if i == 0 {
				tr.Record(tr.NewID(), 0, "sqlpp", "sqlpp.Parse", s0, time.Now())
			}
		}
	}
	parseStmtNs := time.Since(t0).Nanoseconds()

	rec := func(x int) float64 { return float64(x) }
	r.addLayer(
		Ratio("adm.parse_ns_per_rec", "ns", float64(parseNs), rec(parseN), "records parsed"),
		Ratio("adm.parse_allocs_per_rec", "allocs", float64(parseAllocs), rec(parseN), "records parsed"),
		Metric{Name: "query.prepare_ms", Value: Median(durationsMs(prepNs)), Unit: "ms", N: int64(len(prepNs)),
			Base: fmt.Sprintf("median of %d Prepare calls over %d reference rows", len(prepNs), workload.Scaled(refScale).SafetyRatings), Valid: true},
		Ratio("query.prepare_allocs", "allocs", float64(prepAllocs), rec(prepares), "Prepare calls"),
		Ratio("query.probe_ns_per_rec", "ns", float64(evalNs), rec(parseN), "records enriched"),
		Ratio("query.probe_allocs_per_rec", "allocs", float64(evalAllocs), rec(parseN), "records enriched"),
		Ratio("sqlpp.parse_us_per_stmt", "us", float64(parseStmtNs)/1e3, rec(sqlppReps*len(texts)), "statements parsed"),
		Ratio("lsm.upsert_batch_ns_per_rec", "ns", float64(upsertNs), rec(n), "records upserted"),
		Count("lsm.flushes", "count", float64(st1.Flushes-st0.Flushes)),
		Count("lsm.merges", "count", float64(st1.Merges-st0.Merges)),
		Count("lsm.flushed_runs", "count", float64(st1.FlushedRuns-st0.FlushedRuns)),
		Ratio("lsm.disk_bytes_per_input_byte", "B/B", float64(disk), float64(inBytes), "input JSON bytes"),
		Metric{Name: "lsm.ref_upsert_us_p50", Value: Median(durationsUs(updNs)), Unit: "us", N: int64(len(updNs)),
			Base: fmt.Sprintf("%d replayed reference upserts", len(updNs)), Valid: true},
	)

	// Accounted CPU per stored record: the process CPU of the replayed
	// layers a record of this workload passes through (storage
	// including its flushes), plus in-process query CPU.
	us := func(d time.Duration, per float64) float64 { return float64(d.Nanoseconds()) / 1e3 / per }
	accounted := us(parseCPU, rec(parseN)) + us(upsertCPU, rec(n)) + r.queryCPU
	if r.udf {
		accounted += us(evalCPU, rec(parseN)) + us(prepCPU, rec(prepares*enrichBatch))
	}
	r.addLayer(
		Ratio("bench.unaccounted_share", "share", r.cpuPerRec-accounted, r.cpuPerRec, "us of CPU per stored record"),
		Metric{Name: "bench.trace_overhead", Value: r.traceOverhd, Unit: "share", N: 1,
			Base: "traced / untraced primary metric - 1, alternating within the run", Valid: true},
	)
	return nil
}
