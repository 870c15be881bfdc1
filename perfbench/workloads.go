package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/ideadb/idea"
	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/workload"
)

// Workload sizes and rates.
const (
	nodes = 2

	ingestRecords = 60_000 // tweets per ingest-durable repetition
	ingestSample  = 256    // closed loop: sample every 256th record
	ingestSetups  = 10     // extra set-ups timed per run

	enrichRate    = 8_000                   // tweets per second
	updateRate    = 200                     // reference upserts per second
	enrichSample  = 16                      // sample every 16th tweet
	enrichSetups  = 10                      // set-ups per run (median reported)
	enrichBatch   = 420                     // the paper's 1X batch size
	enrichWindow  = 2500 * time.Millisecond // one cluster per window bounds in-memory growth
	refreshToggle = 500 * time.Millisecond

	servePreload    = 50_000
	serveRate       = 2_000 // background tweets per second
	serveSample     = 4
	serveProbes     = 10 // indexed probes per round, next to one lookup and one topk scan
	serveCacheBytes = 8 << 20
	serveSetups     = 5
	serveSlack      = 30 * time.Second // background pool beyond --seconds, for the last query round
	queryWarm       = 2
	queryMinRounds  = 10 // each round runs lookup, probe and topk once
	readbackDur     = 8 * time.Second
	inprocRounds    = 10
	getPassReads    = 200
)

// Q1 is the paper's Safety Rating enrichment (Appendix A).
const q1DDL = `CREATE FUNCTION enrichTweetQ1(t) {
	LET safety_rating = (SELECT VALUE s.safety_rating
		FROM SafetyRatings s
		WHERE t.country = s.country_code)
	SELECT t.*, safety_rating
};`

const tweetDDL = `CREATE TYPE TweetType AS OPEN { id: int64, text: string };
CREATE DATASET %s(TweetType) PRIMARY KEY id;`

// run is one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	tracer   *Tracer // nil for untraced runs
	workDir  string
	ctx      context.Context

	e2e       []Metric
	layer     []Metric
	attempted int64
	failed    int64
	problems  []string

	// Inputs and real-phase costs the layer replay needs.
	replayIn    tweets
	udf         bool
	cpuPerRec   float64 // µs per stored record in the (traced) real phase
	queryCPU    float64 // in-process query µs per stored record
	traceOverhd float64
}

func (r *run) problem(n int64, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) add(m ...Metric) { r.e2e = append(r.e2e, m...) }

// addLayer records per-layer metrics; the first value of a name wins,
// so a real-run measurement takes precedence over the replay's.
func (r *run) addLayer(ms ...Metric) {
	for _, m := range ms {
		dup := false
		for _, have := range r.layer {
			dup = dup || have.Name == m.Name
		}
		if !dup {
			r.layer = append(r.layer, m)
		}
	}
}

func (r *run) newCluster(dir string, cacheBytes int64) (*idea.Cluster, error) {
	return idea.NewCluster(idea.Config{Nodes: nodes, DataDir: dir, BlockCacheBytes: cacheBytes})
}

// startFeed starts a declared feed and hands its handle to src.
func startFeed(c *idea.Cluster, name string, src *source) (*idea.Feed, error) {
	res, err := c.Execute(context.Background(), fmt.Sprintf("START FEED %s;", name))
	if err != nil {
		return nil, err
	}
	feed := res.Feeds()[0]
	if src != nil {
		src.handle <- feed
	}
	return feed, nil
}

// ---------------------------------------------------------------------
// ingest-durable: closed-loop feed, no UDF, durable storage.

func (r *run) ingestDurable() error {
	g := workload.NewGenerator(r.seed, workload.Scaled(refScale))
	recs, err := genTweets(g, 0, ingestRecords)
	if err != nil {
		return err
	}
	r.replayIn = recs
	setups, err := r.ingestSetups()
	if err != nil {
		return err
	}
	var rps, cpus, rpsTraced []float64
	var fresh [][]float64
	var late []int64
	var freshLayer feedLayer
	deadline := time.Now().Add(r.seconds)
	for rep := 0; ; rep++ {
		traced := r.tracer != nil && rep%2 == 1
		r.tracer.SetEnabled(traced)
		dir := filepath.Join(r.workDir, fmt.Sprintf("ingest-%d", rep))
		t0 := time.Now()
		c, err := r.ingestCluster(dir)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		src := newSource(c, "Tweets", recs, 0, ingestSample, r.tracer)
		if err := c.SetFeedSource("Ingest", func(int) (idea.FeedSource, error) { return src, nil }); err != nil {
			c.Close()
			return err
		}

		runtime.GC()
		cpu0, t1 := cpuTime(), time.Now()
		feed, err := startFeed(c, "Ingest", src)
		if err == nil {
			err = feed.Wait()
		}
		wall, cpu := time.Since(t1), cpuTime()-cpu0
		if err != nil {
			c.Close()
			return fmt.Errorf("ingest feed: %w", err)
		}
		r.attempted += int64(ingestRecords)
		st, _ := feed.Stats()
		n, _ := c.DatasetLen("Tweets")
		if st.Stored != ingestRecords || n != ingestRecords {
			r.problem(int64(max(1, ingestRecords-min(n, ingestRecords))), "rep %d: stored %d (dataset holds %d), emitted %d", rep, st.Stored, n, ingestRecords)
		}
		if err := src.finish(); err != nil {
			r.problem(int64(len(src.pending)), "rep %d: %v", rep, err)
		}
		if traced {
			rpsTraced = append(rpsTraced, float64(ingestRecords)/wall.Seconds())
		} else {
			rps = append(rps, float64(ingestRecords)/wall.Seconds())
			cpus = append(cpus, float64(cpu.Microseconds())/float64(ingestRecords))
			fresh = append(fresh, src.windows(false)...)
		}
		late = append(late, src.late...)
		freshLayer.add(src, st, wall, nodes)

		last := time.Now().After(deadline) && len(rps) >= minWindows && (r.tracer == nil || len(rpsTraced) >= 1)
		if last {
			r.tracer.SetEnabled(r.tracer != nil)
			if err := r.readback(c, "Tweets", recs); err != nil {
				c.Close()
				return err
			}
		}
		if err := c.Close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
		if last {
			break
		}
	}
	r.add(
		Metric{Name: "setup_s", Value: Median(setups), Unit: "s", N: int64(len(setups)), Base: fmt.Sprintf("median of %d set-ups", len(setups)), Valid: true},
		Metric{Name: "ingest_rps", Value: Median(rps), Unit: "1/s", N: int64(len(rps)), Base: fmt.Sprintf("median of %d repetitions of %d records", len(rps), ingestRecords), Valid: true},
		Metric{Name: "cpu_us_per_rec", Value: Median(cpus), Unit: "us", N: int64(len(cpus)), Base: fmt.Sprintf("median of %d repetitions of %d records", len(cpus), ingestRecords), Valid: true},
		Windowed("freshness_p50_ms", "ms", fresh, 0.5),
		Windowed("freshness_p90_ms", "ms", fresh, 0.9),
	)
	r.cpuPerRec = Median(cpus)
	if r.tracer != nil {
		r.traceOverhd = Median(rps)/Median(rpsTraced) - 1
	}
	freshLayer.report(r, late)
	return nil
}

// ingestCluster boots a durable cluster with the ingest feed declared.
func (r *run) ingestCluster(dir string) (*idea.Cluster, error) {
	c, err := r.newCluster(dir, 0)
	if err != nil {
		return nil, err
	}
	if _, err := c.Execute(r.ctx, fmt.Sprintf(tweetDDL, "Tweets")+`
		CREATE FEED Ingest WITH {"adapter-name": "channel_adapter", "congestion-policy": "backpressure"};
		CONNECT FEED Ingest TO DATASET Tweets;`); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// ingestSetups times set-ups that are torn down unused, so the set-up
// median rests on more samples than the run has repetitions.
func (r *run) ingestSetups() ([]float64, error) {
	var out []float64
	for i := 0; i < ingestSetups; i++ {
		dir := filepath.Join(r.workDir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		c, err := r.ingestCluster(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
		if err := c.Close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// enrich-refresh: open-loop feed through enrichTweetQ1 with reference
// updates, in-memory storage.

func (r *run) enrichRefresh() error {
	g := workload.NewGenerator(r.seed, workload.Scaled(refScale))
	refRows, initial, err := safetyRatings(g)
	if err != nil {
		return err
	}
	reps := max(1, int((r.seconds+enrichWindow-1)/enrichWindow))
	window := r.seconds / time.Duration(reps)
	nTweets := int(enrichRate * window.Seconds())
	recs, err := genTweets(g, 0, nTweets)
	if err != nil {
		return err
	}
	nUpd := int(updateRate*window.Seconds()) + 1
	upd := make([][]byte, nUpd)
	updVals := make([][2]string, nUpd)
	for i := range upd {
		v, _ := g.UpdateRecord("SafetyRatings")
		upd[i] = adm.SerializeJSON(v)
		updVals[i] = [2]string{v.Field("country_code").StringVal(), v.Field("safety_rating").StringVal()}
	}
	r.replayIn, r.udf = recs, true
	refArray := jsonArray(refRows)

	var setups []float64
	var fresh, freshOn [][]float64
	var late, updLat []int64
	var fl feedLayer
	var cpu, wall time.Duration
	var stored int64
	extra := max(0, enrichSetups-reps)
	for i := 0; i < extra+reps; i++ {
		t0 := time.Now()
		c, err := r.newCluster("", 0)
		if err != nil {
			return err
		}
		_, err = c.Execute(r.ctx, fmt.Sprintf(tweetDDL, "EnrichedTweets")+`
			CREATE TYPE SafetyType AS OPEN { country_code: string };
			CREATE DATASET SafetyRatings(SafetyType) PRIMARY KEY country_code;
			UPSERT INTO SafetyRatings ($rows);
			`+q1DDL+`
			CREATE FEED TweetFeed WITH {"adapter-name": "channel_adapter", "batch-size": `+fmt.Sprint(enrichBatch)+`};
			CONNECT FEED TweetFeed TO DATASET EnrichedTweets APPLY FUNCTION enrichTweetQ1;`,
			idea.Named("rows", refArray))
		if err != nil {
			c.Close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < extra {
			c.Close()
			continue
		}
		if n, _ := c.DatasetLen("SafetyRatings"); n != len(refRows) {
			r.problem(1, "SafetyRatings holds %d rows, loaded %d", n, len(refRows))
		}

		held := make(map[string]map[string]bool, len(initial))
		for k, v := range initial {
			held[k] = map[string]bool{v: true}
		}
		src := newSource(c, "EnrichedTweets", recs, enrichRate, enrichSample, r.tracer)
		src.needField = "safety_rating"
		src.updates = &updateStream{rate: updateRate, docs: upd, applied: func(i int) {
			cv := updVals[i]
			if held[cv[0]] == nil {
				held[cv[0]] = map[string]bool{}
			}
			held[cv[0]][cv[1]] = true
		}}
		if r.tracer != nil {
			src.toggle = refreshToggle
		}
		if err := c.SetFeedSource("TweetFeed", func(int) (idea.FeedSource, error) { return src, nil }); err != nil {
			c.Close()
			return err
		}
		runtime.GC()
		cpu0, t1 := cpuTime(), time.Now()
		feed, err := startFeed(c, "TweetFeed", src)
		if err == nil {
			err = feed.Wait()
		}
		repWall, repCPU := time.Since(t1), cpuTime()-cpu0
		if err != nil {
			c.Close()
			return fmt.Errorf("enrichment feed: %w", err)
		}
		r.tracer.SetEnabled(r.tracer != nil)
		st, _ := feed.Stats()
		wall, cpu, stored = wall+repWall, cpu+repCPU, stored+st.Stored
		r.attempted += int64(nTweets) + int64(src.updates.sent)
		if src.updates.errors > 0 {
			r.problem(int64(src.updates.errors), "%d reference upserts failed", src.updates.errors)
		}
		if err := src.finish(); err != nil {
			r.problem(int64(len(src.pending)), "%v", err)
		}
		r.checkSustainable(src, st, nTweets)
		r.checkEnriched(c, recs, held)
		fresh = append(fresh, src.windows(false)...)
		freshOn = append(freshOn, src.windows(true)...)
		late = append(late, src.late...)
		updLat = append(updLat, src.updates.latNs...)
		fl.add(src, st, repWall, nodes)
		if i == extra+reps-1 {
			if err := r.readback(c, "EnrichedTweets", recs); err != nil {
				c.Close()
				return err
			}
		}
		c.Close()
	}

	r.add(
		Metric{Name: "setup_s", Value: Median(setups), Unit: "s", N: int64(len(setups)), Base: fmt.Sprintf("median of %d set-ups", len(setups)), Valid: true},
		Ratio("ingest_rps", "1/s", float64(stored), wall.Seconds(), fmt.Sprintf("s from START FEED to Wait over %d windows", reps)),
		Ratio("cpu_us_per_rec", "us", float64(cpu.Microseconds()), float64(stored), "stored records"),
		Windowed("freshness_p50_ms", "ms", fresh, 0.5),
		Windowed("freshness_p90_ms", "ms", fresh, 0.9),
	)
	if r.tracer != nil {
		r.traceOverhd = Median(flatten(freshOn))/Median(flatten(fresh)) - 1
	}
	r.cpuPerRec = float64(cpu.Microseconds()) / float64(stored)
	fl.report(r, late)
	r.addLayer(Metric{Name: "lsm.ref_upsert_us_p50", Value: Median(durationsUs(updLat)), Unit: "us",
		N: int64(len(updLat)), Base: fmt.Sprintf("%d update-client upserts", len(updLat)), Valid: len(updLat) > 0})
	return nil
}

// checkEnriched verifies that every tweet was stored and enriched with
// a rating its country held at some point of the run.
func (r *run) checkEnriched(c *idea.Cluster, recs tweets, held map[string]map[string]bool) {
	bad := int64(0)
	for i := range recs.raw {
		rec, found, err := c.Get("EnrichedTweets", idea.Int64(recs.base+int64(i)))
		if err != nil || !found {
			bad++
			continue
		}
		ratings := rec.Field("safety_rating").Elems()
		ok := len(ratings) == 1
		for _, v := range ratings {
			ok = ok && held[recs.info[i].country][v.Str()]
		}
		if !ok {
			bad++
		}
	}
	if bad > 0 {
		r.problem(bad, "%d of %d tweets missing or enriched with a rating their country never held", bad, len(recs.raw))
	}
}

// checkSustainable marks an open-loop run invalid when intake had to
// spill, shed or sample, or the generator kept behind its schedule.
func (r *run) checkSustainable(src *source, st idea.FeedStats, want int) {
	if st.SpilledFrames > 0 || st.ShedFrames > 0 || st.SampledFrames > 0 {
		r.problem(st.SpilledRecords+st.ShedRecords+st.SampledRecords,
			"rate not sustainable: spilled %d, shed %d, sampled %d frames", st.SpilledFrames, st.ShedFrames, st.SampledFrames)
	}
	if int(st.Stored) != src.emitted || (want > 0 && src.emitted != want) {
		r.problem(int64(max(want, src.emitted))-st.Stored, "stored %d, emitted %d, scheduled %d", st.Stored, src.emitted, want)
	}
	if p50 := Median(durationsMs(src.late)); p50 > maxLateMs {
		r.problem(1, "generator median lateness %.2f ms exceeds %d ms", p50, maxLateMs)
	}
}

// maxLateMs bounds the open-loop generator's median lateness: beyond
// it the generator, not the engine, is behind its schedule. Its tail
// is reported (bench.gen_late_p99_ms) but not bounded: the stalls
// behind it hold up the engine too, and freshness, timed from each
// record's due time, already counts them.
const maxLateMs = 5

// ---------------------------------------------------------------------
// serve-mixed: queries over the wire against a durable dataset while a
// background feed writes.

func (r *run) serveMixed() error {
	g := workload.NewGenerator(r.seed, workload.Scaled(refScale))
	pre, err := genTweets(g, 0, servePreload)
	if err != nil {
		return err
	}
	bg, err := genTweets(g, servePreload, int(serveRate*(r.seconds+serveSlack).Seconds()))
	if err != nil {
		return err
	}
	r.replayIn = pre

	var setups []float64
	var c *idea.Cluster
	var ws *wireServer
	var dir string
	for i := 0; i < serveSetups; i++ {
		dir = filepath.Join(r.workDir, fmt.Sprintf("serve-%d", i))
		t0 := time.Now()
		cc, wss, err := r.serveSetup(dir, pre)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < serveSetups-1 {
			wss.close()
			cc.Close()
			os.RemoveAll(dir)
			continue
		}
		c, ws = cc, wss
	}
	defer os.RemoveAll(dir)
	defer c.Close()
	defer ws.close()

	tr := newTruth(pre)
	tr.add(bg, len(bg.raw))
	src := newSource(c, "Tweets", bg, serveRate, serveSample, r.tracer)
	src.window = time.Second
	if err := c.SetFeedSource("Background", func(int) (idea.FeedSource, error) { return src, nil }); err != nil {
		return err
	}
	qc := newQueryClient(c, ws, "Tweets", serveProbes, tr, r.seed+1, r.tracer)

	runtime.GC()
	cpu0, t1 := cpuTime(), time.Now()
	feed, err := startFeed(c, "Background", src)
	if err != nil {
		return err
	}
	qc.run(r.ctx, queryWarm, queryMinRounds, r.seconds, inprocRounds)
	close(src.stop)
	err = feed.Wait()
	wall, cpu := time.Since(t1), cpuTime()-cpu0
	if err != nil {
		return fmt.Errorf("background feed: %w", err)
	}
	if r.tracer != nil {
		qc.getPass(getPassReads)
	}
	st, _ := feed.Stats()
	if src.emitted == len(bg.raw) {
		r.problem(1, "background pool of %d tweets ran out before the queries finished", len(bg.raw))
	}
	if err := src.finish(); err != nil {
		r.problem(int64(len(src.pending)), "%v", err)
	}
	r.checkSustainable(src, st, 0)
	r.attempted += int64(src.emitted)
	stored := float64(st.Stored)
	r.add(
		Metric{Name: "setup_s", Value: Median(setups), Unit: "s", N: int64(len(setups)), Base: fmt.Sprintf("median of %d set-ups", len(setups)), Valid: true},
		Ratio("ingest_rps", "1/s", stored, wall.Seconds(), "s of background feed"),
		Ratio("cpu_us_per_rec", "us", float64(cpu.Microseconds()), stored, "stored background records (queries included)"),
		Windowed("freshness_p50_ms", "ms", src.windows(false), 0.5),
		Windowed("freshness_p90_ms", "ms", src.windows(false), 0.9),
	)
	r.cpuPerRec = float64(cpu.Microseconds()) / stored
	var fl feedLayer
	fl.add(src, st, wall, nodes)
	fl.report(r, src.late)
	r.finishQueries(qc, ws, stored)
	return nil
}

func (r *run) serveSetup(dir string, pre tweets) (*idea.Cluster, *wireServer, error) {
	c, err := r.newCluster(dir, serveCacheBytes)
	if err != nil {
		return nil, nil, err
	}
	_, err = c.Execute(r.ctx, fmt.Sprintf(tweetDDL, "Tweets")+`
		CREATE INDEX countryIdx ON Tweets(country) TYPE BTREE;
		CREATE FEED Preload WITH {"adapter-name": "channel_adapter"};
		CONNECT FEED Preload TO DATASET Tweets;
		CREATE FEED Background WITH {"adapter-name": "channel_adapter"};
		CONNECT FEED Background TO DATASET Tweets;`)
	if err == nil {
		err = c.SetFeedSource("Preload", func(int) (idea.FeedSource, error) { return &idea.RecordsSource{Records: pre.raw}, nil })
	}
	var feed *idea.Feed
	if err == nil {
		feed, err = startFeed(c, "Preload", nil)
	}
	if err == nil {
		err = feed.Wait()
	}
	if err == nil {
		if n, _ := c.DatasetLen("Tweets"); n != len(pre.raw) {
			err = fmt.Errorf("preload stored %d of %d tweets", n, len(pre.raw))
		}
	}
	var ws *wireServer
	if err == nil {
		ws, err = startServer(c)
	}
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, ws, nil
}

// readback runs the serving client over a quiescent dataset after the
// workload's main phase: a correctness check of everything stored, and
// the query latencies of this workload's data shape.
func (r *run) readback(c *idea.Cluster, dataset string, recs tweets) error {
	ws, err := startServer(c)
	if err != nil {
		return err
	}
	defer ws.close()
	qc := newQueryClient(c, ws, dataset, 1, newTruth(recs), r.seed+1, r.tracer)
	runtime.GC()
	qc.run(r.ctx, queryWarm, queryMinRounds, readbackDur, inprocRounds)
	if r.tracer != nil {
		qc.getPass(getPassReads)
	}
	r.finishQueries(qc, ws, float64(len(recs.raw)))
	return nil
}

// finishQueries reports the serving client's metrics and checks.
func (r *run) finishQueries(qc *queryClient, ws *wireServer, records float64) {
	st := &qc.st
	r.attempted += int64(st.queries)
	if len(st.failures) > 0 {
		r.problem(int64(len(st.failures)), "%d query checks failed: %s", len(st.failures), summarizeFailures(st.failures))
	}
	for _, kind := range queryKinds {
		r.add(Tail(kind+"_p50_ms", "ms", durationsMs(st.wireNs[kind]), 0.5))
	}
	open := ws.openCursors()
	if open != 0 {
		r.problem(open, "%d server cursors still open after the last query", open)
	}
	r.addLayer(Count("server.open_cursors_end", "count", float64(open)))
	for _, kind := range queryKinds {
		in := Median(durationsMs(st.inprocNs[kind]))
		r.addLayer(
			Metric{Name: "query." + kind + "_inproc_ms", Value: in, Unit: "ms", N: int64(len(st.inprocNs[kind])),
				Base: fmt.Sprintf("%d in-process queries", len(st.inprocNs[kind])), Valid: len(st.inprocNs[kind]) > 0},
			Metric{Name: "wire." + kind + "_overhead_ms", Value: Median(durationsMs(st.diffNs[kind])), Unit: "ms", N: int64(len(st.diffNs[kind])),
				Base: fmt.Sprintf("median of %d database/sql-minus-in-process pairs", len(st.diffNs[kind])), Valid: len(st.diffNs[kind]) > 0},
		)
		if r.tracer != nil && kind == "lookup" && r.workload == "serve-mixed" {
			r.traceOverhd = Median(durationsMs(st.tracedNs[kind]))/Median(durationsMs(st.wireNs[kind])) - 1
		}
	}
	inproc := 0.0
	for _, kind := range queryKinds {
		inproc += Median(durationsUs(st.inprocCPU[kind])) * float64(len(st.wireNs[kind])+len(st.tracedNs[kind]))
	}
	if r.workload == "serve-mixed" {
		r.queryCPU = inproc / records
	}
	s0, s1 := st.storage[0], st.storage[1]
	hits, misses := float64(s1.BlockCacheHits-s0.BlockCacheHits), float64(s1.BlockCacheMisses-s0.BlockCacheMisses)
	g0, g1 := st.getStats[0], st.getStats[1]
	gets := float64(len(st.getNs))
	r.addLayer(
		Metric{Name: "lsm.get_us_p50", Value: Median(durationsUs(st.getNs)), Unit: "us", N: int64(len(st.getNs)),
			Base: fmt.Sprintf("%d Cluster.Get of lookup keys", len(st.getNs)), Valid: len(st.getNs) > 0},
		Ratio("lsm.block_cache_hit_ratio", "ratio", hits, hits+misses, "block cache accesses during the query rounds"),
		Ratio("lsm.block_reads_per_query", "blocks", float64(s1.BlockReads-s0.BlockReads), float64(st.timed), "timed queries"),
		Ratio("lsm.bloom_skips_per_lookup", "count", float64(g1.BloomSkips-g0.BloomSkips), gets, "point reads of lookup keys"),
		Ratio("lsm.fence_skips_per_lookup", "count", float64(g1.FenceSkips-g0.FenceSkips), gets, "point reads of lookup keys"),
	)
}

// feedLayer accumulates the core-layer counters of one or more feeds.
type feedLayer struct {
	invocations, stored int64
	refreshNs           float64 // sum of MeanRefresh × invocations
	bufMax              int
	spilled             int64
	emitNs, runNs       int64
	wallNs              int64
}

func (f *feedLayer) add(src *source, st idea.FeedStats, wall time.Duration, nodes int) {
	f.invocations += st.Invocations
	f.stored += st.Stored
	f.refreshNs += float64(st.MeanRefresh.Nanoseconds()) * float64(st.Invocations)
	f.bufMax = max(f.bufMax, src.bufMax)
	f.spilled += st.SpilledFrames
	f.emitNs += src.emitNs
	f.runNs += src.runNs
	f.wallNs += wall.Nanoseconds()
}

func (f *feedLayer) report(r *run, late []int64) {
	inv := float64(f.invocations)
	sim := inv * nodes * float64(cluster.DefaultTuning().InvokeOverheadPerNode.Nanoseconds())
	lateP99, _ := Quantile(durationsMs(late), 0.99)
	r.addLayer(
		Ratio("core.emit_block_share", "share", float64(f.emitNs), float64(f.runNs), "ns inside FeedSource.Run (traced)"),
		Ratio("core.invocations_per_krec", "1/krec", inv, float64(f.stored)/1000, "thousand stored records"),
		Ratio("core.refresh_mean_ms", "ms", f.refreshNs/1e6, inv, "computing-job invocations"),
		Count("core.buffered_frames_max", "frames", float64(f.bufMax)),
		Count("core.spilled_frames", "frames", float64(f.spilled)),
		Ratio("cluster.sim_overhead_share", "share", sim, float64(f.wallNs), "ns of feed wall time"),
		Metric{Name: "bench.gen_late_p99_ms", Value: lateP99, Unit: "ms", N: int64(len(late)),
			Base: fmt.Sprintf("%d scheduled actions", len(late)), Valid: len(late) > 0},
	)
}
