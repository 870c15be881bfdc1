package main

import (
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ideadb/idea"
	_ "github.com/ideadb/idea/driver"
	"github.com/ideadb/idea/internal/server"
)

// The three query types of the serving client. %s is the dataset.
const (
	lookupQuery = `SELECT VALUE t FROM %s t WHERE t.id = $1`
	probeQuery  = `SELECT VALUE t.id FROM %s t WHERE t.country = $1`
	topkQuery   = `SELECT VALUE t FROM %s t ORDER BY t.retweet_count DESC LIMIT 10`
)

var queryKinds = []string{"lookup", "probe", "topk"}

// wireServer is an in-process ideaserver on loopback plus one
// database/sql connection to it.
type wireServer struct {
	srv  *server.Server
	ln   net.Listener
	db   *sql.DB
	done chan struct{}
}

func startServer(c *idea.Cluster) (*wireServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := &wireServer{srv: server.New(c, server.Config{}), ln: ln, done: make(chan struct{})}
	go func() {
		defer close(ws.done)
		ws.srv.Serve(ln)
	}()
	db, err := sql.Open("idea", "idea://"+ln.Addr().String())
	if err != nil {
		ws.close()
		return nil, err
	}
	db.SetMaxOpenConns(1)
	db.SetMaxIdleConns(1)
	ws.db = db
	if err := db.PingContext(context.Background()); err != nil {
		ws.close()
		return nil, err
	}
	return ws, nil
}

func (ws *wireServer) close() {
	if ws.db != nil {
		ws.db.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ws.srv.Shutdown(ctx)
	<-ws.done
}

// cursorGrace is how long a cursor may stay open after the client has
// read its last row: the server writes the result trailer before it
// retires the cursor, so the gauge can lag the client by a moment. A
// leaked cursor stays open past it.
const cursorGrace = time.Second

// openCursors returns the server's open-cursor gauge once it reads 0,
// or its value after cursorGrace.
func (ws *wireServer) openCursors() int64 {
	deadline := time.Now().Add(cursorGrace)
	for {
		n := ws.srv.Stats().OpenCursors
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// truth is what the query checks compare results against. The sets
// are guarded so a background feed can extend them while queries run.
type truth struct {
	mu        sync.Mutex
	info      map[int64]tweetInfo
	country   map[string][]int64 // every emitted id per country
	stored    map[string]int     // prefix of country[c] known to be stored
	countries []string           // countries with at least one stored tweet
	maxRT     int64              // max retweet_count among stored tweets
}

func newTruth(stored ...tweets) *truth {
	tr := &truth{info: make(map[int64]tweetInfo), country: make(map[string][]int64), stored: make(map[string]int)}
	for _, t := range stored {
		tr.add(t, len(t.raw))
	}
	tr.markStored()
	return tr
}

// add records the first n tweets of t as emitted.
func (tr *truth) add(t tweets, n int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := 0; i < n; i++ {
		id := t.base + int64(i)
		tr.info[id] = t.info[i]
		tr.country[t.info[i].country] = append(tr.country[t.info[i].country], id)
	}
}

// markStored declares everything emitted so far as stored.
func (tr *truth) markStored() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.countries = tr.countries[:0]
	for c, ids := range tr.country {
		tr.stored[c] = len(ids)
		tr.countries = append(tr.countries, c)
	}
	sort.Strings(tr.countries)
	for _, inf := range tr.info {
		tr.maxRT = max(tr.maxRT, inf.retweet)
	}
}

// queryStats collects the serving client's measurements.
type queryStats struct {
	wireNs    map[string][]int64
	inprocNs  map[string][]int64
	inprocCPU map[string][]int64 // process CPU ns during each in-process query
	diffNs    map[string][]int64 // database/sql minus in-process latency, same round
	tracedNs  map[string][]int64 // wire latencies of rounds run with tracing on
	getNs     []int64
	storage   [2]idea.StorageStats // around the timed query rounds
	getStats  [2]idea.StorageStats // around the point-read pass
	queries   int                  // every query run, warm-up included
	timed     int
	failures  []string
}

// queryClient runs the three query types round-robin over one database/sql
// connection with Zipf-distributed keys.
type queryClient struct {
	c       *idea.Cluster
	ws      *wireServer
	dataset string
	truth   *truth
	tracer  *Tracer
	probes  int // probes per round
	texts   map[string]string
	ids     []int64 // lookup key space: the ids stored before the client started
	idPick  *zipfPicker
	ctPick  *zipfPicker
	st      queryStats
}

func newQueryClient(c *idea.Cluster, ws *wireServer, dataset string, probes int, tr *truth, seed int64, tracer *Tracer) *queryClient {
	rng := rand.New(rand.NewSource(seed))
	q := &queryClient{c: c, ws: ws, dataset: dataset, probes: probes, truth: tr, tracer: tracer,
		texts: map[string]string{
			"lookup": fmt.Sprintf(lookupQuery, dataset),
			"probe":  fmt.Sprintf(probeQuery, dataset),
			"topk":   fmt.Sprintf(topkQuery, dataset),
		}}
	tr.mu.Lock()
	for _, c := range tr.countries {
		q.ids = append(q.ids, tr.country[c][:tr.stored[c]]...)
	}
	countries := len(tr.countries)
	tr.mu.Unlock()
	sort.Slice(q.ids, func(i, j int) bool { return q.ids[i] < q.ids[j] })
	q.idPick = newZipfPicker(rng, len(q.ids))
	q.ctPick = newZipfPicker(rng, countries)
	q.st = queryStats{wireNs: map[string][]int64{}, inprocNs: map[string][]int64{}, inprocCPU: map[string][]int64{},
		diffNs: map[string][]int64{}, tracedNs: map[string][]int64{}}
	return q
}

// run sends warm rounds untimed, then rounds until both minRounds are
// done and minDur has passed. Traced rounds alternate with untraced
// ones; the first inprocRounds traced rounds also run each query
// in-process.
func (q *queryClient) run(ctx context.Context, warm, minRounds int, minDur time.Duration, inprocRounds int) {
	for i := 0; i < warm; i++ {
		q.round(ctx, false, 0)
	}
	q.st.storage[0] = q.c.StorageStats()
	start := time.Now()
	inproc := 0
	for r := 0; r < minRounds || time.Since(start) < minDur; r++ {
		traced := q.tracer != nil && r%2 == 1
		q.tracer.SetEnabled(traced)
		if traced && inproc < inprocRounds {
			// Alternate which of the pair runs first, so neither
			// inherits the other's garbage systematically.
			q.round(ctx, true, 1+inproc%2)
			inproc++
			continue
		}
		q.round(ctx, true, 0)
	}
	q.tracer.SetEnabled(q.tracer != nil)
	q.st.storage[1] = q.c.StorageStats()
}

// getPass reads n lookup keys with Cluster.Get: the primary-key read
// path a lookup could take, timed, with its read-path counters.
func (q *queryClient) getPass(n int) {
	q.st.getStats[0] = q.c.StorageStats()
	for i := 0; i < n; i++ {
		id := q.ids[q.idPick.next()]
		t0 := time.Now()
		_, found, err := q.c.Get(q.dataset, idea.Int64(id))
		t1 := time.Now()
		q.tracer.Record(q.tracer.NewID(), 0, "lsm", "Cluster.Get", t0, t1)
		q.st.getNs = append(q.st.getNs, t1.Sub(t0).Nanoseconds())
		if err != nil || !found {
			q.st.failures = append(q.st.failures, fmt.Sprintf("get %d: found=%v err=%v", id, found, err))
		}
	}
	q.st.getStats[1] = q.c.StorageStats()
}

// round runs one lookup, q.probes probes and one topk over the wire,
// each with fresh Zipf keys. With inproc 1 or 2 each query also runs
// through Cluster.Query, after or before the wire run.
func (q *queryClient) round(ctx context.Context, timed bool, inproc int) {
	type query struct {
		kind    string
		id      int64
		country string
		args    []any
	}
	id := q.ids[q.idPick.next()]
	round := []query{{kind: "lookup", id: id, args: []any{id}}}
	q.truth.mu.Lock()
	for i := 0; i < q.probes; i++ {
		c := q.truth.countries[q.ctPick.next()]
		round = append(round, query{kind: "probe", country: c, args: []any{c}})
	}
	q.truth.mu.Unlock()
	round = append(round, query{kind: "topk"})
	for _, qu := range round {
		// The lower bound of what must be visible is taken before the
		// query starts; the upper bound after it ends.
		q.truth.mu.Lock()
		need := q.truth.stored[qu.country]
		maxRT := q.truth.maxRT
		q.truth.mu.Unlock()
		text := q.texts[qu.kind]
		var inNs, inCPU int64
		if inproc == 2 {
			inNs, inCPU = q.inprocQuery(ctx, text, qu.args)
		}
		ns, rows, err := q.wireQuery(ctx, qu.kind, text, qu.args)
		if inproc == 1 {
			inNs, inCPU = q.inprocQuery(ctx, text, qu.args)
		}
		if err == nil {
			err = q.check(qu.kind, qu.id, qu.country, need, maxRT, rows)
		}
		if err != nil {
			q.st.failures = append(q.st.failures, fmt.Sprintf("%s: %v", qu.kind, err))
		}
		q.st.queries++
		if !timed {
			continue
		}
		q.st.timed++
		if q.tracer.Enabled() {
			q.st.tracedNs[qu.kind] = append(q.st.tracedNs[qu.kind], ns)
		} else {
			q.st.wireNs[qu.kind] = append(q.st.wireNs[qu.kind], ns)
		}
		if inproc > 0 {
			q.st.inprocNs[qu.kind] = append(q.st.inprocNs[qu.kind], inNs)
			q.st.inprocCPU[qu.kind] = append(q.st.inprocCPU[qu.kind], inCPU)
			q.st.diffNs[qu.kind] = append(q.st.diffNs[qu.kind], ns-inNs)
		}
	}
}

// wireQuery runs one query through database/sql, reading every row, and
// returns the latency from QueryContext until rows.Close.
func (q *queryClient) wireQuery(ctx context.Context, kind, text string, args []any) (int64, []idea.Value, error) {
	// One trace per query: a root span in the benchmark's own layer
	// (client-side decoding and checks are its self time) over the
	// database/sql calls.
	var trace, root uint64
	if q.tracer.Enabled() {
		trace, root = q.tracer.NewID(), q.tracer.NewID()
	}
	t0 := time.Now()
	defer func() { q.tracer.RecordID(root, trace, 0, "bench", kind, t0, time.Now()) }()
	rows, err := q.ws.db.QueryContext(ctx, text, args...)
	t1 := time.Now()
	q.tracer.Record(trace, root, "wire", "sql.Query", t0, t1)
	if err != nil {
		return t1.Sub(t0).Nanoseconds(), nil, err
	}
	var out []idea.Value
	for {
		n0 := time.Now()
		more := rows.Next()
		q.tracer.Record(trace, root, "wire", "sql.Next", n0, time.Now())
		if !more {
			break
		}
		var v idea.Value
		if err := rows.Scan(&v); err != nil {
			rows.Close()
			return time.Since(t0).Nanoseconds(), nil, err
		}
		out = append(out, v)
	}
	c0 := time.Now()
	err = rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	end := time.Now()
	q.tracer.Record(trace, root, "wire", "sql.Close", c0, end)
	return end.Sub(t0).Nanoseconds(), out, err
}

// inprocQuery runs the same text through Cluster.Query and returns its
// latency and the process CPU it took (rows read, errors ignored: the
// wire run is the checked one).
func (q *queryClient) inprocQuery(ctx context.Context, text string, args []any) (int64, int64) {
	c0 := cpuTime()
	t0 := time.Now()
	rows, err := q.c.Query(ctx, text, args...)
	if err == nil {
		for rows.Next() {
		}
		rows.Close()
	}
	t1 := time.Now()
	q.tracer.Record(q.tracer.NewID(), 0, "query", "Cluster.Query", t0, t1)
	return t1.Sub(t0).Nanoseconds(), (cpuTime() - c0).Nanoseconds()
}

// check compares one result with the generator's truth.
func (q *queryClient) check(kind string, id int64, country string, need int, maxRT int64, rows []idea.Value) error {
	tr := q.truth
	tr.mu.Lock()
	defer tr.mu.Unlock()
	switch kind {
	case "lookup":
		if len(rows) != 1 {
			return fmt.Errorf("id %d: %d rows, want 1", id, len(rows))
		}
		return tr.checkRecord(rows[0], id)
	case "probe":
		emitted := tr.country[country]
		allowed := make(map[int64]bool, len(emitted))
		for _, x := range emitted {
			allowed[x] = true
		}
		got := make(map[int64]bool, len(rows))
		for _, r := range rows {
			x := r.Int()
			if !allowed[x] || got[x] {
				return fmt.Errorf("country %s: unexpected or duplicate id %d", country, x)
			}
			got[x] = true
		}
		for _, x := range emitted[:need] {
			if !got[x] {
				return fmt.Errorf("country %s: stored id %d missing", country, x)
			}
		}
	case "topk":
		if len(rows) != 10 {
			return fmt.Errorf("%d rows, want 10", len(rows))
		}
		prev := int64(1 << 62)
		for _, r := range rows {
			rid := r.Field("id").Int()
			if err := tr.checkRecord(r, rid); err != nil {
				return err
			}
			rt := r.Field("retweet_count").Int()
			if rt > prev {
				return fmt.Errorf("rows not sorted by retweet_count")
			}
			prev = rt
		}
		if rows[0].Field("retweet_count").Int() < maxRT {
			return fmt.Errorf("top retweet_count %d below stored maximum %d", rows[0].Field("retweet_count").Int(), maxRT)
		}
	}
	return nil
}

// checkRecord verifies a returned tweet against what was generated for
// id. Caller holds tr.mu.
func (tr *truth) checkRecord(v idea.Value, id int64) error {
	inf, ok := tr.info[id]
	if !ok {
		return fmt.Errorf("id %d was never generated", id)
	}
	if got := v.Field("id").Int(); got != id {
		return fmt.Errorf("id %d: row has id %d", id, got)
	}
	if got := v.Field("country").Str(); got != inf.country {
		return fmt.Errorf("id %d: country %q, generated %q", id, got, inf.country)
	}
	if got := v.Field("retweet_count").Int(); got != inf.retweet {
		return fmt.Errorf("id %d: retweet_count %d, generated %d", id, got, inf.retweet)
	}
	return nil
}

// summarizeFailures shortens a failure list for the report.
func summarizeFailures(fs []string) string {
	if len(fs) > 3 {
		return strings.Join(fs[:3], "; ") + fmt.Sprintf("; ... (%d total)", len(fs))
	}
	return strings.Join(fs, "; ")
}
