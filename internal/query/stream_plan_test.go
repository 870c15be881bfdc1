package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// planCatalog builds the streaming-planner fixture: dataset R over 4
// partitions, primary key id, a low-cardinality indexed field cat
// ("c0".."c7", secondary B-tree index by_cat), and score in [0,97).
func planCatalog(t *testing.T, n int) *testCatalog {
	t.Helper()
	cat := newTestCatalog()
	var recs []adm.Value
	for i := 0; i < n; i++ {
		recs = append(recs, obj(
			"id", adm.Int(int64(i)),
			"cat", adm.String(fmt.Sprintf("c%d", i%8)),
			"score", adm.Int(int64(i%97)),
		))
	}
	ds := cat.addDataset(t, "R", "id", 4, recs...)
	if err := ds.CreateFieldBTreeIndex("by_cat", "cat"); err != nil {
		t.Fatal(err)
	}
	return cat
}

func mustSel(t *testing.T, q string) *sqlpp.SelectExpr {
	t.Helper()
	e, err := sqlpp.ParseExpr(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	sel, ok := e.(*sqlpp.SelectExpr)
	if !ok {
		t.Fatalf("%q is not a query", q)
	}
	return sel
}

func openCursor(t *testing.T, ctx *Context, q string) *RowCursor {
	t.Helper()
	rc, err := ExecuteSelectCursor(ctx, nil, mustSel(t, q))
	if err != nil {
		t.Fatalf("open %q: %v", q, err)
	}
	return rc
}

// sameMultiset compares result sets order-insensitively, keyed by
// rendering.
func sameMultiset(a, b []adm.Value) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[string]int, len(a))
	for _, v := range a {
		counts[fmt.Sprint(v)]++
	}
	for _, v := range b {
		counts[fmt.Sprint(v)]--
	}
	for _, n := range counts {
		if n != 0 {
			return false
		}
	}
	return true
}

// TestPlannerShapes pins which access path each query shape plans:
// primary-key point lookup, index pushdown, parallel partition scan
// (with its merge order and pushed filter), bounded top-k vs full sort,
// streaming aggregation, and the serial fallback. Asserting on Plan() keeps these decisions
// test-enforced rather than timing-inferred. Every SELECT shape
// streams — there is no eager fallback inside the cursor.
func TestPlannerShapes(t *testing.T) {
	cat := planCatalog(t, 400)
	cases := []struct {
		q      string
		params map[string]adm.Value
		want   []string // required Plan() substrings
		not    []string // forbidden Plan() substrings
	}{
		{
			// Primary-key equality: one Get on the owning partition,
			// the full WHERE kept as the residual filter.
			q:    `SELECT VALUE r FROM R r WHERE r.id = 17`,
			want: []string{"pkget(R.id)", "filter"},
			not:  []string{"pscan", "iscan", "scan(R)"},
		},
		{
			q:      `SELECT VALUE r FROM R r WHERE r.id = $1`,
			params: map[string]adm.Value{"1": adm.Int(17)},
			want:   []string{"pkget(R.id)", "filter"},
			not:    []string{"pscan"},
		},
		{
			q:    `SELECT VALUE r FROM R r WHERE 17 = r.id`,
			want: []string{"pkget(R.id)", "filter"},
			not:  []string{"pscan"},
		},
		{
			// The point lookup wins over the secondary index.
			q:    `SELECT VALUE r FROM R r WHERE r.id = 17 AND r.cat = "c3"`,
			want: []string{"pkget(R.id)", "filter"},
			not:  []string{"iscan", "pscan"},
		},
		{
			// A FROM-LET rebinds r: no conjunct names R's records.
			q:    `SELECT VALUE r FROM R r LET r = {"id": 17, "cat": "c3"} WHERE r.id = 17 AND r.cat = "c3"`,
			want: []string{"filter"},
			not:  []string{"pkget", "iscan"},
		},
		{
			q:    `SELECT VALUE r.id FROM R r WHERE r.cat = "c3"`,
			want: []string{"iscan(R.by_cat on cat)", "filter"},
			not:  []string{"pscan", "scan(R)"},
		},
		{
			q:    `SELECT VALUE r.id FROM R r WHERE r.cat >= "c2" AND r.cat <= "c4" AND r.score > 50`,
			want: []string{"iscan(R.by_cat on cat)", "filter"},
		},
		{
			// No indexed field in WHERE: parallel scan with the filter
			// pushed into the scan workers.
			q:    `SELECT VALUE r.id FROM R r WHERE r.score > 90`,
			want: []string{"pscan(R,partition,4)+filter"},
			not:  []string{"iscan", "→filter"},
		},
		{
			// ORDER BY pk ASC: key-order merge replaces the sort.
			q:    `SELECT VALUE r.id FROM R r ORDER BY r.id LIMIT 5`,
			want: []string{"pscan(R,key,4)", "ordered-by-key", "limit(5)"},
			not:  []string{"topk", "sort"},
		},
		{
			q:    `SELECT VALUE r.id FROM R r ORDER BY r.score DESC, r.id LIMIT 5`,
			want: []string{"pscan(R,partition,4)", "topk(5)"},
			not:  []string{"sort"},
		},
		{
			q:    `SELECT VALUE r.id FROM R r ORDER BY r.score DESC, r.id`,
			want: []string{"sort"},
			not:  []string{"topk"},
		},
		{
			q:    `SELECT r.cat AS c, count(*) AS n FROM R r GROUP BY r.cat`,
			want: []string{"pscan(R,partition,4)", "aggregate(1keys,1aggs)"},
		},
		{
			// Order-insensitive aggregate, no GROUP BY: unordered fan-in.
			q:    `SELECT VALUE count(*) FROM R r`,
			want: []string{"pscan(R,unordered,4)", "aggregate(0keys,1aggs)"},
		},
		{
			// sum folds floats in arrival order: stays partition-order.
			q:    `SELECT VALUE sum(r.score) FROM R r`,
			want: []string{"pscan(R,partition,4)"},
			not:  []string{"unordered"},
		},
		{
			// LIMIT without a blocking operator: serial scan, stops early.
			q:    `SELECT VALUE r.id FROM R r LIMIT 3`,
			want: []string{"scan(R)", "limit(3)"},
			not:  []string{"pscan", "iscan"},
		},
		{
			q:    `SELECT DISTINCT r.cat FROM R r`,
			want: []string{"pscan(R,partition,4)", "distinct"},
		},
		{
			// DISTINCT limits distinct output rows, so the heap stays
			// unbounded even under LIMIT.
			q:    `SELECT DISTINCT r.cat FROM R r ORDER BY r.cat LIMIT 3`,
			want: []string{"sort", "distinct", "limit(3)"},
			not:  []string{"topk"},
		},
	}
	for _, tc := range cases {
		ctx := NewContext(cat)
		ctx.Params = tc.params
		rc := openCursor(t, ctx, tc.q)
		plan := rc.Plan()
		for _, w := range tc.want {
			if !strings.Contains(plan, w) {
				t.Errorf("%s:\n plan %q missing %q", tc.q, plan, w)
			}
		}
		for _, n := range tc.not {
			if strings.Contains(plan, n) {
				t.Errorf("%s:\n plan %q must not contain %q", tc.q, plan, n)
			}
		}
		rc.Close()
	}

	// Planner knobs force the fallbacks benchmarks compare against.
	ctx := NewContext(cat)
	ctx.DisableIndexScan = true
	if plan := openCursor(t, ctx, `SELECT VALUE r.id FROM R r WHERE r.cat = "c3"`).Plan(); strings.Contains(plan, "iscan") {
		t.Errorf("DisableIndexScan ignored: %q", plan)
	}
	if plan := openCursor(t, ctx, `SELECT VALUE r FROM R r WHERE r.id = 17`).Plan(); strings.Contains(plan, "pkget") || !strings.Contains(plan, "pscan(R") {
		t.Errorf("DisableIndexScan did not force a scan: %q", plan)
	}
	ctx2 := NewContext(cat)
	ctx2.DisableParallelScan = true
	if plan := openCursor(t, ctx2, `SELECT VALUE count(*) FROM R r`).Plan(); !strings.Contains(plan, "scan(R)") || strings.Contains(plan, "pscan") {
		t.Errorf("DisableParallelScan ignored: %q", plan)
	}
}

// TestIndexScanMatchesFullScan is the index-use acceptance check: the
// same query planned through the secondary index and through a full
// scan must return the same rows, with the plans proving which path
// ran. Speed is benchmarked (BenchmarkQueryIndexPushdown); index use
// and correctness are asserted here, not inferred from timing.
func TestIndexScanMatchesFullScan(t *testing.T) {
	cat := planCatalog(t, 400)
	queries := []string{
		`SELECT VALUE r.id FROM R r WHERE r.cat = "c5"`,
		`SELECT VALUE r FROM R r WHERE r.cat = "c0" AND r.score < 30`,
		`SELECT VALUE r.id FROM R r WHERE r.cat > "c5"`,
		`SELECT VALUE r.id FROM R r WHERE r.cat >= "c2" AND r.cat < "c4"`,
		`SELECT VALUE r.id FROM R r WHERE r.cat = "nosuch"`,
		`SELECT r.cat AS c, count(*) AS n FROM R r WHERE r.cat <= "c1" GROUP BY r.cat`,
	}
	for _, q := range queries {
		idx := openCursor(t, NewContext(cat), q)
		if !strings.Contains(idx.Plan(), "iscan(R.by_cat on cat)") {
			t.Fatalf("%s:\n expected index scan, plan %q", q, idx.Plan())
		}
		got := drainCursor(t, idx)

		full := NewContext(cat)
		full.DisableIndexScan = true
		fc := openCursor(t, full, q)
		if strings.Contains(fc.Plan(), "iscan") {
			t.Fatalf("%s:\n full-scan control still uses index: %q", q, fc.Plan())
		}
		want := drainCursor(t, fc)

		// The index resolves postings in secondary-key order, not
		// primary-key order, so compare as multisets.
		if !sameMultiset(got, want) {
			t.Errorf("%s:\n index %v\n full  %v", q, got, want)
		}
	}
}

// TestCursorMatchesEagerRandomized is the randomized differential
// harness: a seeded generator produces query shapes across the whole
// planner surface (index pushdown, parallel merge orders, top-k,
// streaming aggregation, DISTINCT) and every one must agree with the
// eager executor. Order is compared exactly unless the plan reorders
// input without an ORDER BY to re-impose it (index scans emit
// postings order), in which case the multisets must agree.
func TestCursorMatchesEagerRandomized(t *testing.T) {
	cat := planCatalog(t, 400)
	rng := rand.New(rand.NewSource(20260808)) // fixed seed: deterministic corpus

	selects := []string{
		`VALUE r.id`,
		`VALUE r`,
		`r.id AS id, r.score AS s`,
		`VALUE [r.cat, r.score]`,
	}
	aggSelects := []string{
		`VALUE count(*)`,
		`count(*) AS n, sum(r.score) AS s`,
		`min(r.score) AS lo, max(r.score) AS hi, avg(r.score) AS mean`,
	}
	wheres := []string{
		``,
		`WHERE r.cat = "c3"`,
		`WHERE r.score > 60`,
		`WHERE r.cat = "c5" AND r.score < 40`,
		`WHERE r.cat >= "c2" AND r.cat <= "c4"`,
		`WHERE r.score >= 10 AND r.score <= 20 AND r.cat < "c6"`,
	}
	// Every ORDER BY list is total (it ends in the unique pk), so a
	// LIMIT prefix is well-defined and exact comparison stays valid
	// even when the scan reordered its input.
	orders := []string{
		`ORDER BY r.id`,
		`ORDER BY r.score DESC, r.id`,
		`ORDER BY r.cat, r.id DESC`,
	}

	gen := func(rng *rand.Rand, wheres []string) string {
		where := wheres[rng.Intn(len(wheres))]
		switch rng.Intn(4) {
		case 0: // pipeline shapes; no LIMIT without ORDER BY (the prefix would be scan-order-dependent)
			return fmt.Sprintf(`SELECT %s FROM R r %s`, selects[rng.Intn(len(selects))], where)
		case 1: // order by, sometimes limited
			q := fmt.Sprintf(`SELECT %s FROM R r %s %s`,
				selects[rng.Intn(len(selects))], where, orders[rng.Intn(len(orders))])
			if rng.Intn(2) == 0 {
				q += fmt.Sprintf(` LIMIT %d`, rng.Intn(25))
			}
			return q
		case 2: // grouped
			q := fmt.Sprintf(`SELECT r.cat AS c, count(*) AS n, sum(r.score) AS s, avg(r.score) AS m FROM R r %s GROUP BY r.cat`, where)
			if rng.Intn(2) == 0 {
				q += ` ORDER BY r.cat`
				if rng.Intn(2) == 0 {
					q += fmt.Sprintf(` LIMIT %d`, 1+rng.Intn(6))
				}
			}
			return q
		default: // global aggregates / distinct
			if rng.Intn(2) == 0 {
				return fmt.Sprintf(`SELECT %s FROM R r %s`, aggSelects[rng.Intn(len(aggSelects))], where)
			}
			q := fmt.Sprintf(`SELECT DISTINCT r.cat FROM R r %s`, where)
			if rng.Intn(2) == 0 {
				q += ` ORDER BY r.cat`
				if rng.Intn(2) == 0 {
					q += ` LIMIT 3`
				}
			}
			return q
		}
	}

	check := func(q string) (plan string) {
		rc := openCursor(t, NewContext(cat), q)
		plan = rc.Plan()
		if plan == "" {
			t.Fatalf("%s: empty plan", q)
		}
		got := drainCursor(t, rc)
		want := eagerStr(t, cat, nil, q).ArrayVal()

		exact := !strings.Contains(plan, "iscan(") || strings.Contains(q, "ORDER BY")
		if exact {
			if len(got) != len(want) {
				t.Errorf("%s:\n plan %s\n cursor %d rows, eager %d rows", q, plan, len(got), len(want))
				return plan
			}
			for j := range got {
				if !adm.Equal(got[j], want[j]) {
					t.Errorf("%s:\n plan %s\n row %d: cursor %s, eager %s", q, plan, j, got[j], want[j])
					break
				}
			}
		} else if !sameMultiset(got, want) {
			t.Errorf("%s:\n plan %s\n cursor %v\n eager %v", q, plan, got, want)
		}
		return plan
	}

	for i := 0; i < 200; i++ {
		check(gen(rng, wheres))
	}

	// A second corpus, seeded separately so the first stays fixed, over
	// primary-key equalities: present, absent and cross-kind keys, the
	// constant on either side, and a point combined with indexed and
	// unindexed conjuncts that keep or drop its one record.
	pkWheres := []string{
		`WHERE r.id = 17`,
		`WHERE r.id = 399`,
		`WHERE r.id = 1000`,
		`WHERE 42 = r.id`,
		`WHERE r.id = 17 AND r.cat = "c1"`,
		`WHERE r.id = 17 AND r.cat = "c3"`,
		`WHERE r.cat = "c2" AND r.id = 10`,
		`WHERE r.id = 250 AND r.score > 50`,
		`WHERE r.id = 250 AND r.score < 50`,
		`WHERE r.id = "17"`,
		`WHERE r.id = 17.0`,
	}
	pkRng := rand.New(rand.NewSource(20261017))
	points := 0
	for i := 0; i < 100; i++ {
		if strings.Contains(check(gen(pkRng, pkWheres)), "pkget(R.id)") {
			points++
		}
	}
	if points < 50 {
		t.Errorf("only %d of 100 primary-key queries planned a point lookup", points)
	}
}

// TestPrimaryKeyPointMatchesFullScan is the point-lookup acceptance
// check: each query planned through one snapshot Get and through the
// full scan (DisableIndexScan) must return the same rows, and the plan
// proves which path ran. T is typed (id: int64) and durable, with
// flushed runs under newer memtable versions and deletes, so the probe
// crosses bloom filters and shadowing; R is untyped and in memory.
func TestPrimaryKeyPointMatchesFullScan(t *testing.T) {
	cat := planCatalog(t, 400)
	dt := adm.MustDatatype("TT", true, []adm.FieldDef{{Name: "id", Kind: adm.KindInt64}})
	ds, err := lsm.OpenDataset(lsm.NewMemFS(), "dur", "T", dt, "id", 4, lsm.Options{
		MemBudget: 1 << 20, MaxComponents: 8, BlockCache: lsm.NewBlockCache(64 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	cat.datasets["T"] = ds
	const big = 1 << 53 // 2^53 and 2^53+1 both promote to the double 2^53
	upsert := func(id int64, v string) {
		if err := ds.Upsert(obj("id", adm.Int(id), "v", adm.String(v))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 300; i++ {
		upsert(i, "old")
	}
	upsert(big, "old")
	upsert(big+1, "old")
	for i := 0; i < ds.NumPartitions(); i++ {
		ds.Partition(i).Flush()
		if err := ds.Partition(i).WaitForFlush(); err != nil {
			t.Fatal(err)
		}
	}
	upsert(7, "new")
	ds.Delete(adm.Int(9))

	cases := []struct {
		q      string
		params map[string]adm.Value
		point  bool // plan must be a point lookup
	}{
		{q: `SELECT VALUE r FROM R r WHERE r.id = 5`, point: true},
		{q: `SELECT VALUE r FROM R r WHERE r.id = 4000`, point: true},
		{q: `SELECT VALUE r FROM R r WHERE r.id = $1`, params: map[string]adm.Value{"1": adm.Int(5)}, point: true},
		{q: `SELECT VALUE r FROM R r WHERE r.id = "5"`, point: true},
		// R's key kind is undeclared: a double constant keeps the scan.
		{q: `SELECT VALUE r FROM R r WHERE r.id = 5.0`},
		{q: `SELECT r.id AS a, s.id AS b FROM R r, R s WHERE r.id = 5 AND s.score = r.score`, point: true},
		{q: `SELECT r.cat AS c, count(*) AS n FROM R r WHERE r.id = 5 GROUP BY r.cat`, point: true},
		// A FROM-LET rebinding the alias: r.id no longer names R's key,
		// nor r.cat its indexed field.
		{q: `SELECT VALUE r FROM R r LET r = {"id": 5} WHERE r.id = 5`},
		{q: `SELECT VALUE r FROM R r LET r = {"cat": "c3"} WHERE r.cat = "c3"`},
		{q: `SELECT VALUE t FROM T t WHERE t.id = 5`, point: true},
		{q: `SELECT VALUE t FROM T t WHERE t.id = 7`, point: true},
		{q: `SELECT VALUE t FROM T t WHERE t.id = 9`, point: true},
		{q: `SELECT VALUE t FROM T t WHERE t.id = 4000`, point: true},
		{q: `SELECT VALUE t FROM T t WHERE t.id = 5.0`, point: true},
		{q: `SELECT VALUE t FROM T t WHERE 7.0 = t.id`, point: true},
		{q: `SELECT VALUE t FROM T t WHERE t.id = 5.5`},
		{q: `SELECT VALUE t FROM T t WHERE t.id = "5"`},
		{q: `SELECT VALUE t FROM T t WHERE t.id = 9007199254740993`, point: true},
		// Parses to the double 2^53, which equals two int64 keys.
		{q: `SELECT VALUE t FROM T t WHERE t.id = 9007199254740992.5`},
		{q: `SELECT VALUE t FROM T t WHERE t.id = $1`, params: map[string]adm.Value{"1": adm.Double(big)}},
		{q: `SELECT t.v AS v, count(*) AS n FROM T t WHERE t.id = $1 GROUP BY t.v`, params: map[string]adm.Value{"1": adm.Double(7)}, point: true},
		{q: `SELECT VALUE [t.id, r.cat] FROM T t, R r WHERE t.id = 7 AND r.id = t.id`, point: true},
	}
	for _, tc := range cases {
		ctx := NewContext(cat)
		ctx.Params = tc.params
		rc := openCursor(t, ctx, tc.q)
		if got := strings.Contains(rc.Plan(), "pkget("); got != tc.point {
			t.Fatalf("%s:\n point lookup = %v, want %v; plan %q", tc.q, got, tc.point, rc.Plan())
		}
		got := drainCursor(t, rc)

		full := NewContext(cat)
		full.Params = tc.params
		full.DisableIndexScan = true
		fc := openCursor(t, full, tc.q)
		if strings.Contains(fc.Plan(), "pkget") {
			t.Fatalf("%s:\n full-scan control still uses the point lookup: %q", tc.q, fc.Plan())
		}
		want := drainCursor(t, fc)
		if !sameMultiset(got, want) {
			t.Errorf("%s:\n point %v\n full  %v", tc.q, got, want)
		}
	}
}

// TestCursorCloseMidParallelScan closes cursors partway through every
// parallel shape (and again, for idempotence) — scan workers must
// stop and join rather than leak or race. Under -race this is the
// teardown acceptance test.
func TestCursorCloseMidParallelScan(t *testing.T) {
	cat := planCatalog(t, 2000)
	for _, q := range []string{
		`SELECT VALUE r.id FROM R r`,                                // pscan partition-order
		`SELECT VALUE r.id FROM R r ORDER BY r.id LIMIT 5`,          // pscan key-order merge
		`SELECT VALUE count(*) FROM R r`,                            // pscan unordered fan-in
		`SELECT VALUE r.id FROM R r WHERE r.score > 3`,              // pscan + pushed filter
		`SELECT VALUE r.id FROM R r ORDER BY r.score, r.id LIMIT 7`, // top-k over pscan
	} {
		rc := openCursor(t, NewContext(cat), q)
		if !strings.Contains(rc.Plan(), "pscan(") {
			t.Fatalf("%s: expected parallel scan, plan %q", q, rc.Plan())
		}
		for i := 0; i < 3; i++ {
			if _, ok, err := rc.Next(); err != nil {
				t.Fatalf("%s: %v", q, err)
			} else if !ok {
				break
			}
		}
		rc.Close()
		rc.Close() // idempotent
		if _, ok, err := rc.Next(); ok || err != nil {
			t.Fatalf("%s: Next after Close = %v, %v", q, ok, err)
		}
	}
}

// TestCursorContextCancellation cancels the caller's context
// mid-iteration and before the first pull; the cursor must stop with
// context.Canceled and tear its scan down.
func TestCursorContextCancellation(t *testing.T) {
	cat := planCatalog(t, 2000)

	std, cancel := context.WithCancel(context.Background())
	ctx := NewContext(cat)
	ctx.Std = std
	rc := openCursor(t, ctx, `SELECT VALUE r.id FROM R r`)
	if _, ok, err := rc.Next(); !ok || err != nil {
		t.Fatalf("first pull: %v, %v", ok, err)
	}
	cancel()
	if _, ok, err := rc.Next(); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, %v; want context.Canceled", ok, err)
	}
	// Exhausted afterwards, not erroring forever.
	if _, ok, err := rc.Next(); ok || err != nil {
		t.Fatalf("Next after cancelled close = %v, %v", ok, err)
	}

	// Cancellation observed even when the first pull runs a blocking
	// build (streaming aggregation drains the scan inside next).
	std2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	ctx2 := NewContext(cat)
	ctx2.Std = std2
	rc2 := openCursor(t, ctx2, `SELECT r.cat AS c, count(*) AS n FROM R r GROUP BY r.cat`)
	if _, ok, err := rc2.Next(); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("grouped Next under cancelled ctx = %v, %v; want context.Canceled", ok, err)
	}
}
