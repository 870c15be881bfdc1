package query

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// subqueryShapes returns a seeded set of subqueries correlated with the
// tweet bound as t: GROUP BY with aggregates, ORDER BY with and without
// LIMIT, DISTINCT with LIMIT, global aggregates whose input may be
// empty, and a subquery in WHERE correlated with the outer row. Every
// ORDER BY is total, so a LIMIT prefix does not depend on input order.
func subqueryShapes(rng *rand.Rand, n int) []string {
	ops := []string{"=", "!="}
	gen := func() string {
		op := ops[rng.Intn(len(ops))]
		switch rng.Intn(6) {
		case 0:
			q := fmt.Sprintf(`SELECT r.religion_name AS rel, count(*) AS n, sum(r.population) AS s,
				avg(r.population) AS m, max(r.population) AS hi
				FROM ReligiousPopulations r WHERE r.country_name %s t.country
				GROUP BY r.religion_name`, op)
			if rng.Intn(2) == 0 {
				q += ` ORDER BY count(*) DESC, r.religion_name`
			}
			return q
		case 1:
			return fmt.Sprintf(`SELECT rel, min(r.population) AS lo FROM ReligiousPopulations r
				WHERE r.country_name %s t.country AND r.population > %d
				GROUP BY r.religion_name AS rel ORDER BY rel`, op, rng.Intn(1_000_000))
		case 2:
			q := fmt.Sprintf(`SELECT VALUE [r.rid, r.population] FROM ReligiousPopulations r
				WHERE r.country_name %s t.country ORDER BY r.population DESC, r.rid`, op)
			if rng.Intn(2) == 0 {
				q += fmt.Sprintf(` LIMIT %d`, rng.Intn(7))
			}
			return q
		case 3:
			return fmt.Sprintf(`SELECT DISTINCT r.religion_name AS rel FROM ReligiousPopulations r
				WHERE r.country_name %s t.country ORDER BY r.religion_name LIMIT %d`, op, 1+rng.Intn(3))
		case 4:
			// A threshold of 0 leaves the aggregate no input at all.
			return fmt.Sprintf(`SELECT count(*) AS n, sum(r.population) AS s, min(r.population) AS lo
				FROM ReligiousPopulations r
				WHERE r.country_name = t.country AND r.population < %d`, rng.Intn(2)*rng.Intn(1_000_000))
		default:
			return fmt.Sprintf(`SELECT VALUE s.country_code FROM SafetyRatings s
				WHERE s.country_code %s t.country
				AND (SELECT VALUE count(*) FROM ReligiousPopulations r
					WHERE r.country_name = s.country_code AND r.population > %d)[0] >= %d
				ORDER BY s.country_code`, op, rng.Intn(1_000_000), rng.Intn(4))
		}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = gen()
	}
	return out
}

// TestSubqueryMatchesEager checks subquery evaluation against the eager
// executor. Each subquery of the paper's UDFs Q1–Q8 and
// highRiskTweetCheck, and each seeded shape, runs with random tweets
// bound as the UDF parameter through the cursor collect path and, where
// the enrichment planner compiles it, through the prepared probe, whose
// matched tuples go through the same row operators. TestEnrichDifferential
// compares the probe against generic evaluation, which shares those
// operators, so this is the test that checks them.
func TestSubqueryMatchesEager(t *testing.T) {
	cat := paperCatalog(t)
	cat.addSQLFunction(t, highRiskTweetCheckDDL)

	type subCase struct {
		name  string
		param string
		sel   *sqlpp.SelectExpr
		pe    *PreparedEnrich // the enclosing UDF's prepared state
	}
	var cases []subCase
	prepare := func(name string, params []string, body sqlpp.Expr) *PreparedEnrich {
		plan, err := CompileEnrich(name, params, body, cat, PlanOptions{})
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		pe, err := plan.Prepare(cat)
		if err != nil {
			t.Fatalf("prepare %s: %v", name, err)
		}
		return pe
	}
	for _, udf := range []string{"enrichTweetQ1", "enrichTweetQ2", "enrichTweetQ3", "enrichTweetQ4",
		"enrichTweetQ5", "enrichTweetQ6", "enrichTweetQ7", "enrichTweetQ8", "highRiskTweetCheck"} {
		fn, _ := cat.Function(udf)
		pe := prepare(udf, fn.Params, fn.Body)
		var sels []*sqlpp.SelectExpr
		for _, l := range fn.Body.(*sqlpp.SelectExpr).Lets {
			collectSubqueries(l.Expr, &sels)
		}
		if len(sels) == 0 {
			t.Fatalf("%s: no subqueries found", udf)
		}
		for j, sel := range sels {
			cases = append(cases, subCase{name: fmt.Sprintf("%s subquery %d", udf, j), param: fn.Params[0], sel: sel, pe: pe})
		}
	}
	for i, q := range subqueryShapes(rand.New(rand.NewSource(20261017)), 60) {
		sel := mustSel(t, q)
		cases = append(cases, subCase{name: q, param: "t", sel: sel, pe: prepare(fmt.Sprintf("shape%d", i), []string{"t"}, sel)})
	}

	r := rand.New(rand.NewSource(11))
	probed := 0
	for i := 0; i < 8; i++ {
		tweet := randomTweet(r, int64(i))
		for _, c := range cases {
			env := Bind(nil, c.param, tweet)
			want, err := eagerSelect(evalState{ctx: NewContext(cat)}, env, c.sel)
			if err != nil {
				t.Fatalf("eager: %s: %v", c.name, err)
			}
			got, err := evalSubquery(evalState{ctx: NewContext(cat)}, env, c.sel)
			if err != nil {
				t.Fatalf("cursor: %s: %v", c.name, err)
			}
			// The cursor scans in the eager executor's order, so its
			// result must match exactly.
			if !adm.Equal(got, want) {
				t.Errorf("tweet %d, cursor: %s\n got  %s\n want %s", i, c.name, got, want)
			}
			if _, compiled := c.pe.probes[c.sel]; !compiled {
				continue
			}
			got, err = evalSubquery(evalState{ctx: c.pe.Context(), prepared: c.pe}, env, c.sel)
			if err != nil {
				t.Fatalf("probe: %s: %v", c.name, err)
			}
			// A probe yields matches in build order; only an ORDER BY
			// fixes the order of the result.
			same := adm.Equal(got, want)
			if len(c.sel.OrderBy) == 0 {
				same = equalUnordered(got, want)
			}
			if !same {
				t.Errorf("tweet %d, probe: %s\n got  %s\n want %s", i, c.name, got, want)
			}
			probed++
		}
	}
	if probed < len(cases)*8/2 {
		t.Errorf("only %d of %d evaluations went through a compiled probe", probed, len(cases)*8)
	}

	// A global aggregate over no input is one row: count(*) of nothing
	// is 0, on every path.
	got := execStr(t, cat, Bind(nil, "t", obj("country", adm.String("nowhere"))),
		`SELECT VALUE count(*) FROM ReligiousPopulations r WHERE r.country_name = t.country`)
	if !adm.Equal(got, adm.Array([]adm.Value{adm.Int(0)})) {
		t.Errorf("count(*) over empty input = %s, want [0]", got)
	}
}

// TestExistsStopsAtFirstRow: EXISTS pulls rows only until the first one
// qualifies, so a WHERE over a 5,000-row dataset runs a handful of
// times, not 5,000.
func TestExistsStopsAtFirstRow(t *testing.T) {
	cat := newTestCatalog()
	var recs []adm.Value
	for i := 0; i < 5000; i++ {
		recs = append(recs, obj("id", adm.Int(int64(i))))
	}
	cat.addDataset(t, "Big", "id", 4, recs...)
	var calls atomic.Int64
	cat.natives["testlib#check"] = func(args []adm.Value) (adm.Value, error) {
		calls.Add(1)
		return adm.Bool(true), nil
	}

	v := evalStr(t, cat, nil, `EXISTS(SELECT VALUE b FROM Big b WHERE testlib#check(b.id))`)
	if !v.BoolVal() {
		t.Fatal("EXISTS should be true")
	}
	if n := calls.Load(); n > 10 {
		t.Errorf("EXISTS evaluated its WHERE on %d rows, want a handful", n)
	}

	// With no qualifying row every row is examined.
	calls.Store(0)
	v = evalStr(t, cat, nil, `EXISTS(SELECT VALUE b FROM Big b WHERE testlib#check(b.id) AND b.id < 0)`)
	if v.BoolVal() {
		t.Fatal("EXISTS should be false")
	}
	if n := calls.Load(); n != 5000 {
		t.Errorf("EXISTS with no match evaluated %d rows, want 5000", n)
	}
}

// TestAggregateWithoutArgumentErrors: an aggregate called with no
// argument is a query error wherever it appears, never a panic.
func TestAggregateWithoutArgumentErrors(t *testing.T) {
	cat := newTestCatalog()
	for _, q := range []string{
		`SELECT VALUE x FROM [1, 2] x WHERE count() = 0`, // scalar position
		`SELECT VALUE count() FROM [1, 2] x`,             // grouped
		`SELECT VALUE sum() FROM [1, 2] x GROUP BY x`,
	} {
		_, err := Eval(NewContext(cat), nil, mustSel(t, q))
		if err == nil || !strings.Contains(err.Error(), "expects 1 argument") {
			t.Errorf("%s: Eval error = %v", q, err)
		}
		rc, err := ExecuteSelectCursor(NewContext(cat), nil, mustSel(t, q))
		if err != nil {
			t.Fatalf("%s: open: %v", q, err)
		}
		if _, _, err := rc.Next(); err == nil || !strings.Contains(err.Error(), "expects 1 argument") {
			t.Errorf("%s: cursor error = %v", q, err)
		}
	}
}
