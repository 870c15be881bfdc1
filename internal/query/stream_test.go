package query

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// drainCursor pulls a RowCursor to exhaustion.
func drainCursor(t *testing.T, rc *RowCursor) []adm.Value {
	t.Helper()
	var out []adm.Value
	for {
		v, ok, err := rc.Next()
		if err != nil {
			t.Fatalf("cursor error: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func cursorStr(t *testing.T, cat Catalog, env *Env, src string) []adm.Value {
	t.Helper()
	e, err := sqlpp.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	sel, ok := e.(*sqlpp.SelectExpr)
	if !ok {
		t.Fatalf("%q is not a query", src)
	}
	rc, err := ExecuteSelectCursor(NewContext(cat), env, sel)
	if err != nil {
		t.Fatalf("open %q: %v", src, err)
	}
	return drainCursor(t, rc)
}

// TestCursorMatchesEagerExecutor runs a spread of query shapes through
// both the streaming cursor and the eager executor and requires
// identical results — the streaming path must be a pure execution-
// strategy change, never a semantic one.
func TestCursorMatchesEagerExecutor(t *testing.T) {
	cat := newTestCatalog()
	var recs []adm.Value
	for i := 0; i < 300; i++ {
		recs = append(recs, obj(
			"id", adm.Int(int64(i)),
			"grp", adm.String(fmt.Sprintf("g%d", i%7)),
			"score", adm.Int(int64(i%50)),
		))
	}
	cat.addDataset(t, "Events", "id", 3, recs...)

	queries := []string{
		// Pipeline-able shapes (true streaming).
		`SELECT VALUE e FROM Events e`,
		`SELECT VALUE e.id FROM Events e WHERE e.score > 25`,
		`SELECT VALUE e.id FROM Events e LIMIT 10`,
		`SELECT VALUE e.id FROM Events e WHERE e.grp = "g3" LIMIT 4`,
		`SELECT e.id AS id, e.score AS s FROM Events e WHERE e.score < 5`,
		`SELECT e.*, "x" AS tag FROM Events e LIMIT 3`,
		`SELECT VALUE [e.id, b] FROM Events e LET b = e.score * 2 WHERE b > 90`,
		`LET cutoff = 40 SELECT VALUE e.id FROM Events e WHERE e.score > cutoff`,
		`SELECT VALUE x FROM [1, 2, 3] x`,
		`SELECT VALUE e.id FROM Events e WHERE e.id IN [1, 5, 250]`,
		// Blocking shapes (streamed: top-k heap, hash aggregate, dedupe).
		`SELECT VALUE e.id FROM Events e ORDER BY e.id DESC LIMIT 5`,
		`SELECT e.grp AS g, count(*) AS n FROM Events e GROUP BY e.grp ORDER BY e.grp`,
		`SELECT DISTINCT e.grp FROM Events e ORDER BY e.grp`,
		`SELECT VALUE count(*) FROM Events e WHERE e.score = 0`,
	}
	for _, q := range queries {
		want := eagerStr(t, cat, nil, q).ArrayVal()
		got := cursorStr(t, cat, nil, q)
		if len(got) != len(want) {
			t.Errorf("%s:\n cursor %d rows, eager %d rows", q, len(got), len(want))
			continue
		}
		for i := range got {
			if !adm.Equal(got[i], want[i]) {
				t.Errorf("%s:\n row %d: cursor %s, eager %s", q, i, got[i], want[i])
				break
			}
		}
	}
}

// TestCursorErrorsSurface verifies evaluation errors arrive through the
// cursor rather than being swallowed mid-stream.
func TestCursorErrorsSurface(t *testing.T) {
	cat := ratingsCatalog(t)
	e, err := sqlpp.ParseExpr(`SELECT VALUE nosuchfn(s) FROM SafetyRatings s`)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ExecuteSelectCursor(NewContext(cat), nil, e.(*sqlpp.SelectExpr))
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := rc.Next()
	if ok || err == nil {
		t.Fatalf("Next = %v, %v; want error", ok, err)
	}
	// The cursor stays exhausted afterwards.
	if _, ok, _ := rc.Next(); ok {
		t.Fatal("cursor yielded rows after an error")
	}
}

// TestCursorParams exercises $param binding through the Context.
func TestCursorParams(t *testing.T) {
	cat := ratingsCatalog(t)
	e, err := sqlpp.ParseExpr(`SELECT VALUE s.country_code FROM SafetyRatings s WHERE s.safety_rating = $want`)
	if err != nil {
		t.Fatal(err)
	}
	sel := e.(*sqlpp.SelectExpr)

	ctx := NewContext(cat)
	ctx.Params = map[string]adm.Value{"want": adm.String("4")}
	rc, err := ExecuteSelectCursor(ctx, nil, sel)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainCursor(t, rc)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}

	// Unbound parameter surfaces as an evaluation error naming it.
	rc2, err := ExecuteSelectCursor(NewContext(cat), nil, sel)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := rc2.Next()
	if ok || err == nil {
		t.Fatal("unbound parameter should error")
	}
	if got := err.Error(); !strings.Contains(got, "$want") {
		t.Errorf("error should name the parameter: %v", got)
	}
}

// TestCursorLimitStopsScan proves LIMIT-k pulls only a prefix: the scan
// touches O(k) records, measured through the partition scan counters
// (a full materializing scan would still be one Scan stat, so we check
// allocations instead — see BenchmarkQueryStream — and here check that
// an abandoned cursor leaves no side effects and a fresh query still
// sees everything).
func TestCursorLimitStopsScan(t *testing.T) {
	cat := newTestCatalog()
	var recs []adm.Value
	for i := 0; i < 5000; i++ {
		recs = append(recs, obj("id", adm.Int(int64(i))))
	}
	ds := cat.addDataset(t, "Big", "id", 2, recs...)

	got := cursorStr(t, cat, nil, `SELECT VALUE b.id FROM Big b LIMIT 7`)
	if len(got) != 7 {
		t.Fatalf("limit rows = %d", len(got))
	}
	if ds.Len() != 5000 {
		t.Fatalf("dataset disturbed: %d", ds.Len())
	}
	all := cursorStr(t, cat, nil, `SELECT VALUE b.id FROM Big b`)
	if len(all) != 5000 {
		t.Fatalf("full scan rows = %d", len(all))
	}
}

// BenchmarkQueryStream is the acceptance benchmark for the streaming
// redesign: SELECT ... LIMIT k over datasets of very different sizes
// must allocate O(k) per query, independent of dataset size. Compare
// the size=10k and size=100k allocs/op columns — they should match.
func BenchmarkQueryStream(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("limit10/size=%d", size), func(b *testing.B) {
			cat := newTestCatalog()
			ds, err := lsm.NewDataset("Big", nil, "id", 4, lsm.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			recs := make([]adm.Value, size)
			for i := range recs {
				recs[i] = obj("id", adm.Int(int64(i)), "score", adm.Int(int64(i%97)))
			}
			if err := ds.UpsertBatch(recs); err != nil {
				b.Fatal(err)
			}
			cat.datasets["Big"] = ds
			e, err := sqlpp.ParseExpr(`SELECT VALUE t.id FROM Big t WHERE t.score >= 0 LIMIT 10`)
			if err != nil {
				b.Fatal(err)
			}
			sel := e.(*sqlpp.SelectExpr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc, err := ExecuteSelectCursor(NewContext(cat), nil, sel)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					_, ok, err := rc.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					n++
				}
				if n != 10 {
					b.Fatalf("rows = %d", n)
				}
			}
		})
	}
}
