package query

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
)

// refreshUDFs cover every access kind a refresh patches or rebuilds.
var refreshUDFs = []struct {
	ddl  string
	plan string // Describe prefix
	// steady: the plan's datasets freeze only at snapshots, so its
	// steady-state refreshes must take the delta path.
	steady bool
}{
	{`CREATE FUNCTION fRating(t) {
		LET r = (SELECT VALUE s.rating FROM Ratings s WHERE t.country = s.code)
		SELECT t.*, r };`, "hash(Ratings)", true},
	// Build key (region) differs from the primary key and changes;
	// the active filter flips.
	{`CREATE FUNCTION fRegion(t) {
		LET codes = (SELECT VALUE s.code FROM Ratings s WHERE t.region = s.region AND s.active = true)
		SELECT t.*, codes };`, "hash(Ratings)", true},
	{`CREATE FUNCTION fNear(t) {
		LET near = (SELECT VALUE p.id FROM Places p
			WHERE spatial_intersect(p.loc, create_circle(create_point(t.x, t.y), 3.0)))
		SELECT t.*, near };`, "rtree(Places)", true},
	{`CREATE FUNCTION fMention(t) {
		LET hits = (SELECT VALUE s.code FROM Ratings s WHERE contains(t.text, s.code))
		SELECT t.*, hits };`, "scan(Ratings)", false},
	// A filter over another dataset: the build is not a function of the
	// reference record alone, so every refresh rebuilds it.
	{`CREATE FUNCTION fPinned(t) {
		LET r = (SELECT VALUE s.rating FROM Ratings s WHERE t.country = s.code
			AND s.rating IN (SELECT VALUE c.rating FROM Churn c WHERE c.code = "C00"))
		SELECT t.*, r };`, "hash(Ratings)", false},
	{`CREATE FUNCTION fDurable(t) {
		LET r = (SELECT VALUE d.rating FROM DurRatings d WHERE t.country = d.code AND d.active = true)
		SELECT t.*, r };`, "hash(DurRatings)", true},
	// Tiny memtable budget: freezes between snapshots make merges fold
	// writes from both sides of a snapshot, forcing full-scan fallbacks.
	{`CREATE FUNCTION fChurn(t) {
		LET r = (SELECT VALUE c.rating FROM Churn c WHERE t.region = c.region)
		SELECT t.*, r };`, "hash(Churn)", false},
}

const (
	refreshCodes   = 40
	refreshRegions = 6
	refreshPlaces  = 30
)

func ratingRec(r *rand.Rand, code int) adm.Value {
	return obj(
		"code", adm.String(fmt.Sprintf("C%02d", code)),
		"rating", adm.Int(int64(r.Intn(5))),
		"region", adm.String(fmt.Sprintf("R%d", r.Intn(refreshRegions))),
		"active", adm.Bool(r.Intn(4) != 0),
		"pad", adm.String(strings.Repeat("p", r.Intn(40))),
	)
}

func placeRec(r *rand.Rand, id int) adm.Value {
	return obj("id", adm.Int(int64(id)), "loc", adm.Point(r.Float64()*20, r.Float64()*20))
}

// churnRefs applies one round of fig27-style reference updates: upserts
// that change the rating, region (a build key) and active flag (a
// filter), deletes, and re-inserts of deleted keys.
func churnRefs(t *testing.T, r *rand.Rand, ds *lsm.Dataset, n int, mk func(*rand.Rand, int) adm.Value, keys int, pk func(int) adm.Value) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := r.Intn(keys)
		if r.Intn(6) == 0 {
			ds.Delete(pk(k))
			continue
		}
		if err := ds.Upsert(mk(r, k)); err != nil {
			t.Fatal(err)
		}
	}
}

func codeKey(k int) adm.Value  { return adm.String(fmt.Sprintf("C%02d", k)) }
func placeKey(k int) adm.Value { return adm.Int(int64(k)) }

// refreshProbes covers every country, region and place cell.
func refreshProbes(r *rand.Rand) []adm.Value {
	var out []adm.Value
	for i := 0; i < refreshCodes+5; i++ {
		out = append(out, obj(
			"id", adm.Int(int64(i)),
			"country", adm.String(fmt.Sprintf("C%02d", i)),
			"region", adm.String(fmt.Sprintf("R%d", i%(refreshRegions+1))),
			"x", adm.Double(r.Float64()*20), "y", adm.Double(r.Float64()*20),
			"text", adm.String(fmt.Sprintf("about C%02d and C%02d", r.Intn(refreshCodes), r.Intn(refreshCodes))),
		))
	}
	return out
}

// TestEnrichRefreshDifferential is the oracle for incremental refresh:
// on every invocation, the state a plan refreshed in place must enrich
// exactly like a full Prepare over the same pinned snapshots. Reference
// data churns between invocations the way fig27's update client does;
// merges are forced (MaxComponents 2), a durable reference dataset runs
// with a tiny block cache and compaction, one dataset freezes on its
// memtable budget so merges straddle snapshots, and Ratings is dropped
// and recreated with another partition count midway. Evaluators run
// concurrently between refreshes, so -race checks the hand-off.
func TestEnrichRefreshDifferential(t *testing.T) {
	const rounds, recreateAt = 40, 20
	r := rand.New(rand.NewSource(27))
	cat := newTestCatalog()

	newRatings := func(parts int) *lsm.Dataset {
		ds, err := lsm.NewDataset("Ratings", nil, "code", parts, lsm.Options{MemBudget: 8 << 20, MaxComponents: 2})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < refreshCodes; k++ {
			if err := ds.Upsert(ratingRec(r, k)); err != nil {
				t.Fatal(err)
			}
		}
		cat.datasets["Ratings"] = ds
		return ds
	}
	ratings := newRatings(4)
	places := cat.addDataset(t, "Places", "id", 3)
	for k := 0; k < refreshPlaces; k++ {
		if err := places.Upsert(placeRec(r, k)); err != nil {
			t.Fatal(err)
		}
	}
	dur, err := lsm.OpenDataset(lsm.NewMemFS(), "dur", "DurRatings", nil, "code", 2, lsm.Options{
		MemBudget: 1 << 20, MaxComponents: 3, WALSegBytes: 4 << 10, BlockCache: lsm.NewBlockCache(4 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	cat.datasets["DurRatings"] = dur
	churn, err := lsm.NewDataset("Churn", nil, "code", 2, lsm.Options{MemBudget: 1 << 10, MaxComponents: 2})
	if err != nil {
		t.Fatal(err)
	}
	cat.datasets["Churn"] = churn
	for k := 0; k < refreshCodes; k++ {
		if err := dur.Upsert(ratingRec(r, k)); err != nil {
			t.Fatal(err)
		}
		if err := churn.Upsert(ratingRec(r, k)); err != nil {
			t.Fatal(err)
		}
	}

	type tracked struct {
		name           string
		plan           *EnrichPlan
		pe             *PreparedEnrich
		steady         bool
		delta, rebuilt uint64 // steady-state rounds only
	}
	var plans []*tracked
	for _, u := range refreshUDFs {
		fn := cat.addSQLFunction(t, u.ddl)
		plan, err := CompileEnrich(fn.Name, fn.Params, fn.Body, cat, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d := plan.Describe(); len(d) != 1 || !strings.HasPrefix(d[0], u.plan) {
			t.Fatalf("%s: plan %v, want %s", fn.Name, d, u.plan)
		}
		pe, err := plan.Prepare(cat)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, &tracked{name: fn.Name, plan: plan, pe: pe, steady: u.steady})
	}

	for round := 1; round <= rounds; round++ {
		if round == recreateAt {
			ratings = newRatings(3) // drop and recreate: new partitions, new count
		}
		churnRefs(t, r, ratings, 1+r.Intn(8), ratingRec, refreshCodes, codeKey)
		churnRefs(t, r, places, 1+r.Intn(5), placeRec, refreshPlaces, placeKey)
		churnRefs(t, r, dur, 1+r.Intn(8), ratingRec, refreshCodes, codeKey)
		churnRefs(t, r, churn, 5+r.Intn(20), ratingRec, refreshCodes, codeKey)

		probes := refreshProbes(r)
		for _, tp := range plans {
			d0, r0 := tp.pe.deltaShards, tp.pe.rebuiltShards
			if err := tp.pe.Refresh(cat); err != nil {
				t.Fatalf("round %d %s: refresh: %v", round, tp.name, err)
			}
			if round != recreateAt {
				tp.delta += tp.pe.deltaShards - d0
				tp.rebuilt += tp.pe.rebuiltShards - r0
			}
			full := tp.plan.unbuilt()
			if err := full.refreshIn(tp.pe.ctx); err != nil {
				t.Fatalf("round %d %s: full prepare: %v", round, tp.name, err)
			}

			// Enrich concurrently, as the job's evaluators do.
			got := make([]adm.Value, len(probes))
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(probes); i += 2 {
						if got[i], errs[w] = tp.pe.EvalRecord(probes[i]); errs[w] != nil {
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("round %d %s: EvalRecord: %v", round, tp.name, err)
				}
			}
			for i, p := range probes {
				want, err := full.EvalRecord(p)
				if err != nil {
					t.Fatalf("round %d %s: full EvalRecord: %v", round, tp.name, err)
				}
				if !equalUnordered(got[i], want) {
					t.Fatalf("round %d %s probe %d: refreshed state differs from a full prepare\n got: %s\nwant: %s",
						round, tp.name, i, got[i], want)
				}
			}
		}
	}

	for _, tp := range plans {
		total := tp.delta + tp.rebuilt
		t.Logf("%-9s steady-state partition refreshes: %d delta, %d rebuilt", tp.name, tp.delta, tp.rebuilt)
		if tp.steady && float64(tp.delta) < 0.9*float64(total) {
			t.Errorf("%s: %d of %d steady-state partition refreshes took the delta path, want >= 90%%",
				tp.name, tp.delta, total)
		}
	}
	if churn.Stats().Merges == 0 || dur.Stats().Merges == 0 {
		t.Errorf("merges: Churn %d, DurRatings %d; want both > 0", churn.Stats().Merges, dur.Stats().Merges)
	}
	for _, tp := range plans {
		if tp.name == "fChurn" && tp.rebuilt == 0 {
			t.Error("fChurn never fell back to a rebuild; the straddling-merge path is untested")
		}
		if tp.name == "fPinned" && tp.delta != 0 {
			t.Errorf("fPinned took %d delta refreshes; a filter over another dataset must rebuild", tp.delta)
		}
	}
}
