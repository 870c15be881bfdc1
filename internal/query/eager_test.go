package query

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// The eager executor is the reference the cursor pipeline is checked
// against. It runs a SELECT by materializing every stage in turn: the
// FROM product as a tuple slice, WHERE over that slice, groups as
// buffered tuple lists, a stable sort, then projection and DISTINCT.
// It shares only the expression evaluator and projectRow with the
// engine, so a planner or row-operator bug shows up as a difference.

// eagerStr parses and runs one query through the eager executor.
func eagerStr(t *testing.T, cat Catalog, env *Env, src string) adm.Value {
	t.Helper()
	v, err := eagerSelect(evalState{ctx: NewContext(cat)}, env, mustSel(t, src))
	if err != nil {
		t.Fatalf("eager %q: %v", src, err)
	}
	return v
}

func eagerSelect(st evalState, env *Env, sel *sqlpp.SelectExpr) (adm.Value, error) {
	st, err := st.deeper()
	if err != nil {
		return adm.Value{}, err
	}
	// Leading LETs (paper UDF style) bind before anything else.
	for _, l := range sel.Lets {
		v, err := eval(st, env, l.Expr)
		if err != nil {
			return adm.Value{}, err
		}
		env = Bind(env, l.Name, v)
	}

	// FROM fan-out: nested-loop tuple construction.
	tuples := []*Env{env}
	for _, fc := range sel.From {
		var next []*Env
		for _, tu := range tuples {
			coll, err := eagerSource(st, tu, fc.Source)
			if err != nil {
				return adm.Value{}, err
			}
			for _, rec := range coll {
				next = append(next, Bind(tu, fc.Alias, rec))
			}
		}
		tuples = next
	}

	// FROM-position LETs bind per tuple.
	for _, l := range sel.FromLets {
		for i, tu := range tuples {
			v, err := eval(st, tu, l.Expr)
			if err != nil {
				return adm.Value{}, err
			}
			tuples[i] = Bind(tu, l.Name, v)
		}
	}

	// WHERE.
	if sel.Where != nil {
		kept := tuples[:0]
		for _, tu := range tuples {
			v, err := eval(st, tu, sel.Where)
			if err != nil {
				return adm.Value{}, err
			}
			if Truthy(v) {
				kept = append(kept, tu)
			}
		}
		tuples = kept
	}
	return eagerFinish(st, sel, tuples)
}

// eagerSource resolves a FROM source into a record slice: an in-scope
// binding, a full copy of a dataset's pinned snapshots, or any
// collection-valued expression.
func eagerSource(st evalState, env *Env, src sqlpp.Expr) ([]adm.Value, error) {
	id, isIdent := src.(*sqlpp.Ident)
	if !isIdent {
		v, err := eval(st, env, src)
		if err != nil {
			return nil, err
		}
		return eagerElems(v), nil
	}
	if v, bound := env.Lookup(id.Name); bound {
		return eagerElems(v), nil
	}
	if _, isDS := st.ctx.Catalog.Dataset(id.Name); !isDS {
		return nil, fmt.Errorf("%w: FROM source %q is neither a binding nor a dataset", ErrUnknownDataset, id.Name)
	}
	snaps, err := st.ctx.Pin(id.Name)
	if err != nil {
		return nil, err
	}
	var recs []adm.Value
	for _, s := range snaps {
		s.Scan(func(_, rec adm.Value) bool {
			recs = append(recs, rec)
			return true
		})
	}
	return recs, nil
}

// eagerElems lists a collection's elements; MISSING and NULL are empty,
// and any other single value iterates once.
func eagerElems(v adm.Value) []adm.Value {
	switch v.Kind() {
	case adm.KindArray:
		return v.ArrayVal()
	case adm.KindMissing, adm.KindNull:
		return nil
	}
	return []adm.Value{v}
}

// eagerRow is one row before projection; grouped rows carry their
// group's aggregate values.
type eagerRow struct {
	env     *Env
	agg     map[*sqlpp.Call]adm.Value
	grouped bool
}

func (r eagerRow) state(st evalState) evalState {
	if r.grouped {
		return st.withAggVals(r.agg)
	}
	return st.noGroup()
}

// eagerFinish applies grouping, ordering, limiting, projection and
// DISTINCT to the filtered tuple list.
func eagerFinish(st evalState, sel *sqlpp.SelectExpr, tuples []*Env) (adm.Value, error) {
	var rows []eagerRow
	calls := collectSelectAggs(sel)
	if len(sel.GroupBy) > 0 || len(calls) > 0 {
		groups, err := eagerGroups(st, sel.GroupBy, tuples)
		if err != nil {
			return adm.Value{}, err
		}
		for _, g := range groups {
			agg, err := eagerAggregates(st, calls, g.tuples)
			if err != nil {
				return adm.Value{}, err
			}
			rows = append(rows, eagerRow{env: g.rep, agg: agg, grouped: true})
		}
	} else {
		for _, tu := range tuples {
			rows = append(rows, eagerRow{env: tu})
		}
	}

	// ORDER BY: evaluate every row's keys, then a stable sort.
	if len(sel.OrderBy) > 0 {
		keys := make([][]adm.Value, len(rows))
		for i, r := range rows {
			keys[i] = make([]adm.Value, len(sel.OrderBy))
			for j, ob := range sel.OrderBy {
				v, err := eval(r.state(st), r.env, ob.Expr)
				if err != nil {
					return adm.Value{}, err
				}
				keys[i][j] = v
			}
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for j, ob := range sel.OrderBy {
				if c := adm.Compare(keys[idx[a]][j], keys[idx[b]][j]); c != 0 {
					return (c < 0) != ob.Desc
				}
			}
			return false
		})
		sorted := make([]eagerRow, len(rows))
		for i, k := range idx {
			sorted[i] = rows[k]
		}
		rows = sorted
	}

	// LIMIT counts input rows, except under DISTINCT, where it counts
	// distinct projected rows and so applies after deduplication.
	limit := -1
	if sel.Limit != nil {
		lv, err := eval(st, nil, sel.Limit)
		if err != nil {
			return adm.Value{}, err
		}
		n, ok := lv.AsInt()
		if !ok || n < 0 {
			return adm.Value{}, fmt.Errorf("query: LIMIT must be a non-negative integer")
		}
		limit = int(n)
	}
	if limit >= 0 && !sel.Distinct && limit < len(rows) {
		rows = rows[:limit]
	}

	out := make([]adm.Value, 0, len(rows))
	for _, r := range rows {
		v, err := projectRow(r.state(st), r.env, sel)
		if err != nil {
			return adm.Value{}, err
		}
		out = append(out, v)
	}
	if sel.Distinct {
		out = eagerDistinct(out)
		if limit >= 0 && limit < len(out) {
			out = out[:limit]
		}
	}
	return adm.Array(out), nil
}

type eagerGroup struct {
	rep    *Env
	tuples []*Env
}

// eagerGroups buffers tuples into groups by the GROUP BY keys, in
// first-seen order. Grouping aliases are bound in the representative
// env. Without keys everything is one group, even when empty.
func eagerGroups(st evalState, keys []sqlpp.GroupKey, tuples []*Env) ([]eagerGroup, error) {
	if len(keys) == 0 {
		var rep *Env
		if len(tuples) > 0 {
			rep = tuples[0]
		}
		return []eagerGroup{{rep: rep, tuples: tuples}}, nil
	}
	var groups []eagerGroup
	var groupKeys [][]adm.Value
	for _, tu := range tuples {
		kv := make([]adm.Value, len(keys))
		for i, k := range keys {
			v, err := eval(st, tu, k.Expr)
			if err != nil {
				return nil, err
			}
			kv[i] = v
		}
		found := -1
		for gi := range groups {
			if sameKeys(groupKeys[gi], kv) {
				found = gi
				break
			}
		}
		if found < 0 {
			rep := tu
			for i, k := range keys {
				if k.Alias != "" {
					rep = Bind(rep, k.Alias, kv[i])
				}
			}
			groups = append(groups, eagerGroup{rep: rep})
			groupKeys = append(groupKeys, kv)
			found = len(groups) - 1
		}
		groups[found].tuples = append(groups[found].tuples, tu)
	}
	return groups, nil
}

// eagerAggregates folds each aggregate call over its buffered group with
// aggregateOver.
func eagerAggregates(st evalState, calls []*sqlpp.Call, group []*Env) (map[*sqlpp.Call]adm.Value, error) {
	vals := make(map[*sqlpp.Call]adm.Value, len(calls))
	inner := st.noGroup() // aggregate arguments evaluate per tuple
	for _, call := range calls {
		if call.Star {
			if strings.ToLower(call.Name) != "count" {
				return nil, fmt.Errorf("query: %s(*) is not a valid aggregate", call.Name)
			}
			vals[call] = adm.Int(int64(len(group)))
			continue
		}
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("query: aggregate %s expects 1 argument", call.Name)
		}
		args := make([]adm.Value, 0, len(group))
		for _, tu := range group {
			v, err := eval(inner, tu, call.Args[0])
			if err != nil {
				return nil, err
			}
			args = append(args, v)
		}
		v, err := aggregateOver(call.Name, args)
		if err != nil {
			return nil, err
		}
		vals[call] = v
	}
	return vals, nil
}

// eagerDistinct keeps the first occurrence of every value.
func eagerDistinct(vals []adm.Value) []adm.Value {
	var out []adm.Value
	for _, v := range vals {
		dup := false
		for _, prev := range out {
			if adm.Equal(prev, v) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}
