package query

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// ExecuteSelectCursor plans and opens a pull cursor for a query block.
// Leading LETs and the LIMIT expression are evaluated eagerly (they are
// bound once per query); everything downstream is pulled lazily.
//
// Planning decisions, in order:
//
//  0. Primary-key point lookup — an equality conjunct `alias.pk = c`
//     on the first FROM dataset, c a literal or bound parameter,
//     becomes one Get on the owning partition's pinned snapshot, made
//     when the cursor opens; the leaf yields at most that one record.
//     The full WHERE stays as a residual filter.
//  1. Index pushdown — an equality or range conjunct on a
//     field-indexed column of the first FROM dataset becomes a
//     secondary-index range probe resolved through the primary,
//     instead of a full scan. The full WHERE stays as a residual
//     filter, so over-approximate postings (cross-typed keys inside
//     the range, stale-but-matching entries) never leak.
//  2. Parallel partition scan — a multi-partition dataset scanned by a
//     blocking consumer (GROUP BY / ORDER BY) or an unbounded one
//     (no LIMIT) scans its partitions concurrently. Partition-order
//     merge keeps output byte-identical to the serial scan; ORDER BY
//     on the primary key ascending upgrades to a global key-order
//     merge that replaces the sort; an order-insensitive aggregate
//     (count/min/max, no GROUP BY) fans in unordered. Concurrency-safe
//     WHERE conjuncts are evaluated inside the scan workers.
//  3. Serial scan — everything else.
func ExecuteSelectCursor(ctx *Context, env *Env, sel *sqlpp.SelectExpr) (*RowCursor, error) {
	return openSelect(evalState{ctx: ctx}, env, sel, true)
}

// openSelect plans and opens a cursor for sel under the caller's state,
// so a subquery keeps its nesting depth and the prepared enrichment
// state of the record it serves. explain builds the text Plan reports;
// subqueries, whose plans nobody reads, skip it.
func openSelect(st evalState, env *Env, sel *sqlpp.SelectExpr, explain bool) (*RowCursor, error) {
	st, err := st.noGroup().deeper()
	if err != nil {
		return nil, err
	}
	for _, l := range sel.Lets {
		v, err := eval(st, env, l.Expr)
		if err != nil {
			return nil, err
		}
		env = Bind(env, l.Name, v)
	}
	rc, err := newRowCursor(st, sel, explain)
	if err != nil {
		return nil, err
	}

	// Pin the snapshots of every dataset named in FROM position now,
	// before returning the cursor: the caller's consistency contract is
	// "the data as of the Query call", not "as of the first Next".
	// (Datasets touched only inside subqueries or UDFs pin on first
	// access, per the Context rule.)
	scope := env
	for _, fc := range sel.From {
		if id, isIdent := fc.Source.(*sqlpp.Ident); isIdent {
			if _, bound := scope.Lookup(id.Name); !bound && st.ctx.Catalog != nil {
				if _, isDS := st.ctx.Catalog.Dataset(id.Name); isDS {
					if _, err := st.ctx.Pin(id.Name); err != nil {
						return nil, err
					}
				}
			}
		}
		// Later FROM clauses may reference this alias; approximate the
		// scope by binding it to MISSING (only presence matters here).
		scope = Bind(scope, fc.Alias, adm.Missing())
	}

	if err := rc.planSelect(env); err != nil {
		return nil, err
	}
	return rc, nil
}

// newRowCursor starts a cursor for sel under st and evaluates its LIMIT,
// which binds once per SELECT; the caller then stacks the pipeline.
func newRowCursor(st evalState, sel *sqlpp.SelectExpr, explain bool) (*RowCursor, error) {
	rc := &RowCursor{st: st, sel: sel, limit: -1}
	if explain {
		rc.plan = new(strings.Builder)
	}
	if sel.Limit != nil {
		lv, err := eval(st, nil, sel.Limit)
		if err != nil {
			return nil, err
		}
		n, ok := lv.AsInt()
		if !ok || n < 0 {
			return nil, fmt.Errorf("query: LIMIT must be a non-negative integer")
		}
		rc.limit = n
	}
	if sel.Distinct {
		rc.dedup = newValueDedup()
	}
	return rc, nil
}

// planSelect assembles the tuple half of the pipeline (FROM, FROM-LETs,
// WHERE) under the base env, with leading LETs already bound, and
// stacks the row half on it.
func (rc *RowCursor) planSelect(env *Env) error {
	st, sel := rc.st, rc.sel
	aggCalls := collectSelectAggs(sel)
	grouped := len(sel.GroupBy) > 0 || len(aggCalls) > 0

	var cur tupleCursor
	wherePushed := false
	orderHandled := false
	reuse := false

	if len(sel.From) > 0 {
		leaf, pushed, keyOrdered, err := rc.planScanLeaf(env, grouped, aggCalls)
		if err != nil {
			return err
		}
		if leaf != nil {
			// Env-reuse mode: the scan leaf recycles one binding box per
			// record, so the bounded top-k heap and the streaming hash
			// aggregate run allocation-flat. Only legal when nothing
			// between the scan and the consumer retains an env without
			// copying: single FROM, no FROM-LETs, a WHERE (if any) free
			// of calls and subqueries, and a consumer that copies what it
			// keeps — the top-k heap (copyEnv) or the hash aggregate
			// (copyRep, one snapshot per new group).
			safeWhere := sel.Where == nil || pushed || safeParallelPred(sel.Where)
			topkReuse := !grouped && len(sel.OrderBy) > 0 && !keyOrdered &&
				rc.limit >= 0 && !sel.Distinct
			reuse = len(sel.From) == 1 && len(sel.FromLets) == 0 && safeWhere &&
				(topkReuse || grouped)
			cur = &scanFromCursor{base: env, alias: sel.From[0].Alias, leaf: leaf, reuse: reuse}
			wherePushed = pushed
			orderHandled = keyOrdered
		}
	}
	first := 0
	if cur != nil {
		first = 1 // the planned leaf covers the first clause
	} else {
		rc.seed = singleCursor{env: env}
		cur = &rc.seed
	}
	for _, fc := range sel.From[first:] {
		cur = &fromCursor{st: st, outer: cur, src: fc.Source, alias: fc.Alias}
		rc.note("from(%s)", fc.Alias)
	}
	if len(sel.FromLets) > 0 {
		cur = &letCursor{st: st, inner: cur, lets: sel.FromLets}
		rc.note("let")
	}
	if sel.Where != nil && !wherePushed {
		cur = &filterCursor{st: st, inner: cur, pred: sel.Where}
		rc.note("filter")
	}
	rc.planRows(cur, aggCalls, reuse, orderHandled)
	return nil
}

// planRows stacks the row half of a SELECT on a tuple stream: the
// streaming hash aggregate (or the plain tuple→row adapter), then top-k
// or a full sort unless the scan already delivers key order. Next
// projects each row and applies DISTINCT and LIMIT. The cursor planner
// and the enrichment probe, over the tuples it matched, both end here.
// reuse says the tuples arrive in a recycled binding box, which the
// consumers must copy before retaining.
func (rc *RowCursor) planRows(cur tupleCursor, aggCalls []*sqlpp.Call, reuse, orderHandled bool) {
	sel := rc.sel
	grouped := len(sel.GroupBy) > 0 || len(aggCalls) > 0
	if grouped {
		rc.rows = &aggRows{st: rc.st, inner: cur, keys: sel.GroupBy, calls: aggCalls, copyRep: reuse}
		rc.note("aggregate(%dkeys,%daggs)", len(sel.GroupBy), len(aggCalls))
	} else {
		rc.adapter = tupleRows{inner: cur}
		rc.rows = &rc.adapter
	}
	switch {
	case orderHandled:
		rc.note("ordered-by-key")
	case len(sel.OrderBy) > 0:
		k := int64(-1)
		if rc.limit >= 0 && !sel.Distinct {
			// DISTINCT limits distinct projected rows, not input rows, so
			// the heap cannot be bounded under it.
			k = rc.limit
		}
		// Grouped rows carry per-group envs already (aggRows copied the
		// representatives); only raw scan rows need copying on accept.
		rc.rows = &topkRows{st: rc.st, inner: rc.rows, orderBy: sel.OrderBy, k: k, copyEnv: reuse && !grouped}
		if k >= 0 {
			rc.note("topk(%d)", k)
		} else {
			rc.note("sort")
		}
	}
	rc.note("project")
	if sel.Distinct {
		rc.note("distinct")
	}
	if rc.limit >= 0 {
		rc.note("limit(%d)", rc.limit)
	}
}

// planScanLeaf builds the record stream for the first FROM clause when
// it names a dataset: a primary-key point lookup, an index range probe,
// a parallel partition scan, or a serial scan. A nil leaf means the
// clause is not a plannable dataset scan (expression source, shadowed
// name) and the generic fromCursor path applies.
func (rc *RowCursor) planScanLeaf(env *Env, grouped bool, aggCalls []*sqlpp.Call) (leaf collCursor, pushed, keyOrdered bool, err error) {
	st, sel := rc.st, rc.sel
	fc := sel.From[0]
	id, isIdent := fc.Source.(*sqlpp.Ident)
	if !isIdent || st.ctx.Catalog == nil {
		return nil, false, false, nil
	}
	if _, bound := env.Lookup(id.Name); bound {
		return nil, false, false, nil
	}
	ds, isDS := st.ctx.Catalog.Dataset(id.Name)
	if !isDS {
		return nil, false, false, nil
	}
	snaps, err := st.ctx.Pin(id.Name)
	if err != nil {
		return nil, false, false, err
	}

	pushdown := !st.ctx.DisableIndexScan && sel.Where != nil && !aliasRebound(sel, fc.Alias)

	// 0. Primary-key point lookup.
	if pushdown {
		if key, found := pickPrimaryKey(st.ctx, ds, fc.Alias, sel.Where); found {
			rc.note("pkget(%s.%s)", id.Name, ds.PrimaryKey())
			if rec, ok := snaps[ds.Route(key)].Get(key); ok {
				return &singleValueCursor{v: rec}, false, false, nil
			}
			return &sliceCursor{}, false, false, nil
		}
	}

	// 1. Index pushdown.
	if pushdown {
		if field, idxName, idxs, lo, hi, found := pickIndexRange(st.ctx, ds, fc.Alias, sel.Where); found {
			rc.note("iscan(%s.%s on %s)", id.Name, idxName, field)
			return &indexScanColl{sc: lsm.NewIndexScanCursor(snaps, idxs, lo, hi)}, false, false, nil
		}
	}

	// 2. Parallel partition scan.
	parts := len(snaps)
	blocking := grouped || len(sel.OrderBy) > 0
	if !st.ctx.DisableParallelScan && parts > 1 && (blocking || rc.limit < 0) {
		order := lsm.PartitionOrder
		if !grouped && orderByIsPkAsc(sel, fc.Alias, ds.PrimaryKey()) {
			order = lsm.KeyOrder
			keyOrdered = true
		} else if unorderedSafe(sel, aggCalls) {
			order = lsm.Unordered
		}
		var filter func(key, rec adm.Value) (bool, error)
		suffix := ""
		if sel.Where != nil && len(sel.From) == 1 && len(sel.FromLets) == 0 && safeParallelPred(sel.Where) {
			where, alias, base, fst := sel.Where, fc.Alias, env, st
			// Workers call the filter concurrently; each call borrows a
			// pooled binding box instead of allocating an Env per record
			// (safeParallelPred guarantees evaluation never retains it).
			boxes := sync.Pool{New: func() any { return &Env{parent: base, name: alias} }}
			filter = func(_, rec adm.Value) (bool, error) {
				box := boxes.Get().(*Env)
				box.val = rec
				v, err := eval(fst, box, where)
				boxes.Put(box)
				if err != nil {
					return false, err
				}
				return Truthy(v), nil
			}
			pushed, suffix = true, "+filter"
		}
		rc.note("pscan(%s,%s,%d)%s", id.Name, orderName(order), parts, suffix)
		return &parallelColl{pc: lsm.NewParallelScanCursor(snaps, filter, order, 0)}, pushed, keyOrdered, nil
	}

	// 3. Serial scan.
	rc.note("scan(%s)", id.Name)
	return &datasetCursor{sc: lsm.NewScanCursor(snaps)}, false, false, nil
}

func orderName(o lsm.ScanOrder) string {
	switch o {
	case lsm.KeyOrder:
		return "key"
	case lsm.Unordered:
		return "unordered"
	}
	return "partition"
}

// orderByIsPkAsc reports whether ORDER BY is exactly the scanned
// dataset's primary key ascending — then a key-order partition merge
// already produces the output order and the sort stage is dropped.
func orderByIsPkAsc(sel *sqlpp.SelectExpr, alias, pk string) bool {
	if len(sel.OrderBy) != 1 || sel.OrderBy[0].Desc {
		return false
	}
	f, ok := aliasField(sel.OrderBy[0].Expr, alias)
	return ok && f == pk
}

// unorderedSafe gates the unordered fan-in: a single implicit group
// whose aggregates are insensitive to arrival order (count/min/max;
// sum/avg float folding is order-dependent) and whose output
// expressions reference nothing but those aggregates — the group's
// representative tuple is arrival-dependent, so it must not leak.
func unorderedSafe(sel *sqlpp.SelectExpr, aggCalls []*sqlpp.Call) bool {
	if len(sel.GroupBy) > 0 || len(sel.OrderBy) > 0 || len(aggCalls) == 0 {
		return false
	}
	for _, call := range aggCalls {
		switch strings.ToLower(call.Name) {
		case "count", "min", "max":
		default:
			return false
		}
	}
	if sel.SelectValue != nil && !exprRowFree(sel.SelectValue) {
		return false
	}
	for _, p := range sel.Projections {
		if p.Star || !exprRowFree(p.Expr) {
			return false
		}
	}
	return true
}

// exprRowFree reports whether an expression can be evaluated without
// touching the row environment — aggregate calls count as row-free
// (they resolve from accumulators), bare identifiers do not.
func exprRowFree(e sqlpp.Expr) bool {
	switch n := e.(type) {
	case nil:
		return true
	case *sqlpp.Literal, *sqlpp.Param:
		return true
	case *sqlpp.Call:
		if n.Ns == "" && IsAggregate(strings.ToLower(n.Name)) {
			return true
		}
		for _, a := range n.Args {
			if !exprRowFree(a) {
				return false
			}
		}
		return n.Ns == "" // library calls may be stateful; keep them serial
	case *sqlpp.Unary:
		return exprRowFree(n.X)
	case *sqlpp.Binary:
		return exprRowFree(n.L) && exprRowFree(n.R)
	case *sqlpp.CaseExpr:
		if n.Operand != nil && !exprRowFree(n.Operand) {
			return false
		}
		for _, w := range n.Whens {
			if !exprRowFree(w.When) || !exprRowFree(w.Then) {
				return false
			}
		}
		return n.Else == nil || exprRowFree(n.Else)
	}
	return false
}

// safeParallelPred reports whether a predicate may be evaluated inside
// concurrent scan workers: pure structural/comparison expressions over
// the row and constants. Calls (UDFs may be stateful), EXISTS, and
// subqueries stay on the consumer side.
func safeParallelPred(e sqlpp.Expr) bool {
	switch n := e.(type) {
	case nil:
		return true
	case *sqlpp.Literal, *sqlpp.Ident, *sqlpp.Param:
		return true
	case *sqlpp.FieldAccess:
		return safeParallelPred(n.Base)
	case *sqlpp.IndexAccess:
		return safeParallelPred(n.Base) && safeParallelPred(n.Index)
	case *sqlpp.Unary:
		return safeParallelPred(n.X)
	case *sqlpp.Binary:
		return safeParallelPred(n.L) && safeParallelPred(n.R)
	case *sqlpp.CaseExpr:
		if n.Operand != nil && !safeParallelPred(n.Operand) {
			return false
		}
		for _, w := range n.Whens {
			if !safeParallelPred(w.When) || !safeParallelPred(w.Then) {
				return false
			}
		}
		return n.Else == nil || safeParallelPred(n.Else)
	case *sqlpp.In:
		return safeParallelPred(n.X) && safeParallelPred(n.Coll)
	case *sqlpp.ArrayCtor:
		for _, el := range n.Elems {
			if !safeParallelPred(el) {
				return false
			}
		}
		return true
	case *sqlpp.ObjectCtor:
		for _, f := range n.Fields {
			if !safeParallelPred(f.Val) {
				return false
			}
		}
		return true
	}
	return false
}

// --- sargable predicate extraction ---

// aliasRebound reports whether a later FROM clause or a FROM-LET
// rebinds alias, so a WHERE reference to it may not mean the first
// FROM clause's records and no conjunct can be pushed into that scan.
func aliasRebound(sel *sqlpp.SelectExpr, alias string) bool {
	for _, fc := range sel.From[1:] {
		if fc.Alias == alias {
			return true
		}
	}
	for _, l := range sel.FromLets {
		if l.Name == alias {
			return true
		}
	}
	return false
}

// pickPrimaryKey scans the WHERE conjuncts for `alias.pk = const` and
// returns the key a point lookup must probe. The first usable conjunct
// wins; the residual filter applies the rest.
func pickPrimaryKey(ctx *Context, ds *lsm.Dataset, alias string, where sqlpp.Expr) (adm.Value, bool) {
	for _, conj := range splitConjuncts(where) {
		f, op, v, ok := sargable(conj, alias, ctx.Params)
		if !ok || op != "=" || f != ds.PrimaryKey() {
			continue
		}
		if key, ok := pointKey(ds, v); ok {
			return key, true
		}
	}
	return adm.Value{}, false
}

// pointKey converts the constant of `pk = c` into the key one Get must
// probe so that it finds exactly the records the scan's `=` accepts,
// or reports false when only the scan is exact. SQL++ `=` is false
// across kinds, and adm.Hash and adm.Compare promote numerics alike,
// so routing and the tree walk agree with the scan for a constant of
// the stored keys' kind. Run bloom filters hash a key's binary
// encoding, so the probe must carry that kind exactly: the pk's
// declared kind when the datatype names one, else the constant's own
// (an untyped int64 constant assumes int64 keys; an untyped double
// keeps the scan). A double probes an int64 key only when it converts
// exactly and |v| < 2^53; past that, float promotion makes it equal
// to several int64 keys (2^53 and 2^53+1 both promote to 2^53).
func pointKey(ds *lsm.Dataset, c adm.Value) (adm.Value, bool) {
	keyKind := c.Kind()
	if dt := ds.Datatype(); dt != nil {
		if f, ok := dt.Field(ds.PrimaryKey()); ok && f.Kind != adm.KindMissing {
			keyKind = f.Kind
		}
	}
	if keyKind == adm.KindInt64 && c.Kind() == adm.KindDouble {
		f := c.DoubleVal()
		return adm.Int(int64(f)), f == math.Trunc(f) && math.Abs(f) < 1<<53
	}
	switch keyKind {
	case adm.KindInt64, adm.KindString, adm.KindBoolean, adm.KindDateTime:
		return c, keyKind == c.Kind()
	}
	return adm.Value{}, false
}

// pickIndexRange scans the WHERE conjuncts for comparisons of
// alias.field against a constant where field carries a secondary
// B-tree index, and folds every such conjunct on the chosen field into
// one [lo, hi] key range. The first indexed field found wins.
func pickIndexRange(ctx *Context, ds *lsm.Dataset, alias string, where sqlpp.Expr) (field, idxName string, idxs []*lsm.BTreeIndex, lo, hi index.Bound, ok bool) {
	lo, hi = index.Unbounded(), index.Unbounded()
	for _, conj := range splitConjuncts(where) {
		f, op, v, sok := sargable(conj, alias, ctx.Params)
		if !sok {
			continue
		}
		if field == "" {
			name, insts := ds.BTreeIndexForField(f)
			if name == "" {
				continue
			}
			field, idxName, idxs = f, name, insts
		} else if f != field {
			continue
		}
		switch op {
		case "=":
			lo = tightenLo(lo, index.Include(v))
			hi = tightenHi(hi, index.Include(v))
		case ">":
			lo = tightenLo(lo, index.Exclude(v))
		case ">=":
			lo = tightenLo(lo, index.Include(v))
		case "<":
			hi = tightenHi(hi, index.Exclude(v))
		case "<=":
			hi = tightenHi(hi, index.Include(v))
		}
	}
	return field, idxName, idxs, lo, hi, field != ""
}

// sargable matches one conjunct of the shape `alias.field OP const` or
// `const OP alias.field` (OP flipped), where const is a literal or a
// bound parameter. Unknown-valued constants are not sargable (the
// predicate is uniformly NULL; the full scan handles it).
func sargable(e sqlpp.Expr, alias string, params map[string]adm.Value) (field, op string, val adm.Value, ok bool) {
	b, isBin := e.(*sqlpp.Binary)
	if !isBin {
		return "", "", adm.Value{}, false
	}
	switch b.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return "", "", adm.Value{}, false
	}
	if f, fok := aliasField(b.L, alias); fok {
		if v, vok := constOperand(b.R, params); vok && !v.IsUnknown() {
			return f, b.Op, v, true
		}
		return "", "", adm.Value{}, false
	}
	if f, fok := aliasField(b.R, alias); fok {
		if v, vok := constOperand(b.L, params); vok && !v.IsUnknown() {
			return f, flipOp(b.Op), v, true
		}
	}
	return "", "", adm.Value{}, false
}

// aliasField matches alias.field and returns the field name.
func aliasField(e sqlpp.Expr, alias string) (string, bool) {
	fa, ok := e.(*sqlpp.FieldAccess)
	if !ok {
		return "", false
	}
	base, ok := fa.Base.(*sqlpp.Ident)
	if !ok || base.Name != alias {
		return "", false
	}
	return fa.Field, true
}

func constOperand(e sqlpp.Expr, params map[string]adm.Value) (adm.Value, bool) {
	switch n := e.(type) {
	case *sqlpp.Literal:
		return n.Val, true
	case *sqlpp.Param:
		v, ok := params[n.Name]
		return v, ok
	}
	return adm.Value{}, false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// tightenLo keeps the more restrictive (greater, or exclusive on a
// tie) of two lower bounds.
func tightenLo(a, b index.Bound) index.Bound {
	if a.Unbounded() {
		return b
	}
	if b.Unbounded() {
		return a
	}
	ak, _ := a.Key()
	bk, _ := b.Key()
	switch c := adm.Compare(bk, ak); {
	case c > 0:
		return b
	case c < 0:
		return a
	case !b.Inclusive():
		return b
	}
	return a
}

// tightenHi keeps the more restrictive (smaller, or exclusive on a
// tie) of two upper bounds.
func tightenHi(a, b index.Bound) index.Bound {
	if a.Unbounded() {
		return b
	}
	if b.Unbounded() {
		return a
	}
	ak, _ := a.Key()
	bk, _ := b.Key()
	switch c := adm.Compare(bk, ak); {
	case c < 0:
		return b
	case c > 0:
		return a
	case !b.Inclusive():
		return b
	}
	return a
}
