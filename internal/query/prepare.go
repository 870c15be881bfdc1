package query

import (
	"fmt"
	"slices"
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/spatial"
	"github.com/ideadb/idea/internal/sqlpp"
)

// PreparedEnrich is the batch-scoped state of an enrichment plan: the
// paper's "intermediate states". Prepare builds it from fresh snapshots;
// between computing-job invocations Refresh brings it up to date by
// applying only the reference changes since the snapshots it reflects,
// so the next invocation observes reference-data updates without a
// rebuild. During an invocation every evaluator of the job uses it
// concurrently (EvalRecord is safe for parallel use); Refresh must not
// overlap an evaluator.
type PreparedEnrich struct {
	plan   *EnrichPlan
	ctx    *Context
	consts map[*sqlpp.SelectExpr]adm.Value
	probes map[*sqlpp.SelectExpr]*preparedSub

	// deltaShards and rebuiltShards count partition refreshes by path:
	// a delta applied by primary key, or a rebuild from a full scan.
	deltaShards, rebuiltShards uint64
}

type preparedSub struct {
	plan     *subPlan
	accesses []*preparedAccess
}

type hashEntry struct {
	key adm.Value
	rec adm.Value
}

type preparedAccess struct {
	plan *accessPlan

	shards []accessShard // one per reference partition; not accessIndexNLJ

	liveIndexes []*lsm.RTreeIndex // accessIndexNLJ
	liveDataset *lsm.Dataset      // accessIndexNLJ (fresh point reads)
}

// accessShard is one reference partition's part of a built access,
// together with the snapshot it reflects.
type accessShard struct {
	src  *lsm.Snapshot
	hash map[uint64][]hashEntry // accessHash
	tree *index.RTree           // accessRTree
	recs []adm.Value            // accessScan
}

// Prepare builds the batch state from fresh snapshots: a Refresh from
// nothing, so every partition is built by a full scan. The scans run in
// parallel across partitions (the cluster's computing job runs one
// build worker per node). It is the per-invocation cost the paper's
// batch-size experiments measure when nothing is kept between batches.
func (plan *EnrichPlan) Prepare(cat Catalog) (*PreparedEnrich, error) {
	pe := plan.unbuilt()
	if err := pe.Refresh(cat); err != nil {
		return nil, err
	}
	return pe, nil
}

// unbuilt returns state that reflects no snapshot yet.
func (plan *EnrichPlan) unbuilt() *PreparedEnrich {
	pe := &PreparedEnrich{
		plan:   plan,
		consts: make(map[*sqlpp.SelectExpr]adm.Value),
		probes: make(map[*sqlpp.SelectExpr]*preparedSub),
	}
	for _, sel := range plan.order {
		if sp := plan.subs[sel]; sp.kind == probeSub {
			ps := &preparedSub{plan: sp}
			for i := range sp.accesses {
				ps.accesses = append(ps.accesses, &preparedAccess{plan: &sp.accesses[i]})
			}
			pe.probes[sel] = ps
		}
	}
	return pe
}

// Refresh pins fresh snapshots in a new Context, so the next invocation
// still sees exactly one consistent snapshot per dataset, and brings
// every access up to date with them. Per reference partition it applies
// only the records changed since the snapshot the partition's state
// reflects (Snapshot.ChangesSince), removing or replacing entries by
// primary key. A partition whose delta is unavailable is rebuilt from a
// full scan: after a merge folded writes from both sides of the old
// snapshot, after the dataset was dropped and recreated, when the
// partition count changed, or for an access whose build expressions
// depend on more than the reference record. Per-batch constants are
// re-evaluated. If Refresh fails, calling it again rebuilds what the
// failure left behind.
func (pe *PreparedEnrich) Refresh(cat Catalog) error {
	return pe.refreshIn(NewContext(cat))
}

// refreshIn refreshes against the snapshots ctx pins.
func (pe *PreparedEnrich) refreshIn(ctx *Context) error {
	for _, sel := range pe.plan.order {
		switch sp := pe.plan.subs[sel]; sp.kind {
		case constSub:
			v, err := evalSubquery(evalState{ctx: ctx}, nil, sel)
			if err != nil {
				return fmt.Errorf("query: %s: const subquery: %w", pe.plan.Name, err)
			}
			pe.consts[sel] = v
		case probeSub:
			for _, pa := range pe.probes[sel].accesses {
				if err := pe.refreshAccess(ctx, pa); err != nil {
					return fmt.Errorf("query: %s: build %s: %w", pe.plan.Name, pa.plan.dataset, err)
				}
			}
		}
	}
	pe.ctx = ctx
	return nil
}

func (pe *PreparedEnrich) refreshAccess(ctx *Context, pa *preparedAccess) error {
	acc := pa.plan
	// Resolve the dataset before pinning: if it is recreated in between,
	// the pinned snapshots belong to new partitions and every shard
	// rebuilds, so the primary key below is only used with its own
	// partitions.
	ds, err := datasetFor(ctx.Catalog, acc.dataset)
	if err != nil {
		return err
	}
	if acc.kind == accessIndexNLJ {
		idx := ds.RTreeIndexForField(acc.indexField)
		if idx == nil {
			return fmt.Errorf("index on %s.%s vanished", acc.dataset, acc.indexField)
		}
		pa.liveIndexes = idx
		pa.liveDataset = ds
		return nil
	}
	snaps, err := ctx.Pin(acc.dataset)
	if err != nil {
		return err
	}
	if len(pa.shards) != len(snaps) {
		pa.shards = make([]accessShard, len(snaps))
	}
	b := shardBuilder{st: evalState{ctx: ctx}, acc: acc, pk: ds.PrimaryKey()}
	delta := make([]bool, len(snaps))
	errs := make([]error, len(snaps))
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			delta[i], errs[i] = b.refresh(&pa.shards[i], snaps[i])
		}(i)
	}
	wg.Wait()
	for i := range snaps {
		if errs[i] != nil {
			return errs[i]
		}
		if delta[i] {
			pe.deltaShards++
		} else {
			pe.rebuiltShards++
		}
	}
	return nil
}

// shardBuilder builds and patches the shards of one access. It is
// shared read-only by the per-partition workers.
type shardBuilder struct {
	st  evalState
	acc *accessPlan
	pk  string // the reference dataset's primary-key field
}

// refresh brings one shard up to snap, by delta when it can. It reports
// whether the delta path was taken.
func (b *shardBuilder) refresh(sh *accessShard, snap *lsm.Snapshot) (delta bool, err error) {
	prev := sh.src
	sh.src = nil // until it reflects snap, a later refresh must rebuild it
	if prev != nil && !b.acc.rebuild {
		changed := false
		ok := snap.ChangesSince(prev, func(key, rec adm.Value) bool {
			changed = true
			if b.acc.kind == accessScan {
				return false // scan shards are rebuilt on any change
			}
			old, _ := prev.Get(key)
			err = b.apply(sh, key, old, rec)
			return err == nil
		})
		if err != nil {
			return false, err
		}
		if ok && !(changed && b.acc.kind == accessScan) {
			sh.src = snap
			return true, nil
		}
	}
	fresh, err := b.build(snap)
	if err != nil {
		return false, err
	}
	*sh = fresh
	return false, nil
}

// build constructs a shard from a full scan of snap.
func (b *shardBuilder) build(snap *lsm.Snapshot) (accessShard, error) {
	sh := accessShard{src: snap}
	var entries []hashEntry
	if b.acc.kind == accessRTree {
		sh.tree = index.NewRTree()
	}
	var err error
	snap.Scan(func(_, rec adm.Value) bool {
		key, rect, in, aerr := b.admit(rec)
		if aerr != nil {
			err = aerr
			return false
		}
		if !in {
			return true
		}
		switch b.acc.kind {
		case accessHash:
			entries = append(entries, hashEntry{key: key, rec: rec})
		case accessRTree:
			sh.tree.Insert(rect, rec)
		default: // accessScan
			sh.recs = append(sh.recs, rec)
		}
		return true
	})
	if err != nil {
		return accessShard{}, err
	}
	if b.acc.kind == accessHash {
		sh.hash = make(map[uint64][]hashEntry, len(entries))
		for _, e := range entries {
			h := adm.Hash(e.key)
			sh.hash[h] = append(sh.hash[h], e)
		}
	}
	return sh, nil
}

// apply patches a hash or R-tree shard for one changed primary key: the
// entry built from the old record (if it was admitted) is removed, or
// replaced in place when the build key did not change, and the new
// record (MISSING for a delete) is added if admitted. A build key that
// changed, or a filter that now fails, thus drops the old entry.
func (b *shardBuilder) apply(sh *accessShard, pk, old, rec adm.Value) error {
	oldKey, oldRect, oldIn, err := b.admit(old)
	if err != nil {
		return err
	}
	newKey, newRect, newIn, err := b.admit(rec)
	if err != nil {
		return err
	}
	samePK := func(r adm.Value) bool { return adm.Equal(r.Field(b.pk), pk) }
	if b.acc.kind == accessRTree {
		if oldIn {
			sh.tree.Delete(oldRect, func(d any) bool { return samePK(d.(adm.Value)) })
		}
		if newIn {
			sh.tree.Insert(newRect, rec)
		}
		return nil
	}
	if oldIn {
		h := adm.Hash(oldKey)
		bucket := sh.hash[h]
		for j := range bucket {
			if !samePK(bucket[j].rec) {
				continue
			}
			if newIn && adm.Equal(oldKey, newKey) {
				bucket[j].rec = rec
				return nil
			}
			if bucket = slices.Delete(bucket, j, j+1); len(bucket) == 0 {
				delete(sh.hash, h)
			} else {
				sh.hash[h] = bucket
			}
			break
		}
	}
	if newIn {
		h := adm.Hash(newKey)
		sh.hash[h] = append(sh.hash[h], hashEntry{key: newKey, rec: rec})
	}
	return nil
}

// admit evaluates the access's build filters and build expression over
// one reference record. in=false means the record does not enter the
// state: it is MISSING (absent or deleted), fails a filter, or has an
// unknown build key or no geometry.
func (b *shardBuilder) admit(rec adm.Value) (key adm.Value, rect spatial.Rect, in bool, err error) {
	if rec.IsMissing() {
		return key, rect, false, nil
	}
	acc := b.acc
	env := Bind(nil, acc.alias, rec)
	for _, f := range acc.filters {
		v, err := eval(b.st, env, f)
		if err != nil || !Truthy(v) {
			return key, rect, false, err
		}
	}
	switch acc.kind {
	case accessHash:
		key, err = eval(b.st, env, acc.buildKey)
		return key, rect, err == nil && !key.IsUnknown(), err
	case accessRTree:
		g, err := eval(b.st, env, acc.buildRect)
		if err != nil {
			return key, rect, false, err
		}
		rect, in = GeometryBounds(g)
		return key, rect, in, nil
	}
	return key, rect, true, nil
}

// EvalRecord enriches one record: the probe phase. A single-element
// result collection is unwrapped to the record itself, which is what the
// feed pipeline stores.
func (pe *PreparedEnrich) EvalRecord(rec adm.Value) (adm.Value, error) {
	st := evalState{ctx: pe.ctx, prepared: pe}
	env := Bind(nil, pe.plan.param, rec)
	v, err := eval(st, env, pe.plan.body)
	if err != nil {
		return adm.Value{}, err
	}
	if v.Kind() == adm.KindArray && len(v.ArrayVal()) == 1 {
		return v.Index(0), nil
	}
	return v, nil
}

// Context exposes the pinned evaluation context (tests inspect it).
func (pe *PreparedEnrich) Context() *Context { return pe.ctx }

// evalCompiled intercepts a compiled subquery during expression
// evaluation. ok=false means the subquery was not compiled and the
// caller should use the generic path. A probe's matched tuples run
// through the cursor's row operators: aggregate, order, project,
// DISTINCT and LIMIT.
func (pe *PreparedEnrich) evalCompiled(st evalState, env *Env, sel *sqlpp.SelectExpr) (adm.Value, bool, error) {
	if v, isConst := pe.consts[sel]; isConst {
		return v, true, nil
	}
	ps, isProbe := pe.probes[sel]
	if !isProbe {
		return adm.Value{}, false, nil
	}
	rc, err := newRowCursor(st.noGroup(), sel, false)
	if err != nil {
		return adm.Value{}, true, err
	}
	err = ps.forEachTuple(st, env, func(tu *Env) bool {
		rc.matched.tuples = append(rc.matched.tuples, tu)
		return true
	})
	if err != nil {
		return adm.Value{}, true, err
	}
	rc.planRows(&rc.matched, collectSelectAggs(sel), false, false)
	v, err := rc.collect()
	return v, true, err
}

// evalCompiledExists intercepts EXISTS over a compiled subquery with
// early termination at the first qualifying tuple.
func (pe *PreparedEnrich) evalCompiledExists(st evalState, env *Env, sel *sqlpp.SelectExpr) (bool, bool, error) {
	if v, isConst := pe.consts[sel]; isConst {
		return len(v.ArrayVal()) > 0, true, nil
	}
	ps, isProbe := pe.probes[sel]
	if !isProbe {
		return false, false, nil
	}
	found := false
	err := ps.forEachTuple(st, env, func(*Env) bool {
		found = true
		return false
	})
	return found, true, err
}

// forEachTuple streams candidate tuples: anchor probe, join expansion,
// FROM-LET binding, then residual filtering. fn returning false stops
// the enumeration (EXISTS early-out).
func (ps *preparedSub) forEachTuple(st evalState, env *Env, fn func(*Env) bool) error {
	st = st.noGroup()
	var expand func(level int, tu *Env) (bool, error)
	expand = func(level int, tu *Env) (bool, error) {
		if level == len(ps.accesses) {
			for _, l := range ps.plan.sel.FromLets {
				v, err := eval(st, tu, l.Expr)
				if err != nil {
					return false, err
				}
				tu = Bind(tu, l.Name, v)
			}
			for _, r := range ps.plan.residuals {
				v, err := eval(st, tu, r)
				if err != nil {
					return false, err
				}
				if !Truthy(v) {
					return true, nil
				}
			}
			return fn(tu), nil
		}
		pa := ps.accesses[level]
		cont := true
		var inner error
		err := pa.probe(st, tu, func(rec adm.Value) bool {
			keepGoing, perr := expand(level+1, Bind(tu, pa.plan.alias, rec))
			if perr != nil {
				inner = perr
				cont = false
				return false
			}
			if !keepGoing {
				cont = false
				return false
			}
			return true
		})
		if err != nil {
			return false, err
		}
		if inner != nil {
			return false, inner
		}
		return cont, nil
	}
	_, err := expand(0, env)
	return err
}

// probe enumerates the records this access yields for the current outer
// bindings.
func (pa *preparedAccess) probe(st evalState, env *Env, fn func(adm.Value) bool) error {
	acc := pa.plan
	switch acc.kind {
	case accessHash:
		key, err := eval(st, env, acc.probeKey)
		if err != nil {
			return err
		}
		if key.IsUnknown() {
			return nil
		}
		h := adm.Hash(key)
		for i := range pa.shards {
			for _, e := range pa.shards[i].hash[h] {
				if adm.Equal(e.key, key) {
					if !fn(e.rec) {
						return nil
					}
				}
			}
		}
	case accessRTree:
		g, err := eval(st, env, acc.probeRect)
		if err != nil {
			return err
		}
		rect, ok := GeometryBounds(g)
		if !ok {
			return nil
		}
		for i := range pa.shards {
			stopped := false
			pa.shards[i].tree.Search(rect, func(e index.RTreeEntry) bool {
				if !fn(e.Data.(adm.Value)) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				return nil
			}
		}
	case accessIndexNLJ:
		g, err := eval(st, env, acc.probeRect)
		if err != nil {
			return err
		}
		rect, ok := GeometryBounds(g)
		if !ok {
			return nil
		}
		if acc.expand > 0 {
			rect = rect.Expand(acc.expand)
		}
		for _, ix := range pa.liveIndexes {
			for _, pk := range ix.Search(rect) {
				rec, found := pa.liveDataset.Get(pk) // fresh read, per paper
				if !found {
					continue
				}
				if keep, err := pa.passesFilters(st, rec); err != nil {
					return err
				} else if !keep {
					continue
				}
				if !fn(rec) {
					return nil
				}
			}
		}
	default: // accessScan
		for i := range pa.shards {
			for _, rec := range pa.shards[i].recs {
				if !fn(rec) {
					return nil
				}
			}
		}
	}
	return nil
}

// passesFilters applies alias-only filters at probe time (index-NLJ
// cannot pre-filter its index).
func (pa *preparedAccess) passesFilters(st evalState, rec adm.Value) (bool, error) {
	if len(pa.plan.filters) == 0 {
		return true, nil
	}
	env := Bind(nil, pa.plan.alias, rec)
	for _, f := range pa.plan.filters {
		v, err := eval(st, env, f)
		if err != nil {
			return false, err
		}
		if !Truthy(v) {
			return false, nil
		}
	}
	return true, nil
}
