// Package query implements SQL++ evaluation: a scalar expression
// evaluator with the paper's builtin function library, one pull-based
// SELECT executor (scan → join → filter → group → order → project →
// limit, see RowCursor) that runs top-level queries and subqueries
// alike, and the enrichment planner that compiles a stateful UDF into
// the per-batch build phase / per-record probe phase split described in
// Section 4.3 of the paper. A compiled probe hands its matched tuples to
// the same executor's row operators.
package query

import (
	"context"
	"fmt"
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// Env is an immutable binding environment: a persistent linked chain of
// name→value pairs. Binding returns a child env, so tuple fan-out during
// joins shares structure.
type Env struct {
	parent *Env
	name   string
	val    adm.Value
}

// Bind returns a child environment with one extra binding. parent may be
// nil.
func Bind(parent *Env, name string, val adm.Value) *Env {
	return &Env{parent: parent, name: name, val: val}
}

// Lookup resolves a name, innermost binding first.
func (e *Env) Lookup(name string) (adm.Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.val, true
		}
	}
	return adm.Value{}, false
}

// Function is a catalog-registered UDF: either a SQL++ body or a native
// Go implementation (the "Java UDF" analog).
type Function struct {
	Name   string
	Params []string
	Body   sqlpp.Expr                           // SQL++ functions
	Native func([]adm.Value) (adm.Value, error) // native functions
}

// Catalog resolves names during evaluation. The cluster's metadata node
// implements it; tests use lightweight fakes.
type Catalog interface {
	// Dataset resolves a dataset name.
	Dataset(name string) (*lsm.Dataset, bool)
	// Function resolves a UDF name.
	Function(name string) (*Function, bool)
	// Native resolves a namespaced library function (testlib#removeSpecial).
	Native(ns, name string) (func([]adm.Value) (adm.Value, error), bool)
}

// Context carries evaluation state shared across one logical evaluation
// scope (one query, or one computing-job invocation). Dataset snapshots
// are pinned on first access, which implements the paper's record-level
// consistency rule: an invocation sees updates made before it first
// accesses the dataset, and later updates wait for the next invocation.
type Context struct {
	Catalog Catalog

	// Params are the statement parameters bound for this evaluation:
	// $name references resolve here (positional $1, $2, ... bind under
	// "1", "2", ...). Nil means the statement was bound without
	// arguments; referencing a parameter then fails at evaluation.
	Params map[string]adm.Value

	// Std is the caller's cancellation context. Row-producing loops poll
	// it via Err so a cancelled statement stops between rows rather than
	// running to completion. Nil means "never cancelled".
	Std context.Context

	// DisableIndexScan switches off every WHERE pushdown into the scan
	// leaf — the primary-key point lookup and the secondary-index range
	// probe — so the query runs as a full scan; DisableParallelScan
	// switches off the parallel partition scan (see plan_select.go).
	// They exist so benchmarks and plan tests can compare strategies on
	// one dataset; production callers leave them false.
	DisableIndexScan    bool
	DisableParallelScan bool

	mu        sync.Mutex
	snapshots map[string][]*lsm.Snapshot
}

// NewContext returns a fresh evaluation context over the catalog.
func NewContext(cat Catalog) *Context {
	return &Context{Catalog: cat, snapshots: make(map[string][]*lsm.Snapshot)}
}

// Err reports the cancellation state of the caller's context.
func (c *Context) Err() error {
	if c.Std == nil {
		return nil
	}
	return c.Std.Err()
}

// Pin returns the pinned per-partition snapshots of the named dataset,
// taking them on first access.
func (c *Context) Pin(name string) ([]*lsm.Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if snaps, ok := c.snapshots[name]; ok {
		return snaps, nil
	}
	ds, ok := c.Catalog.Dataset(name)
	if !ok {
		return nil, fmt.Errorf("query: unknown dataset %q", name)
	}
	snaps := ds.SnapshotAll()
	c.snapshots[name] = snaps
	return snaps, nil
}

// evalState threads per-evaluation context through the evaluator without
// mutating shared state: st.aggVals holds the current group's aggregate
// values while a grouped row is ordered or projected; st.prepared
// intercepts compiled subqueries during enrichment probing; st.depth
// bounds SELECT and UDF nesting. Subqueries inherit all but aggVals.
// evalState is passed by value.
type evalState struct {
	ctx      *Context
	aggVals  map[*sqlpp.Call]adm.Value
	prepared *PreparedEnrich
	depth    int
}

// withAggVals enters a group context: aggregate calls resolve to the
// values the streaming hash aggregate accumulated for the group.
func (st evalState) withAggVals(vals map[*sqlpp.Call]adm.Value) evalState {
	st.aggVals = vals
	return st
}

func (st evalState) noGroup() evalState {
	st.aggVals = nil
	return st
}

func (st evalState) deeper() (evalState, error) {
	st.depth++
	if st.depth > 64 {
		return st, fmt.Errorf("query: expression nesting too deep (recursive UDF?)")
	}
	return st, nil
}
