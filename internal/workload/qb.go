package workload

import (
	"fmt"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
)

// QB is a small fluent builder for hand-written physical plans (the fixed
// benchmark queries). It resolves column names to positions so queries read
// like SQL instead of index arithmetic.
type QB struct {
	inst *Instance
	node *plan.Node
	// names are the qualified output column names ("table.col" for base
	// columns, plain names for computed ones).
	names []string
}

// Ref resolves a column name within a predicate or expression; see QB.Col.
type Ref func(name string) *expr.ColRef

// Scan starts a plan with a table scan. cols are column names of the table;
// preds build pushed-down predicates using a resolver over those columns.
func (in *Instance) Scan(table string, cols []string, preds ...func(Ref) expr.BoolExpr) *QB {
	t := in.Table(table)
	if t == nil {
		panic(fmt.Sprintf("workload: unknown table %q", table))
	}
	idxs := make([]int, len(cols))
	for i, c := range cols {
		ci := t.ColumnIndex(c)
		if ci < 0 {
			panic(fmt.Sprintf("workload: table %s has no column %q", table, c))
		}
		idxs[i] = ci
	}
	ref := func(name string) *expr.ColRef {
		for i, c := range cols {
			if c == name {
				return expr.Col(i, name, t.Columns[idxs[i]].Kind)
			}
		}
		panic(fmt.Sprintf("workload: column %q not scanned from %s", name, table))
	}
	var bes []expr.BoolExpr
	for _, p := range preds {
		bes = append(bes, p(ref))
	}
	q := &QB{inst: in, node: plan.NewTableScan(t, idxs, bes...)}
	for _, c := range cols {
		q.names = append(q.names, table+"."+c)
	}
	return q
}

// Col resolves a qualified output column name to a reference.
func (q *QB) Col(name string) *expr.ColRef {
	i := q.idx(name)
	return expr.Col(i, name, q.node.Schema[i].Kind)
}

func (q *QB) idx(name string) int {
	for i, n := range q.names {
		if n == name {
			return i
		}
	}
	panic(fmt.Sprintf("workload: plan has no column %q (have %v)", name, q.names))
}

// Filter appends a filter node; the predicate resolves against the current
// output columns.
func (q *QB) Filter(pred func(Ref) expr.BoolExpr) *QB {
	q.node = plan.NewFilter(q.node, pred(q.colRef))
	return q
}

func (q *QB) colRef(name string) *expr.ColRef { return q.Col(name) }

// Map appends computed columns.
func (q *QB) Map(names []string, mk func(Ref) []expr.ValueExpr) *QB {
	q.node = plan.NewMap(q.node, names, mk(q.colRef))
	q.names = append(q.names, names...)
	return q
}

// JoinBuild hash-joins a build-side sub-plan into this (probe-side) plan.
// payload lists build-side columns carried into the output.
func (q *QB) JoinBuild(build *QB, buildKey, probeKey string, payload ...string) *QB {
	bk := build.idx(buildKey)
	pk := q.idx(probeKey)
	pls := make([]int, len(payload))
	for i, c := range payload {
		pls[i] = build.idx(c)
	}
	q.node = plan.NewHashJoin(build.node, q.node, []int{bk}, []int{pk}, pls)
	for _, c := range payload {
		q.names = append(q.names, c)
	}
	return q
}

// AggSpec pairs an aggregate function with its input column name.
type AggSpec struct {
	Fn   plan.AggFn
	Col  string // empty for COUNT
	Name string
}

// GroupBy appends a hash aggregation.
func (q *QB) GroupBy(groupCols []string, aggs ...AggSpec) *QB {
	gcs := make([]int, len(groupCols))
	for i, c := range groupCols {
		gcs[i] = q.idx(c)
	}
	pas := make([]plan.Agg, len(aggs))
	names := make([]string, len(aggs))
	for i, a := range aggs {
		pa := plan.Agg{Fn: a.Fn}
		if a.Col != "" {
			pa.Col = q.idx(a.Col)
		}
		pas[i] = pa
		names[i] = a.Name
	}
	q.node = plan.NewGroupBy(q.node, gcs, pas, names)
	newNames := append([]string(nil), groupCols...)
	newNames = append(newNames, names...)
	q.names = newNames
	return q
}

// Sort appends an order-by.
func (q *QB) Sort(cols []string, desc []bool) *QB {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		idxs[i] = q.idx(c)
	}
	q.node = plan.NewSort(q.node, idxs, desc)
	return q
}

// Window appends a window function column.
func (q *QB) Window(fn plan.WinFn, partition, order []string, arg, name string) *QB {
	ps := make([]int, len(partition))
	for i, c := range partition {
		ps[i] = q.idx(c)
	}
	os := make([]int, len(order))
	for i, c := range order {
		os[i] = q.idx(c)
	}
	ai := 0
	if arg != "" {
		ai = q.idx(arg)
	}
	q.node = plan.NewWindow(q.node, fn, ps, os, ai, name)
	q.names = append(q.names, name)
	return q
}

// Limit appends a limit.
func (q *QB) Limit(n int) *QB {
	q.node = plan.NewLimit(q.node, n)
	return q
}

// Project narrows the output to the named columns.
func (q *QB) Project(cols ...string) *QB {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		idxs[i] = q.idx(c)
	}
	q.node = plan.Project(q.node, idxs)
	q.names = append([]string(nil), cols...)
	return q
}

// Materialize appends an explicit materialization.
func (q *QB) Materialize() *QB {
	q.node = plan.NewMaterialize(q.node)
	return q
}

// Build returns the assembled plan root.
func (q *QB) Build() *plan.Node { return q.node }

// Predicate helpers for fixed queries.

// CmpP builds a comparison predicate builder.
func CmpP(op expr.CmpOp, col string, c *expr.Const) func(Ref) expr.BoolExpr {
	return func(r Ref) expr.BoolExpr { return expr.NewCmp(op, r(col), c) }
}

// BetweenP builds a BETWEEN predicate builder.
func BetweenP(col string, lo, hi *expr.Const) func(Ref) expr.BoolExpr {
	return func(r Ref) expr.BoolExpr { return expr.NewBetween(r(col), lo, hi) }
}

// InIntsP builds an integer IN-list predicate builder.
func InIntsP(col string, vals ...int64) func(Ref) expr.BoolExpr {
	return func(r Ref) expr.BoolExpr { return expr.NewInListInts(r(col), vals) }
}

// LikeP builds a LIKE predicate builder.
func LikeP(col, pattern string) func(Ref) expr.BoolExpr {
	return func(r Ref) expr.BoolExpr { return expr.NewLike(r(col), pattern) }
}

// Int returns an integer constant.
func Int(v int64) *expr.Const { return expr.ConstInt(v) }

// Float returns a float constant.
func Float(v float64) *expr.Const { return expr.ConstFloat(v) }
