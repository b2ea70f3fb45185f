// Package plan defines physical query plans for the engine and their
// decomposition into pipelines.
//
// A physical plan is a tree of operators annotated with cardinalities (both
// measured/"true" and estimated), tuple widths, and — for table scans — the
// pushed-down predicate list with per-predicate selectivities. This is the
// "physical query plan with annotations" that T3 consumes (§2.1 of the
// paper).
//
// The package also implements the paper's pipeline-based plan representation
// (§2.2): a plan is decomposed into pipelines, each starting at a scan
// (either a base-table scan or the scan stage of a pipeline breaker) and
// ending at the build stage of the next breaker or at the query result.
package plan

import (
	"fmt"
	"strings"

	"t3/internal/engine/expr"
	"t3/internal/engine/storage"
)

// OpType enumerates physical operators.
type OpType uint8

// Physical operator types.
const (
	TableScanOp OpType = iota
	FilterOp
	MapOp
	HashJoinOp
	GroupByOp
	SortOp
	WindowOp
	MaterializeOp
	LimitOp
	numOpTypes
)

// NumOpTypes is the number of distinct physical operator types.
const NumOpTypes = int(numOpTypes)

// String returns the operator name.
func (t OpType) String() string {
	switch t {
	case TableScanOp:
		return "TableScan"
	case FilterOp:
		return "Filter"
	case MapOp:
		return "Map"
	case HashJoinOp:
		return "HashJoin"
	case GroupByOp:
		return "GroupBy"
	case SortOp:
		return "Sort"
	case WindowOp:
		return "Window"
	case MaterializeOp:
		return "Materialize"
	case LimitOp:
		return "Limit"
	default:
		return fmt.Sprintf("Op(%d)", uint8(t))
	}
}

// Stage is the role an operator plays within a particular pipeline (§3,
// Figure 4 of the paper).
type Stage uint8

// Operator stages.
const (
	// StageBuild consumes tuples and materializes state (hash-table build,
	// aggregation, sort input collection).
	StageBuild Stage = iota
	// StageProbe consumes tuples from the RIGHT stream, probes materialized
	// state, and emits tuples.
	StageProbe
	// StageScan produces tuples from a base table or materialized state.
	StageScan
	// StagePassThrough consumes and re-emits tuples (filter, map, limit).
	StagePassThrough
	numStages
)

// NumStages is the number of distinct stage kinds.
const NumStages = int(numStages)

// String returns the stage name.
func (s Stage) String() string {
	switch s {
	case StageBuild:
		return "Build"
	case StageProbe:
		return "Probe"
	case StageScan:
		return "Scan"
	case StagePassThrough:
		return "PassThrough"
	default:
		return fmt.Sprintf("Stage(%d)", uint8(s))
	}
}

// ColMeta describes one output column of an operator.
type ColMeta struct {
	Name string
	Kind storage.Type
}

// SchemaWidth returns the summed byte width of the given schema.
func SchemaWidth(schema []ColMeta) int {
	w := 0
	for _, c := range schema {
		w += c.Kind.Width()
	}
	return w
}

// AggFn enumerates aggregate functions.
type AggFn uint8

// Aggregate functions.
const (
	AggCount AggFn = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name of the aggregate.
func (f AggFn) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "avg"
	}
}

// Agg is one aggregate computation: Fn over input column Col (ignored for
// COUNT).
type Agg struct {
	Fn  AggFn
	Col int
}

// WinFn enumerates window functions.
type WinFn uint8

// Window functions.
const (
	WinRowNumber WinFn = iota
	WinRank
	WinSum
)

// String returns the SQL name of the window function.
func (f WinFn) String() string {
	switch f {
	case WinRowNumber:
		return "row_number"
	case WinRank:
		return "rank"
	default:
		return "sum"
	}
}

// Card holds the true (measured) and estimated values of a cardinality
// annotation. T3 trains and predicts from either, selected by CardMode.
type Card struct {
	True float64
	Est  float64
}

// CardMode selects which cardinality annotation featurization reads.
type CardMode uint8

// Cardinality modes.
const (
	// TrueCards uses measured cardinalities (the paper's "perfect
	// cardinalities" setting).
	TrueCards CardMode = iota
	// EstCards uses estimator outputs (the paper's "estimated
	// cardinalities" setting).
	EstCards
)

// Get returns the value selected by the mode.
func (c Card) Get(m CardMode) float64 {
	if m == EstCards {
		return c.Est
	}
	return c.True
}

// Node is one physical operator in a plan tree. Left is the (only or left)
// input; Right is the right input of binary operators. Operator-specific
// fields are populated according to Op.
type Node struct {
	Op    OpType
	Left  *Node
	Right *Node

	// OutCard is the cardinality of the operator's OUT stream.
	OutCard Card

	// Schema is the operator's output schema.
	Schema []ColMeta

	// TableScan fields.
	Table      *storage.Table
	TableName  string
	ScanCols   []int           // column indices into the base table
	Predicates []expr.BoolExpr // pushed-down conjuncts, evaluated in order
	// PredSel[i] is the selectivity of predicate i among tuples that reach
	// it (predicates short-circuit in order).
	PredSel []Card
	// ScanCard is the base-table cardinality (exact in both modes).
	ScanCard float64

	// Filter fields.
	FilterPred expr.BoolExpr

	// Map fields: computed columns appended to the input schema.
	MapExprs []expr.ValueExpr
	MapNames []string

	// HashJoin fields: build on Left, probe with Right. BuildKeys index into
	// Left's schema, ProbeKeys into Right's schema. BuildPayload lists the
	// Left columns carried into the output (key columns may repeat).
	BuildKeys    []int
	ProbeKeys    []int
	BuildPayload []int
	// BuildWidth, when > 0, overrides the materialized bytes per build
	// tuple derived from BuildKeys/BuildPayload (used by deserialized
	// plans whose key/payload lists are reconstructed).
	BuildWidth int

	// GroupBy fields.
	GroupCols []int
	Aggs      []Agg
	AggNames  []string

	// Sort fields.
	SortCols []int
	SortDesc []bool

	// Window fields.
	WinFunc      WinFn
	WinPartition []int
	WinOrder     []int
	WinArg       int

	// Limit fields.
	LimitN int

	// mapReplaces marks Map nodes whose expressions replace the input schema
	// (projection) instead of appending to it.
	mapReplaces bool
}

// InCard returns the cardinality of the node's IN stream (its left/only
// child's OUT stream, or the base-table cardinality for scans).
func (n *Node) InCard(m CardMode) float64 {
	if n.Op == TableScanOp {
		return n.ScanCard
	}
	if n.Left != nil {
		return n.Left.OutCard.Get(m)
	}
	return 0
}

// RightCard returns the cardinality of the node's RIGHT stream.
func (n *Node) RightCard(m CardMode) float64 {
	if n.Right != nil {
		return n.Right.OutCard.Get(m)
	}
	return 0
}

// InWidth returns the tuple width in bytes of the node's IN stream.
func (n *Node) InWidth() int {
	if n.Op == TableScanOp {
		return SchemaWidth(n.Schema)
	}
	if n.Left != nil {
		return SchemaWidth(n.Left.Schema)
	}
	return 0
}

// OutWidth returns the tuple width in bytes of the node's OUT stream.
func (n *Node) OutWidth() int { return SchemaWidth(n.Schema) }

// HashTupleWidth returns the bytes per tuple a hash join materializes in its
// hash table: BuildWidth when set, else the widths of the build key and
// payload columns. It is the one definition the featurizer, the wire codec
// and the plan JSON codec share.
func (n *Node) HashTupleWidth() int {
	if n.BuildWidth > 0 {
		return n.BuildWidth
	}
	w := 0
	for _, ci := range n.BuildKeys {
		w += n.Left.Schema[ci].Kind.Width()
	}
	for _, ci := range n.BuildPayload {
		w += n.Left.Schema[ci].Kind.Width()
	}
	return w
}

// NewTableScan builds a table-scan node over the given columns of t with
// pushed-down predicates. Column references inside the predicates must be
// resolved against the scan's output schema (positions in cols).
func NewTableScan(t *storage.Table, cols []int, preds ...expr.BoolExpr) *Node {
	schema := make([]ColMeta, len(cols))
	for i, ci := range cols {
		schema[i] = ColMeta{Name: t.Columns[ci].Name, Kind: t.Columns[ci].Kind}
	}
	return &Node{
		Op:         TableScanOp,
		Table:      t,
		TableName:  t.Name,
		ScanCols:   cols,
		Predicates: preds,
		PredSel:    make([]Card, len(preds)),
		ScanCard:   float64(t.NumRows()),
		Schema:     schema,
	}
}

// NewFilter builds a filter (pass-through) node.
func NewFilter(in *Node, pred expr.BoolExpr) *Node {
	return &Node{Op: FilterOp, Left: in, FilterPred: pred, Schema: in.Schema}
}

// NewMap builds a map node appending one computed column per expression.
func NewMap(in *Node, names []string, exprs []expr.ValueExpr) *Node {
	schema := append([]ColMeta(nil), in.Schema...)
	for i, e := range exprs {
		schema = append(schema, ColMeta{Name: names[i], Kind: e.Kind()})
	}
	return &Node{Op: MapOp, Left: in, MapExprs: exprs, MapNames: names, Schema: schema}
}

// NewHashJoin builds an inner hash join: the hash table is built over
// build's payload columns keyed by buildKeys; probe tuples stream through.
// The output schema is the probe schema followed by the build payload.
func NewHashJoin(build, probe *Node, buildKeys, probeKeys, buildPayload []int) *Node {
	schema := append([]ColMeta(nil), probe.Schema...)
	for _, ci := range buildPayload {
		schema = append(schema, build.Schema[ci])
	}
	return &Node{
		Op:           HashJoinOp,
		Left:         build,
		Right:        probe,
		BuildKeys:    buildKeys,
		ProbeKeys:    probeKeys,
		BuildPayload: buildPayload,
		Schema:       schema,
	}
}

// NewGroupBy builds a hash-aggregation node grouping by groupCols.
func NewGroupBy(in *Node, groupCols []int, aggs []Agg, aggNames []string) *Node {
	schema := make([]ColMeta, 0, len(groupCols)+len(aggs))
	for _, ci := range groupCols {
		schema = append(schema, in.Schema[ci])
	}
	for i, a := range aggs {
		kind := storage.Float64
		if a.Fn == AggCount {
			kind = storage.Int64
		} else if a.Fn == AggMin || a.Fn == AggMax {
			kind = in.Schema[a.Col].Kind
		}
		schema = append(schema, ColMeta{Name: aggNames[i], Kind: kind})
	}
	return &Node{Op: GroupByOp, Left: in, GroupCols: groupCols, Aggs: aggs, AggNames: aggNames, Schema: schema}
}

// NewSort builds a sort node (full materialize + sort + scan).
func NewSort(in *Node, sortCols []int, desc []bool) *Node {
	return &Node{Op: SortOp, Left: in, SortCols: sortCols, SortDesc: desc, Schema: in.Schema}
}

// NewWindow builds a window node appending one computed column. The window
// operator materializes its input, partitions and orders it, computes the
// function, and scans the result back out.
func NewWindow(in *Node, fn WinFn, partition, order []int, arg int, name string) *Node {
	kind := storage.Int64
	if fn == WinSum {
		kind = storage.Float64
	}
	schema := append([]ColMeta(nil), in.Schema...)
	schema = append(schema, ColMeta{Name: name, Kind: kind})
	return &Node{Op: WindowOp, Left: in, WinFunc: fn, WinPartition: partition, WinOrder: order, WinArg: arg, Schema: schema}
}

// NewMaterialize builds an explicit materialization (pipeline breaker).
func NewMaterialize(in *Node) *Node {
	return &Node{Op: MaterializeOp, Left: in, Schema: in.Schema}
}

// NewLimit builds a limit (pass-through) node.
func NewLimit(in *Node, n int) *Node {
	return &Node{Op: LimitOp, Left: in, LimitN: n, Schema: in.Schema}
}

// Project builds a map-free projection by scanning only the needed columns;
// at the plan level projections are folded into scans and group-bys, so this
// helper simply narrows the schema via a Map of column refs.
func Project(in *Node, cols []int) *Node {
	names := make([]string, len(cols))
	exprs := make([]expr.ValueExpr, len(cols))
	for i, ci := range cols {
		names[i] = in.Schema[ci].Name
		exprs[i] = expr.Col(ci, in.Schema[ci].Name, in.Schema[ci].Kind)
	}
	n := &Node{Op: MapOp, Left: in, MapExprs: exprs, MapNames: names}
	n.Schema = make([]ColMeta, len(cols))
	for i, ci := range cols {
		n.Schema[i] = in.Schema[ci]
	}
	n.mapReplaces = true
	return n
}

// MapReplaces reports whether this Map node's expressions replace the input
// schema (projection) instead of appending to it.
func (n *Node) MapReplaces() bool { return n.mapReplaces }

// IsBreaker reports whether the operator fully materializes its input
// (i.e. its IN stream ends a pipeline).
func (n *Node) IsBreaker() bool {
	switch n.Op {
	case HashJoinOp, GroupByOp, SortOp, WindowOp, MaterializeOp:
		return true
	default:
		return false
	}
}

// Walk visits the plan tree in post-order (left, right, node).
func (n *Node) Walk(visit func(*Node)) {
	if n == nil {
		return
	}
	n.Left.Walk(visit)
	n.Right.Walk(visit)
	visit(n)
}

// Count returns the number of operators in the plan.
func (n *Node) Count() int {
	c := 0
	n.Walk(func(*Node) { c++ })
	return c
}

// String renders a compact single-line description of the operator.
func (n *Node) String() string {
	switch n.Op {
	case TableScanOp:
		var preds []string
		for _, p := range n.Predicates {
			preds = append(preds, p.String())
		}
		s := fmt.Sprintf("TableScan(%s)", n.TableName)
		if len(preds) > 0 {
			s += " [" + strings.Join(preds, " AND ") + "]"
		}
		return s
	case FilterOp:
		return fmt.Sprintf("Filter[%s]", n.FilterPred)
	case MapOp:
		return fmt.Sprintf("Map(%d exprs)", len(n.MapExprs))
	case HashJoinOp:
		return fmt.Sprintf("HashJoin(keys=%v=%v)", n.BuildKeys, n.ProbeKeys)
	case GroupByOp:
		return fmt.Sprintf("GroupBy(%d keys, %d aggs)", len(n.GroupCols), len(n.Aggs))
	case SortOp:
		return fmt.Sprintf("Sort(%v)", n.SortCols)
	case WindowOp:
		return fmt.Sprintf("Window(%s)", n.WinFunc)
	case MaterializeOp:
		return "Materialize"
	case LimitOp:
		return fmt.Sprintf("Limit(%d)", n.LimitN)
	default:
		return n.Op.String()
	}
}

// Explain renders the plan tree as an indented multi-line string.
func (n *Node) Explain() string {
	var sb strings.Builder
	var rec func(*Node, int)
	rec = func(x *Node, depth int) {
		if x == nil {
			return
		}
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(x.String())
		sb.WriteString(fmt.Sprintf("  {card true=%.0f est=%.0f}\n", x.OutCard.True, x.OutCard.Est))
		rec(x.Left, depth+1)
		rec(x.Right, depth+1)
	}
	rec(n, 0)
	return sb.String()
}
