// Package genplan generates random but valid (schema, data, physical plan)
// cases for differential testing of the execution engine against the
// refexec reference interpreter.
//
// Every case is a pure function of (seed, scenario): the generator draws all
// randomness from a single math/rand source, so a failing case reproduces
// from its seed alone and Bytes() is byte-identical across runs and
// GOMAXPROCS settings.
//
// The generated data obeys the constraints that make bit-exact differential
// comparison valid:
//
//   - no NaN and no negative-zero float values (the engine hashes join and
//     group keys by their bit patterns but compares them with ==, so -0.0
//     and +0.0 would land in different hash chains while comparing equal);
//   - join keys have matching column kinds on both sides;
//   - NULL slots hold the type's zero value, because null flags are dropped
//     at every materialization boundary and the raw slot value becomes
//     visible downstream;
//   - hash keys (join and group-by) are only drawn from columns whose values
//     come verbatim from base tables — arithmetic map columns can produce
//     -0.0 (e.g. 0 * negative) and are never used as hash keys, though they
//     are freely aggregated, sorted, and compared.
//
// Cardinality annotations, by contrast, are deliberately adversarial: a
// random subset of cases carries negative, absurdly large, NaN, or ±Inf
// annotations, because execution results must not depend on annotations
// (they only steer hash-table presizing).
package genplan

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// Scenario selects the interesting state a generated case pins down.
type Scenario uint8

// Scenarios.
const (
	// Default generates unconstrained random cases.
	Default Scenario = iota
	// EmptyInput gives the first table zero rows.
	EmptyInput
	// SingleRow gives every table exactly one row.
	SingleRow
	// AllNull makes at least one column entirely NULL.
	AllNull
	// DupJoinKeys forces a join whose keys are drawn from a three-value
	// domain, producing heavy duplicate-key chains.
	DupJoinKeys
	// GroupGrowth forces a group-by with far more groups than the initial
	// hash-table capacity (its annotation is pinned to zero), driving the
	// open-addressing table through several 3/4-load growths.
	GroupGrowth
	// NumScenarios is the number of scenarios (for seed-to-scenario mapping).
	NumScenarios
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case Default:
		return "default"
	case EmptyInput:
		return "empty-input"
	case SingleRow:
		return "single-row"
	case AllNull:
		return "all-null"
	case DupJoinKeys:
		return "dup-join-keys"
	case GroupGrowth:
		return "group-growth"
	default:
		return fmt.Sprintf("Scenario(%d)", uint8(s))
	}
}

// Case is one generated differential-test case.
type Case struct {
	Seed     int64
	Scenario Scenario
	// DB holds the generated tables the plan scans.
	DB *storage.Database
	// Root is a valid physical plan over DB, with (possibly hostile)
	// cardinality annotations.
	Root *plan.Node
	// FiniteCards is false when hostile NaN/±Inf annotations were injected
	// (JSON plan serialization cannot represent those).
	FiniteCards bool
}

// vocab is the string-column value domain. Small, so string predicates and
// string join keys actually select and match.
var vocab = [...]string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}

// likePatterns exercise %, _, exact, and never-matching shapes.
var likePatterns = [...]string{"%a%", "%ta", "be_a", "g%", "%", "z_t%", "nomatch", "_____"}

// colInfo tracks one output column of a stream during generation.
type colInfo struct {
	name string
	kind storage.Type
	// hashSafe marks columns whose values come verbatim from base-table
	// data (no arithmetic), making them safe as join/group-by hash keys.
	hashSafe bool
}

// stream is a plan under construction plus generator-side column metadata.
type stream struct {
	node *plan.Node
	cols []colInfo
}

type gen struct {
	rng       *rand.Rand
	sc        Scenario
	nameN     int
	nonFinite bool
}

func (g *gen) name(prefix string) string {
	g.nameN++
	return fmt.Sprintf("%s%d", prefix, g.nameN)
}

// Generate builds the case for (seed, scenario).
func Generate(seed int64, sc Scenario) *Case {
	g := &gen{rng: rand.New(rand.NewSource(seed)), sc: sc}
	c := &Case{Seed: seed, Scenario: sc}

	nTables := 1
	if sc == DupJoinKeys || (sc != GroupGrowth && g.rng.Intn(2) == 0) {
		nTables = 2
	}
	tables := make([]*storage.Table, nTables)
	for i := range tables {
		tables[i] = g.genTable(i)
	}
	c.DB = storage.MustNewDatabase(fmt.Sprintf("gen%d", seed), tables...)

	st := g.genScan(tables[0], 0)
	if nTables == 2 {
		probe := g.genScan(tables[1], 1)
		if joined, ok := g.genJoin(st, probe); ok {
			st = joined
		} else {
			// No compatible key pair (possible outside DupJoinKeys, which
			// guarantees matching int key columns): continue single-table.
			st = probe
		}
	}
	st = g.genPostOps(st)
	c.Root = st.node

	g.annotate(c.Root)
	c.FiniteCards = !g.nonFinite
	return c
}

// genTable builds table ti with scenario-appropriate shape and data.
func (g *gen) genTable(ti int) *storage.Table {
	nCols := 2 + g.rng.Intn(3)
	rows := 0
	switch g.sc {
	case Default, AllNull:
		rows = 8 + g.rng.Intn(120)
	case EmptyInput:
		if ti == 0 {
			rows = 0
		} else {
			rows = 1 + g.rng.Intn(20)
		}
	case SingleRow:
		rows = 1
	case DupJoinKeys:
		rows = 40 + g.rng.Intn(80)
	case GroupGrowth:
		rows = 420 + g.rng.Intn(200)
	}
	intDomain := int64(12)
	if g.sc == DupJoinKeys {
		intDomain = 3
	}
	if g.sc == GroupGrowth {
		intDomain = 160
	}

	allNullCol := -1
	if g.sc == AllNull {
		allNullCol = g.rng.Intn(nCols)
	}

	cols := make([]storage.Column, nCols)
	for ci := range cols {
		kind := storage.Type(g.rng.Intn(3))
		if ci == 0 {
			// Column 0 is always Int64 so joins and group-bys have a key
			// column of matching kind available on every table.
			kind = storage.Int64
		}
		col := storage.Column{Name: fmt.Sprintf("t%dc%d", ti, ci), Kind: kind}
		withNulls := ci == allNullCol || g.rng.Intn(4) == 0
		if withNulls && rows > 0 {
			col.Nulls = make([]bool, rows)
		}
		for r := 0; r < rows; r++ {
			null := false
			if col.Nulls != nil {
				null = ci == allNullCol || g.rng.Intn(5) == 0
				col.Nulls[r] = null
			}
			switch kind {
			case storage.Int64:
				v := g.rng.Int63n(intDomain) - intDomain/4
				if null {
					v = 0
				}
				col.Ints = append(col.Ints, v)
			case storage.Float64:
				// Step-0.125 grid in [-20, 80): negatives and exact zeros,
				// but never NaN and never -0.0.
				v := float64(g.rng.Intn(800))/8.0 - 20
				if null {
					v = 0
				}
				col.Flts = append(col.Flts, v)
			case storage.String:
				s := vocab[g.rng.Intn(len(vocab))]
				if null {
					s = ""
				}
				col.Strs = append(col.Strs, s)
			}
		}
		cols[ci] = col
	}
	return storage.MustNewTable(fmt.Sprintf("tbl%d", ti), cols...)
}

// genScan scans all columns of t in a random order with 0-2 pushed-down
// predicates.
func (g *gen) genScan(t *storage.Table, ti int) stream {
	perm := g.rng.Perm(len(t.Columns))
	cols := make([]colInfo, len(perm))
	for i, ci := range perm {
		cols[i] = colInfo{name: t.Columns[ci].Name, kind: t.Columns[ci].Kind, hashSafe: true}
	}
	nPreds := g.rng.Intn(3)
	if g.sc == GroupGrowth {
		nPreds = 0 // keep every row so the group count stays high
	}
	preds := make([]expr.BoolExpr, 0, nPreds)
	for i := 0; i < nPreds; i++ {
		preds = append(preds, g.genPred(cols, 0))
	}
	return stream{node: plan.NewTableScan(t, perm, preds...), cols: cols}
}

func (g *gen) colRef(cols []colInfo, i int) *expr.ColRef {
	return expr.Col(i, cols[i].name, cols[i].kind)
}

// genConst draws a constant for comparisons against a column of the given
// kind, sometimes cross-typed (the engine coerces: float constants truncate
// against integer columns, integer constants widen against float columns).
func (g *gen) genConst(kind storage.Type) *expr.Const {
	switch kind {
	case storage.Int64:
		if g.rng.Intn(2) == 0 {
			return expr.ConstFloat(float64(g.rng.Intn(24)) - 6.5)
		}
		return expr.ConstInt(g.rng.Int63n(16) - 4)
	case storage.Float64:
		if g.rng.Intn(2) == 0 {
			return expr.ConstInt(g.rng.Int63n(60) - 10)
		}
		return expr.ConstFloat(float64(g.rng.Intn(800))/8.0 - 20)
	default:
		return expr.ConstString(vocab[g.rng.Intn(len(vocab))])
	}
}

// sameKindConst draws a constant of exactly the column's kind (BETWEEN reads
// the constant field matching the column kind without coercion).
func (g *gen) sameKindConst(kind storage.Type) *expr.Const {
	switch kind {
	case storage.Int64:
		return expr.ConstInt(g.rng.Int63n(16) - 4)
	case storage.Float64:
		return expr.ConstFloat(float64(g.rng.Intn(800))/8.0 - 20)
	default:
		return expr.ConstString(vocab[g.rng.Intn(len(vocab))])
	}
}

// genPred draws one predicate over the given schema. depth bounds OR
// recursion.
func (g *gen) genPred(cols []colInfo, depth int) expr.BoolExpr {
	kindOf := func(i int) storage.Type { return cols[i].kind }
	i := g.rng.Intn(len(cols))
	switch g.rng.Intn(6) {
	case 0: // comparison
		return expr.NewCmp(expr.CmpOp(g.rng.Intn(6)), g.colRef(cols, i), g.genConst(kindOf(i)))
	case 1: // between (occasionally inverted bounds: legal, selects nothing)
		lo, hi := g.sameKindConst(kindOf(i)), g.sameKindConst(kindOf(i))
		if g.rng.Intn(4) != 0 {
			if (kindOf(i) == storage.Int64 && lo.I > hi.I) ||
				(kindOf(i) == storage.Float64 && lo.F > hi.F) ||
				(kindOf(i) == storage.String && lo.S > hi.S) {
				lo, hi = hi, lo
			}
		}
		return expr.NewBetween(g.colRef(cols, i), lo, hi)
	case 2: // in-list (over a float column: uniformly false, by contract)
		if kindOf(i) == storage.String {
			n := 1 + g.rng.Intn(3)
			vals := make([]string, n)
			for k := range vals {
				vals[k] = vocab[g.rng.Intn(len(vocab))]
			}
			return expr.NewInListStrings(g.colRef(cols, i), vals)
		}
		n := 1 + g.rng.Intn(4)
		vals := make([]int64, n)
		for k := range vals {
			vals[k] = g.rng.Int63n(16) - 4
		}
		return expr.NewInListInts(g.colRef(cols, i), vals)
	case 3: // like (over a non-string column: uniformly false, by contract)
		return expr.NewLike(g.colRef(cols, i), likePatterns[g.rng.Intn(len(likePatterns))])
	case 4: // column-column comparison (strings read as 0)
		j := g.rng.Intn(len(cols))
		return expr.NewColCmp(expr.CmpOp(g.rng.Intn(6)), g.colRef(cols, i), g.colRef(cols, j))
	default: // disjunction
		if depth >= 1 {
			return expr.NewCmp(expr.CmpOp(g.rng.Intn(6)), g.colRef(cols, i), g.genConst(kindOf(i)))
		}
		return expr.NewOr(g.genPred(cols, depth+1), g.genPred(cols, depth+1))
	}
}

// genJoin joins build onto probe over 1-2 key pairs of matching kinds drawn
// from hash-safe columns. Returns false when no compatible pair exists.
func (g *gen) genJoin(build, probe stream) (stream, bool) {
	type pair struct{ b, p int }
	var pairs []pair
	for bi, bc := range build.cols {
		if !bc.hashSafe {
			continue
		}
		for pi, pc := range probe.cols {
			if pc.hashSafe && pc.kind == bc.kind {
				pairs = append(pairs, pair{bi, pi})
			}
		}
	}
	if len(pairs) == 0 {
		return stream{}, false
	}
	nKeys := 1
	if len(pairs) > 1 && g.rng.Intn(3) == 0 {
		nKeys = 2
	}
	first := pairs[g.rng.Intn(len(pairs))]
	buildKeys, probeKeys := []int{first.b}, []int{first.p}
	if nKeys == 2 {
		second := pairs[g.rng.Intn(len(pairs))]
		if second.b != first.b && second.p != first.p {
			buildKeys = append(buildKeys, second.b)
			probeKeys = append(probeKeys, second.p)
		}
	}

	// Payload: a random subset of build columns, without repeats (sometimes
	// empty — the join then only carries the probe side).
	var payload []int
	for bi := range build.cols {
		if g.rng.Intn(3) != 0 {
			payload = append(payload, bi)
		}
	}

	node := plan.NewHashJoin(build.node, probe.node, buildKeys, probeKeys, payload)
	cols := append([]colInfo(nil), probe.cols...)
	for _, bi := range payload {
		cols = append(cols, build.cols[bi])
	}
	return stream{node: node, cols: cols}, true
}

// genPostOps appends a random chain of unary operators.
func (g *gen) genPostOps(st stream) stream {
	if g.sc == GroupGrowth {
		// Group on the high-cardinality int column (pinned to a zero
		// annotation later, so the hash table starts at minimum capacity).
		key := -1
		for i, c := range st.cols {
			if c.kind == storage.Int64 && c.hashSafe {
				key = i
				break
			}
		}
		st = g.genGroupByOn(st, key)
		if g.rng.Intn(2) == 0 {
			st = g.genSort(st)
		}
		return st
	}
	nOps := g.rng.Intn(4)
	if g.sc == DupJoinKeys && nOps == 0 {
		nOps = 1
	}
	for i := 0; i < nOps; i++ {
		switch g.rng.Intn(6) {
		case 0:
			st = stream{node: plan.NewFilter(st.node, g.genPred(st.cols, 0)), cols: st.cols}
		case 1:
			st = g.genMap(st)
		case 2:
			st = g.genGroupByOn(st, -2)
		case 3:
			st = g.genSort(st)
		case 4:
			st = g.genWindow(st)
		case 5:
			st = g.genLimit(st)
		}
	}
	return st
}

// genMap either appends computed columns or projects a subset.
func (g *gen) genMap(st stream) stream {
	if g.rng.Intn(3) == 0 {
		// Projection: keep a random non-empty subset in random order.
		var keep []int
		for i := range st.cols {
			if g.rng.Intn(2) == 0 {
				keep = append(keep, i)
			}
		}
		if len(keep) == 0 {
			keep = []int{g.rng.Intn(len(st.cols))}
		}
		cols := make([]colInfo, len(keep))
		for i, ci := range keep {
			cols[i] = st.cols[ci]
		}
		return stream{node: plan.Project(st.node, keep), cols: cols}
	}
	n := 1 + g.rng.Intn(2)
	names := make([]string, n)
	exprs := make([]expr.ValueExpr, n)
	cols := append([]colInfo(nil), st.cols...)
	for i := 0; i < n; i++ {
		names[i] = g.name("m")
		exprs[i] = g.genArith(st.cols, 0)
		cols = append(cols, colInfo{name: names[i], kind: storage.Float64, hashSafe: false})
	}
	return stream{node: plan.NewMap(st.node, names, exprs), cols: cols}
}

// genArith draws an arithmetic value expression (always Float64; division by
// zero yields zero; string operands read as 0).
func (g *gen) genArith(cols []colInfo, depth int) expr.ValueExpr {
	operand := func() expr.ValueExpr {
		if depth < 1 && g.rng.Intn(4) == 0 {
			return g.genArith(cols, depth+1)
		}
		if g.rng.Intn(4) == 0 {
			if g.rng.Intn(2) == 0 {
				return expr.ConstInt(g.rng.Int63n(9) - 2)
			}
			return expr.ConstFloat(float64(g.rng.Intn(64))/4.0 - 4)
		}
		i := g.rng.Intn(len(cols))
		return g.colRef(cols, i)
	}
	return expr.NewArith(expr.ArithOp(g.rng.Intn(4)), operand(), operand())
}

// genGroupByOn groups by the given column (-2: choose randomly, possibly a
// global aggregate) with 1-3 aggregates over arbitrary columns.
func (g *gen) genGroupByOn(st stream, key int) stream {
	var groupCols []int
	switch {
	case key >= 0:
		groupCols = []int{key}
	case key == -2:
		// 0-2 hash-safe group columns; zero means a global aggregate.
		var safe []int
		for i, c := range st.cols {
			if c.hashSafe {
				safe = append(safe, i)
			}
		}
		g.rng.Shuffle(len(safe), func(a, b int) { safe[a], safe[b] = safe[b], safe[a] })
		n := g.rng.Intn(3)
		if n > len(safe) {
			n = len(safe)
		}
		groupCols = append(groupCols, safe[:n]...)
	}
	nAggs := 1 + g.rng.Intn(3)
	aggs := make([]plan.Agg, nAggs)
	names := make([]string, nAggs)
	for i := range aggs {
		aggs[i] = plan.Agg{Fn: plan.AggFn(g.rng.Intn(5)), Col: g.rng.Intn(len(st.cols))}
		names[i] = g.name("a")
	}
	node := plan.NewGroupBy(st.node, groupCols, aggs, names)
	cols := make([]colInfo, 0, len(node.Schema))
	for _, ci := range groupCols {
		cols = append(cols, st.cols[ci])
	}
	for i, a := range aggs {
		safe := a.Fn == plan.AggCount || st.cols[a.Col].hashSafe
		cols = append(cols, colInfo{name: names[i], kind: node.Schema[len(groupCols)+i].Kind, hashSafe: safe})
	}
	return stream{node: node, cols: cols}
}

// genSort sorts by 1-2 columns, sometimes with a desc vector shorter than
// the key list (missing entries sort ascending).
func (g *gen) genSort(st stream) stream {
	n := 1 + g.rng.Intn(2)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = g.rng.Intn(len(st.cols))
	}
	desc := make([]bool, g.rng.Intn(n+1))
	for i := range desc {
		desc[i] = g.rng.Intn(2) == 0
	}
	return stream{node: plan.NewSort(st.node, keys, desc), cols: st.cols}
}

// genWindow appends a window-function column. SUM requires a numeric
// hash-safe argument; when none exists the function falls back to
// row_number.
func (g *gen) genWindow(st stream) stream {
	fn := plan.WinFn(g.rng.Intn(3))
	arg := 0
	if fn == plan.WinSum {
		arg = -1
		for i, c := range st.cols {
			if c.kind != storage.String && c.hashSafe {
				arg = i
				break
			}
		}
		if arg < 0 {
			fn, arg = plan.WinRowNumber, 0
		}
	}
	var part, order []int
	if g.rng.Intn(2) == 0 {
		part = []int{g.rng.Intn(len(st.cols))}
	}
	for i := g.rng.Intn(3); i > 0; i-- {
		order = append(order, g.rng.Intn(len(st.cols)))
	}
	name := g.name("w")
	node := plan.NewWindow(st.node, fn, part, order, arg, name)
	cols := append([]colInfo(nil), st.cols...)
	cols = append(cols, colInfo{name: name, kind: node.Schema[len(node.Schema)-1].Kind, hashSafe: fn != plan.WinSum || st.cols[arg].hashSafe})
	return stream{node: node, cols: cols}
}

// genLimit draws a limit, including the N <= 0 edge.
func (g *gen) genLimit(st stream) stream {
	var n int
	switch g.rng.Intn(5) {
	case 0:
		n = -1 - g.rng.Intn(3)
	case 1:
		n = 0
	case 2:
		n = 1
	case 3:
		n = 1 + g.rng.Intn(30)
	default:
		n = 1000 + g.rng.Intn(1000)
	}
	return stream{node: plan.NewLimit(st.node, n), cols: st.cols}
}

// annotate writes random cardinality annotations over the whole plan. About
// a third of cases get hostile values (negative, huge, NaN, ±Inf); the rest
// stay plausible. GroupGrowth pins the group-by's annotation to zero so the
// hash table starts at minimum capacity and must grow.
func (g *gen) annotate(root *plan.Node) {
	hostile := g.rng.Intn(3) == 0
	card := func() plan.Card {
		return plan.Card{True: g.cardValue(hostile), Est: g.cardValue(hostile)}
	}
	root.Walk(func(n *plan.Node) {
		n.OutCard = card()
		for i := range n.PredSel {
			n.PredSel[i] = card()
		}
		if g.sc == GroupGrowth && n.Op == plan.GroupByOp {
			n.OutCard = plan.Card{}
		}
	})
}

func (g *gen) cardValue(hostile bool) float64 {
	if !hostile {
		return float64(g.rng.Intn(300))
	}
	switch g.rng.Intn(6) {
	case 0:
		return float64(g.rng.Intn(300))
	case 1:
		return -float64(1 + g.rng.Intn(100))
	case 2:
		return 1e18
	case 3:
		g.nonFinite = true
		return math.NaN()
	case 4:
		g.nonFinite = true
		return math.Inf(1)
	default:
		g.nonFinite = true
		return math.Inf(-1)
	}
}

// Bytes renders the full case — data, plan, annotations — as a
// deterministic byte string for replayability tests.
func (c *Case) Bytes() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "seed=%d scenario=%s finite=%v\n", c.Seed, c.Scenario, c.FiniteCards)
	for _, t := range c.DB.Tables {
		fmt.Fprintf(&b, "table %s rows=%d\n", t.Name, t.NumRows())
		for i := range t.Columns {
			col := &t.Columns[i]
			fmt.Fprintf(&b, "  col %s kind=%s ints=%v flts=%v strs=%q nulls=%v\n",
				col.Name, col.Kind, col.Ints, col.Flts, col.Strs, col.Nulls)
		}
	}
	b.WriteString(c.Root.Explain())
	c.Root.Walk(func(n *plan.Node) {
		fmt.Fprintf(&b, "node %s out=(%g,%g)\n", n, n.OutCard.True, n.OutCard.Est)
	})
	return b.Bytes()
}
