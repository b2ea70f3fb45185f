package sql

import (
	"fmt"
	"math"
	"strings"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/stats"
	"t3/internal/engine/storage"
)

// Planner turns parsed statements into physical plans over a database.
type Planner struct {
	DB    *storage.Database
	Stats *stats.DBStats
}

// NewPlanner builds a planner; statistics drive greedy join ordering and the
// estimated-cardinality annotations.
func NewPlanner(db *storage.Database, st *stats.DBStats) *Planner {
	if st == nil {
		st = stats.CollectDB(db)
	}
	return &Planner{DB: db, Stats: st}
}

// PlanString parses and plans a SQL string.
func (pl *Planner) PlanString(query string) (*plan.Node, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return pl.Plan(stmt)
}

// Plan converts a parsed SELECT into a physical plan: predicates are pushed
// into scans, joins are ordered greedily by estimated cardinality, and the
// result is annotated with estimated cardinalities.
func (pl *Planner) Plan(stmt *SelectStmt) (*plan.Node, error) {
	b := &binder{pl: pl, stmt: stmt}
	root, err := b.build()
	if err != nil {
		return nil, err
	}
	est := &stats.Estimator{DB: pl.Stats}
	est.Estimate(root)
	return root, nil
}

// boundTable is one FROM/JOIN table with its binding name.
type boundTable struct {
	name string // alias or table name
	tbl  *storage.Table
}

// binder carries the state of planning one statement.
type binder struct {
	pl   *Planner
	stmt *SelectStmt

	tables []boundTable

	// scanCols[t] lists base-column indices scanned from table t, in order.
	scanCols map[string][]int

	// current plan with provenance: out[i] = (tableName, baseColIdx); the
	// qualifier is "" and col -1 for computed columns (tracked by outName).
	root     *plan.Node
	outTab   []string
	outCol   []int
	outNames []string // effective output names (aliases/agg names)
}

// build runs all planning phases.
func (b *binder) build() (*plan.Node, error) {
	if err := b.bindTables(); err != nil {
		return nil, err
	}
	singles, joins, others, err := b.classifyConjuncts()
	if err != nil {
		return nil, err
	}
	if err := b.collectScanColumns(joins); err != nil {
		return nil, err
	}
	if err := b.buildJoins(singles, joins); err != nil {
		return nil, err
	}
	if err := b.applyResidualFilters(others); err != nil {
		return nil, err
	}
	if err := b.buildProjectionAndAggregation(); err != nil {
		return nil, err
	}
	if err := b.buildHaving(); err != nil {
		return nil, err
	}
	if err := b.buildDistinct(); err != nil {
		return nil, err
	}
	if err := b.buildOrderByLimit(); err != nil {
		return nil, err
	}
	return b.root, nil
}

// buildHaving filters aggregated output rows. Column references resolve
// against the output names (group columns and aggregate aliases).
func (b *binder) buildHaving() error {
	if b.stmt.Having == nil {
		return nil
	}
	if len(b.stmt.GroupBy) == 0 && !b.hasAggregates() {
		return fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
	}
	be, err := b.bindBoolByName(b.stmt.Having)
	if err != nil {
		return err
	}
	b.root = plan.NewFilter(b.root, be)
	return nil
}

// buildDistinct deduplicates the output via a group-by over all output
// columns.
func (b *binder) buildDistinct() error {
	if !b.stmt.Distinct {
		return nil
	}
	cols := make([]int, len(b.outNames))
	for i := range cols {
		cols[i] = i
	}
	b.root = plan.NewGroupBy(b.root, cols, nil, nil)
	return nil
}

// bindBoolByName binds a predicate resolving bare columns against output
// names first (aliases included), falling back to base-table provenance.
func (b *binder) bindBoolByName(e Expr) (expr.BoolExpr, error) {
	resolve := func(c *ColumnExpr) (*expr.ColRef, error) {
		if c.Table == "" {
			if i := b.outIndexByName(c.Column); i >= 0 {
				return expr.Col(i, c.Column, b.root.Schema[i].Kind), nil
			}
		}
		rt, ci, err := b.resolveColumn(c)
		if err != nil {
			return nil, err
		}
		pos := b.outPos(rt, ci)
		if pos < 0 {
			return nil, fmt.Errorf("sql: column %s not available after aggregation", c)
		}
		return expr.Col(pos, c.Column, b.root.Schema[pos].Kind), nil
	}
	return b.bindBool(e, resolve)
}

// bindTables resolves FROM and JOIN table references.
func (b *binder) bindTables() error {
	refs := append([]TableRef(nil), b.stmt.From...)
	for _, j := range b.stmt.Joins {
		refs = append(refs, j.Table)
	}
	seen := map[string]bool{}
	for _, r := range refs {
		t := b.pl.DB.Table(r.Table)
		if t == nil {
			return fmt.Errorf("sql: unknown table %q", r.Table)
		}
		name := r.Name()
		if seen[name] {
			return fmt.Errorf("sql: duplicate table name %q (use aliases)", name)
		}
		seen[name] = true
		b.tables = append(b.tables, boundTable{name: name, tbl: t})
	}
	return nil
}

// table returns the bound table by effective name.
func (b *binder) table(name string) *boundTable {
	for i := range b.tables {
		if b.tables[i].name == name {
			return &b.tables[i]
		}
	}
	return nil
}

// resolveColumn finds the table binding a (possibly unqualified) column.
func (b *binder) resolveColumn(c *ColumnExpr) (tableName string, colIdx int, err error) {
	if c.Table != "" {
		bt := b.table(c.Table)
		if bt == nil {
			return "", 0, fmt.Errorf("sql: unknown table %q in %s", c.Table, c)
		}
		ci := bt.tbl.ColumnIndex(c.Column)
		if ci < 0 {
			return "", 0, fmt.Errorf("sql: table %s has no column %q", c.Table, c.Column)
		}
		return bt.name, ci, nil
	}
	found := ""
	idx := -1
	for i := range b.tables {
		if ci := b.tables[i].tbl.ColumnIndex(c.Column); ci >= 0 {
			if found != "" {
				return "", 0, fmt.Errorf("sql: column %q is ambiguous (%s and %s)", c.Column, found, b.tables[i].name)
			}
			found = b.tables[i].name
			idx = ci
		}
	}
	if found == "" {
		return "", 0, fmt.Errorf("sql: unknown column %q", c.Column)
	}
	return found, idx, nil
}

// exprTables collects the effective table names referenced by an AST
// expression.
func (b *binder) exprTables(e Expr, out map[string]bool) error {
	switch x := e.(type) {
	case *ColumnExpr:
		t, _, err := b.resolveColumn(x)
		if err != nil {
			return err
		}
		out[t] = true
	case *BinaryExpr:
		if err := b.exprTables(x.Left, out); err != nil {
			return err
		}
		return b.exprTables(x.Right, out)
	case *BetweenExpr:
		if err := b.exprTables(x.Expr, out); err != nil {
			return err
		}
		if err := b.exprTables(x.Lo, out); err != nil {
			return err
		}
		return b.exprTables(x.Hi, out)
	case *InExpr:
		if err := b.exprTables(x.Expr, out); err != nil {
			return err
		}
		for _, v := range x.List {
			if err := b.exprTables(v, out); err != nil {
				return err
			}
		}
	case *LikeExpr:
		return b.exprTables(x.Expr, out)
	case *CallExpr:
		if x.Arg != nil {
			return b.exprTables(x.Arg, out)
		}
	case *NumberExpr, *StringExpr:
	}
	return nil
}

// flattenAnd splits a conjunction tree into conjuncts.
func flattenAnd(e Expr, out *[]Expr) {
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		flattenAnd(be.Left, out)
		flattenAnd(be.Right, out)
		return
	}
	*out = append(*out, e)
}

// joinEdge is an equi-join conjunct between two tables.
type joinEdge struct {
	ta, tb string
	ca, cb int // base column indices
}

// classifyConjuncts splits WHERE/ON conjuncts into single-table predicates,
// equi-join edges, and residual multi-table predicates.
func (b *binder) classifyConjuncts() (singles map[string][]Expr, joins []joinEdge, others []Expr, err error) {
	var conjuncts []Expr
	if b.stmt.Where != nil {
		flattenAnd(b.stmt.Where, &conjuncts)
	}
	for _, j := range b.stmt.Joins {
		flattenAnd(j.On, &conjuncts)
	}
	singles = map[string][]Expr{}
	for _, c := range conjuncts {
		tabs := map[string]bool{}
		if err := b.exprTables(c, tabs); err != nil {
			return nil, nil, nil, err
		}
		switch len(tabs) {
		case 0:
			return nil, nil, nil, fmt.Errorf("sql: constant predicate %s not supported", c)
		case 1:
			for t := range tabs {
				singles[t] = append(singles[t], c)
			}
		default:
			if edge, ok := b.asJoinEdge(c); ok {
				joins = append(joins, edge)
			} else {
				others = append(others, c)
			}
		}
	}
	return singles, joins, others, nil
}

// asJoinEdge recognizes col = col conjuncts across two tables.
func (b *binder) asJoinEdge(e Expr) (joinEdge, bool) {
	be, ok := e.(*BinaryExpr)
	if !ok || be.Op != "=" {
		return joinEdge{}, false
	}
	lc, lok := be.Left.(*ColumnExpr)
	rc, rok := be.Right.(*ColumnExpr)
	if !lok || !rok {
		return joinEdge{}, false
	}
	lt, lci, err := b.resolveColumn(lc)
	if err != nil {
		return joinEdge{}, false
	}
	rt, rci, err := b.resolveColumn(rc)
	if err != nil || lt == rt {
		return joinEdge{}, false
	}
	return joinEdge{ta: lt, ca: lci, tb: rt, cb: rci}, true
}

// collectScanColumns determines which base columns each table must scan:
// anything referenced by the select list, predicates, grouping, ordering, or
// join keys.
func (b *binder) collectScanColumns(joins []joinEdge) error {
	need := map[string]map[int]bool{}
	add := func(t string, ci int) {
		if need[t] == nil {
			need[t] = map[int]bool{}
		}
		need[t][ci] = true
	}
	var visit func(e Expr) error
	visit = func(e Expr) error {
		switch x := e.(type) {
		case *ColumnExpr:
			t, ci, err := b.resolveColumn(x)
			if err != nil {
				return err
			}
			add(t, ci)
		case *BinaryExpr:
			if err := visit(x.Left); err != nil {
				return err
			}
			return visit(x.Right)
		case *BetweenExpr:
			if err := visit(x.Expr); err != nil {
				return err
			}
			if err := visit(x.Lo); err != nil {
				return err
			}
			return visit(x.Hi)
		case *InExpr:
			if err := visit(x.Expr); err != nil {
				return err
			}
			for _, v := range x.List {
				if err := visit(v); err != nil {
					return err
				}
			}
		case *LikeExpr:
			return visit(x.Expr)
		case *CallExpr:
			if x.Arg != nil {
				return visit(x.Arg)
			}
		}
		return nil
	}

	for _, it := range b.stmt.Items {
		if it.Star {
			for _, bt := range b.tables {
				for ci := range bt.tbl.Columns {
					add(bt.name, ci)
				}
			}
			continue
		}
		if err := visit(it.Expr); err != nil {
			return err
		}
	}
	if b.stmt.Where != nil {
		if err := visit(b.stmt.Where); err != nil {
			return err
		}
	}
	for _, j := range b.stmt.Joins {
		if err := visit(j.On); err != nil {
			return err
		}
	}
	for _, g := range b.stmt.GroupBy {
		if err := visit(g); err != nil {
			return err
		}
	}
	for _, o := range b.stmt.OrderBy {
		if _, isCol := o.Expr.(*ColumnExpr); isCol {
			// Order-by may name an output alias; resolved later.
			if tabs := map[string]bool{}; b.exprTables(o.Expr, tabs) == nil {
				if err := visit(o.Expr); err != nil {
					return err
				}
			}
		}
	}
	for _, e := range joins {
		add(e.ta, e.ca)
		add(e.tb, e.cb)
	}

	b.scanCols = map[string][]int{}
	for _, bt := range b.tables {
		cols := need[bt.name]
		if len(cols) == 0 {
			// Scan at least one column so the table contributes tuples.
			cols = map[int]bool{0: true}
		}
		list := make([]int, 0, len(cols))
		for ci := range cols {
			list = append(list, ci)
		}
		// Deterministic order.
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				if list[j] < list[i] {
					list[i], list[j] = list[j], list[i]
				}
			}
		}
		b.scanCols[bt.name] = list
	}
	return nil
}

// scanPos returns the position of base column ci within table t's scan.
func (b *binder) scanPos(t string, ci int) int {
	for i, c := range b.scanCols[t] {
		if c == ci {
			return i
		}
	}
	return -1
}

// buildScan creates the scan node for a table with its pushed-down
// predicates bound.
func (b *binder) buildScan(t string, preds []Expr) (*plan.Node, error) {
	bt := b.table(t)
	cols := b.scanCols[t]
	var bound []expr.BoolExpr
	for _, p := range preds {
		be, err := b.bindBoolAgainstScan(p, t)
		if err != nil {
			return nil, err
		}
		bound = append(bound, be)
	}
	return plan.NewTableScan(bt.tbl, cols, bound...), nil
}

// outPos finds an output column by provenance.
func (b *binder) outPos(t string, ci int) int {
	for i := range b.outTab {
		if b.outTab[i] == t && b.outCol[i] == ci {
			return i
		}
	}
	return -1
}

// buildJoins constructs scans and greedily joins them along equi-edges,
// smallest estimated result first.
func (b *binder) buildJoins(singles map[string][]Expr, joins []joinEdge) error {
	est := &stats.Estimator{DB: b.pl.Stats}

	// Build all scans and estimate their cardinalities.
	scans := map[string]*plan.Node{}
	for _, bt := range b.tables {
		s, err := b.buildScan(bt.name, singles[bt.name])
		if err != nil {
			return err
		}
		est.Estimate(s)
		scans[bt.name] = s
	}

	if len(b.tables) == 1 {
		t := b.tables[0].name
		b.root = scans[t]
		for _, ci := range b.scanCols[t] {
			b.outTab = append(b.outTab, t)
			b.outCol = append(b.outCol, ci)
			b.outNames = append(b.outNames, b.table(t).tbl.Columns[ci].Name)
		}
		return nil
	}
	if len(joins) == 0 {
		return fmt.Errorf("sql: cross products are not supported (add join predicates)")
	}

	// Start from the smallest scan that has at least one edge.
	hasEdge := map[string]bool{}
	for _, e := range joins {
		hasEdge[e.ta] = true
		hasEdge[e.tb] = true
	}
	start := ""
	for _, bt := range b.tables {
		if !hasEdge[bt.name] {
			continue
		}
		if start == "" || scans[bt.name].OutCard.Est < scans[start].OutCard.Est {
			start = bt.name
		}
	}
	if start == "" {
		return fmt.Errorf("sql: no joinable table found")
	}

	joined := map[string]bool{start: true}
	b.root = scans[start]
	for _, ci := range b.scanCols[start] {
		b.outTab = append(b.outTab, start)
		b.outCol = append(b.outCol, ci)
		b.outNames = append(b.outNames, b.table(start).tbl.Columns[ci].Name)
	}

	for len(joined) < len(b.tables) {
		// Pick the connected new table with the smallest estimated scan.
		next := ""
		var edge joinEdge
		for _, e := range joins {
			var newT string
			var cand joinEdge
			switch {
			case joined[e.ta] && !joined[e.tb]:
				newT, cand = e.tb, e
			case joined[e.tb] && !joined[e.ta]:
				newT, cand = e.ta, joinEdge{ta: e.tb, ca: e.cb, tb: e.ta, cb: e.ca}
			default:
				continue
			}
			if next == "" || scans[newT].OutCard.Est < scans[next].OutCard.Est {
				next, edge = newT, cand
			}
		}
		if next == "" {
			return fmt.Errorf("sql: join graph is disconnected (cross products are not supported)")
		}
		// edge.ta is in the joined set (probe side), edge.tb == next is the
		// build side.
		probeKey := b.outPos(edge.ta, edge.ca)
		if probeKey < 0 {
			return fmt.Errorf("sql: internal: join key %s.%d not in output", edge.ta, edge.ca)
		}
		build := scans[next]
		buildKey := b.scanPos(next, edge.cb)
		payload := make([]int, 0, len(b.scanCols[next]))
		for i := range b.scanCols[next] {
			payload = append(payload, i)
		}
		b.root = plan.NewHashJoin(build, b.root, []int{buildKey}, []int{probeKey}, payload)
		for _, ci := range b.scanCols[next] {
			b.outTab = append(b.outTab, next)
			b.outCol = append(b.outCol, ci)
			b.outNames = append(b.outNames, b.table(next).tbl.Columns[ci].Name)
		}
		joined[next] = true
	}
	return nil
}

// applyResidualFilters adds Filter nodes for multi-table non-equi
// predicates.
func (b *binder) applyResidualFilters(others []Expr) error {
	for _, e := range others {
		be, err := b.bindBoolAgainstOutput(e)
		if err != nil {
			return err
		}
		b.root = plan.NewFilter(b.root, be)
	}
	return nil
}

// aggFromCall translates an aggregate call; the argument must already be an
// output column position.
func aggFromCall(fn string, col int) (plan.Agg, error) {
	switch fn {
	case "COUNT":
		return plan.Agg{Fn: plan.AggCount}, nil
	case "SUM":
		return plan.Agg{Fn: plan.AggSum, Col: col}, nil
	case "MIN":
		return plan.Agg{Fn: plan.AggMin, Col: col}, nil
	case "MAX":
		return plan.Agg{Fn: plan.AggMax, Col: col}, nil
	case "AVG":
		return plan.Agg{Fn: plan.AggAvg, Col: col}, nil
	default:
		return plan.Agg{}, fmt.Errorf("sql: unknown aggregate %q", fn)
	}
}

// hasAggregates reports whether any select item is an aggregate call.
func (b *binder) hasAggregates() bool {
	for _, it := range b.stmt.Items {
		if _, ok := it.Expr.(*CallExpr); ok {
			return true
		}
	}
	return false
}

// buildProjectionAndAggregation materializes the select list: computed
// columns via Map, aggregation via GroupBy, plain projections via Project.
func (b *binder) buildProjectionAndAggregation() error {
	grouped := len(b.stmt.GroupBy) > 0 || b.hasAggregates()
	if grouped {
		return b.buildAggregation()
	}

	// Plain select: computed items become Map columns, then project in
	// select-list order.
	var projCols []int
	var projNames []string
	for _, it := range b.stmt.Items {
		if it.Star {
			for i := range b.outNames {
				projCols = append(projCols, i)
				projNames = append(projNames, b.outNames[i])
			}
			continue
		}
		pos, name, err := b.materializeItem(it.Expr, it.Alias)
		if err != nil {
			return err
		}
		projCols = append(projCols, pos)
		projNames = append(projNames, name)
	}
	b.project(projCols, projNames)
	return nil
}

// materializeItem ensures the expression is an output column, appending a
// Map node for computed expressions, and returns its position and name.
func (b *binder) materializeItem(e Expr, alias string) (int, string, error) {
	if c, ok := e.(*ColumnExpr); ok {
		t, ci, err := b.resolveColumn(c)
		if err != nil {
			return 0, "", err
		}
		pos := b.outPos(t, ci)
		if pos < 0 {
			return 0, "", fmt.Errorf("sql: internal: column %s not in output", c)
		}
		name := alias
		if name == "" {
			name = c.Column
		}
		return pos, name, nil
	}
	ve, err := b.bindScalarAgainstOutput(e)
	if err != nil {
		return 0, "", err
	}
	name := alias
	if name == "" {
		name = strings.ToLower(e.String())
	}
	b.root = plan.NewMap(b.root, []string{name}, []expr.ValueExpr{ve})
	b.outTab = append(b.outTab, "")
	b.outCol = append(b.outCol, -1)
	b.outNames = append(b.outNames, name)
	return len(b.outNames) - 1, name, nil
}

// buildAggregation constructs the GroupBy node from GROUP BY columns and
// aggregate select items.
func (b *binder) buildAggregation() error {
	var groupCols []int
	var groupNames []string
	for _, g := range b.stmt.GroupBy {
		c, ok := g.(*ColumnExpr)
		if !ok {
			return fmt.Errorf("sql: GROUP BY supports plain columns, got %s", g)
		}
		pos, name, err := b.materializeItem(c, "")
		if err != nil {
			return err
		}
		groupCols = append(groupCols, pos)
		groupNames = append(groupNames, name)
	}

	var aggs []plan.Agg
	var aggNames []string
	var outOrder []string // select-list order of output names
	for i, it := range b.stmt.Items {
		if it.Star {
			return fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
		}
		switch x := it.Expr.(type) {
		case *CallExpr:
			col := 0
			if !x.Star && x.Arg != nil {
				pos, _, err := b.materializeItem(x.Arg, "")
				if err != nil {
					return err
				}
				col = pos
			}
			a, err := aggFromCall(x.Func, col)
			if err != nil {
				return err
			}
			name := it.Alias
			if name == "" {
				name = fmt.Sprintf("%s_%d", strings.ToLower(x.Func), i)
			}
			aggs = append(aggs, a)
			aggNames = append(aggNames, name)
			outOrder = append(outOrder, name)
		case *ColumnExpr:
			// Must be a grouping column.
			t, ci, err := b.resolveColumn(x)
			if err != nil {
				return err
			}
			pos := b.outPos(t, ci)
			found := false
			for gi, gc := range groupCols {
				if gc == pos {
					found = true
					name := it.Alias
					if name == "" {
						name = groupNames[gi]
					}
					outOrder = append(outOrder, groupNames[gi])
					_ = name
				}
			}
			if !found {
				return fmt.Errorf("sql: column %s must appear in GROUP BY or an aggregate", x)
			}
		default:
			return fmt.Errorf("sql: select item %s must be a column or aggregate when grouping", it.Expr)
		}
	}

	b.root = plan.NewGroupBy(b.root, groupCols, aggs, aggNames)
	newTab := make([]string, 0, len(groupCols)+len(aggs))
	newCol := make([]int, 0, len(groupCols)+len(aggs))
	newNames := make([]string, 0, len(groupCols)+len(aggs))
	for i, gc := range groupCols {
		newTab = append(newTab, b.outTab[gc])
		newCol = append(newCol, b.outCol[gc])
		newNames = append(newNames, groupNames[i])
	}
	for _, n := range aggNames {
		newTab = append(newTab, "")
		newCol = append(newCol, -1)
		newNames = append(newNames, n)
	}
	b.outTab, b.outCol, b.outNames = newTab, newCol, newNames
	return nil
}

// project narrows the plan output to the given positions/names, skipping
// no-op projections.
func (b *binder) project(cols []int, names []string) {
	identity := len(cols) == len(b.outNames)
	for i, c := range cols {
		if c != i {
			identity = false
		}
	}
	if identity {
		b.outNames = names
		return
	}
	b.root = plan.Project(b.root, cols)
	newTab := make([]string, len(cols))
	newCol := make([]int, len(cols))
	for i, c := range cols {
		newTab[i] = b.outTab[c]
		newCol[i] = b.outCol[c]
	}
	b.outTab, b.outCol, b.outNames = newTab, newCol, names
}

// outIndexByName finds an output column by its effective name.
func (b *binder) outIndexByName(name string) int {
	for i, n := range b.outNames {
		if n == name {
			return i
		}
	}
	return -1
}

// buildOrderByLimit appends Sort and Limit nodes.
func (b *binder) buildOrderByLimit() error {
	if len(b.stmt.OrderBy) > 0 {
		var cols []int
		var desc []bool
		for _, o := range b.stmt.OrderBy {
			c, ok := o.Expr.(*ColumnExpr)
			if !ok {
				return fmt.Errorf("sql: ORDER BY supports output columns, got %s", o.Expr)
			}
			idx := -1
			if c.Table == "" {
				idx = b.outIndexByName(c.Column)
			}
			if idx < 0 {
				return fmt.Errorf("sql: ORDER BY column %s is not in the output", c)
			}
			cols = append(cols, idx)
			desc = append(desc, o.Desc)
		}
		b.root = plan.NewSort(b.root, cols, desc)
	}
	if b.stmt.Limit >= 0 {
		b.root = plan.NewLimit(b.root, b.stmt.Limit)
	}
	return nil
}

// --- expression binding -----------------------------------------------------

// bindBoolAgainstScan binds a single-table predicate against the table's
// scan schema.
func (b *binder) bindBoolAgainstScan(e Expr, t string) (expr.BoolExpr, error) {
	resolve := func(c *ColumnExpr) (*expr.ColRef, error) {
		rt, ci, err := b.resolveColumn(c)
		if err != nil {
			return nil, err
		}
		if rt != t {
			return nil, fmt.Errorf("sql: predicate %s mixes tables", e)
		}
		pos := b.scanPos(t, ci)
		col := &b.table(t).tbl.Columns[ci]
		return expr.Col(pos, col.Name, col.Kind), nil
	}
	return b.bindBool(e, resolve)
}

// bindBoolAgainstOutput binds a predicate against the current plan output.
func (b *binder) bindBoolAgainstOutput(e Expr) (expr.BoolExpr, error) {
	resolve := func(c *ColumnExpr) (*expr.ColRef, error) {
		rt, ci, err := b.resolveColumn(c)
		if err != nil {
			return nil, err
		}
		pos := b.outPos(rt, ci)
		if pos < 0 {
			return nil, fmt.Errorf("sql: column %s not available", c)
		}
		return expr.Col(pos, c.Column, b.root.Schema[pos].Kind), nil
	}
	return b.bindBool(e, resolve)
}

// bindBool translates a boolean AST into engine predicates with a column
// resolver.
func (b *binder) bindBool(e Expr, resolve func(*ColumnExpr) (*expr.ColRef, error)) (expr.BoolExpr, error) {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "AND":
			// Conjuncts are normally split before binding; bind as nested
			// for completeness (OR branches may contain AND).
			l, err := b.bindBool(x.Left, resolve)
			if err != nil {
				return nil, err
			}
			r, err := b.bindBool(x.Right, resolve)
			if err != nil {
				return nil, err
			}
			return andExpr{l, r}, nil
		case "OR":
			l, err := b.bindBool(x.Left, resolve)
			if err != nil {
				return nil, err
			}
			r, err := b.bindBool(x.Right, resolve)
			if err != nil {
				return nil, err
			}
			return expr.NewOr(l, r), nil
		case "=", "<>", "<", "<=", ">", ">=":
			return b.bindComparison(x, resolve)
		default:
			return nil, fmt.Errorf("sql: %q is not a boolean operator", x.Op)
		}
	case *BetweenExpr:
		c, ok := x.Expr.(*ColumnExpr)
		if !ok {
			return nil, fmt.Errorf("sql: BETWEEN requires a column, got %s", x.Expr)
		}
		ref, err := resolve(c)
		if err != nil {
			return nil, err
		}
		lo, err := b.literal(x.Lo, ref.Typ)
		if err != nil {
			return nil, err
		}
		hi, err := b.literal(x.Hi, ref.Typ)
		if err != nil {
			return nil, err
		}
		return expr.NewBetween(ref, lo, hi), nil
	case *InExpr:
		c, ok := x.Expr.(*ColumnExpr)
		if !ok {
			return nil, fmt.Errorf("sql: IN requires a column, got %s", x.Expr)
		}
		ref, err := resolve(c)
		if err != nil {
			return nil, err
		}
		switch ref.Typ {
		case storage.Int64:
			vals := make([]int64, len(x.List))
			for i, v := range x.List {
				lit, err := b.literal(v, storage.Int64)
				if err != nil {
					return nil, err
				}
				vals[i] = lit.I
			}
			return expr.NewInListInts(ref, vals), nil
		case storage.String:
			vals := make([]string, len(x.List))
			for i, v := range x.List {
				lit, err := b.literal(v, storage.String)
				if err != nil {
					return nil, err
				}
				vals[i] = lit.S
			}
			return expr.NewInListStrings(ref, vals), nil
		default:
			return nil, fmt.Errorf("sql: IN over %s columns is not supported", ref.Typ)
		}
	case *LikeExpr:
		c, ok := x.Expr.(*ColumnExpr)
		if !ok {
			return nil, fmt.Errorf("sql: LIKE requires a column, got %s", x.Expr)
		}
		ref, err := resolve(c)
		if err != nil {
			return nil, err
		}
		if ref.Typ != storage.String {
			return nil, fmt.Errorf("sql: LIKE requires a string column")
		}
		return expr.NewLike(ref, x.Pattern), nil
	default:
		return nil, fmt.Errorf("sql: %s is not a boolean expression", e)
	}
}

// bindComparison binds col OP literal or col OP col.
func (b *binder) bindComparison(x *BinaryExpr, resolve func(*ColumnExpr) (*expr.ColRef, error)) (expr.BoolExpr, error) {
	op, err := cmpOp(x.Op)
	if err != nil {
		return nil, err
	}
	lc, lIsCol := x.Left.(*ColumnExpr)
	rc, rIsCol := x.Right.(*ColumnExpr)
	switch {
	case lIsCol && rIsCol:
		lref, err := resolve(lc)
		if err != nil {
			return nil, err
		}
		rref, err := resolve(rc)
		if err != nil {
			return nil, err
		}
		return expr.NewColCmp(op, lref, rref), nil
	case lIsCol:
		ref, err := resolve(lc)
		if err != nil {
			return nil, err
		}
		lit, err := b.literal(x.Right, ref.Typ)
		if err != nil {
			return nil, err
		}
		return expr.NewCmp(op, ref, lit), nil
	case rIsCol:
		ref, err := resolve(rc)
		if err != nil {
			return nil, err
		}
		lit, err := b.literal(x.Left, ref.Typ)
		if err != nil {
			return nil, err
		}
		return expr.NewCmp(mirror(op), ref, lit), nil
	default:
		return nil, fmt.Errorf("sql: comparison %s needs at least one column", x)
	}
}

// literal converts a literal AST node to a typed constant matching the
// column type.
func (b *binder) literal(e Expr, want storage.Type) (*expr.Const, error) {
	switch x := e.(type) {
	case *NumberExpr:
		switch want {
		case storage.Int64:
			if x.Float && x.Value != math.Trunc(x.Value) {
				return expr.ConstFloat(x.Value), nil
			}
			return expr.ConstInt(int64(x.Value)), nil
		case storage.Float64:
			return expr.ConstFloat(x.Value), nil
		default:
			return nil, fmt.Errorf("sql: numeric literal %s compared with string column", x.Text)
		}
	case *StringExpr:
		if want != storage.String {
			return nil, fmt.Errorf("sql: string literal %q compared with numeric column", x.Value)
		}
		return expr.ConstString(x.Value), nil
	default:
		return nil, fmt.Errorf("sql: expected a literal, got %s", e)
	}
}

// bindScalarAgainstOutput binds an arithmetic expression against the plan
// output.
func (b *binder) bindScalarAgainstOutput(e Expr) (expr.ValueExpr, error) {
	switch x := e.(type) {
	case *ColumnExpr:
		t, ci, err := b.resolveColumn(x)
		if err != nil {
			return nil, err
		}
		pos := b.outPos(t, ci)
		if pos < 0 {
			return nil, fmt.Errorf("sql: column %s not available", x)
		}
		return expr.Col(pos, x.Column, b.root.Schema[pos].Kind), nil
	case *NumberExpr:
		if x.Float {
			return expr.ConstFloat(x.Value), nil
		}
		return expr.ConstInt(int64(x.Value)), nil
	case *StringExpr:
		return expr.ConstString(x.Value), nil
	case *BinaryExpr:
		var op expr.ArithOp
		switch x.Op {
		case "+":
			op = expr.Add
		case "-":
			op = expr.Sub
		case "*":
			op = expr.Mul
		case "/":
			op = expr.Div
		default:
			return nil, fmt.Errorf("sql: %q is not an arithmetic operator", x.Op)
		}
		l, err := b.bindScalarAgainstOutput(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := b.bindScalarAgainstOutput(x.Right)
		if err != nil {
			return nil, err
		}
		return expr.NewArith(op, l, r), nil
	default:
		return nil, fmt.Errorf("sql: unsupported scalar expression %s", e)
	}
}

func cmpOp(op string) (expr.CmpOp, error) {
	switch op {
	case "=":
		return expr.Eq, nil
	case "<>":
		return expr.Ne, nil
	case "<":
		return expr.Lt, nil
	case "<=":
		return expr.Le, nil
	case ">":
		return expr.Gt, nil
	case ">=":
		return expr.Ge, nil
	default:
		return 0, fmt.Errorf("sql: unknown comparison %q", op)
	}
}

// mirror flips a comparison for literal OP col forms.
func mirror(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.Lt:
		return expr.Gt
	case expr.Le:
		return expr.Ge
	case expr.Gt:
		return expr.Lt
	case expr.Ge:
		return expr.Le
	default:
		return op
	}
}

// andExpr conjoins two bound predicates (used inside OR branches).
type andExpr struct {
	l, r expr.BoolExpr
}

func (a andExpr) Kind() storage.Type { return storage.Int64 }
func (a andExpr) Class() expr.Class  { return expr.ClassOther }
func (a andExpr) String() string     { return fmt.Sprintf("(%s AND %s)", a.l, a.r) }

// EvalBool applies both conjuncts with short-circuit masking.
func (a andExpr) EvalBool(b *expr.Batch, sel []bool) int {
	evaluated := a.l.EvalBool(b, sel)
	a.r.EvalBool(b, sel)
	return evaluated
}
