// Package expr implements scalar expressions evaluated over column batches.
//
// Expressions reference their inputs by column index into the batch that
// flows through a pipeline, so resolution happens once at plan-build time and
// evaluation is a tight loop over vectors. The expression kinds mirror the
// predicate classes T3 featurizes separately for table scans: simple
// comparisons, BETWEEN, IN lists, LIKE patterns, and everything else
// (arithmetic, boolean connectives).
package expr

import (
	"fmt"
	"strings"

	"t3/internal/engine/storage"
)

// Class is the predicate class used by T3's table-scan features (§3, "Table
// Scan Operators"): the featurizer records, per class, the percentage of
// tuples for which predicates of that class are evaluated.
type Class uint8

const (
	// ClassComparison covers simple binary comparisons against constants.
	ClassComparison Class = iota
	// ClassBetween covers BETWEEN lower AND upper range predicates.
	ClassBetween
	// ClassIn covers IN (v1, v2, ...) list membership predicates.
	ClassIn
	// ClassLike covers LIKE pattern predicates.
	ClassLike
	// ClassOther covers all remaining expression types.
	ClassOther
)

// String returns the name of the predicate class.
func (c Class) String() string {
	switch c {
	case ClassComparison:
		return "comparison"
	case ClassBetween:
		return "between"
	case ClassIn:
		return "in"
	case ClassLike:
		return "like"
	default:
		return "other"
	}
}

// NumClasses is the number of distinct predicate classes.
const NumClasses = 5

// Batch is a horizontal slice of rows flowing through a pipeline. Cols are
// equal-length vectors; N is the row count.
type Batch struct {
	Cols []storage.Column
	N    int
}

// Expr is a scalar expression.
type Expr interface {
	// Kind returns the result type of the expression.
	Kind() storage.Type
	// Class returns the predicate class for feature extraction.
	Class() Class
	// String renders the expression for debugging and plan explain output.
	String() string
}

// BoolExpr is an expression producing a boolean, evaluated into a selection
// mask. The mask is only written at positions where sel is true on input
// (conjunction short-circuit); rows already filtered out stay false.
type BoolExpr interface {
	Expr
	// EvalBool ANDs the predicate into sel: sel[i] stays true only if it was
	// true and the predicate holds for row i. It returns the number of rows
	// for which the predicate was actually evaluated (i.e. sel[i] was true
	// on entry), which the featurizer uses for percentage features.
	EvalBool(b *Batch, sel []bool) int
}

// ValueExpr is an expression producing a typed value vector: a ColRef, a
// Const or an Arith. The executor's map stage compiles it (exec/mapeval.go).
type ValueExpr interface {
	Expr
	valueExpr()
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	Lt CmpOp = iota
	Le
	Eq
	Ge
	Gt
	Ne
)

// String returns the SQL spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Eq:
		return "="
	case Ge:
		return ">="
	case Gt:
		return ">"
	case Ne:
		return "<>"
	default:
		return "?"
	}
}

// ColRef references a column of the batch by index.
type ColRef struct {
	Idx  int
	Name string
	Typ  storage.Type
}

// Col constructs a column reference.
func Col(idx int, name string, typ storage.Type) *ColRef {
	return &ColRef{Idx: idx, Name: name, Typ: typ}
}

// Kind returns the column type.
func (c *ColRef) Kind() storage.Type { return c.Typ }

// Class classifies column references as "other".
func (c *ColRef) Class() Class { return ClassOther }

func (c *ColRef) valueExpr() {}

// String renders the reference.
func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("#%d", c.Idx)
}

// Const is a typed constant.
type Const struct {
	Typ storage.Type
	I   int64
	F   float64
	S   string
}

// ConstInt constructs an integer constant.
func ConstInt(v int64) *Const { return &Const{Typ: storage.Int64, I: v} }

// ConstFloat constructs a float constant.
func ConstFloat(v float64) *Const { return &Const{Typ: storage.Float64, F: v} }

// ConstString constructs a string constant.
func ConstString(v string) *Const { return &Const{Typ: storage.String, S: v} }

// Kind returns the constant's type.
func (c *Const) Kind() storage.Type { return c.Typ }

// Class classifies constants as "other".
func (c *Const) Class() Class { return ClassOther }

func (c *Const) valueExpr() {}

// String renders the constant.
func (c *Const) String() string {
	switch c.Typ {
	case storage.Int64:
		return fmt.Sprintf("%d", c.I)
	case storage.Float64:
		return fmt.Sprintf("%g", c.F)
	default:
		return fmt.Sprintf("%q", c.S)
	}
}

// numAt reads row i of column c as float64 for mixed-type comparison.
func numAt(c *storage.Column, i int) float64 {
	switch c.Kind {
	case storage.Int64:
		return float64(c.Ints[i])
	case storage.Float64:
		return c.Flts[i]
	default:
		return 0
	}
}

// Cmp compares a column against a constant. This is the paper's "simple
// comparison" predicate class.
type Cmp struct {
	Op   CmpOp
	Left *ColRef
	Val  *Const
}

// NewCmp constructs a comparison predicate col OP val.
func NewCmp(op CmpOp, left *ColRef, val *Const) *Cmp {
	return &Cmp{Op: op, Left: left, Val: val}
}

// Kind returns Int64: booleans are not first-class column values here.
func (c *Cmp) Kind() storage.Type { return storage.Int64 }

// Class classifies as comparison.
func (c *Cmp) Class() Class { return ClassComparison }

// String renders the predicate.
func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Val)
}

func cmpFloat(op CmpOp, a, b float64) bool {
	switch op {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Eq:
		return a == b
	case Ge:
		return a >= b
	case Gt:
		return a > b
	default:
		return a != b
	}
}

// EvalBool applies the comparison, ANDing into sel. NULL fails; the constant
// coerces to the column's kind, a float truncating toward zero against an
// integer column.
func (c *Cmp) EvalBool(b *Batch, sel []bool) int {
	col := &b.Cols[c.Left.Idx]
	sel = sel[:b.N]
	var evaluated int
	switch col.Kind {
	case storage.Int64:
		v := c.Val.I
		if c.Val.Typ == storage.Float64 {
			v = int64(c.Val.F)
		}
		evaluated = selectCmp(c.Op, col.Ints[:b.N], v, sel)
	case storage.Float64:
		v := c.Val.F
		if c.Val.Typ == storage.Int64 {
			v = float64(c.Val.I)
		}
		evaluated = selectCmp(c.Op, col.Flts[:b.N], v, sel)
	case storage.String:
		evaluated = selectCmp(c.Op, col.Strs[:b.N], c.Val.S, sel)
	default:
		return 0
	}
	dropNulls(col.Nulls, sel)
	return evaluated
}

// selectCmp ANDs x OP v into sel for every row x of xs and returns the number
// of rows selected on entry. The operator is resolved once per call, and each
// row's test is stored, not branched on.
func selectCmp[T int64 | float64 | string](op CmpOp, xs []T, v T, sel []bool) int {
	sel = sel[:len(xs)]
	n, k := 0, 0
	switch op {
	case Lt:
		for i, x := range xs {
			sel[i], k = keep(sel[i], x < v)
			n += k
		}
	case Le:
		for i, x := range xs {
			sel[i], k = keep(sel[i], x <= v)
			n += k
		}
	case Eq:
		for i, x := range xs {
			sel[i], k = keep(sel[i], x == v)
			n += k
		}
	case Ge:
		for i, x := range xs {
			sel[i], k = keep(sel[i], x >= v)
			n += k
		}
	case Gt:
		for i, x := range xs {
			sel[i], k = keep(sel[i], x > v)
			n += k
		}
	default:
		for i, x := range xs {
			sel[i], k = keep(sel[i], x != v)
			n += k
		}
	}
	return n
}

// selectRange ANDs !(x < lo || x > hi) into sel for every row x of xs and
// returns the number of rows selected on entry. Written as two negated
// comparisons, so a NaN value passes a float range; refexec mirrors that.
func selectRange[T int64 | float64 | string](xs []T, lo, hi T, sel []bool) int {
	sel = sel[:len(xs)]
	n, k := 0, 0
	for i, x := range xs {
		sel[i], k = keep(sel[i], !(x < lo) && !(x > hi))
		n += k
	}
	return n
}

// keep returns a row's selection after a test c — c if the row was selected
// (s), false if not — and 1 if it was selected. The compiler turns it into
// conditional moves, so a selectivity near one half costs no mispredictions.
func keep(s, c bool) (bool, int) {
	k := 0
	if s {
		k = 1
	} else {
		c = false
	}
	return c, k
}

// dropNulls deselects the NULL rows of a column: NULL fails every predicate.
// Rows deselected on entry stay deselected either way, so this can run after
// the value loop instead of inside it.
func dropNulls(nulls, sel []bool) {
	if nulls == nil {
		return
	}
	nulls = nulls[:len(sel)]
	for i, null := range nulls {
		if null {
			sel[i] = false
		}
	}
}

// Between is a range predicate lower <= col <= upper.
type Between struct {
	Col *ColRef
	Lo  *Const
	Hi  *Const
}

// NewBetween constructs a BETWEEN predicate.
func NewBetween(col *ColRef, lo, hi *Const) *Between {
	return &Between{Col: col, Lo: lo, Hi: hi}
}

// Kind returns Int64 (boolean result).
func (e *Between) Kind() storage.Type { return storage.Int64 }

// Class classifies as between.
func (e *Between) Class() Class { return ClassBetween }

// String renders the predicate.
func (e *Between) String() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", e.Col, e.Lo, e.Hi)
}

// EvalBool applies the range check, ANDing into sel. NULL fails, and the
// bounds are read from the field matching the column kind, without coercion.
func (e *Between) EvalBool(b *Batch, sel []bool) int {
	col := &b.Cols[e.Col.Idx]
	sel = sel[:b.N]
	var evaluated int
	switch col.Kind {
	case storage.Int64:
		evaluated = selectRange(col.Ints[:b.N], e.Lo.I, e.Hi.I, sel)
	case storage.Float64:
		evaluated = selectRange(col.Flts[:b.N], e.Lo.F, e.Hi.F, sel)
	case storage.String:
		evaluated = selectRange(col.Strs[:b.N], e.Lo.S, e.Hi.S, sel)
	default:
		return 0
	}
	dropNulls(col.Nulls, sel)
	return evaluated
}

// InList is a membership predicate col IN (v1, v2, ...). The paper's running
// example (TPC-H Q5 pipeline 5) shows Umbra rewriting dictionary joins to
// such IN expressions.
type InList struct {
	Col    *ColRef
	Ints   []int64
	Strs   []string
	intSet map[int64]struct{}
	strSet map[string]struct{}
}

// NewInListInts constructs an integer IN-list predicate.
func NewInListInts(col *ColRef, vals []int64) *InList {
	set := make(map[int64]struct{}, len(vals))
	for _, v := range vals {
		set[v] = struct{}{}
	}
	return &InList{Col: col, Ints: vals, intSet: set}
}

// NewInListStrings constructs a string IN-list predicate.
func NewInListStrings(col *ColRef, vals []string) *InList {
	set := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		set[v] = struct{}{}
	}
	return &InList{Col: col, Strs: vals, strSet: set}
}

// Kind returns Int64 (boolean result).
func (e *InList) Kind() storage.Type { return storage.Int64 }

// Class classifies as in.
func (e *InList) Class() Class { return ClassIn }

// String renders the predicate.
func (e *InList) String() string {
	var parts []string
	for _, v := range e.Ints {
		parts = append(parts, fmt.Sprintf("%d", v))
	}
	for _, v := range e.Strs {
		parts = append(parts, fmt.Sprintf("%q", v))
	}
	return fmt.Sprintf("%s IN (%s)", e.Col, strings.Join(parts, ", "))
}

// EvalBool applies the membership check, ANDing into sel.
func (e *InList) EvalBool(b *Batch, sel []bool) int {
	col := &b.Cols[e.Col.Idx]
	evaluated := 0
	switch col.Kind {
	case storage.Int64:
		for i := 0; i < b.N; i++ {
			if !sel[i] {
				continue
			}
			evaluated++
			if col.IsNull(i) {
				sel[i] = false
				continue
			}
			if _, ok := e.intSet[col.Ints[i]]; !ok {
				sel[i] = false
			}
		}
	case storage.String:
		for i := 0; i < b.N; i++ {
			if !sel[i] {
				continue
			}
			evaluated++
			if col.IsNull(i) {
				sel[i] = false
				continue
			}
			if _, ok := e.strSet[col.Strs[i]]; !ok {
				sel[i] = false
			}
		}
	default:
		// IN over floats is unsupported by the generators; treat as all-false.
		for i := 0; i < b.N; i++ {
			if sel[i] {
				evaluated++
				sel[i] = false
			}
		}
	}
	return evaluated
}

// Like is a SQL LIKE pattern predicate over a string column. Patterns use %
// (any sequence) and _ (any single byte).
type Like struct {
	Col     *ColRef
	Pattern string
}

// NewLike constructs a LIKE predicate.
func NewLike(col *ColRef, pattern string) *Like {
	return &Like{Col: col, Pattern: pattern}
}

// Kind returns Int64 (boolean result).
func (e *Like) Kind() storage.Type { return storage.Int64 }

// Class classifies as like.
func (e *Like) Class() Class { return ClassLike }

// String renders the predicate.
func (e *Like) String() string {
	return fmt.Sprintf("%s LIKE %q", e.Col, e.Pattern)
}

// MatchLike reports whether s matches the LIKE pattern p.
func MatchLike(s, p string) bool {
	// Iterative matcher with backtracking over the last '%'.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			match = si
			pi++
		case star != -1:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// EvalBool applies the pattern match, ANDing into sel.
func (e *Like) EvalBool(b *Batch, sel []bool) int {
	col := &b.Cols[e.Col.Idx]
	evaluated := 0
	if col.Kind != storage.String {
		for i := 0; i < b.N; i++ {
			if sel[i] {
				evaluated++
				sel[i] = false
			}
		}
		return evaluated
	}
	for i := 0; i < b.N; i++ {
		if !sel[i] {
			continue
		}
		evaluated++
		if col.IsNull(i) || !MatchLike(col.Strs[i], e.Pattern) {
			sel[i] = false
		}
	}
	return evaluated
}

// ColCmp compares two columns of the batch (used for non-equi predicates on
// joined pipelines; classified as "other").
type ColCmp struct {
	Op    CmpOp
	Left  *ColRef
	Right *ColRef
}

// NewColCmp constructs a column-column comparison.
func NewColCmp(op CmpOp, left, right *ColRef) *ColCmp {
	return &ColCmp{Op: op, Left: left, Right: right}
}

// Kind returns Int64 (boolean result).
func (e *ColCmp) Kind() storage.Type { return storage.Int64 }

// Class classifies as other.
func (e *ColCmp) Class() Class { return ClassOther }

// String renders the predicate.
func (e *ColCmp) String() string {
	return fmt.Sprintf("%s %s %s", e.Left, e.Op, e.Right)
}

// EvalBool applies the comparison, ANDing into sel.
func (e *ColCmp) EvalBool(b *Batch, sel []bool) int {
	l, r := &b.Cols[e.Left.Idx], &b.Cols[e.Right.Idx]
	evaluated := 0
	for i := 0; i < b.N; i++ {
		if !sel[i] {
			continue
		}
		evaluated++
		if l.IsNull(i) || r.IsNull(i) || !cmpFloat(e.Op, numAt(l, i), numAt(r, i)) {
			sel[i] = false
		}
	}
	return evaluated
}

// Or is a disjunction of two boolean predicates. It is classified as
// "other" for feature extraction.
type Or struct {
	Left, Right BoolExpr
}

// NewOr constructs a disjunction.
func NewOr(left, right BoolExpr) *Or { return &Or{Left: left, Right: right} }

// Kind returns Int64 (boolean result).
func (o *Or) Kind() storage.Type { return storage.Int64 }

// Class classifies as other.
func (o *Or) Class() Class { return ClassOther }

// String renders the disjunction.
func (o *Or) String() string { return fmt.Sprintf("(%s OR %s)", o.Left, o.Right) }

// EvalBool evaluates both branches against copies of the entry mask and
// keeps rows passing either.
func (o *Or) EvalBool(b *Batch, sel []bool) int {
	evaluated := 0
	for i := 0; i < b.N; i++ {
		if sel[i] {
			evaluated++
		}
	}
	left := append([]bool(nil), sel...)
	right := append([]bool(nil), sel...)
	o.Left.EvalBool(b, left)
	o.Right.EvalBool(b, right)
	for i := 0; i < b.N; i++ {
		sel[i] = left[i] || right[i]
	}
	return evaluated
}

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String returns the operator symbol.
func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	default:
		return "/"
	}
}

// Arith is a binary arithmetic expression over numeric operands; the result
// is always Float64. The paper's Q5 example computes
// l_extendedprice * (1 - l_discount) with such expressions.
type Arith struct {
	Op    ArithOp
	Left  ValueExpr
	Right ValueExpr
}

// NewArith constructs an arithmetic expression.
func NewArith(op ArithOp, left, right ValueExpr) *Arith {
	return &Arith{Op: op, Left: left, Right: right}
}

// Kind returns Float64.
func (e *Arith) Kind() storage.Type { return storage.Float64 }

// Class classifies as other.
func (e *Arith) Class() Class { return ClassOther }

func (e *Arith) valueExpr() {}

// String renders the expression.
func (e *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}
