package expr

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"t3/internal/engine/storage"
)

// batch3 builds a 5-row batch with int, float, and string columns.
func batch3() *Batch {
	return &Batch{
		N: 5,
		Cols: []storage.Column{
			{Name: "i", Kind: storage.Int64, Ints: []int64{1, 2, 3, 4, 5}},
			{Name: "f", Kind: storage.Float64, Flts: []float64{0.5, 1.5, 2.5, 3.5, 4.5}},
			{Name: "s", Kind: storage.String, Strs: []string{"apple", "banana", "cherry", "date", "apple"}},
		},
	}
}

// allTrue returns a fresh selection mask.
func allTrue(n int) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = true
	}
	return s
}

// selCount counts selected rows.
func selCount(s []bool) int {
	n := 0
	for _, v := range s {
		if v {
			n++
		}
	}
	return n
}

func TestCmpAllOps(t *testing.T) {
	b := batch3()
	cases := []struct {
		op   CmpOp
		want int
	}{
		{Lt, 2}, {Le, 3}, {Eq, 1}, {Ge, 3}, {Gt, 2}, {Ne, 4},
	}
	for _, c := range cases {
		sel := allTrue(b.N)
		p := NewCmp(c.op, Col(0, "i", storage.Int64), ConstInt(3))
		evaluated := p.EvalBool(b, sel)
		if evaluated != 5 {
			t.Errorf("%v: evaluated %d, want 5", c.op, evaluated)
		}
		if got := selCount(sel); got != c.want {
			t.Errorf("i %v 3: selected %d, want %d", c.op, got, c.want)
		}
	}
}

func TestCmpFloatAndString(t *testing.T) {
	b := batch3()
	sel := allTrue(b.N)
	NewCmp(Gt, Col(1, "f", storage.Float64), ConstFloat(2)).EvalBool(b, sel)
	if got := selCount(sel); got != 3 {
		t.Errorf("f > 2: %d, want 3", got)
	}
	sel = allTrue(b.N)
	NewCmp(Eq, Col(2, "s", storage.String), ConstString("apple")).EvalBool(b, sel)
	if got := selCount(sel); got != 2 {
		t.Errorf("s = apple: %d, want 2", got)
	}
	// Mixed types: int column compared with float constant.
	sel = allTrue(b.N)
	NewCmp(Le, Col(0, "i", storage.Int64), ConstFloat(2.9)).EvalBool(b, sel)
	if got := selCount(sel); got != 2 {
		t.Errorf("i <= 2.9: %d, want 2 (constant truncates to 2)", got)
	}
}

func TestShortCircuitEvaluationCounts(t *testing.T) {
	b := batch3()
	sel := allTrue(b.N)
	// First predicate keeps 3 rows; second must only evaluate those 3.
	NewCmp(Ge, Col(0, "i", storage.Int64), ConstInt(3)).EvalBool(b, sel)
	evaluated := NewCmp(Lt, Col(0, "i", storage.Int64), ConstInt(5)).EvalBool(b, sel)
	if evaluated != 3 {
		t.Errorf("second predicate evaluated on %d rows, want 3", evaluated)
	}
	if got := selCount(sel); got != 2 {
		t.Errorf("conjunction selected %d, want 2", got)
	}
}

func TestBetween(t *testing.T) {
	b := batch3()
	sel := allTrue(b.N)
	NewBetween(Col(0, "i", storage.Int64), ConstInt(2), ConstInt(4)).EvalBool(b, sel)
	if got := selCount(sel); got != 3 {
		t.Errorf("between 2 and 4: %d, want 3", got)
	}
	sel = allTrue(b.N)
	NewBetween(Col(2, "s", storage.String), ConstString("b"), ConstString("d")).EvalBool(b, sel)
	if got := selCount(sel); got != 2 {
		t.Errorf("string between: %d, want 2 (banana, cherry)", got)
	}
}

func TestInList(t *testing.T) {
	b := batch3()
	sel := allTrue(b.N)
	NewInListInts(Col(0, "i", storage.Int64), []int64{1, 4, 9}).EvalBool(b, sel)
	if got := selCount(sel); got != 2 {
		t.Errorf("in (1,4,9): %d, want 2", got)
	}
	sel = allTrue(b.N)
	NewInListStrings(Col(2, "s", storage.String), []string{"apple", "date"}).EvalBool(b, sel)
	if got := selCount(sel); got != 3 {
		t.Errorf("in (apple,date): %d, want 3", got)
	}
	// IN over a float column is unsupported and selects nothing.
	sel = allTrue(b.N)
	NewInListInts(Col(1, "f", storage.Float64), []int64{1}).EvalBool(b, sel)
	if got := selCount(sel); got != 0 {
		t.Errorf("in over float: %d, want 0", got)
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"apple", "apple", true},
		{"apple", "app%", true},
		{"apple", "%ple", true},
		{"apple", "%pp%", true},
		{"apple", "a_ple", true},
		{"apple", "a_le", false},
		{"apple", "", false},
		{"", "", true},
		{"", "%", true},
		{"apple", "%", true},
		{"apple", "%%", true},
		{"apple", "b%", false},
		{"banana", "%an%", true},
		{"banana", "b_n_n_", true},
		{"banana", "%ana", true},
		{"aaa", "a%a", true},
		{"ab", "a%b%c", false},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestMatchLikePropertyPrefixSuffix(t *testing.T) {
	f := func(s string) bool {
		if len(s) == 0 {
			return true
		}
		half := len(s) / 2
		return MatchLike(s, s[:half]+"%") && MatchLike(s, "%"+s[half:]) && MatchLike(s, "%")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeOnNonStringSelectsNothing(t *testing.T) {
	b := batch3()
	sel := allTrue(b.N)
	NewLike(Col(0, "i", storage.Int64), "%1%").EvalBool(b, sel)
	if got := selCount(sel); got != 0 {
		t.Errorf("like over int: %d, want 0", got)
	}
}

func TestColCmp(t *testing.T) {
	b := &Batch{
		N: 3,
		Cols: []storage.Column{
			{Name: "a", Kind: storage.Int64, Ints: []int64{1, 5, 3}},
			{Name: "b", Kind: storage.Int64, Ints: []int64{2, 5, 1}},
		},
	}
	sel := allTrue(b.N)
	NewColCmp(Eq, Col(0, "a", storage.Int64), Col(1, "b", storage.Int64)).EvalBool(b, sel)
	if got := selCount(sel); got != 1 {
		t.Errorf("a = b: %d, want 1", got)
	}
	sel = allTrue(b.N)
	NewColCmp(Lt, Col(0, "a", storage.Int64), Col(1, "b", storage.Int64)).EvalBool(b, sel)
	if got := selCount(sel); got != 1 {
		t.Errorf("a < b: %d, want 1", got)
	}
}

func TestNullsFailPredicates(t *testing.T) {
	b := &Batch{
		N: 3,
		Cols: []storage.Column{
			{Name: "x", Kind: storage.Int64, Ints: []int64{1, 2, 3}, Nulls: []bool{false, true, false}},
		},
	}
	sel := allTrue(b.N)
	NewCmp(Ge, Col(0, "x", storage.Int64), ConstInt(0)).EvalBool(b, sel)
	if got := selCount(sel); got != 2 {
		t.Errorf("null row should fail predicate: selected %d", got)
	}
}

func TestPredicateClasses(t *testing.T) {
	ref := Col(0, "x", storage.Int64)
	cases := []struct {
		e    Expr
		want Class
	}{
		{NewCmp(Lt, ref, ConstInt(1)), ClassComparison},
		{NewBetween(ref, ConstInt(1), ConstInt(2)), ClassBetween},
		{NewInListInts(ref, []int64{1}), ClassIn},
		{NewLike(Col(0, "s", storage.String), "a%"), ClassLike},
		{NewColCmp(Eq, ref, ref), ClassOther},
		{NewArith(Add, ref, ref), ClassOther},
		{ConstInt(1), ClassOther},
		{ref, ClassOther},
	}
	for _, c := range cases {
		if got := c.e.Class(); got != c.want {
			t.Errorf("%s: class %v, want %v", c.e, got, c.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	ref := Col(0, "price", storage.Float64)
	cases := []struct {
		e    Expr
		want string
	}{
		{NewCmp(Le, ref, ConstFloat(9.5)), "price <= 9.5"},
		{NewBetween(ref, ConstFloat(1), ConstFloat(2)), "price BETWEEN 1 AND 2"},
		{NewLike(Col(0, "s", storage.String), "a%"), `s LIKE "a%"`},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	in := NewInListInts(Col(0, "k", storage.Int64), []int64{8, 9})
	if s := in.String(); !strings.Contains(s, "IN (8, 9)") {
		t.Errorf("in-list rendering: %q", s)
	}
}

func TestOrDisjunction(t *testing.T) {
	b := batch3()
	sel := allTrue(b.N)
	or := NewOr(
		NewCmp(Le, Col(0, "i", storage.Int64), ConstInt(1)),
		NewCmp(Ge, Col(0, "i", storage.Int64), ConstInt(5)),
	)
	evaluated := or.EvalBool(b, sel)
	if evaluated != 5 {
		t.Errorf("evaluated %d, want 5", evaluated)
	}
	if got := selCount(sel); got != 2 {
		t.Errorf("i<=1 OR i>=5: %d, want 2", got)
	}
	if or.Class() != ClassOther {
		t.Error("OR should classify as other")
	}
	if !strings.Contains(or.String(), " OR ") {
		t.Errorf("rendering: %q", or.String())
	}
	// OR under a prior selection: rows filtered out stay out.
	sel = allTrue(b.N)
	NewCmp(Ne, Col(0, "i", storage.Int64), ConstInt(5)).EvalBool(b, sel)
	or.EvalBool(b, sel)
	if got := selCount(sel); got != 1 {
		t.Errorf("masked OR: %d, want 1 (only i=1 remains)", got)
	}
}

func TestOrKindAndNesting(t *testing.T) {
	b := batch3()
	inner := NewOr(
		NewCmp(Eq, Col(0, "i", storage.Int64), ConstInt(1)),
		NewCmp(Eq, Col(0, "i", storage.Int64), ConstInt(2)),
	)
	outer := NewOr(inner, NewCmp(Eq, Col(0, "i", storage.Int64), ConstInt(3)))
	if outer.Kind() != storage.Int64 {
		t.Error("boolean kind should be Int64")
	}
	sel := allTrue(b.N)
	outer.EvalBool(b, sel)
	if got := selCount(sel); got != 3 {
		t.Errorf("nested OR: %d, want 3", got)
	}
}

// refCmpEval and refBetweenEval are the row-at-a-time evaluators the typed
// selection loops replaced, kept as their oracle: one operator switch and one
// null check per row.
func refCmpEval(c *Cmp, b *Batch, sel []bool) int {
	col := &b.Cols[c.Left.Idx]
	evaluated := 0
	for i := 0; i < b.N; i++ {
		if !sel[i] {
			continue
		}
		evaluated++
		var pass bool
		switch col.Kind {
		case storage.Int64:
			v := c.Val.I
			if c.Val.Typ == storage.Float64 {
				v = int64(c.Val.F)
			}
			pass = refCmp(c.Op, col.Ints[i] < v, col.Ints[i] == v, col.Ints[i] > v)
		case storage.Float64:
			v := c.Val.F
			if c.Val.Typ == storage.Int64 {
				v = float64(c.Val.I)
			}
			pass = refCmp(c.Op, col.Flts[i] < v, col.Flts[i] == v, col.Flts[i] > v)
		}
		if col.IsNull(i) || !pass {
			sel[i] = false
		}
	}
	return evaluated
}

// refCmp applies op given the three comparisons of a value with a constant;
// for NaN all three are false, so only <> holds.
func refCmp(op CmpOp, lt, eq, gt bool) bool {
	switch op {
	case Lt:
		return lt
	case Le:
		return lt || eq
	case Eq:
		return eq
	case Ge:
		return gt || eq
	case Gt:
		return gt
	default:
		return !eq
	}
}

func refBetweenEval(e *Between, b *Batch, sel []bool) int {
	col := &b.Cols[e.Col.Idx]
	evaluated := 0
	for i := 0; i < b.N; i++ {
		if !sel[i] {
			continue
		}
		evaluated++
		var out bool
		switch col.Kind {
		case storage.Int64:
			out = col.Ints[i] < e.Lo.I || col.Ints[i] > e.Hi.I
		case storage.Float64:
			out = col.Flts[i] < e.Lo.F || col.Flts[i] > e.Hi.F
		}
		if col.IsNull(i) || out {
			sel[i] = false
		}
	}
	return evaluated
}

// TestSelectionKernelsMatchRowReference holds Cmp and Between on numeric
// columns to the row-at-a-time reference: every operator, Int64 and Float64
// columns (NaN, both zeros and both infinities among the floats), Int and
// Float constants (a float truncating toward zero against an int column;
// Between reading the field of the column's kind), with and without nulls,
// under every entry-selection pattern. Selections and returned counts must
// be identical.
func TestSelectionKernelsMatchRowReference(t *testing.T) {
	const n = 64
	ints := make([]int64, n)
	flts := make([]float64, n)
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 2.5, -2.5, 3}
	for i := 0; i < n; i++ {
		ints[i] = int64(i%9 - 4)
		flts[i] = float64(i%11)/2 - 3
		if i%5 == 0 {
			flts[i] = specials[i/5%len(specials)]
		}
	}
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = i%3 == 1
	}
	rng := rand.New(rand.NewSource(1))
	entries := map[string]func(i int) bool{
		"all":         func(int) bool { return true },
		"none":        func(int) bool { return false },
		"alternating": func(i int) bool { return i%2 == 0 },
		"random":      func(int) bool { return rng.Intn(3) > 0 },
	}
	consts := []*Const{ConstInt(-1), ConstInt(2), ConstFloat(2.5), ConstFloat(-2.5), ConstFloat(math.Inf(1)), ConstFloat(math.NaN())}

	check := func(name string, p BoolExpr, ref func(*Batch, []bool) int) {
		for _, withNulls := range []bool{false, true} {
			for entry, pick := range entries {
				b := &Batch{N: n, Cols: []storage.Column{
					{Kind: storage.Int64, Ints: ints},
					{Kind: storage.Float64, Flts: flts},
				}}
				if withNulls {
					b.Cols[0].Nulls, b.Cols[1].Nulls = nulls, nulls
				}
				got, want := make([]bool, n), make([]bool, n)
				for i := range got {
					got[i] = pick(i)
					want[i] = got[i]
				}
				gotN, wantN := p.EvalBool(b, got), ref(b, want)
				if gotN != wantN {
					t.Fatalf("%s nulls=%v entry=%s: evaluated %d, reference %d", name, withNulls, entry, gotN, wantN)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s nulls=%v entry=%s: row %d selected %v, reference %v", name, withNulls, entry, i, got[i], want[i])
					}
				}
			}
		}
	}
	for ci, kind := range []storage.Type{storage.Int64, storage.Float64} {
		col := Col(ci, "c", kind)
		for op := Lt; op <= Ne; op++ {
			for _, v := range consts {
				c := NewCmp(op, col, v)
				check(c.String(), c, func(b *Batch, sel []bool) int { return refCmpEval(c, b, sel) })
			}
		}
		for _, lo := range consts {
			for _, hi := range consts {
				e := NewBetween(col, lo, hi)
				check(e.String(), e, func(b *Batch, sel []bool) int { return refBetweenEval(e, b, sel) })
			}
		}
	}
}
