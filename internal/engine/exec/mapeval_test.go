package exec

import (
	"fmt"
	"testing"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// mapBatch5 is a five-row batch with an int, a float and a string column;
// the int column carries a null mask.
func mapBatch5() *expr.Batch {
	return &expr.Batch{
		N: 5,
		Cols: []storage.Column{
			{Name: "i", Kind: storage.Int64, Ints: []int64{1, 2, 3, 4, 5}, Nulls: []bool{false, true, false, false, true}},
			{Name: "f", Kind: storage.Float64, Flts: []float64{0.5, 1.5, 2.5, 3.5, 4.5}},
			{Name: "s", Kind: storage.String, Strs: []string{"apple", "banana", "cherry", "date", "apple"}},
		},
	}
}

// runMapStage pushes b through a map stage computing exprs and returns the
// columns it appended, one per expression.
func runMapStage(t *testing.T, b *expr.Batch, exprs ...expr.ValueExpr) []storage.Column {
	t.Helper()
	in := &plan.Node{Op: plan.TableScanOp}
	for _, c := range b.Cols {
		in.Schema = append(in.Schema, plan.ColMeta{Name: c.Name, Kind: c.Kind})
	}
	names := make([]string, len(exprs))
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	n := plan.NewMap(in, names, exprs)
	rt := &runtime{batchSize: b.N, states: map[*plan.Node]any{}, counts: map[*plan.Node]*nodeCount{}, scratch: &execScratch{}}
	var out []storage.Column
	push, err := rt.makeStage(plan.StageRef{Node: n, Stage: plan.StagePassThrough}, func(b *expr.Batch) {
		out = append(out, b.Cols[len(b.Cols)-len(exprs):]...)
	})
	if err != nil {
		t.Fatal(err)
	}
	push(b)
	if len(out) != len(exprs) {
		t.Fatalf("map stage pushed %d columns, want %d", len(out), len(exprs))
	}
	return out
}

// TestMapArith pins the map stage's arithmetic: the result is Float64, int
// operands read as floats and string operands as 0, and a division by zero
// or an unknown operator yields 0.
func TestMapArith(t *testing.T) {
	b := mapBatch5()
	i, f, s := expr.Col(0, "i", storage.Int64), expr.Col(1, "f", storage.Float64), expr.Col(2, "s", storage.String)
	cases := []struct {
		name string
		e    expr.ValueExpr
		want func(r int) float64
	}{
		{"f*(1-0.5)", expr.NewArith(expr.Mul, f, expr.NewArith(expr.Sub, expr.ConstFloat(1), expr.ConstFloat(0.5))),
			func(r int) float64 { return b.Cols[1].Flts[r] * 0.5 }},
		{"i+10", expr.NewArith(expr.Add, i, expr.ConstInt(10)),
			func(r int) float64 { return float64(r + 11) }},
		{"i*f", expr.NewArith(expr.Mul, i, f),
			func(r int) float64 { return float64(r+1) * b.Cols[1].Flts[r] }},
		{"1/0", expr.NewArith(expr.Div, expr.ConstFloat(1), expr.ConstFloat(0)),
			func(int) float64 { return 0 }},
		{"f/(i-i)", expr.NewArith(expr.Div, f, expr.NewArith(expr.Sub, i, i)),
			func(int) float64 { return 0 }},
		{"s+2", expr.NewArith(expr.Add, s, expr.ConstInt(2)),
			func(int) float64 { return 2 }},
		{"f-'x'", expr.NewArith(expr.Sub, f, expr.ConstString("x")),
			func(r int) float64 { return b.Cols[1].Flts[r] }},
		{"unknown op", expr.NewArith(expr.ArithOp(99), f, i),
			func(int) float64 { return 0 }},
	}
	for _, c := range cases {
		out := runMapStage(t, mapBatch5(), c.e)[0]
		if out.Kind != storage.Float64 || len(out.Flts) != b.N {
			t.Fatalf("%s: kind %v, %d rows; want Float64, %d rows", c.name, out.Kind, len(out.Flts), b.N)
		}
		for r, got := range out.Flts {
			if want := c.want(r); got != want {
				t.Errorf("%s: row %d = %v, want %v", c.name, r, got, want)
			}
		}
	}
}

// TestMapConstBroadcasts checks a constant fills every row with its value
// and kind.
func TestMapConstBroadcasts(t *testing.T) {
	b := mapBatch5()
	out := runMapStage(t, b, expr.ConstInt(7), expr.ConstFloat(1.25), expr.ConstString("x"))
	for r := 0; r < b.N; r++ {
		if out[0].Ints[r] != 7 || out[1].Flts[r] != 1.25 || out[2].Strs[r] != "x" {
			t.Fatalf("row %d: %d %v %q, want 7 1.25 \"x\"", r, out[0].Ints[r], out[1].Flts[r], out[2].Strs[r])
		}
	}
	for k, c := range out {
		if c.Len() != b.N {
			t.Errorf("constant %d: %d rows, want %d", k, c.Len(), b.N)
		}
	}
	if out[0].Kind != storage.Int64 || out[1].Kind != storage.Float64 || out[2].Kind != storage.String {
		t.Errorf("kinds %v %v %v", out[0].Kind, out[1].Kind, out[2].Kind)
	}
}

// TestMapColRefCopies checks a column reference copies the input column's
// values, drops its null mask, and never aliases it.
func TestMapColRefCopies(t *testing.T) {
	b := mapBatch5()
	in := b.Cols[0]
	out := runMapStage(t, b, expr.Col(0, "i", storage.Int64))[0]
	if out.Kind != storage.Int64 || out.Nulls != nil {
		t.Fatalf("kind %v, nulls %v; want Int64 without nulls", out.Kind, out.Nulls)
	}
	for r, v := range out.Ints {
		if v != in.Ints[r] {
			t.Fatalf("row %d = %d, want %d", r, v, in.Ints[r])
		}
	}
	out.Ints[0] = 999
	if in.Ints[0] == 999 {
		t.Fatal("a column reference must copy, not alias")
	}
}
