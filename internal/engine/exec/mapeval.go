package exec

import (
	"fmt"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// Map-expression compilation: compileMapExprs lowers the three value
// expression forms (column reference, constant, arithmetic) into closures
// that write into a retained column owned by the map stage, so the map stage
// allocates nothing per batch. A column reference copies values and takes the
// kind of the *actual* input column, dropping any null mask; a constant
// broadcasts; arithmetic produces Float64, reads int operands as floats and
// string operands as 0, and yields 0 for a division by zero or an unknown
// operator. refexec's evalValue is the row-at-a-time oracle of these rules.

// mapFn computes one map expression over b into the retained column dst.
type mapFn func(b *expr.Batch, dst *storage.Column)

// compileMapExprs compiles every map expression of n.
func compileMapExprs(n *plan.Node) []mapFn {
	fns := make([]mapFn, len(n.MapExprs))
	for i, e := range n.MapExprs {
		fns[i] = compileMap(e)
	}
	return fns
}

func compileMap(e expr.ValueExpr) mapFn {
	switch v := e.(type) {
	case *expr.ColRef:
		idx := v.Idx
		return func(b *expr.Batch, dst *storage.Column) {
			src := &b.Cols[idx]
			dst.Kind = src.Kind
			dst.Nulls = nil
			switch src.Kind {
			case storage.Int64:
				dst.Ints = append(dst.Ints[:0], src.Ints[:b.N]...)
			case storage.Float64:
				dst.Flts = append(dst.Flts[:0], src.Flts[:b.N]...)
			case storage.String:
				dst.Strs = append(dst.Strs[:0], src.Strs[:b.N]...)
			}
		}
	case *expr.Const:
		c := *v
		return func(b *expr.Batch, dst *storage.Column) {
			dst.Kind = c.Typ
			dst.Nulls = nil
			switch c.Typ {
			case storage.Int64:
				dst.Ints = resize(dst.Ints, b.N)
				for i := range dst.Ints {
					dst.Ints[i] = c.I
				}
			case storage.Float64:
				dst.Flts = resize(dst.Flts, b.N)
				for i := range dst.Flts {
					dst.Flts[i] = c.F
				}
			case storage.String:
				dst.Strs = resize(dst.Strs, b.N)
				for i := range dst.Strs {
					dst.Strs[i] = c.S
				}
			}
		}
	default: // *expr.Arith
		num := compileNum(e)
		return func(b *expr.Batch, dst *storage.Column) {
			dst.Kind = storage.Float64
			dst.Nulls = nil
			dst.Flts = resize(dst.Flts, b.N)
			for i := 0; i < b.N; i++ {
				dst.Flts[i] = num(b, i)
			}
		}
	}
}

// numFn reads one numeric value per row: ints as floats, strings as 0.
type numFn func(b *expr.Batch, i int) float64

func compileNum(e expr.ValueExpr) numFn {
	switch v := e.(type) {
	case *expr.ColRef:
		idx := v.Idx
		return func(b *expr.Batch, i int) float64 {
			c := &b.Cols[idx]
			switch c.Kind {
			case storage.Int64:
				return float64(c.Ints[i])
			case storage.Float64:
				return c.Flts[i]
			default:
				return 0
			}
		}
	case *expr.Const:
		var f float64
		switch v.Typ {
		case storage.Int64:
			f = float64(v.I)
		case storage.Float64:
			f = v.F
		default:
			f = 0 // strings read as 0
		}
		return func(*expr.Batch, int) float64 { return f }
	case *expr.Arith:
		l, r := compileNum(v.Left), compileNum(v.Right)
		switch v.Op {
		case expr.Add:
			return func(b *expr.Batch, i int) float64 { return l(b, i) + r(b, i) }
		case expr.Sub:
			return func(b *expr.Batch, i int) float64 { return l(b, i) - r(b, i) }
		case expr.Mul:
			return func(b *expr.Batch, i int) float64 { return l(b, i) * r(b, i) }
		case expr.Div:
			// A division by zero yields 0; the left operand has no side
			// effects, so skipping it is unobservable.
			return func(b *expr.Batch, i int) float64 {
				if c := r(b, i); c != 0 {
					return l(b, i) / c
				}
				return 0
			}
		default:
			return func(*expr.Batch, int) float64 { return 0 }
		}
	default:
		panic(fmt.Sprintf("exec: unknown value expression %T", e))
	}
}
