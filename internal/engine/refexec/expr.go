package refexec

import (
	"fmt"

	"t3/internal/engine/expr"
	"t3/internal/engine/storage"
)

// evalBool evaluates a predicate for one row, mirroring the vectorized
// evaluators' documented semantics: NULL input fails every predicate,
// constants coerce to the column's kind for simple comparisons (floats
// truncate toward zero against integer columns), BETWEEN reads the constant
// field matching the column kind without coercion (and passes a NaN value,
// as the engine's !(x < lo || x > hi) does), IN over float columns and
// LIKE over non-string columns are uniformly false, and column-column
// comparisons go through float64 (strings read as 0).
func evalBool(p expr.BoolExpr, r row) (bool, error) {
	switch e := p.(type) {
	case *expr.Cmp:
		v := r[e.Left.Idx]
		if v.null {
			return false, nil
		}
		switch v.k {
		case storage.Int64:
			c := e.Val.I
			if e.Val.Typ == storage.Float64 {
				c = int64(e.Val.F)
			}
			return cmpOrdered(e.Op, compareInt(v.i, c)), nil
		case storage.Float64:
			c := e.Val.F
			if e.Val.Typ == storage.Int64 {
				c = float64(e.Val.I)
			}
			return cmpFloatOp(e.Op, v.f, c), nil
		default:
			return cmpOrdered(e.Op, compareStr(v.s, e.Val.S)), nil
		}
	case *expr.Between:
		v := r[e.Col.Idx]
		if v.null {
			return false, nil
		}
		switch v.k {
		case storage.Int64:
			return v.i >= e.Lo.I && v.i <= e.Hi.I, nil
		case storage.Float64:
			// Negated, like the engine's range loop, so a NaN value passes.
			return !(v.f < e.Lo.F) && !(v.f > e.Hi.F), nil
		default:
			return v.s >= e.Lo.S && v.s <= e.Hi.S, nil
		}
	case *expr.InList:
		v := r[e.Col.Idx]
		if v.null {
			return false, nil
		}
		switch v.k {
		case storage.Int64:
			for _, c := range e.Ints {
				if v.i == c {
					return true, nil
				}
			}
			return false, nil
		case storage.String:
			for _, c := range e.Strs {
				if v.s == c {
					return true, nil
				}
			}
			return false, nil
		default:
			return false, nil
		}
	case *expr.Like:
		v := r[e.Col.Idx]
		if v.k != storage.String || v.null {
			return false, nil
		}
		return expr.MatchLike(v.s, e.Pattern), nil
	case *expr.ColCmp:
		l, rr := r[e.Left.Idx], r[e.Right.Idx]
		if l.null || rr.null {
			return false, nil
		}
		return cmpFloatOp(e.Op, numValue(l), numValue(rr)), nil
	case *expr.Or:
		lv, err := evalBool(e.Left, r)
		if err != nil {
			return false, err
		}
		rv, err := evalBool(e.Right, r)
		if err != nil {
			return false, err
		}
		return lv || rv, nil
	default:
		return false, fmt.Errorf("refexec: unsupported predicate %T", p)
	}
}

// evalValue evaluates a value expression for one row. Column references drop
// the null flag (the engine's map stage copies values without nulls);
// arithmetic is always float64, with division by zero or an unknown operator
// yielding zero.
func evalValue(x expr.ValueExpr, r row) (value, error) {
	switch e := x.(type) {
	case *expr.ColRef:
		v := r[e.Idx]
		v.null = false
		return v, nil
	case *expr.Const:
		return value{k: e.Typ, i: e.I, f: e.F, s: e.S}, nil
	case *expr.Arith:
		l, err := evalValue(e.Left, r)
		if err != nil {
			return value{}, err
		}
		rr, err := evalValue(e.Right, r)
		if err != nil {
			return value{}, err
		}
		a, b := numValue(l), numValue(rr)
		out := value{k: storage.Float64}
		switch e.Op {
		case expr.Add:
			out.f = a + b
		case expr.Sub:
			out.f = a - b
		case expr.Mul:
			out.f = a * b
		case expr.Div:
			if b != 0 {
				out.f = a / b
			}
		}
		return out, nil
	default:
		return value{}, fmt.Errorf("refexec: unsupported value expression %T", x)
	}
}

// numValue reads a value as float64 (strings read as 0), mirroring the
// engine's numAt and its map stage.
func numValue(v value) float64 {
	switch v.k {
	case storage.Int64:
		return float64(v.i)
	case storage.Float64:
		return v.f
	default:
		return 0
	}
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpOrdered applies op to a three-way comparison result.
func cmpOrdered(op expr.CmpOp, c int) bool {
	switch op {
	case expr.Lt:
		return c < 0
	case expr.Le:
		return c <= 0
	case expr.Eq:
		return c == 0
	case expr.Ge:
		return c >= 0
	case expr.Gt:
		return c > 0
	default:
		return c != 0
	}
}

// cmpFloatOp compares floats directly (not via three-way compare, so NaN
// behaves exactly like the engine's cmpFloat).
func cmpFloatOp(op expr.CmpOp, a, b float64) bool {
	switch op {
	case expr.Lt:
		return a < b
	case expr.Le:
		return a <= b
	case expr.Eq:
		return a == b
	case expr.Ge:
		return a >= b
	case expr.Gt:
		return a > b
	default:
		return a != b
	}
}
