// Package planio serializes annotated physical plans to and from JSON.
//
// T3 predicts from plan *annotations* — operator types, cardinalities, tuple
// widths, predicate classes and selectivities — not from data. The JSON form
// carries exactly those annotations, so external systems can hand plans to
// cmd/t3predict without sharing any table data. Decoded plans are
// featurizable and predictable but not executable (their scans have no bound
// tables).
package planio

import (
	"encoding/json"
	"fmt"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// Node is the JSON form of one plan operator.
type Node struct {
	// Op is the operator name: TableScan, Filter, Map, HashJoin, GroupBy,
	// Sort, Window, Materialize, Limit.
	Op string `json:"op"`
	// Columns describe the operator's output schema; omitted for
	// pass-through operators (inherited from the input).
	Columns []Column `json:"columns,omitempty"`
	// Card carries the output cardinality annotations.
	Card CardJSON `json:"card"`
	// Table and ScanCard apply to TableScan nodes.
	Table    string  `json:"table,omitempty"`
	ScanCard float64 `json:"scan_card,omitempty"`
	// Predicates lists pushed-down scan predicates by class.
	Predicates []Predicate `json:"predicates,omitempty"`
	// BuildWidth is the bytes per tuple a HashJoin materializes in its hash
	// table (keys + payload).
	BuildWidth int `json:"build_width,omitempty"`
	// Children.
	Left  *Node `json:"left,omitempty"`
	Right *Node `json:"right,omitempty"`
}

// Column is one output column.
type Column struct {
	Name string `json:"name"`
	// Type is BIGINT, DOUBLE, or VARCHAR.
	Type string `json:"type"`
}

// CardJSON mirrors plan.Card.
type CardJSON struct {
	True float64 `json:"true"`
	Est  float64 `json:"est"`
}

// Predicate is one pushed-down scan predicate: its class (comparison,
// between, in, like, other) and its selectivity annotations.
type Predicate struct {
	Class   string  `json:"class"`
	SelTrue float64 `json:"sel_true"`
	SelEst  float64 `json:"sel_est"`
}

// stubPred is a non-executable predicate carrying only a class.
type stubPred struct {
	class expr.Class
}

func (s stubPred) Kind() storage.Type { return storage.Int64 }
func (s stubPred) Class() expr.Class  { return s.class }
func (s stubPred) String() string     { return "<" + s.class.String() + ">" }
func (s stubPred) EvalBool(*expr.Batch, []bool) int {
	panic("planio: decoded plans are not executable")
}

// classFromString parses a predicate class name.
func classFromString(s string) (expr.Class, error) {
	for c := expr.ClassComparison; c <= expr.ClassOther; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("planio: unknown predicate class %q", s)
}

var opNames = map[string]plan.OpType{
	"TableScan":   plan.TableScanOp,
	"Filter":      plan.FilterOp,
	"Map":         plan.MapOp,
	"HashJoin":    plan.HashJoinOp,
	"GroupBy":     plan.GroupByOp,
	"Sort":        plan.SortOp,
	"Window":      plan.WindowOp,
	"Materialize": plan.MaterializeOp,
	"Limit":       plan.LimitOp,
}

func typeFromString(s string) (storage.Type, error) {
	switch s {
	case "BIGINT":
		return storage.Int64, nil
	case "DOUBLE":
		return storage.Float64, nil
	case "VARCHAR":
		return storage.String, nil
	default:
		return 0, fmt.Errorf("planio: unknown column type %q", s)
	}
}

// Encode converts an annotated plan into its JSON form.
func Encode(n *plan.Node) *Node {
	if n == nil {
		return nil
	}
	out := &Node{
		Op:   n.Op.String(),
		Card: CardJSON{True: n.OutCard.True, Est: n.OutCard.Est},
	}
	for _, cm := range n.Schema {
		out.Columns = append(out.Columns, Column{Name: cm.Name, Type: cm.Kind.String()})
	}
	if n.Op == plan.TableScanOp {
		out.Table = n.TableName
		out.ScanCard = n.ScanCard
		for i, p := range n.Predicates {
			out.Predicates = append(out.Predicates, Predicate{
				Class:   p.Class().String(),
				SelTrue: n.PredSel[i].True,
				SelEst:  n.PredSel[i].Est,
			})
		}
	}
	if n.Op == plan.HashJoinOp {
		out.BuildWidth = n.HashTupleWidth()
	}
	out.Left = Encode(n.Left)
	out.Right = Encode(n.Right)
	return out
}

// Decode converts the JSON form back into a featurizable plan. Decoded scans
// carry no table data; executing the plan is not possible.
func Decode(j *Node) (*plan.Node, error) {
	if j == nil {
		return nil, nil
	}
	op, ok := opNames[j.Op]
	if !ok {
		return nil, fmt.Errorf("planio: unknown operator %q", j.Op)
	}
	n := &plan.Node{Op: op}
	n.OutCard = plan.Card{True: j.Card.True, Est: j.Card.Est}

	var err error
	if n.Left, err = Decode(j.Left); err != nil {
		return nil, err
	}
	if n.Right, err = Decode(j.Right); err != nil {
		return nil, err
	}

	// Schema: explicit columns, or inherited from the left child.
	if len(j.Columns) > 0 {
		for _, c := range j.Columns {
			k, err := typeFromString(c.Type)
			if err != nil {
				return nil, err
			}
			n.Schema = append(n.Schema, plan.ColMeta{Name: c.Name, Kind: k})
		}
	} else if n.Left != nil {
		n.Schema = n.Left.Schema
	} else {
		return nil, fmt.Errorf("planio: %s node without columns or input", j.Op)
	}

	switch op {
	case plan.TableScanOp:
		n.TableName = j.Table
		n.ScanCard = j.ScanCard
		for _, p := range j.Predicates {
			c, err := classFromString(p.Class)
			if err != nil {
				return nil, err
			}
			n.Predicates = append(n.Predicates, stubPred{class: c})
			n.PredSel = append(n.PredSel, plan.Card{True: p.SelTrue, Est: p.SelEst})
		}
	case plan.HashJoinOp:
		if n.Left == nil || n.Right == nil {
			return nil, fmt.Errorf("planio: HashJoin requires two children")
		}
		if err := synthesizeBuild(n, j.BuildWidth); err != nil {
			return nil, err
		}
	case plan.FilterOp, plan.MapOp, plan.GroupByOp, plan.SortOp, plan.WindowOp, plan.MaterializeOp, plan.LimitOp:
		if n.Left == nil {
			return nil, fmt.Errorf("planio: %s requires an input", j.Op)
		}
	}
	return n, nil
}

// synthesizeBuild reconstructs minimal BuildKeys/ProbeKeys lists and records
// the materialized width explicitly (plan.Node.BuildWidth), so the
// featurizer's width computation round-trips exactly.
func synthesizeBuild(n *plan.Node, width int) error {
	if len(n.Left.Schema) == 0 {
		return fmt.Errorf("planio: HashJoin build side has no columns")
	}
	n.BuildKeys = []int{0}
	n.ProbeKeys = []int{0}
	n.BuildWidth = width
	return nil
}

// Marshal renders a plan as indented JSON.
func Marshal(n *plan.Node) ([]byte, error) {
	return json.MarshalIndent(Encode(n), "", "  ")
}

// Unmarshal parses a JSON plan document.
func Unmarshal(data []byte) (*plan.Node, error) {
	var j Node
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("planio: parse: %w", err)
	}
	return Decode(&j)
}
