package planio

import (
	"bytes"
	"testing"

	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/genplan"
)

// FuzzPlanIO feeds arbitrary bytes through Unmarshal. Inputs that parse must
// survive Marshal∘Unmarshal from the first pass: the re-decoded plan carries
// every annotation of the decoded one, build widths included, and marshals to
// the same bytes. A decoded plan is also handed to the engine, as
// `POST /run` does, with one worker and with four: its scans have no bound
// tables, so both runs must return the same error, and neither may panic.
func FuzzPlanIO(f *testing.F) {
	f.Add([]byte(`{"op":"TableScan","columns":[{"name":"k","type":"BIGINT"}],"card":{"true":8,"est":6},"table":"t0","scan_card":8}`))
	f.Add([]byte(`{"op":"Limit","card":{},"left":{"op":"TableScan","columns":[{"name":"k","type":"BIGINT"}],"card":{}}}`))
	f.Add([]byte(`{"op":"HashJoin","card":{"true":4,"est":4},"build_width":16,` +
		`"left":{"op":"TableScan","columns":[{"name":"a","type":"BIGINT"},{"name":"s","type":"VARCHAR"}],"card":{}},` +
		`"right":{"op":"TableScan","columns":[{"name":"b","type":"DOUBLE"}],"card":{}}}`))
	f.Add([]byte(`{"op":"TableScan","columns":[{"name":"x","type":"DOUBLE"}],"card":{"true":1e100,"est":-3},` +
		`"predicates":[{"class":"comparison","sel_true":0.5,"sel_est":2}]}`))
	f.Add([]byte(`{"op":"FlumeScan"}`))
	f.Add([]byte(`{]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p1, err := Unmarshal(data)
		if err != nil {
			return // malformed input must only yield an error, never a panic
		}
		m1, err := Marshal(p1)
		if err != nil {
			t.Fatalf("marshal of freshly decoded plan: %v", err)
		}
		p2, err := Unmarshal(m1)
		if err != nil {
			t.Fatalf("re-parse of own output: %v\n%s", err, m1)
		}
		samePlanAnnotations(t, p1, p2, "root")
		m2, err := Marshal(p2)
		if err != nil {
			t.Fatalf("second marshal: %v", err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("marshal not a fixed point:\nfirst:\n%s\nsecond:\n%s", m1, m2)
		}
		_, err1 := (&exec.Executor{}).Run(p1, true)
		_, err4 := (&exec.Executor{Workers: 4, MorselRows: 1}).Run(p1, true)
		if err1 == nil || err4 == nil {
			t.Fatalf("decoded plan executed: errors %v / %v", err1, err4)
		}
		if err1.Error() != err4.Error() {
			t.Fatalf("decoded plan fails differently by worker count:\n1: %v\n4: %v", err1, err4)
		}
	})
}

// samePlanAnnotations walks two plans in lockstep and compares every field
// the JSON form promises to carry: operator, schema, cardinalities, scan
// identity, predicate classes with their selectivities, and a hash join's
// build width, which the featurizer reads.
func samePlanAnnotations(t *testing.T, orig, back *plan.Node, path string) {
	t.Helper()
	if (orig == nil) != (back == nil) {
		t.Fatalf("%s: child present only on one side", path)
	}
	if orig == nil {
		return
	}
	if orig.Op != back.Op {
		t.Fatalf("%s: op %v -> %v", path, orig.Op, back.Op)
	}
	if orig.OutCard != back.OutCard {
		t.Fatalf("%s: card %+v -> %+v", path, orig.OutCard, back.OutCard)
	}
	if len(orig.Schema) != len(back.Schema) {
		t.Fatalf("%s: schema width %d -> %d", path, len(orig.Schema), len(back.Schema))
	}
	for i := range orig.Schema {
		if orig.Schema[i] != back.Schema[i] {
			t.Fatalf("%s: column %d: %+v -> %+v", path, i, orig.Schema[i], back.Schema[i])
		}
	}
	if orig.Op == plan.TableScanOp {
		if orig.TableName != back.TableName || orig.ScanCard != back.ScanCard {
			t.Fatalf("%s: scan %s/%g -> %s/%g", path, orig.TableName, orig.ScanCard, back.TableName, back.ScanCard)
		}
		if len(orig.Predicates) != len(back.Predicates) {
			t.Fatalf("%s: predicate count %d -> %d", path, len(orig.Predicates), len(back.Predicates))
		}
		for i := range orig.Predicates {
			if orig.Predicates[i].Class() != back.Predicates[i].Class() {
				t.Fatalf("%s: predicate %d class changed", path, i)
			}
			if orig.PredSel[i] != back.PredSel[i] {
				t.Fatalf("%s: predicate %d selectivity %+v -> %+v", path, i, orig.PredSel[i], back.PredSel[i])
			}
		}
	}
	if orig.Op == plan.HashJoinOp && orig.HashTupleWidth() != back.HashTupleWidth() {
		t.Fatalf("%s: build width %d -> %d", path, orig.HashTupleWidth(), back.HashTupleWidth())
	}
	samePlanAnnotations(t, orig.Left, back.Left, path+".L")
	samePlanAnnotations(t, orig.Right, back.Right, path+".R")
}

// TestRoundtripGeneratedPlans round-trips generator output twice: every
// annotation the featurizer reads survives Marshal→Unmarshal, again from the
// decoded plan, and the first marshaled form is already the fixed point.
// Hostile (NaN/Inf) annotation cases are excluded because JSON cannot
// represent them.
func TestRoundtripGeneratedPlans(t *testing.T) {
	tripped := 0
	for seed := int64(0); seed < 60; seed++ {
		for sc := genplan.Scenario(0); sc < genplan.NumScenarios; sc++ {
			c := genplan.Generate(seed, sc)
			if !c.FiniteCards {
				continue
			}
			m1, err := Marshal(c.Root)
			if err != nil {
				t.Fatalf("seed=%d scenario=%s: marshal: %v", seed, sc, err)
			}
			back, err := Unmarshal(m1)
			if err != nil {
				t.Fatalf("seed=%d scenario=%s: unmarshal: %v", seed, sc, err)
			}
			samePlanAnnotations(t, c.Root, back, "root")

			m2, err := Marshal(back)
			if err != nil {
				t.Fatalf("seed=%d scenario=%s: re-marshal: %v", seed, sc, err)
			}
			back2, err := Unmarshal(m2)
			if err != nil {
				t.Fatalf("seed=%d scenario=%s: re-unmarshal: %v", seed, sc, err)
			}
			samePlanAnnotations(t, back, back2, "root")
			if !bytes.Equal(m1, m2) {
				t.Fatalf("seed=%d scenario=%s: first marshal not a fixed point", seed, sc)
			}
			tripped++
		}
	}
	if tripped < 100 {
		t.Fatalf("only %d finite-annotation cases round-tripped; generator drifted?", tripped)
	}
}
