package exec

import (
	"testing"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
	"t3/internal/par"
)

// buildComplexPlan assembles a plan exercising every operator type.
func buildComplexPlan(t *testing.T) *plan.Node {
	t.Helper()
	build := mkTable("b", 700, 21)
	probe := mkTable("p", 4000, 22)
	sb := plan.NewTableScan(build, []int{1, 2},
		expr.NewCmp(expr.Lt, expr.Col(1, "val", storage.Float64), expr.ConstFloat(80)))
	sp := plan.NewTableScan(probe, []int{1, 2, 3},
		expr.NewInListStrings(expr.Col(2, "word", storage.String),
			[]string{"alpha", "beta", "gamma", "delta"}))
	fil := plan.NewFilter(sp, expr.NewCmp(expr.Ge, expr.Col(1, "val", storage.Float64), expr.ConstFloat(5)))
	m := plan.NewMap(fil, []string{"scaled"}, []expr.ValueExpr{
		expr.NewArith(expr.Mul, expr.Col(1, "val", storage.Float64), expr.ConstFloat(0.25)),
	})
	join := plan.NewHashJoin(sb, m, []int{0}, []int{0}, []int{1})
	win := plan.NewWindow(join, plan.WinRank, []int{0}, []int{1}, 1, "rnk")
	gb := plan.NewGroupBy(win, []int{0},
		[]plan.Agg{{Fn: plan.AggSum, Col: 3}, {Fn: plan.AggCount}, {Fn: plan.AggMax, Col: 4}},
		[]string{"s", "c", "mx"})
	srt := plan.NewSort(gb, []int{1, 0}, []bool{true, false})
	return plan.NewLimit(srt, 50)
}

// TestBatchSizeInvariance is the executor's core correctness property:
// results must not depend on the batch size tuples are pushed in.
func TestBatchSizeInvariance(t *testing.T) {
	root := buildComplexPlan(t)
	ref, err := (&Executor{BatchSize: 1024}).Run(root, true)
	if err != nil {
		t.Fatal(err)
	}
	refCards := snapshotCards(root)

	for _, bs := range []int{1, 3, 7, 64, 1000, 4096} {
		res, err := (&Executor{BatchSize: bs}).Run(root, true)
		if err != nil {
			t.Fatalf("batch size %d: %v", bs, err)
		}
		if res.Rows != ref.Rows {
			t.Fatalf("batch size %d: %d rows, want %d", bs, res.Rows, ref.Rows)
		}
		for c := range ref.Output.Cols {
			a, b := &ref.Output.Cols[c], &res.Output.Cols[c]
			for i := 0; i < ref.Rows; i++ {
				switch a.Kind {
				case storage.Int64:
					if a.Ints[i] != b.Ints[i] {
						t.Fatalf("batch size %d: col %d row %d: %d != %d", bs, c, i, b.Ints[i], a.Ints[i])
					}
				case storage.Float64:
					if a.Flts[i] != b.Flts[i] {
						t.Fatalf("batch size %d: col %d row %d: %v != %v", bs, c, i, b.Flts[i], a.Flts[i])
					}
				case storage.String:
					if a.Strs[i] != b.Strs[i] {
						t.Fatalf("batch size %d: col %d row %d: %q != %q", bs, c, i, b.Strs[i], a.Strs[i])
					}
				}
			}
		}
		got := snapshotCards(root)
		for i := range refCards {
			if got[i] != refCards[i] {
				t.Fatalf("batch size %d: annotated cardinality %d changed: %v != %v", bs, i, got[i], refCards[i])
			}
		}
	}
}

// snapshotCards collects true-cardinality annotations in walk order.
func snapshotCards(root *plan.Node) []float64 {
	var out []float64
	root.Walk(func(n *plan.Node) {
		out = append(out, n.OutCard.True)
		for i := range n.PredSel {
			out = append(out, n.PredSel[i].True)
		}
	})
	return out
}

// TestMaterializeRescan verifies a materialized breaker can feed a further
// pipeline (sort over materialize).
func TestMaterializeRescan(t *testing.T) {
	tab := mkTable("t", 1000, 23)
	scan := plan.NewTableScan(tab, []int{1, 2})
	mat := plan.NewMaterialize(scan)
	srt := plan.NewSort(mat, []int{0}, []bool{false})
	res, err := Run(srt, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1000 {
		t.Fatalf("rows = %d", res.Rows)
	}
	k := res.Output.Cols[0].Ints
	for i := 1; i < len(k); i++ {
		if k[i-1] > k[i] {
			t.Fatal("sort after materialize violated order")
		}
	}
	if len(res.Pipelines) != 3 {
		t.Fatalf("pipelines = %d, want 3 (scan->mat, mat->sort, sort->result)", len(res.Pipelines))
	}
}

// TestProjectionReplacesSchema verifies Project drops columns.
func TestProjectionReplacesSchema(t *testing.T) {
	tab := mkTable("t", 100, 24)
	scan := plan.NewTableScan(tab, []int{0, 1, 2, 3})
	pr := plan.Project(scan, []int{2})
	res, err := Run(plan.NewMaterialize(pr), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output.Cols) != 1 || res.Output.Cols[0].Name != "val" {
		t.Fatalf("projection output: %+v", res.Output.Cols)
	}
	for i, v := range res.Output.Cols[0].Flts {
		if v != tab.Column("val").Flts[i] {
			t.Fatalf("row %d: wrong values after projection", i)
		}
	}
}

// TestWindowSumRunning verifies the running-sum window function.
func TestWindowSumRunning(t *testing.T) {
	tab := storage.MustNewTable("t",
		storage.Column{Name: "part", Kind: storage.Int64, Ints: []int64{1, 1, 2, 2, 2}},
		storage.Column{Name: "ord", Kind: storage.Int64, Ints: []int64{1, 2, 1, 2, 3}},
		storage.Column{Name: "v", Kind: storage.Float64, Flts: []float64{10, 20, 1, 2, 3}},
	)
	scan := plan.NewTableScan(tab, []int{0, 1, 2})
	win := plan.NewWindow(scan, plan.WinSum, []int{0}, []int{1}, 2, "run")
	res, err := Run(win, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 30, 1, 3, 6}
	for i, w := range want {
		if got := res.Output.Cols[3].Flts[i]; got != w {
			t.Errorf("running sum[%d] = %v, want %v", i, got, w)
		}
	}
}

// TestStringAggregates verifies MIN/MAX over string columns.
func TestStringAggregates(t *testing.T) {
	tab := mkTable("t", 500, 25)
	scan := plan.NewTableScan(tab, []int{3})
	gb := plan.NewGroupBy(scan, nil,
		[]plan.Agg{{Fn: plan.AggMin, Col: 0}, {Fn: plan.AggMax, Col: 0}},
		[]string{"mn", "mx"})
	res, err := Run(gb, false)
	if err != nil {
		t.Fatal(err)
	}
	words := tab.Column("word").Strs
	mn, mx := words[0], words[0]
	for _, w := range words {
		if w < mn {
			mn = w
		}
		if w > mx {
			mx = w
		}
	}
	if res.Output.Cols[0].Strs[0] != mn || res.Output.Cols[1].Strs[0] != mx {
		t.Fatalf("string min/max = %q/%q, want %q/%q",
			res.Output.Cols[0].Strs[0], res.Output.Cols[1].Strs[0], mn, mx)
	}
}

// TestScanOfBreakerBeforeBuildFails covers the defensive error path.
func TestScanOfBreakerBeforeBuildFails(t *testing.T) {
	tab := mkTable("t", 10, 26)
	scan := plan.NewTableScan(tab, []int{0})
	srt := plan.NewSort(scan, []int{0}, []bool{false})
	rt := &runtime{batchSize: 16, states: map[*plan.Node]any{}, counts: map[*plan.Node]*nodeCount{}, scratch: &execScratch{}}
	if _, _, err := rt.source(srt); err == nil {
		t.Fatal("scanning a breaker before its build must fail")
	}
}

// TestUnboundTableFails covers released plans.
func TestUnboundTableFails(t *testing.T) {
	tab := mkTable("t", 10, 27)
	scan := plan.NewTableScan(tab, []int{0})
	scan.Table = nil
	if _, err := Run(plan.NewMaterialize(scan), false); err == nil {
		t.Fatal("executing a released plan must fail")
	}
}

// TestPipelineSourceErrors runs pipelines whose source cannot be scanned
// with one worker and with four: each fails with the same error, reported
// before the pipeline's terminal is opened.
func TestPipelineSourceErrors(t *testing.T) {
	tab := mkTable("t", 100, 28)
	unbound := plan.NewTableScan(tab, []int{0, 1})
	unbound.Table = nil
	scan := plan.NewTableScan(tab, []int{0})
	cases := []struct {
		name string
		src  *plan.Node
		want string
	}{
		{"unbound table", unbound, `table scan "t" has no bound table`},
		{"breaker before its build", plan.NewSort(scan, []int{0}, []bool{false}), "scan of Sort before its build ran"},
		{"not a source", plan.NewFilter(scan, expr.NewCmp(expr.Lt, expr.Col(0, "id", storage.Int64), expr.ConstInt(5))),
			"node Filter cannot be a pipeline source"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			rt := &runtime{batchSize: 16, states: map[*plan.Node]any{}, counts: map[*plan.Node]*nodeCount{},
				scratch: &execScratch{}, workers: workers, morsel: 1}
			if workers > 1 {
				rt.pool = par.Sized(workers)
			}
			p := &plan.Pipeline{Stages: []plan.StageRef{{Node: c.src, Stage: plan.StageScan}}}
			_, err := rt.runPipeline(p, c.src)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s, %d workers: error %v, want %q", c.name, workers, err, c.want)
			}
			if rt.result != nil {
				t.Errorf("%s, %d workers: the query result was opened before the source failed", c.name, workers)
			}
		}
	}
}
