package exec

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/refexec"
	"t3/internal/engine/storage"
	"t3/internal/genplan"
)

// matDiff compares two materialized results bit-exactly (floats by bits).
func matDiff(a, b *Materialized) error {
	return matDiffTol(a, b, 0)
}

// matDiffTol compares two materialized results: ints and strings exactly,
// floats within relative tolerance tol (tol 0 = bit-exact). Morsel-parallel
// group-by merges reassociate float SUM/AVG accumulation, so those columns
// can differ from serial execution by rounding ULPs — and by nothing else.
func matDiffTol(a, b *Materialized, tol float64) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("one result is nil: a=%v b=%v", a != nil, b != nil)
	}
	if a == nil {
		return nil
	}
	if a.N != b.N {
		return fmt.Errorf("row count: %d vs %d", a.N, b.N)
	}
	if len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("column count: %d vs %d", len(a.Cols), len(b.Cols))
	}
	for ci := range a.Cols {
		ac, bc := &a.Cols[ci], &b.Cols[ci]
		if ac.Kind != bc.Kind || ac.Name != bc.Name {
			return fmt.Errorf("col %d meta: %s/%s vs %s/%s", ci, ac.Name, ac.Kind, bc.Name, bc.Kind)
		}
		for i := 0; i < a.N; i++ {
			switch ac.Kind {
			case storage.Int64:
				if ac.Ints[i] != bc.Ints[i] {
					return fmt.Errorf("col %d (%s) row %d: %d vs %d", ci, ac.Name, i, ac.Ints[i], bc.Ints[i])
				}
			case storage.Float64:
				x, y := ac.Flts[i], bc.Flts[i]
				if tol == 0 {
					if math.Float64bits(x) != math.Float64bits(y) {
						return fmt.Errorf("col %d (%s) row %d: %v vs %v (bits %x vs %x)",
							ci, ac.Name, i, x, y, math.Float64bits(x), math.Float64bits(y))
					}
				} else if diff := math.Abs(x - y); diff > tol*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
					return fmt.Errorf("col %d (%s) row %d: %v vs %v (diff %g)", ci, ac.Name, i, x, y, diff)
				}
			case storage.String:
				if ac.Strs[i] != bc.Strs[i] {
					return fmt.Errorf("col %d (%s) row %d: %q vs %q", ci, ac.Name, i, ac.Strs[i], bc.Strs[i])
				}
			}
		}
	}
	return nil
}

const parallelTol = 1e-9

// parallelJoinGroupPlan is a join + group-by with int and float aggregates
// over morsel-sized inputs, without order-destroying stages, so every column
// except the float sum must be bit-identical between serial and parallel
// execution (group output order is discovery order).
func parallelJoinGroupPlan(build, probe *storage.Table) *plan.Node {
	sb := plan.NewTableScan(build, []int{1, 2})
	sp := plan.NewTableScan(probe, []int{0, 1, 2})
	join := plan.NewHashJoin(sb, sp, []int{0}, []int{1}, []int{1})
	return plan.NewGroupBy(join, []int{1},
		[]plan.Agg{{Fn: plan.AggCount}, {Fn: plan.AggSum, Col: 3}, {Fn: plan.AggMax, Col: 0}},
		[]string{"c", "s", "m"})
}

// TestParallelMatchesSerialAtMorselBoundaries runs the same join/group plan
// serially and morsel-parallel across cardinalities straddling morsel and
// partition-block boundaries.
func TestParallelMatchesSerialAtMorselBoundaries(t *testing.T) {
	probeSizes := []int{255, 256, 257, 511, 512, 513, 1024, 1025}
	build := mkTable("b", 300, 3)
	for _, n := range probeSizes {
		probe := mkTable("p", n, int64(n))

		serial, err := (&Executor{BatchSize: 64}).Run(parallelJoinGroupPlan(build, probe), false)
		if err != nil {
			t.Fatalf("n=%d serial: %v", n, err)
		}
		pe := &Executor{BatchSize: 64, Workers: 3, MorselRows: 128}
		parallel, err := pe.Run(parallelJoinGroupPlan(build, probe), false)
		if err != nil {
			t.Fatalf("n=%d parallel: %v", n, err)
		}
		if err := matDiffTol(serial.Output, parallel.Output, parallelTol); err != nil {
			t.Fatalf("n=%d: parallel diverges from serial: %v", n, err)
		}
		// The probe pipeline scans n rows; with MorselRows=128 it must have
		// been split whenever n/128 >= 2.
		var probePT *PipelineTiming
		for i := range parallel.Pipelines {
			if parallel.Pipelines[i].SourceRows == n {
				probePT = &parallel.Pipelines[i]
			}
		}
		if probePT == nil {
			t.Fatalf("n=%d: no pipeline scanned %d source rows", n, n)
		}
		wantParts := n / 128
		if wantParts > 4*3 {
			wantParts = 4 * 3
		}
		if wantParts < 2 {
			if probePT.Morsels != 1 || probePT.Parallelism != 1 {
				t.Fatalf("n=%d: tiny pipeline reported %d morsels / %d-way", n, probePT.Morsels, probePT.Parallelism)
			}
		} else {
			if probePT.Morsels != wantParts {
				t.Fatalf("n=%d: got %d morsels, want %d", n, probePT.Morsels, wantParts)
			}
			wantPar := wantParts
			if wantPar > 3 {
				wantPar = 3
			}
			if probePT.Parallelism != wantPar {
				t.Fatalf("n=%d: got parallelism %d, want %d", n, probePT.Parallelism, wantPar)
			}
		}
	}
}

// TestParallelEmptyAndTinyInputs covers the degenerate ends: empty tables
// (zero partitions) and inputs smaller than a morsel, plus single-row
// morsels when MorselRows=1.
func TestParallelEmptyAndTinyInputs(t *testing.T) {
	build := mkTable("b", 20, 5)
	for _, n := range []int{0, 1, 2, 5, 19} {
		probe := mkTable("p", n, 11)
		for _, morsel := range []int{1, 128} {
			serial, err := (&Executor{BatchSize: 7}).Run(parallelJoinGroupPlan(build, probe), false)
			if err != nil {
				t.Fatalf("n=%d serial: %v", n, err)
			}
			pe := &Executor{BatchSize: 7, Workers: 4, MorselRows: morsel}
			parallel, err := pe.Run(parallelJoinGroupPlan(build, probe), false)
			if err != nil {
				t.Fatalf("n=%d morsel=%d parallel: %v", n, morsel, err)
			}
			if err := matDiffTol(serial.Output, parallel.Output, parallelTol); err != nil {
				t.Fatalf("n=%d morsel=%d: %v", n, morsel, err)
			}
		}
	}
}

// TestParallelSkewedKeys pins group discovery order under pathological key
// distributions: all rows in one group, and every row its own group. The key
// and count columns must be bit-identical to serial execution.
func TestParallelSkewedKeys(t *testing.T) {
	n := 2000
	for name, keyAt := range map[string]func(i int) int64{
		"all-duplicate": func(int) int64 { return 7 },
		"all-distinct":  func(i int) int64 { return int64(n - i) },
		"zipf-ish":      func(i int) int64 { return int64(i*i) % 13 },
	} {
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i := 0; i < n; i++ {
			keys[i] = keyAt(i)
			vals[i] = int64(i)
		}
		tab := storage.MustNewTable("skew",
			storage.Column{Name: "key", Kind: storage.Int64, Ints: keys},
			storage.Column{Name: "val", Kind: storage.Int64, Ints: vals},
		)
		root := func() *plan.Node {
			scan := plan.NewTableScan(tab, []int{0, 1})
			return plan.NewGroupBy(scan, []int{0},
				[]plan.Agg{{Fn: plan.AggCount}, {Fn: plan.AggSum, Col: 1}, {Fn: plan.AggMin, Col: 1}},
				[]string{"c", "s", "mn"})
		}
		serial, err := (&Executor{}).Run(root(), false)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		parallel, err := (&Executor{Workers: 4, MorselRows: 64}).Run(root(), false)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		// Integer sums are exact under any association, so the whole result
		// must be bit-identical — including the key column's order, which
		// proves the merge reproduces serial discovery order.
		if err := matDiff(serial.Output, parallel.Output); err != nil {
			t.Fatalf("%s: parallel group-by diverges bit-exactly: %v", name, err)
		}
	}
}

// TestParallelWorkers1BitIdentical: Workers=1 must run every pipeline as one
// block and produce bit-identical output and annotations to the zero
// executor.
func TestParallelWorkers1BitIdentical(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for sc := genplan.Scenario(0); sc < genplan.NumScenarios; sc++ {
			a := genplan.Generate(seed, sc)
			b := genplan.Generate(seed, sc)
			ra, err := (&Executor{BatchSize: 33}).Run(a.Root, true)
			if err != nil {
				t.Fatalf("seed=%d sc=%s zero executor: %v", seed, sc, err)
			}
			rb, err := (&Executor{BatchSize: 33, Workers: 1, MorselRows: 16}).Run(b.Root, true)
			if err != nil {
				t.Fatalf("seed=%d sc=%s workers=1: %v", seed, sc, err)
			}
			if err := matDiff(ra.Output, rb.Output); err != nil {
				t.Fatalf("seed=%d sc=%s: workers=1 not bit-identical: %v", seed, sc, err)
			}
			ca, cb := snapshotCards(a.Root), snapshotCards(b.Root)
			if len(ca) != len(cb) {
				t.Fatalf("seed=%d sc=%s: annotation count differs", seed, sc)
			}
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("seed=%d sc=%s: annotation %d differs: %x vs %x", seed, sc, i, ca[i], cb[i])
				}
			}
			for i := range rb.Pipelines {
				if rb.Pipelines[i].Parallelism != 1 || rb.Pipelines[i].Morsels != 1 {
					t.Fatalf("seed=%d sc=%s: workers=1 pipeline %d reports parallel execution", seed, sc, i)
				}
			}
		}
	}
}

// TestParallelDifferentialMany is the morsel-parallel twin of
// TestExecDifferentialMany: generated plans (including empty inputs,
// duplicate join keys, and group growth) executed with forced morsel
// splitting must match refexec row for row — ints and strings exactly,
// floats within reassociation tolerance — and annotation runs must yield
// the exact cardinalities and selectivities of a serial annotate run.
func TestParallelDifferentialMany(t *testing.T) {
	plans := 0
	for seed := int64(0); seed < 60; seed++ {
		for sc := genplan.Scenario(0); sc < genplan.NumScenarios; sc++ {
			batch := 1 + int(seed*7)%193
			cp := genplan.Generate(seed, sc)
			cs := genplan.Generate(seed, sc)

			ref, err := refexec.Run(cp.Root)
			if err != nil {
				t.Fatalf("seed=%d sc=%s refexec: %v", seed, sc, err)
			}
			refMat := &Materialized{Cols: ref.Cols, N: ref.N}

			pe := &Executor{BatchSize: batch, Workers: 4, MorselRows: 16}
			rp, err := pe.Run(cp.Root, false)
			if err != nil {
				t.Fatalf("seed=%d sc=%s parallel: %v", seed, sc, err)
			}
			if err := matDiffTol(rp.Output, refMat, parallelTol); err != nil {
				t.Fatalf("seed=%d sc=%s batch=%d: parallel vs refexec: %v\nplan:\n%s",
					seed, sc, batch, err, cp.Root.Explain())
			}

			// Annotate with morsel parallelism; cardinalities and
			// selectivities are integer-derived and must equal a serial
			// annotate run bit for bit (the label determinism contract).
			if _, err := pe.Run(cp.Root, true); err != nil {
				t.Fatalf("seed=%d sc=%s parallel annotate: %v", seed, sc, err)
			}
			if _, err := (&Executor{BatchSize: batch}).Run(cs.Root, true); err != nil {
				t.Fatalf("seed=%d sc=%s serial annotate: %v", seed, sc, err)
			}
			pc, scards := snapshotCards(cp.Root), snapshotCards(cs.Root)
			if len(pc) != len(scards) {
				t.Fatalf("seed=%d sc=%s: annotation count differs", seed, sc)
			}
			for i := range pc {
				if pc[i] != scards[i] {
					t.Fatalf("seed=%d sc=%s: annotation %d differs parallel vs serial: %x vs %x\nplan:\n%s",
						seed, sc, i, pc[i], scards[i], cp.Root.Explain())
				}
			}

			// Re-run presized from true cardinalities; must still match.
			rp2, err := pe.Run(cp.Root, false)
			if err != nil {
				t.Fatalf("seed=%d sc=%s post-annotate parallel: %v", seed, sc, err)
			}
			if err := matDiffTol(rp2.Output, refMat, parallelTol); err != nil {
				t.Fatalf("seed=%d sc=%s: post-annotate parallel vs refexec: %v", seed, sc, err)
			}
			plans++
		}
	}
	t.Logf("compared %d generated plans morsel-parallel vs refexec", plans)
}

// TestParallelDeterministicAcrossWorkerCounts: with integer-only aggregates
// the full result must be bit-identical for every worker count and morsel
// size, not merely equivalent.
func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	build := mkTable("b", 500, 17)
	probe := mkTable("p", 6000, 18)
	base, err := (&Executor{}).Run(parallelJoinGroupPlan(build, probe), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 4, 8} {
		for _, morsel := range []int{64, 500, 4096} {
			res, err := (&Executor{Workers: w, MorselRows: morsel}).Run(parallelJoinGroupPlan(build, probe), false)
			if err != nil {
				t.Fatalf("workers=%d morsel=%d: %v", w, morsel, err)
			}
			// Key, count, and max columns must be bit-identical; the float
			// sum within reassociation tolerance.
			if err := matDiffTol(base.Output, res.Output, parallelTol); err != nil {
				t.Fatalf("workers=%d morsel=%d: %v", w, morsel, err)
			}
		}
	}
}

// TestParallelLimitStaysSerial: pipelines containing LIMIT depend on push
// order and must never be split.
func TestParallelLimitStaysSerial(t *testing.T) {
	tab := mkTable("t", 5000, 9)
	scan := plan.NewTableScan(tab, []int{0, 1, 2})
	srt := plan.NewSort(scan, []int{0}, []bool{false})
	lim := plan.NewLimit(srt, 10)
	serial, err := (&Executor{}).Run(lim, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Executor{Workers: 4, MorselRows: 64}).Run(lim, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := matDiff(serial.Output, res.Output); err != nil {
		t.Fatalf("limit query diverged: %v", err)
	}
	// First pipeline (scan -> sort build) may parallelize; the final
	// pipeline scanning the sorted breaker through LIMIT must not.
	final := res.Pipelines[len(res.Pipelines)-1]
	if final.Parallelism != 1 || final.Morsels != 1 {
		t.Fatalf("LIMIT pipeline ran %d-way over %d morsels", final.Parallelism, final.Morsels)
	}
	first := res.Pipelines[0]
	if first.Morsels < 2 {
		t.Fatalf("sort-build pipeline did not split (morsels=%d)", first.Morsels)
	}
}

// TestReuseRecyclesResult: with Reuse set, Run hands back the same result
// and output buffers each call, with correct fresh contents.
func TestReuseRecyclesResult(t *testing.T) {
	tab := mkTable("t", 3000, 13)
	root := func(limit int) *plan.Node {
		scan := plan.NewTableScan(tab, []int{0, 1, 2})
		srt := plan.NewSort(scan, []int{1, 0}, []bool{false, false})
		return plan.NewLimit(srt, limit)
	}
	e := &Executor{Reuse: true}
	r1, err := e.Run(root(100), false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Executor{}).Run(root(100), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := matDiff(want.Output, r1.Output); err != nil {
		t.Fatalf("first reuse run wrong: %v", err)
	}
	out1 := r1.Output
	r2, err := e.Run(root(50), false)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Fatal("Reuse executor allocated a fresh RunResult")
	}
	if r2.Output != out1 {
		t.Fatal("Reuse executor allocated a fresh output Materialized")
	}
	if r2.Rows != 50 || r2.Output.N != 50 {
		t.Fatalf("second run rows = %d / %d, want 50", r2.Rows, r2.Output.N)
	}
	want2, err := (&Executor{}).Run(root(50), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := matDiff(want2.Output, r2.Output); err != nil {
		t.Fatalf("second reuse run wrong: %v", err)
	}
}

// TestReuseSteadyStateAllocs bounds the per-query allocation of the
// label-collection hot loop: an annotated plan re-executed on a Reuse
// executor must settle to a small constant number of allocations (stage
// closures and map headers), nowhere near the ~3.7k/query it used to be.
func TestReuseSteadyStateAllocs(t *testing.T) {
	build := mkTable("b", 1000, 21)
	probe := mkTable("p", 8000, 22)
	root := parallelJoinGroupPlan(build, probe)
	e := &Executor{Reuse: true}
	if _, err := e.Run(root, true); err != nil {
		t.Fatal(err)
	}
	// Warm the scratch pool.
	for i := 0; i < 3; i++ {
		if _, err := e.Run(root, false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Run(root, false); err != nil {
			t.Fatal(err)
		}
	})
	// Stage closures, the runtime struct, and per-run odds and ends are
	// tolerated; buffer churn is not. The exact count is implementation
	// detail — the bound just has to stay two orders of magnitude below the
	// old per-query cost.
	if allocs > 40 {
		t.Fatalf("steady-state Run allocates %.0f times, want <= 40", allocs)
	}
}

// TestReuseParallelSteadyStateAllocs bounds the same loop with morsels on:
// a Reuse executor with two workers splits both the join build and the
// probe/group-by pipeline into blocks, pulled over the pool and merged as
// they finish. Partition scratches are the executor's own, so there is no
// buffer churn either.
func TestReuseParallelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	build := mkTable("b", 1000, 21)
	probe := mkTable("p", 8000, 22)
	root := parallelJoinGroupPlan(build, probe)
	e := &Executor{Workers: 2, MorselRows: 256, Reuse: true}
	res, err := e.Run(root, true)
	if err != nil {
		t.Fatal(err)
	}
	parallel := 0
	for _, p := range res.Pipelines {
		if p.Morsels > 1 {
			parallel++
		}
	}
	if parallel < 2 {
		t.Fatalf("%d pipelines ran morsel-parallel, want the join build and the probe", parallel)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Run(root, false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Run(root, false); err != nil {
			t.Fatal(err)
		}
	})
	// 42 when the guard was set, on linux/amd64 with Go 1.24: the serial
	// loop's stage closures plus, per parallel pipeline, the pool job, the
	// block closure, the partition results and each block's sink and stage
	// closures.
	if allocs > 48 {
		t.Fatalf("steady-state morsel-parallel Run allocates %.0f times, want <= 48", allocs)
	}
}

// TestParallelConcurrentRuns exercises the morsel path from many goroutines
// sharing base tables and the process-wide pool (the collection topology)
// under the race detector.
func TestParallelConcurrentRuns(t *testing.T) {
	build := mkTable("b", 400, 31)
	probe := mkTable("p", 3000, 32)
	want, err := (&Executor{}).Run(parallelJoinGroupPlan(build, probe), false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := &Executor{Workers: 2, MorselRows: 32, Reuse: true}
			for it := 0; it < 10; it++ {
				res, err := e.Run(parallelJoinGroupPlan(build, probe), it%2 == 0)
				if err != nil {
					errs[g] = err
					return
				}
				if err := matDiffTol(want.Output, res.Output, parallelTol); err != nil {
					errs[g] = fmt.Errorf("iter %d: %w", it, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestParallelExpressionStages runs filter+map stages morsel-parallel: the
// compiled map kernels and per-partition selection vectors must reproduce
// the serial pipeline exactly.
func TestParallelExpressionStages(t *testing.T) {
	tab := mkTable("t", 4000, 41)
	root := func() *plan.Node {
		scan := plan.NewTableScan(tab, []int{0, 1, 2, 3},
			expr.NewCmp(expr.Ge, expr.Col(0, "id", storage.Int64), expr.ConstInt(100)))
		fil := plan.NewFilter(scan, expr.NewCmp(expr.Lt, expr.Col(2, "val", storage.Float64), expr.ConstFloat(90)))
		m := plan.NewMap(fil, []string{"scaled"},
			[]expr.ValueExpr{expr.NewArith(expr.Mul, expr.Col(2, "val", storage.Float64), expr.ConstFloat(0.5))})
		return plan.NewSort(m, []int{0}, []bool{false})
	}
	serial, err := (&Executor{BatchSize: 100}).Run(root(), true)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Executor{BatchSize: 100, Workers: 4, MorselRows: 256}).Run(root(), true)
	if err != nil {
		t.Fatal(err)
	}
	// Map arithmetic runs per row in both modes — no reassociation anywhere,
	// so even the float column is bit-exact.
	if err := matDiff(serial.Output, parallel.Output); err != nil {
		t.Fatalf("expression pipeline diverged: %v", err)
	}
}

// TestReuseOwnsScratch: an executor with Reuse set keeps its execution
// scratch — the run's own and one per morsel partition — across runs instead
// of drawing from the process-wide pool, and two executors never share one.
// An executor without Reuse keeps none.
func TestReuseOwnsScratch(t *testing.T) {
	build := mkTable("b", 600, 51)
	probe := mkTable("p", 4000, 52)
	run := func(e *Executor) {
		t.Helper()
		if _, err := e.Run(parallelJoinGroupPlan(build, probe), false); err != nil {
			t.Fatal(err)
		}
	}
	a := &Executor{Workers: 2, MorselRows: 256, Reuse: true}
	run(a)
	own, parts := a.scratch, slices.Clone(a.parts)
	if own == nil || len(parts) < 2 {
		t.Fatalf("after a morsel run the executor owns a run scratch: %v, and %d partition scratches", own != nil, len(parts))
	}
	// Release keeps a batch buffer's column names; stamp them, so that only
	// a checkout in the second run can rename them.
	const stale = "from run 1"
	for _, s := range append([]*execScratch{own}, parts...) {
		for _, bb := range s.batches {
			for i := range bb.cols {
				bb.cols[i].Name = stale
			}
		}
	}
	run(a)
	if a.scratch != own {
		t.Fatal("second run replaced the run scratch")
	}
	if !slices.Equal(a.parts, parts) {
		t.Fatal("second run replaced a partition scratch")
	}
	// The second run used every scratch, and all of them draw from one
	// arena. A partition scratch keeps the objects it handed out, but its
	// block's partial went back to the arena when the block was merged:
	// between runs it holds no array.
	for k, s := range append([]*execScratch{own}, parts...) {
		if len(s.batches) == 0 || s.batches[0].cols[0].Name == stale {
			t.Fatalf("scratch %d handed out no batch buffer in the second run", k)
		}
		if s.ar != own.ar {
			t.Fatalf("scratch %d draws from an arena of its own", k)
		}
	}
	for k, s := range parts {
		if s.nb+s.nh+s.nm+s.nj+s.ng+s.np+s.nt != 0 {
			t.Fatalf("partition scratch %d still holds checkouts after the run", k)
		}
	}

	b := &Executor{Workers: 2, MorselRows: 256, Reuse: true}
	run(b)
	owned := map[*execScratch]bool{a.scratch: true}
	for _, s := range a.parts {
		owned[s] = true
	}
	if len(owned) != 1+len(a.parts) {
		t.Fatal("one executor's scratches alias each other")
	}
	for _, s := range append([]*execScratch{b.scratch}, b.parts...) {
		if owned[s] {
			t.Fatal("two executors share a scratch")
		}
	}

	c := &Executor{Workers: 2, MorselRows: 256}
	run(c)
	if c.scratch != nil || c.parts != nil {
		t.Fatal("an executor without Reuse kept its scratch")
	}
}
