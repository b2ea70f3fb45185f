package exec_test

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"t3/internal/engine/exec"
	"t3/internal/engine/storage"
	"t3/internal/par"
	"t3/internal/workload"
)

// mixedGroups are the structure groups of the engine_exec benchmark
// workload: all but the unfiltered joins and the bare window.
var mixedGroups = map[workload.Group]bool{
	workload.GroupSe: true, workload.GroupCSe: true, workload.GroupA: true, workload.GroupSiA: true,
	workload.GroupSeA: true, workload.GroupSeSiA: true, workload.GroupSeJ: true, workload.GroupCSeJ: true,
	workload.GroupSeJA: true, workload.GroupSeJSiA: true, workload.GroupCSeJA: true,
	workload.GroupSeJW: true, workload.GroupSeJASo: true,
}

// mixedQueries generates three queries of every mixed group over a small
// TPC-H-lite instance. The plans carry no cardinalities.
func mixedQueries(t *testing.T) (*workload.Instance, []*workload.Query) {
	t.Helper()
	in, err := workload.Generate(workload.TPCHSpec("tpch_mixed", 0.03, 7))
	if err != nil {
		t.Fatal(err)
	}
	return in, mixedSet(t, in)
}

// mixedSet generates the mixed queries over in, as fresh plans.
func mixedSet(t *testing.T, in *workload.Instance) []*workload.Query {
	t.Helper()
	var qs []*workload.Query
	for _, q := range workload.GenerateQueries(in, workload.GenConfig{PerGroup: 3, Seed: 11}) {
		if mixedGroups[q.Group] {
			qs = append(qs, q)
		}
	}
	if len(qs) != 3*len(mixedGroups) {
		t.Fatalf("%d mixed queries, want %d", len(qs), 3*len(mixedGroups))
	}
	return qs
}

// mixedExecutor is a Reuse executor with two workers and small morsels, so
// the large pipelines split into blocks whose partials merge.
func mixedExecutor(workers int, pool *par.Pool) *exec.Executor {
	return &exec.Executor{Workers: workers, MorselRows: 512, Pool: pool, Reuse: true}
}

// runAll runs qs[k] for every k of order and returns how many pipelines ran
// as more than one block.
func runAll(t *testing.T, e *exec.Executor, qs []*workload.Query, order []int, annotate bool) int {
	t.Helper()
	morsels := 0
	for _, k := range order {
		res, err := e.Run(qs[k].Root, annotate)
		if err != nil {
			t.Fatalf("%s: %v", qs[k].Name, err)
		}
		for _, p := range res.Pipelines {
			if p.Morsels > 1 {
				morsels++
			}
		}
	}
	return morsels
}

// TestReuseMixedSteadyState is the counted guard on the mixed-query steady
// state of a Reuse executor, the label-collection loop. After an annotate
// pass and a shuffled warm pass:
//
//   - the arena retains at most 1.25 times the largest single-query
//     footprint: what one query of the mix allocates in all on a fresh
//     executor;
//   - a further pass allocates at most 8 KiB per query.
//
// Allocation is counted through runtime.MemStats and retention from the
// arena's own lists, never timed. Which blocks hold partials at once
// depends on the schedule, so the executors split pipelines for two workers
// but run the blocks over a one-worker pool, which runs them in order on the
// caller: the counts are the same every time.
func TestReuseMixedSteadyState(t *testing.T) {
	if exec.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	_, qs := mixedQueries(t)
	pool := par.New(1)
	e := mixedExecutor(2, pool)
	runAll(t, e, qs, rand.New(rand.NewSource(1)).Perm(len(qs)), true)
	footprint := largestFootprint(t, qs, pool)

	order := rand.New(rand.NewSource(2)).Perm(len(qs))
	runAll(t, e, qs, order, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	morsels := runAll(t, e, qs, order, false)
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(qs))
	if morsels == 0 {
		t.Fatal("no pipeline ran as blocks: the partials are untested")
	}

	retained := exec.ArenaBytes(e)
	t.Logf("%d queries: arena retains %d B, largest single-query footprint %d B; %.0f B/query allocated",
		len(qs), retained, footprint, perQuery)
	if float64(retained) > 1.25*float64(footprint) {
		t.Errorf("arena retains %d B after the mixed passes, over 1.25x the largest single-query footprint (%d B)", retained, footprint)
	}
	if perQuery > 8<<10 {
		t.Errorf("steady-state pass allocates %.0f B per query, want <= 8 KiB", perQuery)
	}
}

// largestFootprint is the most that one run of one of qs allocates on a
// fresh executor.
func largestFootprint(t *testing.T, qs []*workload.Query, pool *par.Pool) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	footprint := uint64(0)
	for k := range qs {
		runtime.ReadMemStats(&before)
		runAll(t, mixedExecutor(2, pool), qs, []int{k}, false)
		runtime.ReadMemStats(&after)
		footprint = max(footprint, after.TotalAlloc-before.TotalAlloc)
	}
	return footprint
}

// TestReuseLabelLoopSteadyState is the counted guard on the label loop of
// workload.CollectQueries: each query arrives as a fresh plan without
// cardinalities, has one analyze run, then labelRuns plain runs, on one
// Reuse executor. An analyze run sizes its arrays by doubling, not from the
// plan, so it runs on pooled scratch and leaves the executor's arena alone.
// After two such passes over the mixed set, a third must keep the arena at
// most 1.25 times the largest single-query footprint and allocate at most
// 8 KiB per plain run. What the analyze runs allocate is logged: it depends
// on whether a collection emptied the scratch pool in between.
func TestReuseLabelLoopSteadyState(t *testing.T) {
	if exec.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const labelRuns = 3
	in, qs := mixedQueries(t)
	pool := par.New(1)
	runAll(t, &exec.Executor{}, qs, rand.New(rand.NewSource(1)).Perm(len(qs)), true)
	footprint := largestFootprint(t, qs, pool)

	e := mixedExecutor(2, pool)
	plain := make([]int, labelRuns)
	var before, after runtime.MemStats
	var analyzed, ran uint64
	for pass := 0; pass < 3; pass++ {
		analyzed, ran = 0, 0
		fresh := mixedSet(t, in)
		for k := range fresh {
			runtime.ReadMemStats(&before)
			runAll(t, e, fresh, []int{k}, true)
			runtime.ReadMemStats(&after)
			analyzed += after.TotalAlloc - before.TotalAlloc
			for r := range plain {
				plain[r] = k
			}
			runtime.ReadMemStats(&before)
			runAll(t, e, fresh, plain, false)
			runtime.ReadMemStats(&after)
			ran += after.TotalAlloc - before.TotalAlloc
		}
	}
	perRun := float64(ran) / float64(labelRuns*len(qs))
	retained := exec.ArenaBytes(e)
	t.Logf("%d labels of %d runs: arena retains %d B, largest single-query footprint %d B; %.0f B per plain run, %d B per analyze run allocated",
		len(qs), labelRuns, retained, footprint, perRun, analyzed/uint64(len(qs)))
	if float64(retained) > 1.25*float64(footprint) {
		t.Errorf("arena retains %d B after the label passes, over 1.25x the largest single-query footprint (%d B)", retained, footprint)
	}
	if perRun > 8<<10 {
		t.Errorf("a plain run of the label loop allocates %.0f B, want <= 8 KiB", perRun)
	}
}

// TestReuseMixedAliasing guards the arena's aliasing rules: an array goes
// back to the arena only when nothing reads it any more, and no arena array
// is a base table's. The mixed set runs twice on a Reuse executor at one and
// two workers; every result must equal a fresh serial executor's (float
// aggregates of a parallel run within reassociation rounding), and every
// base-table column must come out byte-identical.
func TestReuseMixedAliasing(t *testing.T) {
	in, qs := mixedQueries(t)
	before := snapshotTables(in)
	runAll(t, &exec.Executor{}, qs, rand.New(rand.NewSource(1)).Perm(len(qs)), true)
	pool := par.Sized(2)
	for _, workers := range []int{1, 2} {
		e := mixedExecutor(workers, pool)
		for pass := 0; pass < 2; pass++ {
			for _, k := range rand.New(rand.NewSource(int64(pass))).Perm(len(qs)) {
				got, err := e.Run(qs[k].Root, false)
				if err != nil {
					t.Fatal(err)
				}
				want, err := (&exec.Executor{}).Run(qs[k].Root, false)
				if err != nil {
					t.Fatal(err)
				}
				tol := 0.0
				if workers > 1 {
					tol = 1e-9
				}
				if msg := diffOutput(got.Output, want.Output, tol); msg != "" {
					t.Fatalf("workers=%d pass %d %s: %s", workers, pass, qs[k].Name, msg)
				}
			}
		}
	}
	if !tablesEqual(before, snapshotTables(in)) {
		t.Fatal("a base table changed: an arena array aliased it")
	}
}

// snapshotTables deep-copies every column of the instance's tables.
func snapshotTables(in *workload.Instance) [][]storage.Column {
	var out [][]storage.Column
	for _, tab := range in.DB.Tables {
		cols := make([]storage.Column, len(tab.Columns))
		for i, c := range tab.Columns {
			cols[i] = storage.Column{Name: c.Name, Kind: c.Kind,
				Ints: slices.Clone(c.Ints), Flts: slices.Clone(c.Flts),
				Strs: slices.Clone(c.Strs), Nulls: slices.Clone(c.Nulls)}
		}
		out = append(out, cols)
	}
	return out
}

func tablesEqual(a, b [][]storage.Column) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		for i := range a[t] {
			x, y := &a[t][i], &b[t][i]
			if !slices.Equal(x.Ints, y.Ints) || !slices.Equal(x.Strs, y.Strs) || !slices.Equal(x.Nulls, y.Nulls) ||
				!slices.EqualFunc(x.Flts, y.Flts, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }) {
				return false
			}
		}
	}
	return true
}

// diffOutput describes the first difference between two results: ints and
// strings exactly, floats within relative tolerance tol (0: bit for bit).
func diffOutput(a, b *exec.Materialized, tol float64) string {
	if a.N != b.N || len(a.Cols) != len(b.Cols) {
		return "shape differs"
	}
	for c := range a.Cols {
		x, y := &a.Cols[c], &b.Cols[c]
		if x.Kind != y.Kind || x.Name != y.Name {
			return "column " + x.Name + " differs in name or kind"
		}
		for i := 0; i < a.N; i++ {
			switch x.Kind {
			case storage.Int64:
				if x.Ints[i] != y.Ints[i] {
					return "column " + x.Name + " differs"
				}
			case storage.String:
				if x.Strs[i] != y.Strs[i] {
					return "column " + x.Name + " differs"
				}
			case storage.Float64:
				p, q := x.Flts[i], y.Flts[i]
				if tol == 0 && math.Float64bits(p) != math.Float64bits(q) ||
					math.Abs(p-q) > tol*math.Max(1, math.Max(math.Abs(p), math.Abs(q))) {
					return "column " + x.Name + " differs"
				}
			}
		}
	}
	return ""
}
