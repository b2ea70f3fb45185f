package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"t3/internal/engine/plan"
	"t3/internal/engine/refexec"
	"t3/internal/engine/storage"
	"t3/internal/genplan"
)

// runDifferential generates the case for (seed, scenario), executes it on
// both the optimized engine and the reference interpreter, and fails on any
// divergence. The engine's output order is deterministic (probe rows in
// stream order, matches in build insertion order, groups in discovery
// order), so the comparison is order-exact and value-bit-exact. The
// morsel-parallel executor runs the case too and is held to the serial
// output: order-exact, floats within the reassociation tolerance of
// TestParallelDifferentialMany, and annotations identical.
func runDifferential(t *testing.T, seed int64, sc genplan.Scenario, batchSize int) {
	t.Helper()
	c := genplan.Generate(seed, sc)
	if err := plan.ValidatePipelines(plan.Decompose(c.Root)); err != nil {
		t.Fatalf("seed=%d scenario=%s: invalid pipelines: %v", seed, sc, err)
	}

	ref, err := refexec.Run(c.Root)
	if err != nil {
		t.Fatalf("seed=%d scenario=%s: refexec: %v", seed, sc, err)
	}

	e := Executor{BatchSize: batchSize}
	res, err := e.Run(c.Root, false)
	if err != nil {
		t.Fatalf("seed=%d scenario=%s: engine: %v", seed, sc, err)
	}
	if err := diffResults(res.Output, ref); err != nil {
		t.Fatalf("seed=%d scenario=%s batch=%d: engine vs refexec: %v\nplan:\n%s",
			seed, sc, batchSize, err, c.Root.Explain())
	}

	// Re-run with annotation: measured cardinalities overwrite the (possibly
	// hostile) annotations, and a second run presized from real counts must
	// still match.
	if _, err := e.Run(c.Root, true); err != nil {
		t.Fatalf("seed=%d scenario=%s: annotate run: %v", seed, sc, err)
	}
	res2, err := e.Run(c.Root, false)
	if err != nil {
		t.Fatalf("seed=%d scenario=%s: post-annotate run: %v", seed, sc, err)
	}
	if err := diffResults(res2.Output, ref); err != nil {
		t.Fatalf("seed=%d scenario=%s: post-annotate engine vs refexec: %v", seed, sc, err)
	}

	// Morsel-parallel, on a fresh copy of the case so its annotations start
	// from the generated ones, like the serial executor's did.
	pc := genplan.Generate(seed, sc)
	pe := Executor{BatchSize: batchSize, Workers: 4, MorselRows: 16}
	pres, err := pe.Run(pc.Root, false)
	if err != nil {
		t.Fatalf("seed=%d scenario=%s: morsel engine: %v", seed, sc, err)
	}
	if err := matDiffTol(pres.Output, res2.Output, parallelTol); err != nil {
		t.Fatalf("seed=%d scenario=%s batch=%d: morsel vs serial engine: %v\nplan:\n%s",
			seed, sc, batchSize, err, c.Root.Explain())
	}
	if _, err := pe.Run(pc.Root, true); err != nil {
		t.Fatalf("seed=%d scenario=%s: morsel annotate run: %v", seed, sc, err)
	}
	if want, got := snapshotCards(c.Root), snapshotCards(pc.Root); !slices.Equal(got, want) {
		t.Fatalf("seed=%d scenario=%s batch=%d: morsel annotations %v, serial %v", seed, sc, batchSize, got, want)
	}
}

// diffResults compares the engine's materialized output against the
// reference interpreter's, bit-exactly and order-exactly.
func diffResults(eng *Materialized, ref *refexec.Result) error {
	if eng == nil {
		return fmt.Errorf("engine produced no output")
	}
	if eng.N != ref.N {
		return fmt.Errorf("row count: engine=%d ref=%d", eng.N, ref.N)
	}
	if len(eng.Cols) != len(ref.Cols) {
		return fmt.Errorf("column count: engine=%d ref=%d", len(eng.Cols), len(ref.Cols))
	}
	for ci := range eng.Cols {
		ec, rc := &eng.Cols[ci], &ref.Cols[ci]
		if ec.Kind != rc.Kind {
			return fmt.Errorf("col %d kind: engine=%s ref=%s", ci, ec.Kind, rc.Kind)
		}
		for i := 0; i < eng.N; i++ {
			switch ec.Kind {
			case storage.Int64:
				if ec.Ints[i] != rc.Ints[i] {
					return fmt.Errorf("col %d (%s) row %d: engine=%d ref=%d", ci, ec.Name, i, ec.Ints[i], rc.Ints[i])
				}
			case storage.Float64:
				if math.Float64bits(ec.Flts[i]) != math.Float64bits(rc.Flts[i]) {
					return fmt.Errorf("col %d (%s) row %d: engine=%v ref=%v (bits %x vs %x)",
						ci, ec.Name, i, ec.Flts[i], rc.Flts[i], math.Float64bits(ec.Flts[i]), math.Float64bits(rc.Flts[i]))
				}
			case storage.String:
				if ec.Strs[i] != rc.Strs[i] {
					return fmt.Errorf("col %d (%s) row %d: engine=%q ref=%q", ci, ec.Name, i, ec.Strs[i], rc.Strs[i])
				}
			}
		}
	}
	return nil
}

// TestExecDifferentialMany is the deterministic property-test mode of the
// differential harness: 100 seeds x all scenarios = 600 generated plans,
// every one compared bit-exactly between the engine and refexec (and again
// after an annotate run). Batch size varies with the seed so batch-boundary
// bugs cannot hide.
func TestExecDifferentialMany(t *testing.T) {
	plans := 0
	for seed := int64(0); seed < 100; seed++ {
		for sc := genplan.Scenario(0); sc < genplan.NumScenarios; sc++ {
			batch := 1 + int(seed*7)%193
			runDifferential(t, seed, sc, batch)
			plans++
		}
	}
	if plans < 500 {
		t.Fatalf("covered only %d plans, want >= 500", plans)
	}
	t.Logf("compared %d generated plans engine-vs-refexec with zero divergences", plans)
}

// FuzzExecDifferential drives the same differential harness from the fuzzer:
// arbitrary (seed, scenario, batch-size) triples.
func FuzzExecDifferential(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint64(seed)%uint64(genplan.NumScenarios), uint64(seed*31))
	}
	f.Fuzz(func(t *testing.T, seed int64, scenario, batch uint64) {
		sc := genplan.Scenario(scenario % uint64(genplan.NumScenarios))
		batchSize := 1 + int(batch%257)
		runDifferential(t, seed, sc, batchSize)
	})
}
