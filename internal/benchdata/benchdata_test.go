package benchdata

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"t3/internal/engine/plan"
	"t3/internal/engine/stats"
	"t3/internal/feature"
	"t3/internal/workload"
)

func smallInstance(t *testing.T) *workload.Instance {
	t.Helper()
	return workload.MustGenerate(workload.TPCHSpec("tpch_bd", 0.01, 71))
}

func TestBenchmarkCollectsPerPipelineTimes(t *testing.T) {
	set, err := BenchmarkInstance(smallInstance(t), Config{PerGroup: 1, Runs: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range set.Labels {
		if len(l.Totals) != 4 || len(l.PipelineRuns) != 4 {
			t.Fatalf("%s: %d totals and %d pipeline runs, want 4", l.Name, len(l.Totals), len(l.PipelineRuns))
		}
		for r, times := range l.PipelineRuns {
			if len(times) != len(l.Pipelines) {
				t.Fatalf("%s run %d: %d times for %d pipelines", l.Name, r, len(times), len(l.Pipelines))
			}
		}
		if l.MedianTotal() <= 0 {
			t.Errorf("%s: median total must be positive", l.Name)
		}
	}
}

// TestBenchmarkInstanceShape pins what a corpus instance holds, without
// reading a single measured duration: 16 groups × PerGroup generated queries
// followed by the schema's fixed benchmark queries, every plan node annotated
// by the estimator, source rows beside every pipeline, and the set named
// after its instance.
func TestBenchmarkInstanceShape(t *testing.T) {
	const perGroup = 2
	for _, tc := range []struct {
		in    *workload.Instance
		fixed func(*workload.Instance) []*workload.Query
	}{
		{smallInstance(t), workload.TPCHBenchmarkQueries},
		{workload.MustGenerate(workload.TPCDSSpec("tpcds_bd", 0.02, 72)), workload.TPCDSBenchmarkQueries},
	} {
		set, err := BenchmarkInstance(tc.in, Config{PerGroup: perGroup, Runs: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if set.Instance != tc.in.Name {
			t.Errorf("set named %q, instance %q", set.Instance, tc.in.Name)
		}
		est := &stats.Estimator{DB: tc.in.Stats}
		fixed := tc.fixed(tc.in)
		generated := len(workload.Groups) * perGroup
		if len(set.Labels) != generated+len(fixed) {
			t.Fatalf("%s: %d labels, want %d generated + %d fixed", tc.in.Name, len(set.Labels), generated, len(fixed))
		}
		inGroup := map[workload.Group]int{}
		for i, l := range set.Labels {
			if i < generated {
				inGroup[l.Group]++
			} else if want := fixed[i-generated].Name; l.Group != workload.GroupFixed || l.Name != want {
				t.Errorf("label %d: %s (%s), want fixed query %s", i, l.Name, l.Group, want)
			}
			if len(l.SourceRows) != len(l.Pipelines) || len(l.PipelineRuns) != 2 {
				t.Errorf("%s: %d source rows and %d runs for %d pipelines",
					l.Name, len(l.SourceRows), len(l.PipelineRuns), len(l.Pipelines))
			}
			// The estimator overwrites every Est it annotates, so running it
			// again changes nothing only if the label already carries its
			// output on every node.
			got := stats.SnapshotEst(l.Root)
			est.Estimate(l.Root)
			if want := stats.SnapshotEst(l.Root); !slices.Equal(got, want) {
				t.Errorf("%s: estimates %v, estimator gives %v", l.Name, got, want)
			}
		}
		for _, g := range workload.Groups {
			if inGroup[g] != perGroup {
				t.Errorf("%s: group %s has %d queries, want %d", tc.in.Name, g, inGroup[g], perGroup)
			}
		}
	}
}

func TestTargetTransformRoundtrip(t *testing.T) {
	f := func(exp float64) bool {
		// Per-tuple times from 1e-14 to 1 second.
		tt := math.Pow(10, -math.Mod(math.Abs(exp), 14))
		y := TargetTransform(tt)
		back := InverseTarget(y)
		return math.Abs(back-tt) < 1e-9*tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Range claim of the paper: targets land in about [0, 15].
	if y := TargetTransform(1); y != 0 {
		t.Errorf("transform(1s) = %v, want 0", y)
	}
	if y := TargetTransform(1e-15); math.Abs(y-15) > 1e-9 {
		t.Errorf("transform(1e-15) = %v, want 15", y)
	}
	// Sub-floor values clamp instead of exploding.
	if y := TargetTransform(1e-30); math.Abs(y-15) > 1e-9 {
		t.Errorf("transform(1e-30) = %v, want clamp to 15", y)
	}
}

func TestExamplesShape(t *testing.T) {
	set, err := BenchmarkInstance(smallInstance(t), Config{PerGroup: 1, Runs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reg := feature.NewDefaultRegistry()
	xs, ys := Examples(reg, set.Labels, plan.TrueCards, 0)
	if len(xs) != len(ys) {
		t.Fatal("example count mismatch")
	}
	wantRows := 0
	for _, l := range set.Labels {
		wantRows += len(l.Pipelines)
	}
	if len(xs) != wantRows {
		t.Fatalf("%d examples for %d pipelines", len(xs), wantRows)
	}
	for i, y := range ys {
		if math.IsNaN(y) || y < 0 || y > 16 {
			t.Errorf("target %d = %v out of expected range", i, y)
		}
	}
}

func TestDeviationStats(t *testing.T) {
	mk := func(times ...time.Duration) *workload.Label {
		return &workload.Label{Totals: times}
	}
	// Identical runs deviate by exactly 1.0.
	s := DeviationStats([]*workload.Label{
		mk(time.Millisecond, time.Millisecond, time.Millisecond),
	})
	if s.N != 1 || s.Avg != 1 {
		t.Errorf("identical runs: %+v", s)
	}
	// One run 2x the median, rest exact: with 3 runs, keep ceil(2) = 2
	// closest; the furthest kept deviates 1.0 (the outlier is dropped...
	// unless it is within the kept set).
	s = DeviationStats([]*workload.Label{
		mk(time.Millisecond, time.Millisecond, 2*time.Millisecond),
	})
	if s.N != 1 {
		t.Fatalf("n = %d", s.N)
	}
	if s.Max > 1.01 {
		t.Errorf("outlier should be trimmed: %+v", s)
	}
	// Queries with fewer than 3 runs are skipped.
	s = DeviationStats([]*workload.Label{mk(time.Millisecond)})
	if s.N != 0 {
		t.Errorf("short queries should be skipped: %+v", s)
	}
}

func TestReleaseTablesPreservesFeaturization(t *testing.T) {
	set, err := BenchmarkInstance(smallInstance(t), Config{PerGroup: 1, Runs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	l := set.Labels[len(set.Labels)-1]
	reg := feature.NewDefaultRegistry()
	before, _ := reg.PlanVectors(l.Root, plan.TrueCards)
	l.ReleaseTables()
	after, _ := reg.PlanVectors(l.Root, plan.TrueCards)
	for i := range before {
		for f := range before[i] {
			if before[i][f] != after[i][f] {
				t.Fatalf("feature changed after table release")
			}
		}
	}
	l.Root.Walk(func(n *plan.Node) {
		if n.Table != nil {
			t.Fatalf("%v node still holds table %s", n.Op, n.TableName)
		}
	})
}

func TestBuildCorpusTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus build in short mode")
	}
	var progress int
	c, err := BuildCorpus(Config{
		Scale: 0.02, PerGroup: 1, Runs: 1, Seed: 31, ReleaseTables: true,
		Progress: func(string) { progress++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Train) != 22 {
		t.Errorf("train instances = %d, want 22", len(c.Train))
	}
	if len(c.Test) != 3 {
		t.Errorf("test instances = %d", len(c.Test))
	}
	if progress != 25 {
		t.Errorf("progress callbacks = %d", progress)
	}
	// TrainExcept removes exactly the named instance's queries.
	all := len(c.AllTrain())
	without := len(c.TrainExcept("imdb"))
	var imdbCount int
	for _, s := range c.Train {
		if s.Instance == "imdb" {
			imdbCount = len(s.Labels)
		}
	}
	if without != all-imdbCount {
		t.Errorf("TrainExcept: %d != %d - %d", without, all, imdbCount)
	}
}
