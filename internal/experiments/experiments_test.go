package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"t3/internal/benchdata"
	"t3/internal/obs"
)

var (
	envOnce sync.Once
	testEnv *Env
)

// sharedEnv returns a tiny experiment environment shared across tests. Its
// corpus is the checked-in testdata/corpus.json.gz (written once by
// `go run ./cmd/t3train -scale 0.04 -pergroup 2 -runs 3 -save-corpus ...`),
// so every model trained from it is bit-reproducible and the q-error
// comparisons below do not depend on how loaded the machine was while labels
// were timed. Experiments that execute queries (Table 3/5/6, Fig 10/14)
// still build the instances they need from Cfg and assert counts and shapes
// only: no test here compares one measured duration with another.
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		cfg := Config{
			Corpus:               benchdata.Config{Scale: 0.04, PerGroup: 2, Runs: 3, Seed: 13, ReleaseTables: true},
			Rounds:               50,
			NNEpochs:             6,
			LeaveOneOutInstances: 3,
			JOBScale:             0.01,
			JOBQueries:           8,
			DeepRunInstances:     3,
			DeepRuns:             10,
		}
		testEnv = NewEnv(cfg)
		testEnv.corpusOnce.Do(func() {
			testEnv.corpus, testEnv.corpusErr = benchdata.LoadCorpus("testdata/corpus.json.gz")
		})
	})
	return testEnv
}

// The tier ordering (packed vs interpreted vs NN) is a measured quantity:
// bench/ reports it as treec.scalar_eval_ns vs treec.interp_eval_ns, and
// BenchmarkTable1_ModelEval* times it on the 200-tree model. Here every row
// of the table must have been measured at all.
func TestTable1LatencyOrdering(t *testing.T) {
	e := sharedEnv(t)
	r, err := e.RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	for _, d := range []time.Duration{r.T3ModelPacked, r.T3ModelInterp, r.T3ModelKernel, r.T3Compiled, r.ZeroShotNN, r.StageCache} {
		if d <= 0 {
			t.Error("a latency row was not measured")
			break
		}
	}
}

func TestTable2Throughput(t *testing.T) {
	e := sharedEnv(t)
	r, err := e.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	for _, row := range r.Rows {
		if row.Single <= 0 || row.Batched <= 0 {
			t.Errorf("%s: nonpositive throughput", row.Model)
		}
	}
	if len(r.Rows) != 3 {
		t.Errorf("want T3 compiled, T3 interpreted and NN rows, got %d", len(r.Rows))
	}
}

func TestTable3Deviations(t *testing.T) {
	e := sharedEnv(t)
	r, err := e.RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	if r.Summary.N == 0 {
		t.Fatal("no deviation statistics computed")
	}
	if r.Summary.P50 < 1 {
		t.Errorf("q-error below 1 is impossible: %v", r.Summary.P50)
	}
}

func TestTable4Accuracy(t *testing.T) {
	e := sharedEnv(t)
	r, err := e.RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	if len(r.Rows) != 5 {
		t.Fatalf("want 5 splits, got %d", len(r.Rows))
	}
	train, test := r.Rows[0].Summary, r.Rows[1].Summary
	if train.P50 > test.P50+0.5 {
		t.Errorf("train p50 %.2f should not exceed test p50 %.2f", train.P50, test.P50)
	}
	if test.P50 > 4 {
		t.Errorf("test p50 %.2f too high", test.P50)
	}
}

func TestFigures6to8(t *testing.T) {
	e := sharedEnv(t)
	f6, err := e.RunFig6()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f6.Format())
	total := 0
	for _, c := range f6.Counts {
		total += c
	}
	if total == 0 {
		t.Fatal("figure 6 histogram empty")
	}

	f7, err := e.RunFig7()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f7.Format())

	f8, err := e.RunFig8()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f8.Format())
	if len(f8.Rows) < 10 {
		t.Errorf("figure 8 covers only %d groups", len(f8.Rows))
	}
}

func TestFig9LeaveOneOut(t *testing.T) {
	e := sharedEnv(t)
	f, err := e.RunFig9()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	if len(f.Rows) != 3 {
		t.Fatalf("expected 3 leave-one-out rows, got %d", len(f.Rows))
	}
}

func TestFig10JOBComparison(t *testing.T) {
	e := sharedEnv(t)
	f, err := e.RunFig10()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	if f.T3.N == 0 || f.ZeroShot.N == 0 {
		t.Fatal("missing JOB evaluations")
	}
}

func TestFig11CardinalityModes(t *testing.T) {
	e := sharedEnv(t)
	f, err := e.RunFig11()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	// Perfect cardinalities should beat estimated ones (paper: "the median
	// q-error degrades for imperfect cardinality estimates").
	if f.TrainPerfectEvalPerfect.P50 > f.TrainPerfectEvalEst.P50+0.3 {
		t.Errorf("perfect eval p50 %.2f unexpectedly worse than estimated %.2f",
			f.TrainPerfectEvalPerfect.P50, f.TrainPerfectEvalEst.P50)
	}
}

func TestFig12Degradation(t *testing.T) {
	e := sharedEnv(t)
	f, err := e.RunFig12()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	// Accuracy must degrade from exact to heavily distorted estimates.
	first, last := f.T3P50[0], f.T3P50[len(f.T3P50)-1]
	if last <= first {
		t.Errorf("T3 p50 did not degrade under 1000x distortion: %v -> %v", first, last)
	}
}

func TestFig13Ablation(t *testing.T) {
	e := sharedEnv(t)
	f, err := e.RunFig13()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	// The paper's central ablation: tuple-centric per-pipeline prediction
	// beats whole-query prediction.
	if f.PerTuple.P50 >= f.PerQuery.P50 {
		t.Errorf("per-tuple p50 %.2f should beat per-query p50 %.2f", f.PerTuple.P50, f.PerQuery.P50)
	}
}

func TestFig14BenchmarkRuns(t *testing.T) {
	e := sharedEnv(t)
	f, err := e.RunFig14()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	if len(f.P50) != len(f.Runs) {
		t.Fatal("missing run counts")
	}
	// Paper: no strong dependence on run count; all variants stay sane.
	for i, p := range f.P50 {
		if p > 10 {
			t.Errorf("runs=%d p50=%.2f exploded", f.Runs[i], p)
		}
	}
}

func TestTables5And6JoinOrdering(t *testing.T) {
	e := sharedEnv(t)
	t5, err := e.RunTable5()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + t5.Format())
	if len(t5.Rows) != 2 {
		t.Fatal("expected Cout and T3 rows")
	}
	cout, t3row := t5.Rows[0], t5.Rows[1]
	// §5.5: twice as many calls to T3 as to Cout.
	if t3row.ModelCalls < 2*cout.ModelCalls {
		t.Errorf("T3 calls %d < 2x Cout calls %d", t3row.ModelCalls, cout.ModelCalls)
	}
	if t3row.OptTime <= 0 || cout.OptTime <= 0 {
		t.Errorf("nonpositive optimization time: T3 %v, Cout %v", t3row.OptTime, cout.OptTime)
	}

	t6, err := e.RunTable6()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + t6.Format())
	if len(t6.Rows) != 3 {
		t.Fatalf("expected Cout, T3 and native rows, got %d", len(t6.Rows))
	}
	for _, r := range t6.Rows {
		if r.ExecTime <= 0 {
			t.Errorf("%s: nonpositive execution time", r.CostModel)
		}
	}
}

func TestFeatureAblation(t *testing.T) {
	e := sharedEnv(t)
	f, err := e.RunFeatureAblation()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	if len(f.Rows) != 7 {
		t.Fatalf("expected 7 variants, got %d", len(f.Rows))
	}
	full := f.Rows[0]
	if full.Variant != "full feature set" {
		t.Fatalf("first row is %q", full.Variant)
	}
	countsOnly := f.Rows[len(f.Rows)-1]
	// The crippled counts-only model must be clearly worse than the full
	// feature set.
	if countsOnly.Summary.P50 <= full.Summary.P50 {
		t.Errorf("counts-only p50 %.2f should exceed full p50 %.2f",
			countsOnly.Summary.P50, full.Summary.P50)
	}
	for _, r := range f.Rows[1:] {
		if r.Features >= full.Features {
			t.Errorf("%s: %d features, expected fewer than %d", r.Variant, r.Features, full.Features)
		}
	}
}

func TestSchedulingExtension(t *testing.T) {
	e := sharedEnv(t)
	c, err := e.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	// Train both predictors before counting, so the counters below see the
	// dispatchers' calls and nothing else.
	if _, err := e.T3(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ZeroShot(); err != nil {
		t.Fatal(err)
	}
	plans0, batches0 := obs.Predictions.Value(), obs.PredictBatches.Value()
	s, err := e.RunScheduling()
	if err != nil {
		t.Fatal(err)
	}
	plans, batches := obs.Predictions.Value()-plans0, obs.PredictBatches.Value()-batches0
	t.Log("\n" + s.Format())
	if len(s.Rows) != 5 {
		t.Fatalf("expected 5 predictors, got %d", len(s.Rows))
	}
	byName := map[string]SchedulingRow{}
	for _, r := range s.Rows {
		byName[r.Predictor] = r
		if r.Result.Makespan <= 0 {
			t.Errorf("%s: nonpositive makespan", r.Predictor)
		}
	}
	// The oracle's placement is at least as good as no predictions. Both
	// rows charge no prediction latency, so on the checked-in corpus this
	// compares two computed schedules, not two measurements.
	oracle := byName["oracle"].Result
	none := byName["none (round-robin)"].Result
	if oracle.Makespan > none.Makespan {
		t.Errorf("oracle makespan %v should not exceed round-robin %v", oracle.Makespan, none.Makespan)
	}
	// Batched dispatch prices the whole queue with one packed-tier batch
	// call where serialized T3 makes one call per job: the model counted one
	// batch, and every job's plan twice (once per dispatcher). The other
	// rows' makespans and overheads carry prediction latency measured on
	// this machine, so they are reported, not asserted.
	if jobs := uint64(len(c.AllTest())); batches != 1 || plans != 2*jobs {
		t.Errorf("model counted %d batch calls and %d plan predictions for %d jobs; want 1 and %d",
			batches, plans, jobs, 2*jobs)
	}
	batched := byName["T3 (batched dispatch)"]
	if batched.Result.DispatchOverhead <= 0 {
		t.Errorf("batched dispatch charged no prediction latency")
	}
}

func TestFig1Scatter(t *testing.T) {
	e := sharedEnv(t)
	f, err := e.RunFig1()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	if len(f.Points) != 4 {
		t.Fatalf("expected 4 scatter points, got %d", len(f.Points))
	}
	for _, p := range f.Points {
		if p.Latency <= 0 || p.P50 < 1 {
			t.Errorf("%s: implausible point %+v", p.Model, p)
		}
	}
}

func TestFig5Scaling(t *testing.T) {
	e := sharedEnv(t)
	f, err := e.RunFig5()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	// How latency grows with pipeline count, and compiled against
	// interpreted, is what BenchmarkFig5_* measure; here every series must
	// cover every count.
	n := len(f.Counts)
	if len(f.CompiledST) != n || len(f.InterpST) != n || f.CompiledST[n-1] <= 0 || f.InterpST[n-1] <= 0 {
		t.Errorf("incomplete series: %d counts, %d compiled, %d interpreted", n, len(f.CompiledST), len(f.InterpST))
	}
	if !strings.Contains(f.Format(), "1000") {
		t.Error("missing 1000-pipeline row")
	}
}
