package t3

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"t3/internal/benchdata"
	"t3/internal/feature"
	"t3/internal/gbdt"
	"t3/internal/obs"
	"t3/internal/obs/trace"
	"t3/internal/qerror"
	"t3/internal/testutil"
)

func trainSmall(t *testing.T, c *benchdata.Corpus) *Model {
	t.Helper()
	p := DefaultParams()
	p.NumRounds = 80
	m, err := Train(c.AllTrain(), TrainOptions{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEndToEndTrainAndPredict(t *testing.T) {
	c := testutil.SmallCorpus(t)
	if len(c.Train) < 20 {
		t.Fatalf("only %d training instances", len(c.Train))
	}
	if len(c.Test) != 3 {
		t.Fatalf("want 3 TPC-DS test instances, got %d", len(c.Test))
	}
	m := trainSmall(t, c)

	// Accuracy on the held-out TPC-DS queries: the model has never seen
	// this schema or data. With a tiny corpus we only require the median
	// q-error to be sane (the paper reaches ~1.2 with 14k queries).
	var es []float64
	for _, b := range c.AllTest() {
		pred, _ := m.PredictPlan(b.Root, TrueCards)
		es = append(es, qerror.QError(pred.Seconds(), b.MedianTotal().Seconds()))
	}
	s := qerror.Summarize(es)
	t.Logf("TPC-DS zero-shot q-error: p50=%.2f p90=%.2f avg=%.2f n=%d", s.P50, s.P90, s.Avg, s.N)
	if s.P50 > 3.0 {
		t.Errorf("median q-error %.2f too high — model failed to generalize", s.P50)
	}

	// Training-set accuracy should be clearly better than test.
	var esTr []float64
	for _, b := range c.AllTrain()[:200] {
		pred, _ := m.PredictPlan(b.Root, TrueCards)
		esTr = append(esTr, qerror.QError(pred.Seconds(), b.MedianTotal().Seconds()))
	}
	st := qerror.Summarize(esTr)
	t.Logf("train q-error: p50=%.2f p90=%.2f avg=%.2f", st.P50, st.P90, st.Avg)
	if st.P50 > 2.0 {
		t.Errorf("train median q-error %.2f too high — model failed to fit", st.P50)
	}
}

func TestCompiledMatchesInterpreted(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	for _, b := range c.AllTest()[:50] {
		compiled, _ := m.PredictPlan(b.Root, TrueCards)
		interp := m.PredictInterpreted(b.Root, TrueCards)
		// The compiled form folds constant trees into the base score
		// (summation order differs) and PredictPlan rounds each pipeline to
		// integer nanoseconds. Allow up to 1ns per pipeline plus relative
		// reassociation noise; every tree routes every vector the same way.
		floor := float64(len(b.Pipelines)+1) * 1e-9
		if d := math.Abs(compiled.Seconds() - interp.Seconds()); d > floor+1e-6*compiled.Seconds() {
			t.Fatalf("%s: compiled %v != interpreted %v", b.Name, compiled, interp)
		}
	}
}

func TestPredictionsSumOverPipelines(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	b := c.AllTest()[0]
	total, per := m.PredictPlan(b.Root, TrueCards)
	if len(per) != len(b.Pipelines) {
		t.Fatalf("%d pipeline predictions for %d pipelines", len(per), len(b.Pipelines))
	}
	var sum float64
	for _, p := range per {
		sum += p.Total.Seconds()
		if p.Total < 0 || p.PerTupleSeconds < 0 {
			t.Fatalf("negative prediction: %+v", p)
		}
		want := p.PerTupleSeconds * p.Cardinality
		if math.Abs(want-p.Total.Seconds()) > 1e-6*math.Max(want, 1e-9)+1e-9 {
			t.Errorf("pipeline %d: total %v != perTuple*card %v", p.Index, p.Total.Seconds(), want)
		}
	}
	if math.Abs(sum-total.Seconds()) > 1e-6 {
		t.Errorf("sum of pipelines %v != total %v", sum, total.Seconds())
	}
}

func TestSaveLoadModel(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	path := filepath.Join(t.TempDir(), "t3.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range c.AllTest()[:20] {
		a, _ := m.PredictPlan(b.Root, TrueCards)
		z, _ := m2.PredictPlan(b.Root, TrueCards)
		if a != z {
			t.Fatalf("%s: predictions diverged after save/load", b.Name)
		}
	}
}

func TestFeaturize(t *testing.T) {
	c := testutil.SmallCorpus(t)
	b := c.AllTest()[0]
	vecs, ps := Featurize(b.Root, TrueCards)
	if len(vecs) != len(ps) {
		t.Fatalf("%d vectors for %d pipelines", len(vecs), len(ps))
	}
	for _, v := range vecs {
		nonzero := 0
		for _, x := range v {
			if x != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Error("feature vector is all zeros")
		}
	}
}

func TestTrainErrorsOnEmptyInput(t *testing.T) {
	if _, err := Train(nil, TrainOptions{}); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

func TestModelAccessors(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	if m.Registry() == nil || m.Boosted() == nil || m.Compiled() == nil {
		t.Fatal("accessors returned nil")
	}
	if m.Registry().NumFeatures() != m.Boosted().NumFeatures {
		t.Error("registry/model feature mismatch")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("/nonexistent/model.json"); err == nil {
		t.Error("missing model should fail")
	}
	// A structurally valid gbdt model with the wrong feature count must be
	// rejected by NewModel.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"num_features":3,"trees":[],"base_score":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("feature-count mismatch should fail")
	}
}

func TestEstCardPredictionUsesEstimates(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	// Find a query whose estimates diverge from truth; predictions under
	// the two modes should then differ.
	for _, b := range c.AllTest() {
		root := b.Root
		diverges := false
		root.Walk(func(n *Plan) {
			if n.OutCard.Est > 2*n.OutCard.True+10 || n.OutCard.True > 2*n.OutCard.Est+10 {
				diverges = true
			}
		})
		if !diverges {
			continue
		}
		pTrue, _ := m.PredictPlan(root, TrueCards)
		pEst, _ := m.PredictPlan(root, EstCards)
		if pTrue == pEst {
			t.Fatalf("%s: predictions identical despite diverging cards", b.Name)
		}
		return
	}
	t.Skip("no query with diverging estimates found")
}

func TestPredictPlanScratchMatchesPredictPlan(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	var s PredictScratch
	for _, b := range c.AllTest()[:50] {
		want, wantPer := m.PredictPlan(b.Root, TrueCards)
		got, gotPer := m.PredictPlanScratch(b.Root, TrueCards, &s)
		if got != want {
			t.Fatalf("%s: scratch total %v != %v", b.Name, got, want)
		}
		if len(gotPer) != len(wantPer) {
			t.Fatalf("%s: %d pipeline predictions, want %d", b.Name, len(gotPer), len(wantPer))
		}
		for i := range gotPer {
			if gotPer[i] != wantPer[i] {
				t.Fatalf("%s pipeline %d: %+v != %+v", b.Name, i, gotPer[i], wantPer[i])
			}
		}
	}
}

// TestPredictScratchZeroAlloc pins the headline property of this hot path:
// once a scratch has warmed up, a full featurize -> packed predict ->
// per-pipeline sum cycle performs zero heap allocations.
func TestPredictScratchZeroAlloc(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	root := c.AllTest()[0].Root
	var s PredictScratch
	m.PredictPlanScratch(root, TrueCards, &s) // warm the scratch
	if allocs := testing.AllocsPerRun(200, func() {
		m.PredictPlanScratch(root, TrueCards, &s)
	}); allocs != 0 {
		t.Fatalf("PredictPlanScratch allocates %.1f objects per run, want 0", allocs)
	}
}

// TestPredictBatchIntoZeroAlloc: the batch path reuses a pooled scratch's
// row arena and a caller-owned output slice, so it allocates nothing either.
func TestPredictBatchIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	m.SetWorkers(1)
	defer m.SetWorkers(0)
	roots := make([]*Plan, 0, 16)
	for _, b := range c.AllTest()[:16] {
		roots = append(roots, b.Root)
	}
	out := make([]time.Duration, len(roots))
	m.PredictBatchInto(roots, TrueCards, out) // warm the pooled scratch
	if allocs := testing.AllocsPerRun(100, func() {
		m.PredictBatchInto(roots, TrueCards, out)
	}); allocs != 0 {
		t.Fatalf("PredictBatchInto allocates %.1f objects per run, want 0", allocs)
	}
}

// TestPredictBatchFannedZeroAlloc: with SetWorkers(2) a batch of more than
// two kernel tasks' rows is offered to the pool's parked worker — testing.
// AllocsPerRun pins GOMAXPROCS to 1, but par.Sized(2) has its worker whatever
// GOMAXPROCS is — and neither PredictBatchInto nor PredictBatchScratch on a
// caller-owned scratch allocates on that path.
func TestPredictBatchFannedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	m.SetWorkers(2)
	defer m.SetWorkers(0)
	var roots []*Plan
	for _, b := range c.AllTest()[:48] {
		roots = append(roots, b.Root)
	}
	out := make([]time.Duration, len(roots))
	var own PredictScratch
	m.PredictBatchScratch(roots, TrueCards, out, &own) // warm the scratch
	if len(own.evals) < 64 {
		t.Fatalf("the batch has %d rows, too few to fan out", len(own.evals))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m.PredictBatchScratch(roots, TrueCards, out, &own)
	}); allocs != 0 {
		t.Errorf("fanned PredictBatchScratch allocates %.1f objects per run, want 0", allocs)
	}
	m.PredictBatchInto(roots, TrueCards, out) // warm the pooled scratch
	if allocs := testing.AllocsPerRun(100, func() {
		m.PredictBatchInto(roots, TrueCards, out)
	}); allocs != 0 {
		t.Errorf("fanned PredictBatchInto allocates %.1f objects per run, want 0", allocs)
	}
}

// rootsWithRows picks, in order, plans from roots whose pipelines add up to
// exactly want kernel rows, skipping any plan that would overshoot.
func rootsWithRows(t *testing.T, m *Model, roots []*Plan, want int) []*Plan {
	t.Helper()
	var picked []*Plan
	rows := 0
	for _, r := range roots {
		_, pipes := m.PredictPlan(r, TrueCards)
		if rows+len(pipes) <= want {
			picked = append(picked, r)
			rows += len(pipes)
		}
		if rows == want {
			return picked
		}
	}
	t.Fatalf("no run of the test plans has exactly %d pipeline rows", want)
	return nil
}

// TestPredictBatchIntoMatchesPredictPlan: the arena path — all plans' rows
// through one kernel call, then a scalar pass per plan — answers every plan
// exactly as PredictPlan does, from a batch of one plan to one with rows
// enough for the pool to split, with the rows on one goroutine or fanned
// over a pool, and through a caller's own scratch at every fan-out edge.
func TestPredictBatchIntoMatchesPredictPlan(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	defer m.SetWorkers(0)
	var roots []*Plan
	for _, b := range c.AllTest() {
		roots = append(roots, b.Root)
	}
	for len(roots) < 64 {
		roots = append(roots, roots...)
	}
	var want []time.Duration
	for _, r := range roots {
		d, _ := m.PredictPlan(r, TrueCards)
		want = append(want, d)
	}
	check := func(name string, off int, got []time.Duration) {
		t.Helper()
		for i := range got {
			if got[i] != want[off+i] {
				t.Fatalf("%s, plan %d of %d: batch %v != single %v", name, i, len(got), got[i], want[off+i])
			}
		}
	}
	var own PredictScratch
	for _, size := range []int{1, 7, 8, 9, 64, len(roots)} {
		for off := 0; off+size <= len(roots); off += size {
			for _, workers := range []int{0, 1, 2, 7} {
				m.SetWorkers(workers)
				check(fmt.Sprintf("workers=%d", workers), off, m.PredictBatch(roots[off:off+size], TrueCards))
			}
			out := make([]time.Duration, size)
			m.PredictBatchScratch(roots[off:off+size], TrueCards, out, &own)
			check("own scratch", off, out)
		}
	}

	// The kernel fans out from 64 rows on, in tasks of 32: batches just
	// under, at and over that threshold, and batches whose last task holds
	// one to three rows past a full block, priced on the caller's own
	// scratch over one, two and eight workers.
	index := map[*Plan]int{}
	for i, r := range roots {
		if _, ok := index[r]; !ok {
			index[r] = i
		}
	}
	for _, rows := range []int{63, 64, 65, 97, 98, 99, 161} {
		batch := rootsWithRows(t, m, roots, rows)
		for _, workers := range []int{1, 2, 8} {
			m.SetWorkers(workers)
			out := make([]time.Duration, len(batch))
			m.PredictBatchScratch(batch, TrueCards, out, &own)
			if len(own.evals) != rows {
				t.Fatalf("the batch scored %d rows, want %d", len(own.evals), rows)
			}
			for i, r := range batch {
				if w := want[index[r]]; out[i] != w {
					t.Fatalf("%d rows over %d workers, plan %d: batch %v != single %v", rows, workers, i, out[i], w)
				}
			}
		}
	}
}

// foldedReference is the float64 reference for one vector: the interpreter's
// per-tree walks summed in Packed's order (constant trees folded into the base
// first), so agreement is exact, not approximate.
func foldedReference(m *gbdt.Model, v []float64) float64 {
	s := m.BaseScore
	for i := range m.Trees {
		if len(m.Trees[i].Nodes) == 0 {
			s += m.Trees[i].Leaves[0]
		}
	}
	for i := range m.Trees {
		if len(m.Trees[i].Nodes) > 0 {
			s += m.Trees[i].Predict(v)
		}
	}
	return s
}

// packedPipeline scores one pipeline on its own from the model's public
// pieces: its standalone feature vector through Model.Packed, scaled
// tuple-centrically.
func packedPipeline(m *Model, p *Pipeline, mode CardMode) time.Duration {
	v := m.Registry().PipelineVector(p, mode)
	perTuple := benchdata.InverseTarget(m.Packed().Predict(v))
	return time.Duration(perTuple * feature.SourceCard(p, mode) * float64(time.Second))
}

// TestPackedTierServesPredictions pins that the public prediction path runs
// on the packed tier and that it agrees with the interpreter, bit for bit, on
// every pipeline vector of real plans.
func TestPackedTierServesPredictions(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	if m.Packed() == nil {
		t.Fatal("model has no packed evaluator")
	}
	for _, b := range c.AllTest() {
		total, per := m.PredictPlan(b.Root, TrueCards)
		vecs, pipes := m.Registry().PlanVectors(b.Root, TrueCards)
		var sum time.Duration
		for i, v := range vecs {
			if pr, pp := foldedReference(m.Boosted(), v), m.Packed().Predict(v); math.Float64bits(pr) != math.Float64bits(pp) {
				t.Fatalf("%s: packed %v != interpreted %v", b.Name, pp, pr)
			}
			want := packedPipeline(m, pipes[i], TrueCards)
			if per[i].Total != want {
				t.Fatalf("%s pipeline %d: served %v, packed tier gives %v", b.Name, i, per[i].Total, want)
			}
			sum += want
		}
		if total != sum {
			t.Fatalf("%s: served total %v != packed pipeline sum %v", b.Name, total, sum)
		}
	}
}

// TestObservabilityIntegration pins that the prediction, batch, and drift
// paths feed the obs registry: counters advance, the latency histogram
// fills, and RecordObservedPlan scores q-errors against measured executions.
func TestObservabilityIntegration(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	test := c.AllTest()

	before := obs.Predictions.Value()
	latBefore := obs.PredictLatency.Snapshot().Count
	for _, b := range test[:10] {
		m.PredictPlan(b.Root, TrueCards)
	}
	if got := obs.Predictions.Value() - before; got < 10 {
		t.Fatalf("predictions counter advanced by %d, want >= 10", got)
	}
	if got := obs.PredictLatency.Snapshot().Count - latBefore; got < 10 {
		t.Fatalf("latency histogram recorded %d, want >= 10", got)
	}

	batchBefore := obs.PredictBatches.Value()
	roots := make([]*Plan, 5)
	for i, b := range test[:5] {
		roots[i] = b.Root
	}
	m.PredictBatch(roots, TrueCards)
	if obs.PredictBatches.Value() != batchBefore+1 {
		t.Fatal("batch counter did not advance")
	}

	// A prediction scored against a measured execution time — the label's,
	// timed by the engine when the corpus was collected — feeds its q-error
	// into the drift histogram.
	b := test[0]
	driftBefore := obs.QErrorDrift.Snapshot().Count
	pred, _ := m.PredictPlan(b.Root, TrueCards)
	actual := b.MedianTotal()
	q := RecordObservedPlan(b.Root, TrueCards, pred, actual)
	if pred <= 0 || actual <= 0 || q < 1 {
		t.Fatalf("implausible observation: pred=%v actual=%v q=%v", pred, actual, q)
	}
	if wantQ := qerror.QError(pred.Seconds(), actual.Seconds()); q != wantQ {
		t.Fatalf("q-error %v, want %v", q, wantQ)
	}
	if got := obs.QErrorDrift.Snapshot().Count - driftBefore; got < 1 {
		t.Fatal("drift histogram did not record the observation")
	}

	// A prediction recording into an attached trace times its stages into
	// the stage histograms as well.
	d0 := obs.PredictDecompose.Snapshot().Count
	tr := trace.Default.ForceBegin(trace.KindPredict, 0)
	var ps PredictScratch
	ps.AttachTrace(tr)
	m.PredictPlanScratch(b.Root, TrueCards, &ps)
	trace.Default.Discard(tr)
	if got := obs.PredictDecompose.Snapshot().Count - d0; got < 1 {
		t.Fatal("a traced prediction did not time its decompose stage")
	}

	// The sampled stage spans must stay consistent: decompose + featurize +
	// tree-eval all record the same number of admitted predictions.
	d := obs.PredictDecompose.Snapshot().Count
	f := obs.PredictFeaturize.Snapshot().Count
	e := obs.PredictTreeEval.Snapshot().Count
	if d != f || f != e {
		t.Fatalf("stage span counts diverge: decompose=%d featurize=%d treeeval=%d", d, f, e)
	}
}
