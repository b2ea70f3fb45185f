package t3_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5). Latency-style results come out as ns/op; accuracy-style
// experiments run once per benchmark and report their q-errors through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates every row and
// series the paper reports. cmd/t3bench prints the same results as formatted
// tables.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"t3"
	"t3/internal/benchdata"
	"t3/internal/compiled"
	"t3/internal/engine/plan"
	"t3/internal/experiments"
	"t3/internal/gbdt"
	"t3/internal/par"
	"t3/internal/treec"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

// env returns the shared quick-config experiment environment.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.QuickConfig())
	})
	return benchEnv
}

// benchQueries returns the TPC-DS test queries and the trained model.
func benchQueries(b *testing.B) (*t3.Model, []*benchdata.BenchedQuery) {
	b.Helper()
	e := env(b)
	c, err := e.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	m, err := e.T3()
	if err != nil {
		b.Fatal(err)
	}
	return m, c.AllTest()
}

// --- Table 1: single-prediction latency -----------------------------------

func BenchmarkTable1_T3Compiled(b *testing.B) {
	m, test := benchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictPlan(test[i%len(test)].Query.Root, t3.TrueCards)
	}
}

func BenchmarkTable1_T3Interpreted(b *testing.B) {
	m, test := benchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictInterpreted(test[i%len(test)].Query.Root, t3.TrueCards)
	}
}

func BenchmarkTable1_ZeroShotNN(b *testing.B) {
	e := env(b)
	nn, err := e.ZeroShot()
	if err != nil {
		b.Fatal(err)
	}
	_, test := benchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.PredictSeconds(test[i%len(test)].Query.Root, plan.TrueCards)
	}
}

func BenchmarkTable1_StageHierarchy(b *testing.B) {
	res, err := env(b).RunTable1()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.StageCache.Nanoseconds()), "cache-ns")
	b.ReportMetric(float64(res.StageDT.Nanoseconds()), "dt-ns")
	b.ReportMetric(float64(res.StageNN.Nanoseconds()), "nn-ns")
	b.ReportMetric(float64(res.StageAvg.Nanoseconds()), "avg-ns")
}

// Model-only evaluation on the checked-in default model: interpreted node
// walking (the reference) vs the packed serving tier vs ahead-of-time
// generated Go code (the repository's lleaves analogue). This isolates the
// 22us -> 4us contrast of the paper's Table 1.
func defaultModelVectors(b *testing.B) (*gbdt.Model, [][]float64) {
	b.Helper()
	m, err := gbdt.Load("models/t3_default.json")
	if err != nil {
		b.Skipf("default model unavailable: %v", err)
	}
	if m.NumFeatures != compiled.NumFeatures() {
		b.Skip("generated code out of date; rerun cmd/t3compile")
	}
	rng := rand.New(rand.NewSource(9))
	vs := make([][]float64, 256)
	for i := range vs {
		v := make([]float64, m.NumFeatures)
		for j := range v {
			if rng.Intn(3) == 0 {
				v[j] = rng.Float64() * 1e6
			}
		}
		vs[i] = v
	}
	return m, vs
}

func BenchmarkTable1_ModelEvalInterpreted(b *testing.B) {
	m, vs := defaultModelVectors(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(vs[i%len(vs)])
	}
}

func BenchmarkTable1_ModelEvalGenerated(b *testing.B) {
	_, vs := defaultModelVectors(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiled.Predict(vs[i%len(vs)])
	}
}

func BenchmarkTable1_ModelEvalPacked(b *testing.B) {
	m, vs := defaultModelVectors(b)
	packed := treec.Pack(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed.Predict(vs[i%len(vs)])
	}
}

// BenchmarkPredictSingle contrasts, on the one packed tier, the allocating
// hot path (fresh vectors via PlanVectors per plan) with the allocation-free
// scratch path. The packed-scratch row must win on ns/op and report
// 0 allocs/op.
func BenchmarkPredictSingle(b *testing.B) {
	m, test := benchQueries(b)
	packed := m.Packed()
	b.Run("packed-featurize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			root := test[i%len(test)].Query.Root
			vecs, _ := m.Registry().PlanVectors(root, t3.TrueCards)
			for _, v := range vecs {
				packed.Predict(v)
			}
		}
	})
	b.Run("packed-scratch", func(b *testing.B) {
		var s t3.PredictScratch
		for _, q := range test {
			m.PredictPlanScratch(q.Query.Root, t3.TrueCards, &s)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PredictPlanScratch(test[i%len(test)].Query.Root, t3.TrueCards, &s)
		}
	})
	b.Run("packed-batch", func(b *testing.B) {
		roots := make([]*t3.Plan, len(test))
		for i, q := range test {
			roots[i] = q.Query.Root
		}
		out := make([]time.Duration, len(roots))
		m.PredictBatchInto(roots, t3.TrueCards, out)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PredictBatchInto(roots, t3.TrueCards, out)
		}
		// Report per-plan cost so the row is comparable to the others.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(roots)), "ns/plan")
	})
}

// --- Table 2: throughput ---------------------------------------------------

func BenchmarkTable2_Throughput(b *testing.B) {
	res, err := env(b).RunTable2()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range res.Rows {
		switch r.Model {
		case "T3 (compiled)":
			b.ReportMetric(r.Single, "t3-single-qps")
			b.ReportMetric(r.Batched, "t3-batched-qps")
		case "T3 interpreted":
			b.ReportMetric(r.Single, "interp-single-qps")
		case "Zero Shot NN":
			b.ReportMetric(r.Single, "nn-single-qps")
		}
	}
}

// --- Table 3: benchmark deviations ------------------------------------------

func BenchmarkTable3_Deviations(b *testing.B) {
	res, err := env(b).RunTable3()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Summary.Avg, "avg-qerr")
	b.ReportMetric(res.Summary.P50, "p50-qerr")
	b.ReportMetric(res.Summary.P90, "p90-qerr")
}

// --- Table 4: headline accuracy ---------------------------------------------

func BenchmarkTable4_Accuracy(b *testing.B) {
	res, err := env(b).RunTable4()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range res.Rows {
		switch r.Split {
		case "Train Queries":
			b.ReportMetric(r.Summary.Avg, "train-avg-qerr")
		case "All TPC-DS Test Queries":
			b.ReportMetric(r.Summary.Avg, "test-avg-qerr")
			b.ReportMetric(r.Summary.P50, "test-p50-qerr")
			b.ReportMetric(r.Summary.P90, "test-p90-qerr")
		case "TPC-DS Benchmark Queries":
			b.ReportMetric(r.Summary.Avg, "fixed-avg-qerr")
		}
	}
}

// --- Table 5: join-ordering optimization time --------------------------------

func BenchmarkTable5_DPsize(b *testing.B) {
	res, err := env(b).RunTable5()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range res.Rows {
		switch r.CostModel {
		case "Cout":
			b.ReportMetric(float64(r.OptTime.Microseconds()), "cout-opt-us")
			b.ReportMetric(float64(r.ModelCalls), "cout-calls")
		case "T3":
			b.ReportMetric(float64(r.OptTime.Microseconds()), "t3-opt-us")
			b.ReportMetric(float64(r.ModelCalls), "t3-calls")
			b.ReportMetric(float64(r.TimePerCall().Nanoseconds()), "t3-ns/call")
		}
	}
}

// --- Table 6: plan quality ---------------------------------------------------

func BenchmarkTable6_PlanQuality(b *testing.B) {
	res, err := env(b).RunTable6()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range res.Rows {
		switch r.CostModel {
		case "Cout":
			b.ReportMetric(r.ExecTime.Seconds()*1e3, "cout-exec-ms")
		case "T3":
			b.ReportMetric(r.ExecTime.Seconds()*1e3, "t3-exec-ms")
		case "Native DB":
			b.ReportMetric(r.ExecTime.Seconds()*1e3, "native-exec-ms")
		}
	}
}

// --- Figure 1: latency vs accuracy scatter -----------------------------------

func BenchmarkFig1_Scatter(b *testing.B) {
	res, err := env(b).RunFig1()
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range res.Points {
		switch p.Model {
		case "T3 (compiled)":
			b.ReportMetric(float64(p.Latency.Nanoseconds()), "t3-ns")
			b.ReportMetric(p.P50, "t3-p50-qerr")
		case "Zero Shot NN":
			b.ReportMetric(float64(p.Latency.Nanoseconds()), "nn-ns")
			b.ReportMetric(p.P50, "nn-p50-qerr")
		case "AutoWLM-style DT":
			b.ReportMetric(p.P50, "dt-p50-qerr")
		}
	}
}

// --- Figure 5: latency by pipeline count --------------------------------------

func benchPipelineVectors(b *testing.B, n int) ([][]float64, *t3.Model) {
	b.Helper()
	m, test := benchQueries(b)
	var pool [][]float64
	for _, q := range test {
		vs, _ := m.Registry().PlanVectors(q.Query.Root, plan.TrueCards)
		pool = append(pool, vs...)
		if len(pool) >= 2000 {
			break
		}
	}
	rng := rand.New(rand.NewSource(17))
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = pool[rng.Intn(len(pool))]
	}
	return vs, m
}

func benchmarkFig5Compiled(b *testing.B, n int) {
	vs, m := benchPipelineVectors(b, n)
	packed := m.Packed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vs {
			packed.Predict(v)
		}
	}
}

func benchmarkFig5Interpreted(b *testing.B, n int) {
	vs, m := benchPipelineVectors(b, n)
	gbm := m.Boosted()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vs {
			gbm.Predict(v)
		}
	}
}

func BenchmarkFig5_Compiled_1(b *testing.B)      { benchmarkFig5Compiled(b, 1) }
func BenchmarkFig5_Compiled_10(b *testing.B)     { benchmarkFig5Compiled(b, 10) }
func BenchmarkFig5_Compiled_100(b *testing.B)    { benchmarkFig5Compiled(b, 100) }
func BenchmarkFig5_Compiled_1000(b *testing.B)   { benchmarkFig5Compiled(b, 1000) }
func BenchmarkFig5_Interpreted_1(b *testing.B)   { benchmarkFig5Interpreted(b, 1) }
func BenchmarkFig5_Interpreted_10(b *testing.B)  { benchmarkFig5Interpreted(b, 10) }
func BenchmarkFig5_Interpreted_100(b *testing.B) { benchmarkFig5Interpreted(b, 100) }
func BenchmarkFig5_Interpreted_1000(b *testing.B) {
	benchmarkFig5Interpreted(b, 1000)
}

func BenchmarkFig5_InterpretedMT_1000(b *testing.B) {
	vs, m := benchPipelineVectors(b, 1000)
	gbm := m.Boosted()
	pool := par.Sized(0)
	chunk := len(vs)/(4*pool.Workers()) + 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.For(len(vs), chunk, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				gbm.Predict(vs[j])
			}
		})
	}
}

// --- Parallel training and batched prediction ---------------------------------

// trainCorpus generates a fixed synthetic regression problem large enough for
// per-feature histogram fan-out to matter.
func trainCorpus(n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(3))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, 8)
		for j := range x {
			x[j] = rng.Float64() * 100
		}
		y := x[0]*0.5 + math.Log1p(x[1]) - x[2]*x[3]*0.001
		if x[4] > 50 {
			y += 10
		}
		xs[i] = x
		ys[i] = y
	}
	return xs, ys
}

// BenchmarkTrain measures GBDT training wall-clock by worker count on the
// same corpus; models are bit-for-bit identical across the sub-benchmarks.
// The hist-subtraction pair isolates the histogram-subtraction trick at one
// worker: "off" rescans both children of every split, "on" (the default
// everywhere else) scans only the smaller child and derives the sibling.
func BenchmarkTrain(b *testing.B) {
	xs, ys := trainCorpus(16000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := gbdt.DefaultParams()
			p.NumRounds = 20
			p.Seed = 5
			p.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := gbdt.Train(p, xs, ys, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, noSub := range []bool{false, true} {
		name := "hist-subtraction=on"
		if noSub {
			name = "hist-subtraction=off"
		}
		b.Run(name, func(b *testing.B) {
			p := gbdt.DefaultParams()
			p.NumRounds = 20
			p.Seed = 5
			p.Workers = 1
			p.NoHistSubtraction = noSub
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := gbdt.Train(p, xs, ys, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictBatch measures batched whole-plan prediction (featurization
// + compiled evaluation fanned out over the shared pool) against the
// one-plan-at-a-time loop of BenchmarkTable1_T3Compiled.
func BenchmarkPredictBatch(b *testing.B) {
	m, test := benchQueries(b)
	roots := make([]*t3.Plan, len(test))
	for i, q := range test {
		roots[i] = q.Query.Root
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(roots, t3.TrueCards)
	}
}

// --- Figures 6-14: accuracy experiments ---------------------------------------

func BenchmarkFig6_RunningTimes(b *testing.B) {
	res, err := env(b).RunFig6()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Min*1e6, "min-us")
	b.ReportMetric(res.Max*1e3, "max-ms")
}

func BenchmarkFig7_ErrorDistribution(b *testing.B) {
	res, err := env(b).RunFig7()
	if err != nil {
		b.Fatal(err)
	}
	total, small := 0, 0
	for i, c := range res.Hist.Counts {
		total += c
		if i < 4 { // q-error <= 1.5
			small += c
		}
	}
	b.ReportMetric(float64(small)/float64(total)*100, "pct-below-1.5")
}

func BenchmarkFig8_QueryTypes(b *testing.B) {
	res, err := env(b).RunFig8()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Group == "Fixed" {
			b.ReportMetric(r.Summary.P50, "fixed-p50-qerr")
		}
		if r.Group == "SeJSiA" {
			b.ReportMetric(r.Summary.P50, "sejsia-p50-qerr")
		}
	}
}

func BenchmarkFig9_LeaveOneOut(b *testing.B) {
	res, err := env(b).RunFig9()
	if err != nil {
		b.Fatal(err)
	}
	worst := 0.0
	for _, r := range res.Rows {
		if r.Summary.P50 > worst {
			worst = r.Summary.P50
		}
	}
	b.ReportMetric(worst, "worst-p50-qerr")
}

func BenchmarkFig10_JOBComparison(b *testing.B) {
	res, err := env(b).RunFig10()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.T3.P50, "t3-p50-qerr")
	b.ReportMetric(res.ZeroShot.P50, "nn-p50-qerr")
}

func BenchmarkFig11_CardinalityModes(b *testing.B) {
	res, err := env(b).RunFig11()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.TrainPerfectEvalPerfect.P50, "perfect-p50")
	b.ReportMetric(res.TrainPerfectEvalEst.P50, "est-eval-p50")
	b.ReportMetric(res.TrainEstEvalEst.P50, "est-both-p50")
}

func BenchmarkFig12_Degradation(b *testing.B) {
	res, err := env(b).RunFig12()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.T3P50[0], "t3-exact-p50")
	b.ReportMetric(res.T3P50[len(res.T3P50)-1], "t3-1000x-p50")
	b.ReportMetric(res.NNP50[len(res.NNP50)-1], "nn-1000x-p50")
}

func BenchmarkFig13_Ablation(b *testing.B) {
	res, err := env(b).RunFig13()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.PerTuple.P50, "per-tuple-p50")
	b.ReportMetric(res.PerPipeline.P50, "per-pipeline-p50")
	b.ReportMetric(res.PerQuery.P50, "per-query-p50")
}

func BenchmarkFig14_BenchmarkRuns(b *testing.B) {
	res, err := env(b).RunFig14()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.P50[0], "runs1-p50")
	b.ReportMetric(res.P50[len(res.P50)-1], "runs10-p50")
}
