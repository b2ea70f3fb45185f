package t3_test

// Micro-benchmarks (`make microbench`): the single steps behind the paper's
// latency results — Table 1's prediction and model-evaluation tiers, Figure
// 5's scaling by pipeline count — plus training and batched prediction,
// each a b.N loop reporting ns/op and allocs/op. The paper's tables and
// figures themselves are printed by cmd/t3bench; every system number
// (latency over a socket, throughput, enumeration, execution, retraining) is
// a metric of bench/.

import (
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"t3"
	"t3/internal/benchdata"
	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/experiments"
	"t3/internal/feature"
	"t3/internal/gbdt"
	"t3/internal/joinorder"
	"t3/internal/par"
	"t3/internal/treec"
	"t3/internal/workload"
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
func benchQueries(b *testing.B) (*t3.Model, []*workload.Label) {
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
		m.PredictPlan(test[i%len(test)].Root, t3.TrueCards)
	}
}

func BenchmarkTable1_T3Interpreted(b *testing.B) {
	m, test := benchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictInterpreted(test[i%len(test)].Root, t3.TrueCards)
	}
}

// Model-only evaluation on the checked-in default model: interpreted node
// walking (the reference) vs the packed serving tier's scalar walker. This
// isolates the 22us -> 4us contrast of the paper's Table 1; the tier's batch
// kernel on real pipeline vectors is BenchmarkTreeKernels.
func defaultModelVectors(b *testing.B) (*gbdt.Model, [][]float64) {
	b.Helper()
	m, err := gbdt.Load("models/t3_default.json")
	if err != nil {
		b.Skipf("default model unavailable: %v", err)
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

func BenchmarkTable1_ModelEvalPacked(b *testing.B) {
	m, vs := defaultModelVectors(b)
	packed := treec.Pack(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed.Predict(vs[i%len(vs)])
	}
}

// BenchmarkLoad times what a model load does with models/t3_default.json, step
// by step: decode the document, encode it again (what a registry Put writes),
// Pack it, and the whole t3.Load from the file.
func BenchmarkLoad(b *testing.B) {
	const path = "models/t3_default.json"
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	m, err := gbdt.DecodeJSON(data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := gbdt.DecodeJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := m.AppendJSON(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pack", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			treec.Pack(m)
		}
	})
	b.Run("t3.Load", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := t3.Load(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTreeKernels is the regenerable half of EXPERIMENTS.md "Tree
// kernels": the two evaluators treec.Packed keeps — the scalar walker behind
// Predict and the block-wise bitvector kernel behind PredictRowsInto — and
// the interpreter they are checked against, on the checked-in default model
// over real pipeline vectors (the TPC-H benchmark and generated queries, true
// cardinalities), ns per vector. "rows" sends them as one batch, full blocks
// of eight; "rows-short" as one call per plan, 2.8 vectors on average, so
// mostly the one-row path, which takes calls of one to three rows.
// interpreter → walker → rows-short is the paper's compile speed-up on the
// tier that serves.
func BenchmarkTreeKernels(b *testing.B) {
	m, err := t3.Load("models/t3_default.json")
	if err != nil {
		b.Skipf("default model unavailable: %v", err)
	}
	inst, err := workload.Generate(workload.TPCHSpec("tpch_kernels", 0.01, 1))
	if err != nil {
		b.Fatal(err)
	}
	qs := append(workload.TPCHBenchmarkQueries(inst),
		workload.GenerateQueries(inst, workload.GenConfig{PerGroup: 6, Seed: 1})...)
	var vecs [][]float64
	var rows []float64
	var ends []int // per plan, the end of its vectors
	for _, q := range qs {
		if err := exec.AnnotateTrueCards(q.Root); err != nil {
			b.Fatal(err)
		}
		vs, _ := m.Registry().PlanVectors(q.Root, t3.TrueCards)
		for _, v := range vs {
			vecs = append(vecs, v)
			rows = append(rows, v...)
		}
		ends = append(ends, len(vecs))
	}
	packed, stride := m.Packed(), m.Registry().NumFeatures()
	out := make([]float64, len(vecs))
	perVector := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)), "ns/vector")
	}
	gbm := m.Boosted()
	b.Run("interpreter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, v := range vecs {
				out[r] = gbm.Predict(v)
			}
		}
		perVector(b)
	})
	b.Run("walker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, v := range vecs {
				out[r] = packed.Predict(v)
			}
		}
		perVector(b)
	})
	// masks/vector is the kernel's work as a count (Packed.MaskCounts): mask
	// applications and checkpoint entries, those shared by a block counted
	// once.
	perVectorMasks := func(b *testing.B, w treec.Work) {
		perVector(b)
		b.ReportMetric(float64(w.Shared+w.Own)/float64(len(vecs)), "masks/vector")
	}
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			packed.PredictRowsInto(rows, stride, out, nil)
		}
		perVectorMasks(b, packed.MaskCounts(rows, stride, len(vecs), nil))
	})
	b.Run("rows-short", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			at := 0
			for _, end := range ends {
				packed.PredictRowsInto(rows[at*stride:end*stride], stride, out[at:end], nil)
				at = end
			}
		}
		var w treec.Work
		at := 0
		for _, end := range ends {
			w, at = w.Plus(packed.MaskCounts(rows[at*stride:], stride, end-at, nil)), end
		}
		perVectorMasks(b, w)
	})
}

// BenchmarkJoinEnum is join-order enumeration on the batch kernel: the four
// graphs of bench/inputs.go (its shapes, sizes and seeds) through
// DPSizeBatched on the calling goroutine, the oracle's memo warm. ns/row is
// the elapsed time over the rows the enumerator sent to the model
// (Result.ModelCalls) — featurization and the dynamic program included, so it
// is an upper bound on what the kernel takes per candidate. masks/row and
// lists/row are the kernel's work over the same rows as a count
// (joinorder.KernelWork): mask applications and checkpoint entries, those a
// block shares counted once, and scan-list searches, building the
// enumeration's starts included. scalar/<graph> is DPSize over a fresh
// NewT3Cost on the same graphs — one kernel call per candidate row, its
// starts built per enumeration — and ns/call is its elapsed time over its
// model calls.
func BenchmarkJoinEnum(b *testing.B) {
	m, err := t3.Load("models/t3_default.json")
	if err != nil {
		b.Skipf("default model unavailable: %v", err)
	}
	for _, g := range []struct {
		name, shape string
		n           int
		seed        int64
	}{
		{"chain-10", workload.ShapeChain, 10, 101},
		{"star-10", workload.ShapeStar, 10, 102},
		{"clique-8", workload.ShapeClique, 8, 103},
		{"chain-12", workload.ShapeChain, 12, 104},
	} {
		b.Run(g.name, func(b *testing.B) {
			inst, spec := workload.SyntheticJoinBench(g.shape, g.n, 4000, g.seed)
			oracle := joinorder.NewMemoOracle(joinorder.NewEstOracle(inst, spec), g.n)
			enumerate := func() *joinorder.Result {
				res, err := joinorder.DPSizeBatched(spec, m.Packed(), m.Registry(), inst, oracle, joinorder.BatchConfig{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			res, work, err := joinorder.KernelWork(spec, m.Packed(), m.Registry(), inst, oracle, joinorder.BatchConfig{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			calls := res.ModelCalls
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enumerate()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/row")
			b.ReportMetric(float64(work.Shared+work.Own)/float64(calls), "masks/row")
			b.ReportMetric(float64(work.Lists)/float64(calls), "lists/row")
		})
		b.Run("scalar/"+g.name, func(b *testing.B) {
			inst, spec := workload.SyntheticJoinBench(g.shape, g.n, 4000, g.seed)
			oracle := joinorder.NewMemoOracle(joinorder.NewEstOracle(inst, spec), g.n)
			calls := 0
			for i := 0; i < b.N+1; i++ {
				if i == 1 {
					b.ResetTimer() // the first run warms the oracle's memo
				}
				res, err := joinorder.DPSize(spec, joinorder.NewT3Cost(m.Packed(), m.Registry(), inst, spec, oracle))
				if err != nil {
					b.Fatal(err)
				}
				calls = res.ModelCalls
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/call")
		})
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
			root := test[i%len(test)].Root
			vecs, _ := m.Registry().PlanVectors(root, t3.TrueCards)
			for _, v := range vecs {
				packed.Predict(v)
			}
		}
	})
	b.Run("packed-scratch", func(b *testing.B) {
		var s t3.PredictScratch
		for _, q := range test {
			m.PredictPlanScratch(q.Root, t3.TrueCards, &s)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PredictPlanScratch(test[i%len(test)].Root, t3.TrueCards, &s)
		}
	})
	b.Run("packed-batch", func(b *testing.B) {
		roots := make([]*t3.Plan, len(test))
		for i, q := range test {
			roots[i] = q.Root
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

// --- Figure 5: latency by pipeline count --------------------------------------

func benchPipelineVectors(b *testing.B, n int) ([][]float64, *t3.Model) {
	b.Helper()
	m, test := benchQueries(b)
	var pool [][]float64
	for _, q := range test {
		vs, _ := m.Registry().PlanVectors(q.Root, plan.TrueCards)
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

// benchmarkFig5Compiled times the bitvector kernel as Figure 5's compiled
// series does: one PredictRowsInto call over the n rows.
func benchmarkFig5Compiled(b *testing.B, n int) {
	vs, m := benchPipelineVectors(b, n)
	packed, stride := m.Packed(), m.Registry().NumFeatures()
	rows := make([]float64, 0, n*stride)
	for _, v := range vs {
		rows = append(rows, v...)
	}
	out := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed.PredictRowsInto(rows, stride, out, nil)
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

// --- Training and batched prediction ------------------------------------------

// trainCorpus generates a fixed synthetic regression problem of uniformly
// dense features: every cell is off its feature's most frequent bin, so
// histogram builds skip nothing.
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

// BenchmarkTrain measures GBDT training wall-clock. The corpus rows are real
// pipeline vectors (the checked-in experiments corpus), where most cells sit
// at their feature's most frequent value and histogram builds skip them:
// cells/row is how many a build writes per row it scans, out of the vector's
// 55. The eight uniformly dense synthetic features are the parity check —
// nothing to skip, so nothing should be gained or lost.
func BenchmarkTrain(b *testing.B) {
	run := func(name string, xs [][]float64, ys []float64, rounds int) {
		b.Run(name, func(b *testing.B) {
			p := gbdt.DefaultParams()
			p.NumRounds = rounds
			p.Seed = 5
			var res *gbdt.TrainResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if _, res, err = gbdt.Train(p, xs, ys, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.CellUpdates)/float64(res.RowsScanned), "cells/row")
		})
	}
	c, err := benchdata.LoadCorpus("internal/experiments/testdata/corpus.json.gz")
	if err != nil {
		b.Fatal(err)
	}
	cx, cy := benchdata.Examples(feature.NewDefaultRegistry(), c.AllTrain(), plan.TrueCards, 0)
	run("corpus", cx, cy, 40)
	dx, dy := trainCorpus(16000)
	run("dense", dx, dy, 20)
}

// BenchmarkPredictBatch measures batched whole-plan prediction (featurization
// + compiled evaluation fanned out over the shared pool) against the
// one-plan-at-a-time loop of BenchmarkTable1_T3Compiled.
func BenchmarkPredictBatch(b *testing.B) {
	m, test := benchQueries(b)
	roots := make([]*t3.Plan, len(test))
	for i, q := range test {
		roots[i] = q.Root
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(roots, t3.TrueCards)
	}
}
