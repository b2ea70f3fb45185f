package experiments

import (
	"fmt"
	"math"
	"strings"

	"t3"
	"t3/internal/baselines"
	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/engine/stats"
	"t3/internal/qerror"
	"t3/internal/workload"
)

// Table3 reproduces the benchmark-deviation statistics: the most consistent
// two-thirds of 10 timing runs, reporting the run furthest from the median.
type Table3 struct {
	Summary qerror.Summary
}

// RunTable3 measures run-to-run deviation on the 10-run corpus.
func (e *Env) RunTable3() (*Table3, error) {
	deep, err := e.DeepRunQueries()
	if err != nil {
		return nil, err
	}
	return &Table3{Summary: benchdata.DeviationStats(deep)}, nil
}

// Format renders Table 3.
func (t *Table3) Format() string {
	s := t.Summary
	return fmt.Sprintf("Table 3: benchmark deviation as q-error (most consistent 2/3 of runs)\n"+
		"%8s %8s %8s %8s %8s\n%8.3f %8.3f %8.3f %8.3f %8d\n",
		"avg", "p50", "p90", "max", "n", s.Avg, s.P50, s.P90, s.Max, s.N)
}

// Table4 reproduces the headline accuracy table: q-errors on train queries,
// all TPC-DS test queries, the fixed TPC-DS benchmark queries, and the
// sf100 splits.
type Table4 struct {
	Rows []Table4Row
}

// Table4Row is one evaluation split.
type Table4Row struct {
	Split   string
	Summary qerror.Summary
}

// RunTable4 evaluates the trained T3 model on all paper splits with perfect
// cardinalities.
func (e *Env) RunTable4() (*Table4, error) {
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	m, err := e.T3()
	if err != nil {
		return nil, err
	}
	pred := t3Predict(m, plan.TrueCards)

	t4 := &Table4{}
	add := func(split string, qs []*workload.Label) {
		t4.Rows = append(t4.Rows, Table4Row{Split: split, Summary: qerror.Summarize(qerrors(pred, qs))})
	}

	train := c.AllTrain()
	if len(train) > 2000 {
		train = train[:2000]
	}
	add("Train Queries", train)
	add("All TPC-DS Test Queries", c.AllTest())

	var fixed, sf100, sf100fixed []*workload.Label
	for _, set := range c.Test {
		for _, b := range set.Labels {
			if b.Group == workload.GroupFixed {
				fixed = append(fixed, b)
			}
			if set.Instance == "tpcds_sf100" {
				sf100 = append(sf100, b)
				if b.Group == workload.GroupFixed {
					sf100fixed = append(sf100fixed, b)
				}
			}
		}
	}
	add("TPC-DS Benchmark Queries", fixed)
	add("TPC-DS sf100 Test Queries", sf100)
	add("TPC-DS sf100 Benchmark Queries", sf100fixed)
	return t4, nil
}

// Format renders Table 4.
func (t *Table4) Format() string {
	var sb strings.Builder
	sb.WriteString("Table 4: T3 accuracy in q-error (perfect cardinalities)\n")
	fmt.Fprintf(&sb, "%-34s %8s %8s %8s %6s\n", "Queries", "p50", "p90", "avg", "n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-34s %8.2f %8.2f %8.2f %6d\n", r.Split, r.Summary.P50, r.Summary.P90, r.Summary.Avg, r.Summary.N)
	}
	return sb.String()
}

// Fig6 reproduces the distribution of observed query running times.
type Fig6 struct {
	// BucketEdges are upper bounds in seconds (powers of 10); Counts has
	// one extra bucket for the tail.
	BucketEdges []float64
	Counts      []int
	Min, Max    float64
}

// RunFig6 histograms the measured running times of the whole dataset.
func (e *Env) RunFig6() (*Fig6, error) {
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	f := &Fig6{Min: math.Inf(1), Max: math.Inf(-1)}
	for exp := -7; exp <= 2; exp++ {
		f.BucketEdges = append(f.BucketEdges, math.Pow(10, float64(exp)))
	}
	f.Counts = make([]int, len(f.BucketEdges)+1)
	all := append(c.AllTrain(), c.AllTest()...)
	for _, b := range all {
		t := b.MedianTotal().Seconds()
		f.Min = math.Min(f.Min, t)
		f.Max = math.Max(f.Max, t)
		placed := false
		for i, edge := range f.BucketEdges {
			if t <= edge {
				f.Counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			f.Counts[len(f.BucketEdges)]++
		}
	}
	return f, nil
}

// Format renders Figure 6 as an ASCII histogram.
func (f *Fig6) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6: observed running times (min=%s max=%s)\n",
		fmtSeconds(f.Min), fmtSeconds(f.Max))
	for i, c := range f.Counts {
		label := "more"
		if i < len(f.BucketEdges) {
			label = "<= " + fmtSeconds(f.BucketEdges[i])
		}
		fmt.Fprintf(&sb, "%12s %6d %s\n", label, c, strings.Repeat("#", bar(c, 50)))
	}
	return sb.String()
}

func fmtSeconds(s float64) string {
	switch {
	case s < 1e-6:
		return fmt.Sprintf("%.0fns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.0fus", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.0fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

func bar(count, cap int) int {
	if count > cap {
		return cap
	}
	return count
}

// Fig7 reproduces the q-error frequency distribution on the TPC-DS test
// queries.
type Fig7 struct {
	Hist *qerror.Histogram
}

// RunFig7 histograms T3's q-errors.
func (e *Env) RunFig7() (*Fig7, error) {
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	m, err := e.T3()
	if err != nil {
		return nil, err
	}
	h := qerror.NewHistogram([]float64{1.05, 1.1, 1.2, 1.5, 2, 3, 5, 10, 100})
	h.AddAll(qerrors(t3Predict(m, plan.TrueCards), c.AllTest()))
	return &Fig7{Hist: h}, nil
}

// Format renders Figure 7.
func (f *Fig7) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 7: q-error frequency distribution (TPC-DS test queries)\n")
	for i, c := range f.Hist.Counts {
		label := "more"
		if i < len(f.Hist.Bounds) {
			label = fmt.Sprintf("<= %.2f", f.Hist.Bounds[i])
		}
		fmt.Fprintf(&sb, "%10s %6d %s\n", label, c, strings.Repeat("#", bar(c, 50)))
	}
	return sb.String()
}

// Fig8 reproduces q-error by query-structure group.
type Fig8 struct {
	Rows []Fig8Row
}

// Fig8Row is one query group's accuracy.
type Fig8Row struct {
	Group   workload.Group
	Summary qerror.Summary
}

// RunFig8 splits the TPC-DS test accuracy by generator group (plus the
// fixed benchmark queries).
func (e *Env) RunFig8() (*Fig8, error) {
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	m, err := e.T3()
	if err != nil {
		return nil, err
	}
	pred := t3Predict(m, plan.TrueCards)
	groups := append([]workload.Group{workload.GroupFixed}, workload.Groups...)
	f := &Fig8{}
	for _, g := range groups {
		var qs []*workload.Label
		for _, l := range c.AllTest() {
			if l.Group == g {
				qs = append(qs, l)
			}
		}
		if len(qs) == 0 {
			continue
		}
		f.Rows = append(f.Rows, Fig8Row{Group: g, Summary: qerror.Summarize(qerrors(pred, qs))})
	}
	return f, nil
}

// Format renders Figure 8.
func (f *Fig8) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 8: q-error by query type (TPC-DS test queries)\n")
	fmt.Fprintf(&sb, "%-10s %8s %8s %8s %6s\n", "Group", "p50", "p90", "avg", "n")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-10s %8.2f %8.2f %8.2f %6d\n", r.Group, r.Summary.P50, r.Summary.P90, r.Summary.Avg, r.Summary.N)
	}
	return sb.String()
}

// Fig9 reproduces the leave-one-out generalization study: for each
// evaluation instance, T3 is trained on all other instances.
type Fig9 struct {
	Rows []Fig9Row
}

// Fig9Row is one held-out instance.
type Fig9Row struct {
	Instance string
	Summary  qerror.Summary
}

// RunFig9 retrains T3 once per held-out training instance.
func (e *Env) RunFig9() (*Fig9, error) {
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	sets := c.Train
	if e.Cfg.LeaveOneOutInstances > 0 && e.Cfg.LeaveOneOutInstances < len(sets) {
		sets = sets[:e.Cfg.LeaveOneOutInstances]
	}
	f := &Fig9{}
	for _, held := range sets {
		m, err := t3.Train(c.TrainExcept(held.Instance), t3.TrainOptions{Params: e.Params()})
		if err != nil {
			return nil, fmt.Errorf("leave-one-out %s: %w", held.Instance, err)
		}
		es := qerrors(t3Predict(m, plan.TrueCards), held.Labels)
		f.Rows = append(f.Rows, Fig9Row{Instance: held.Instance, Summary: qerror.Summarize(es)})
	}
	return f, nil
}

// Format renders Figure 9.
func (f *Fig9) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 9: leave-one-out q-error per evaluation instance\n")
	fmt.Fprintf(&sb, "%-18s %8s %8s %8s\n", "Instance", "p50", "p90", "avg")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-18s %8.2f %8.2f %8.2f\n", r.Instance, r.Summary.P50, r.Summary.P90, r.Summary.Avg)
	}
	return sb.String()
}

// Fig11 reproduces the perfect-vs-estimated cardinality study with its
// three variants.
type Fig11 struct {
	TrainPerfectEvalPerfect qerror.Summary
	TrainPerfectEvalEst     qerror.Summary
	TrainEstEvalEst         qerror.Summary
}

// RunFig11 evaluates the three cardinality configurations on the TPC-DS
// test queries.
func (e *Env) RunFig11() (*Fig11, error) {
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	m, err := e.T3()
	if err != nil {
		return nil, err
	}
	test := c.AllTest()
	f := &Fig11{}
	f.TrainPerfectEvalPerfect = qerror.Summarize(qerrors(t3Predict(m, plan.TrueCards), test))
	f.TrainPerfectEvalEst = qerror.Summarize(qerrors(t3Predict(m, plan.EstCards), test))

	mEst, err := t3.Train(c.AllTrain(), t3.TrainOptions{Params: e.Params(), CardMode: plan.EstCards})
	if err != nil {
		return nil, err
	}
	f.TrainEstEvalEst = qerror.Summarize(qerrors(t3Predict(mEst, plan.EstCards), test))
	return f, nil
}

// Format renders Figure 11.
func (f *Fig11) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 11: accuracy with perfect vs estimated cardinalities\n")
	fmt.Fprintf(&sb, "%-28s %s\n", "train perfect, eval perfect", fmtSummary(f.TrainPerfectEvalPerfect))
	fmt.Fprintf(&sb, "%-28s %s\n", "train perfect, eval est", fmtSummary(f.TrainPerfectEvalEst))
	fmt.Fprintf(&sb, "%-28s %s\n", "train est, eval est", fmtSummary(f.TrainEstEvalEst))
	return sb.String()
}

// Fig12 reproduces accuracy under artificially degraded cardinality
// estimates for T3 and the Zero Shot NN.
type Fig12 struct {
	Factors []float64
	T3P50   []float64
	T3Avg   []float64
	NNP50   []float64
	NNAvg   []float64
}

// RunFig12 sweeps distortion factors from exact (1x) to 1000x.
func (e *Env) RunFig12() (*Fig12, error) {
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	m, err := e.T3()
	if err != nil {
		return nil, err
	}
	nn, err := e.ZeroShot()
	if err != nil {
		return nil, err
	}
	test := c.AllTest()
	// Preserve the estimator-produced annotations; the sweep overwrites
	// them with distorted true values.
	snaps := make([][]float64, len(test))
	for i, b := range test {
		snaps[i] = stats.SnapshotEst(b.Root)
	}
	f := &Fig12{Factors: []float64{1, 2, 5, 10, 50, 100, 500, 1000}}
	for fi, factor := range f.Factors {
		for _, b := range test {
			stats.Distort(b.Root, factor, int64(fi)*1001+7)
		}
		t3es := qerrors(t3Predict(m, plan.EstCards), test)
		nnes := qerrors(func(b *workload.Label) float64 {
			return nn.PredictSeconds(b.Root, plan.EstCards)
		}, test)
		st, sn := qerror.Summarize(t3es), qerror.Summarize(nnes)
		f.T3P50 = append(f.T3P50, st.P50)
		f.T3Avg = append(f.T3Avg, st.Avg)
		f.NNP50 = append(f.NNP50, sn.P50)
		f.NNAvg = append(f.NNAvg, sn.Avg)
	}
	// Restore the original estimator annotations for later experiments.
	for i, b := range test {
		stats.RestoreEst(b.Root, snaps[i])
	}
	return f, nil
}

// Format renders Figure 12.
func (f *Fig12) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 12: accuracy under degraded cardinality estimates\n")
	fmt.Fprintf(&sb, "%8s %10s %10s %10s %10s\n", "factor", "T3 p50", "T3 avg", "NN p50", "NN avg")
	for i, fac := range f.Factors {
		fmt.Fprintf(&sb, "%8.0f %10.2f %10.2f %10.2f %10.2f\n", fac, f.T3P50[i], f.T3Avg[i], f.NNP50[i], f.NNAvg[i])
	}
	return sb.String()
}

// Fig13 reproduces the ablation study: per-tuple (T3) vs per-pipeline
// direct vs per-query prediction.
type Fig13 struct {
	PerTuple    qerror.Summary
	PerPipeline qerror.Summary
	PerQuery    qerror.Summary
}

// RunFig13 trains the two ablation variants and compares on TPC-DS.
func (e *Env) RunFig13() (*Fig13, error) {
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	m, err := e.T3()
	if err != nil {
		return nil, err
	}
	test := c.AllTest()
	f := &Fig13{}
	f.PerTuple = qerror.Summarize(qerrors(t3Predict(m, plan.TrueCards), test))

	direct, err := baselines.TrainPerPipelineDirect(c.AllTrain(), plan.TrueCards, e.Params())
	if err != nil {
		return nil, err
	}
	f.PerPipeline = qerror.Summarize(qerrors(func(b *workload.Label) float64 {
		return direct.PredictSeconds(b.Root, plan.TrueCards)
	}, test))

	pq, err := e.PerQueryDT()
	if err != nil {
		return nil, err
	}
	f.PerQuery = qerror.Summarize(qerrors(func(b *workload.Label) float64 {
		return pq.PredictSeconds(b.Root, plan.TrueCards)
	}, test))
	return f, nil
}

// Format renders Figure 13.
func (f *Fig13) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 13: ablation — prediction granularity\n")
	fmt.Fprintf(&sb, "%-26s %s\n", "single tuple (T3)", fmtSummary(f.PerTuple))
	fmt.Fprintf(&sb, "%-26s %s\n", "individual pipeline", fmtSummary(f.PerPipeline))
	fmt.Fprintf(&sb, "%-26s %s\n", "whole query", fmtSummary(f.PerQuery))
	return sb.String()
}

// Fig14 reproduces the repeated-benchmark study: model accuracy when targets
// come from the median of k timing runs.
type Fig14 struct {
	Runs []int
	P50  []float64
	Avg  []float64
}

// RunFig14 trains one model per run count on the 10-run corpus and evaluates
// on the TPC-DS test queries.
func (e *Env) RunFig14() (*Fig14, error) {
	deep, err := e.DeepRunQueries()
	if err != nil {
		return nil, err
	}
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	test := c.AllTest()
	f := &Fig14{Runs: []int{1, 2, 3, 5, 10}}
	for _, k := range f.Runs {
		m, err := t3.Train(deep, t3.TrainOptions{Params: e.Params(), Runs: k})
		if err != nil {
			return nil, err
		}
		s := qerror.Summarize(qerrors(t3Predict(m, plan.TrueCards), test))
		f.P50 = append(f.P50, s.P50)
		f.Avg = append(f.Avg, s.Avg)
	}
	return f, nil
}

// Format renders Figure 14.
func (f *Fig14) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 14: accuracy by number of benchmark runs\n")
	fmt.Fprintf(&sb, "%6s %8s %8s\n", "runs", "p50", "avg")
	for i, k := range f.Runs {
		fmt.Fprintf(&sb, "%6d %8.2f %8.2f\n", k, f.P50[i], f.Avg[i])
	}
	return sb.String()
}
