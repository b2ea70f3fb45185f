// Package benchdata runs query workloads on the engine to collect T3's
// training and evaluation data (§4.3 of the paper).
//
// For every query it executes one "explain analyze" run that annotates true
// cardinalities, then a configurable number of timing runs whose per-pipeline
// medians become the training targets. It also assembles the per-pipeline
// feature/target examples the model trains on and provides the
// benchmark-deviation statistics of Table 3.
package benchdata

import (
	"fmt"
	"math"
	"sort"
	"time"

	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/engine/stats"
	"t3/internal/feature"
	"t3/internal/qerror"
	"t3/internal/workload"
)

// BenchedQuery is one query with measured execution data.
type BenchedQuery struct {
	Query *workload.Query
	// Pipelines are the decomposed pipelines of the plan (after the analyze
	// run annotated true cardinalities).
	Pipelines []*plan.Pipeline
	// RunTotals holds the total query time of each timing run.
	RunTotals []time.Duration
	// PipelineRuns[r][p] is the time of pipeline p in run r.
	PipelineRuns [][]time.Duration
}

// MedianTotal returns the median total query time over the timing runs.
func (b *BenchedQuery) MedianTotal() time.Duration {
	return medianDur(b.RunTotals)
}

// PipelineMedian returns the median time of pipeline p over the first
// `runs` timing runs (0 = all runs). Figure 14 varies `runs`.
func (b *BenchedQuery) PipelineMedian(p, runs int) time.Duration {
	if runs <= 0 || runs > len(b.PipelineRuns) {
		runs = len(b.PipelineRuns)
	}
	ts := make([]time.Duration, runs)
	for r := 0; r < runs; r++ {
		ts[r] = b.PipelineRuns[r][p]
	}
	return medianDur(ts)
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// Benchmark executes the query once with annotation (explain analyze), fills
// estimated cardinalities with est (if non-nil), then performs `runs` timing
// runs.
func Benchmark(q *workload.Query, runs int, est *stats.Estimator) (*BenchedQuery, error) {
	if runs < 1 {
		runs = 1
	}
	// Analyze run: annotate true cardinalities.
	if _, err := exec.Run(q.Root, true); err != nil {
		return nil, fmt.Errorf("analyze %s: %w", q.Name, err)
	}
	if est != nil {
		est.Estimate(q.Root)
	}
	b := &BenchedQuery{Query: q, Pipelines: plan.Decompose(q.Root)}
	for r := 0; r < runs; r++ {
		res, err := exec.Run(q.Root, false)
		if err != nil {
			return nil, fmt.Errorf("run %d of %s: %w", r, q.Name, err)
		}
		times := make([]time.Duration, len(res.Pipelines))
		for i, pt := range res.Pipelines {
			times[i] = pt.Duration
		}
		b.PipelineRuns = append(b.PipelineRuns, times)
		b.RunTotals = append(b.RunTotals, res.Total)
	}
	return b, nil
}

// ReleaseTables detaches base-table data from the plan so the instance can
// be garbage collected. Featurization and prediction keep working (they read
// only annotations); re-execution does not.
func (b *BenchedQuery) ReleaseTables() {
	b.Query.Root.Walk(func(n *plan.Node) { n.Table = nil })
}

// TargetTransform converts a per-tuple time in seconds into the model
// target t' = -log10(t) (§2.4, Eq. 1). Per-tuple times range from ~1e-15 s
// to ~1 s, so targets land in roughly [0, 15].
func TargetTransform(perTupleSeconds float64) float64 {
	const minT = 1e-15
	if perTupleSeconds < minT {
		perTupleSeconds = minT
	}
	return -math.Log10(perTupleSeconds)
}

// InverseTarget converts a model output back to a per-tuple time in seconds.
func InverseTarget(t float64) float64 { return math.Pow(10, -t) }

// Examples turns benched queries into per-pipeline training examples:
// feature vectors (under the given cardinality mode) and transformed
// per-tuple targets computed from the median of the first `runs` timing runs
// (0 = all).
func Examples(reg *feature.Registry, benched []*BenchedQuery, mode plan.CardMode, runs int) (xs [][]float64, ys []float64) {
	for _, b := range benched {
		for pi, p := range b.Pipelines {
			xs = append(xs, reg.PipelineVector(p, mode))
			card := feature.SourceCard(p, plan.TrueCards)
			t := b.PipelineMedian(pi, runs).Seconds() / card
			ys = append(ys, TargetTransform(t))
		}
	}
	return xs, ys
}

// DeviationStats computes the benchmark-deviation q-errors of Table 3: for
// each query, consider the most consistent two-thirds of the timing runs and
// report the q-error of the one furthest from the median.
func DeviationStats(benched []*BenchedQuery) qerror.Summary {
	var es []float64
	for _, b := range benched {
		if len(b.RunTotals) < 3 {
			continue
		}
		med := b.MedianTotal().Seconds()
		if med <= 0 {
			continue
		}
		devs := make([]float64, len(b.RunTotals))
		for i, r := range b.RunTotals {
			devs[i] = qerror.QError(r.Seconds(), med)
		}
		sort.Float64s(devs)
		keep := (len(devs)*2 + 2) / 3 // ceil(2/3 n): closest to the median
		es = append(es, devs[keep-1])
	}
	return qerror.Summarize(es)
}

// InstanceSet groups the benched queries of one database instance.
type InstanceSet struct {
	Name    string
	Queries []*BenchedQuery
}

// Split returns the subset of queries in the given structure group.
func (s *InstanceSet) Split(g workload.Group) []*BenchedQuery {
	var out []*BenchedQuery
	for _, b := range s.Queries {
		if b.Query.Group == g {
			out = append(out, b)
		}
	}
	return out
}

// Config sizes corpus construction.
type Config struct {
	// Scale multiplies instance sizes (1 = the full default).
	Scale float64
	// PerGroup is the number of generated queries per structure group per
	// instance (the paper uses 40).
	PerGroup int
	// Runs is the number of timing runs per query (the paper uses 10 but
	// shows 1 suffices; our default is 3).
	Runs int
	// Seed drives all generators.
	Seed int64
	// ReleaseTables drops base-table data after benchmarking each instance
	// to bound memory usage. JOB/imdb instances are kept when KeepIMDB is
	// set (the join-ordering experiments re-execute plans).
	ReleaseTables bool
	// Progress, when non-nil, receives one line per benchmarked instance.
	Progress func(string)
}

// Corpus is the full benchmarked dataset: per-instance training sets and the
// held-out TPC-DS test sets.
type Corpus struct {
	Train []*InstanceSet
	Test  []*InstanceSet
}

// AllTrain returns the concatenated training queries.
func (c *Corpus) AllTrain() []*BenchedQuery {
	var out []*BenchedQuery
	for _, s := range c.Train {
		out = append(out, s.Queries...)
	}
	return out
}

// AllTest returns the concatenated test queries.
func (c *Corpus) AllTest() []*BenchedQuery {
	var out []*BenchedQuery
	for _, s := range c.Test {
		out = append(out, s.Queries...)
	}
	return out
}

// TrainExcept returns training queries from all instances except those named
// (used for leave-one-out evaluation and the JOB experiments).
func (c *Corpus) TrainExcept(names ...string) []*BenchedQuery {
	skip := make(map[string]bool, len(names))
	for _, n := range names {
		skip[n] = true
	}
	var out []*BenchedQuery
	for _, s := range c.Train {
		if !skip[s.Name] {
			out = append(out, s.Queries...)
		}
	}
	return out
}

// BenchmarkInstance generates and benchmarks all queries of one instance:
// the 16 random groups plus any fixed benchmark queries appropriate for its
// schema.
func BenchmarkInstance(in *workload.Instance, cfg Config) (*InstanceSet, error) {
	gen := workload.GenConfig{PerGroup: cfg.PerGroup, Seed: cfg.Seed + int64(len(in.Name))*31}
	qs := workload.GenerateQueries(in, gen)
	switch {
	case in.Table("lineitem") != nil && in.Table("orders") != nil:
		qs = append(qs, workload.TPCHBenchmarkQueries(in)...)
	case in.Table("store_sales") != nil:
		qs = append(qs, workload.TPCDSBenchmarkQueries(in)...)
	}
	est := &stats.Estimator{DB: in.Stats}
	set := &InstanceSet{Name: in.Name}
	for _, q := range qs {
		b, err := Benchmark(q, cfg.Runs, est)
		if err != nil {
			return nil, err
		}
		set.Queries = append(set.Queries, b)
	}
	return set, nil
}

// BuildCorpus generates, executes, and benchmarks the full training and test
// workloads. Deterministic given cfg.
func BuildCorpus(cfg Config) (*Corpus, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	suite := workload.SuiteConfig{Scale: cfg.Scale, Seed: cfg.Seed}
	c := &Corpus{}
	for _, mk := range workload.TrainMakers(suite) {
		in := mk.Make()
		set, err := BenchmarkInstance(in, cfg)
		if err != nil {
			return nil, fmt.Errorf("train instance %s: %w", mk.Name, err)
		}
		if cfg.ReleaseTables {
			for _, b := range set.Queries {
				b.ReleaseTables()
			}
		}
		c.Train = append(c.Train, set)
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("benchmarked %s: %d queries", set.Name, len(set.Queries)))
		}
	}
	for _, mk := range workload.TestMakers(suite) {
		in := mk.Make()
		set, err := BenchmarkInstance(in, cfg)
		if err != nil {
			return nil, fmt.Errorf("test instance %s: %w", mk.Name, err)
		}
		if cfg.ReleaseTables {
			for _, b := range set.Queries {
				b.ReleaseTables()
			}
		}
		c.Test = append(c.Test, set)
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("benchmarked %s: %d queries", set.Name, len(set.Queries)))
		}
	}
	return c, nil
}
