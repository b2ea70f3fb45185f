// Package benchdata builds T3's training and evaluation corpus (§4.3 of the
// paper) and turns it into training examples.
//
// Labels come from workload.CollectQueries, run with one worker: for every
// query one "explain analyze" run annotates true cardinalities, the
// estimator annotates estimated ones, and a configurable number of timing
// runs give the per-pipeline medians that become the training targets. This
// package groups the labels into per-instance sets, persists them (SaveCorpus,
// LoadCorpus), assembles the per-pipeline feature/target examples the model
// trains on, and provides the benchmark-deviation statistics of Table 3.
package benchdata

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"t3/internal/engine/plan"
	"t3/internal/feature"
	"t3/internal/qerror"
	"t3/internal/workload"
)

// BenchedQuery is the label record. It stays as an alias only because the
// benchmark module (bench/) names it; the next change there can use
// workload.Label and delete this alias.
type BenchedQuery = workload.Label

// FromLabels returns the set's labels. It stays only because the benchmark
// module (bench/) calls it; the next change there can read ls.Labels and
// delete it.
func FromLabels(ls *workload.LabelSet) []*workload.Label { return ls.Labels }

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

// Examples turns labels into per-pipeline training examples: feature vectors
// (under the given cardinality mode) and transformed per-tuple targets
// computed from the median of the first `runs` timing runs (0 = all).
func Examples(reg *feature.Registry, labels []*workload.Label, mode plan.CardMode, runs int) (xs [][]float64, ys []float64) {
	for _, l := range labels {
		for pi, p := range l.Pipelines {
			xs = append(xs, reg.PipelineVector(p, mode))
			card := feature.SourceCard(p, plan.TrueCards)
			t := l.PipelineMedian(pi, runs).Seconds() / card
			ys = append(ys, TargetTransform(t))
		}
	}
	return xs, ys
}

// DeviationStats computes the benchmark-deviation q-errors of Table 3: for
// each query, consider the most consistent two-thirds of the timing runs and
// report the q-error of the one furthest from the median.
func DeviationStats(labels []*workload.Label) qerror.Summary {
	var es []float64
	for _, l := range labels {
		if len(l.Totals) < 3 {
			continue
		}
		med := l.MedianTotal().Seconds()
		if med <= 0 {
			continue
		}
		devs := make([]float64, len(l.Totals))
		for i, r := range l.Totals {
			devs[i] = qerror.QError(r.Seconds(), med)
		}
		sort.Float64s(devs)
		keep := (len(devs)*2 + 2) / 3 // ceil(2/3 n): closest to the median
		es = append(es, devs[keep-1])
	}
	return qerror.Summarize(es)
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
	// to bound memory usage.
	ReleaseTables bool
	// Progress, when non-nil, receives one line per benchmarked instance.
	Progress func(string)
}

// Corpus is the full benchmarked dataset: one label set per training
// instance and the held-out TPC-DS test sets.
type Corpus struct {
	Train []*workload.LabelSet
	Test  []*workload.LabelSet
}

// AllTrain returns the concatenated training labels.
func (c *Corpus) AllTrain() []*workload.Label { return c.TrainExcept() }

// AllTest returns the concatenated test labels.
func (c *Corpus) AllTest() []*workload.Label {
	var out []*workload.Label
	for _, s := range c.Test {
		out = append(out, s.Labels...)
	}
	return out
}

// TrainExcept returns training labels from all instances except those named
// (used for leave-one-out evaluation and the JOB experiments).
func (c *Corpus) TrainExcept(names ...string) []*workload.Label {
	var out []*workload.Label
	for _, s := range c.Train {
		if !slices.Contains(names, s.Instance) {
			out = append(out, s.Labels...)
		}
	}
	return out
}

// BenchmarkInstance generates and labels all queries of one instance: the 16
// random groups plus any fixed benchmark queries appropriate for its schema.
// It collects with one worker, so no query's timing runs share the machine
// with another query's.
func BenchmarkInstance(in *workload.Instance, cfg Config) (*workload.LabelSet, error) {
	gen := workload.GenConfig{PerGroup: cfg.PerGroup, Seed: cfg.Seed + int64(len(in.Name))*31}
	qs := workload.GenerateQueries(in, gen)
	switch {
	case in.Table("lineitem") != nil && in.Table("orders") != nil:
		qs = append(qs, workload.TPCHBenchmarkQueries(in)...)
	case in.Table("store_sales") != nil:
		qs = append(qs, workload.TPCDSBenchmarkQueries(in)...)
	}
	return workload.CollectQueries(in, qs, workload.CollectConfig{Workers: 1, Runs: cfg.Runs})
}

// BuildCorpus generates, executes, and benchmarks the full training and test
// workloads. Everything but the measured durations is deterministic given
// cfg.
func BuildCorpus(cfg Config) (*Corpus, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	suite := workload.SuiteConfig{Scale: cfg.Scale, Seed: cfg.Seed}
	bench := func(kind string, makers []workload.Maker) ([]*workload.LabelSet, error) {
		var sets []*workload.LabelSet
		for _, mk := range makers {
			set, err := BenchmarkInstance(mk.Make(), cfg)
			if err != nil {
				return nil, fmt.Errorf("%s instance %s: %w", kind, mk.Name, err)
			}
			if cfg.ReleaseTables {
				for _, l := range set.Labels {
					l.ReleaseTables()
				}
			}
			sets = append(sets, set)
			if cfg.Progress != nil {
				cfg.Progress(fmt.Sprintf("benchmarked %s: %d queries", set.Instance, len(set.Labels)))
			}
		}
		return sets, nil
	}
	train, err := bench("train", workload.TrainMakers(suite))
	if err != nil {
		return nil, err
	}
	test, err := bench("test", workload.TestMakers(suite))
	if err != nil {
		return nil, err
	}
	return &Corpus{Train: train, Test: test}, nil
}
