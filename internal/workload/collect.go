package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/engine/stats"
	"t3/internal/obs"
	"t3/internal/par"
)

// Label is one collected training label: a query's annotated plan together
// with the measured per-pipeline wall-clock times of every timing run — the
// (plan, pipeline-time) pairs T3 trains on. It is the only label record:
// the trainer, the baselines, the experiments and the corpus codec all take
// labels.
type Label struct {
	Name  string
	Group Group
	// Root carries true cardinalities from the analyze run and estimated
	// ones from stats.Estimator.
	Root *plan.Node
	// Pipelines is the plan decomposition after the analyze run annotated
	// true cardinalities.
	Pipelines []*plan.Pipeline
	// SourceRows[p] is the number of tuples scanned at pipeline p's source.
	// A label decoded from a corpus file written without them has none.
	SourceRows []int
	// Parallelism[p] is the morsel-parallelism degree pipeline p ran with in
	// the analyze run (1 = serial). It describes how the label was measured,
	// so featurization can learn parallel execution; it is deliberately part
	// of neither StableBytes nor Bytes, because it varies with the worker
	// count while the labels themselves must not.
	Parallelism []int
	// PipelineRuns[r][p] is the measured time of pipeline p in timing run r.
	PipelineRuns [][]time.Duration
	// Totals[r] is the summed pipeline time of timing run r.
	Totals []time.Duration
}

// MedianTotal returns the median total query time over the timing runs.
func (l *Label) MedianTotal() time.Duration { return median(l.Totals) }

// PipelineMedian returns the median time of pipeline p over the first runs
// timing runs (0 = all runs). Figure 14 varies runs.
func (l *Label) PipelineMedian(p, runs int) time.Duration {
	if runs <= 0 || runs > len(l.PipelineRuns) {
		runs = len(l.PipelineRuns)
	}
	ts := make([]time.Duration, runs)
	for r := range ts {
		ts[r] = l.PipelineRuns[r][p]
	}
	return median(ts)
}

// ReleaseTables detaches base-table data from the plan so the instance can
// be garbage collected. Featurization and prediction keep working (they read
// only annotations); re-execution does not.
func (l *Label) ReleaseTables() {
	l.Root.Walk(func(n *plan.Node) { n.Table = nil })
}

// median returns the upper median of ds (0 when empty), leaving ds as it is.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// LabelSet is the result of one collection over an instance's workload.
type LabelSet struct {
	Instance string
	Labels   []*Label
	// Elapsed is the wall-clock time of the whole collection.
	Elapsed time.Duration
	// Workers is the worker count the collection actually used.
	Workers int
}

// CollectConfig controls parallel label collection.
type CollectConfig struct {
	// Workers is the number of collection workers (0 = GOMAXPROCS). Unless
	// IntraWorkers overrides it, the same degree is used for morsel-driven
	// parallelism inside each query's pipelines, over the same shared pool.
	Workers int
	// IntraWorkers overrides the intra-query (morsel) parallelism degree:
	// < 0 disables intra-query parallelism, 0 inherits Workers, > 0 sets the
	// degree explicitly.
	IntraWorkers int
	// MorselRows overrides exec.DefaultMorselRows when > 0 (tests shrink it
	// to force morsel-parallel pipelines on small instances).
	MorselRows int
	// Runs is the number of timing runs per query after the analyze run
	// (default 1).
	Runs int
	// PerGroup is the number of queries per structure group CollectLabels
	// generates (default 1).
	PerGroup int
	// Seed drives CollectLabels' query generation.
	Seed int64
	// BatchSize overrides the executor batch size when > 0.
	BatchSize int
	// RunPlan, when non-nil, replaces plan execution. Tests and the
	// retrain controller's deterministic harness inject synthetic
	// durations through it (typically: run the real executor, then
	// overwrite the measured times with a pure function of the plan).
	RunPlan func(ex *exec.Executor, root *plan.Node, annotate bool) (*exec.RunResult, error)
}

// CollectLabels generates the instance's workload — cfg.PerGroup queries
// per structure group from cfg.Seed — and labels it with CollectQueries.
func CollectLabels(inst *Instance, cfg CollectConfig) (*LabelSet, error) {
	return CollectQueries(inst, GenerateQueries(inst, GenConfig{PerGroup: cfg.PerGroup, Seed: cfg.Seed}), cfg)
}

// CollectQueries labels qs, which must run on inst. Each query gets one
// analyze run that annotates true cardinalities, a stats.Estimator pass over
// inst's statistics that annotates estimated ones, and cfg.Runs timing runs.
// It is the only code that executes queries to produce training labels
// (cfg.PerGroup and cfg.Seed are CollectLabels' and unused here).
//
// Independent queries fan out across a fixed worker set. Each worker owns its
// own executor state (with Reuse set, so the steady-state loop recycles
// plan/exec scratch and result buffers across queries), and big pipelines
// additionally run morsel-parallel over the same pool. Labels come back in
// query order, and the executor's ordered partition merges make parallel
// results equal serial ones, so for fixed (inst, qs, cfg minus
// Workers/IntraWorkers/MorselRows) the label set is byte-stable (see
// StableBytes) for ANY worker count — inter- or intra-query: parallelism
// changes wall-clock time, never the data. Callers whose durations train a
// model (benchdata's corpus) pass one worker anyway, because queries running
// side by side would change the times they measure.
func CollectQueries(inst *Instance, qs []*Query, cfg CollectConfig) (*LabelSet, error) {
	if cfg.Runs < 1 {
		cfg.Runs = 1
	}
	run := cfg.RunPlan
	if run == nil {
		run = func(ex *exec.Executor, root *plan.Node, annotate bool) (*exec.RunResult, error) {
			return ex.Run(root, annotate)
		}
	}

	est := &stats.Estimator{DB: inst.Stats} // stateless: shared by every worker
	pool := par.Sized(cfg.Workers)
	intra := cfg.IntraWorkers
	switch {
	case intra < 0:
		intra = 1
	case intra == 0:
		intra = pool.Workers()
	}
	out := make([]*Label, len(qs))
	errs := make([]error, len(qs))

	start := time.Now()
	// One pool serves both levels: DoState fans queries out across it, and
	// each worker's executor splits big pipelines into morsels over the same
	// pool. The pool's caller-runs overflow policy keeps that safe — when all
	// workers are busy with queries, morsels just run inline.
	par.DoState(pool, len(qs),
		func() *exec.Executor {
			return &exec.Executor{
				BatchSize:  cfg.BatchSize,
				Workers:    intra,
				MorselRows: cfg.MorselRows,
				Pool:       pool,
				Reuse:      true,
			}
		},
		func(ex *exec.Executor, i int) {
			q := qs[i]
			qStart := time.Now()
			// Analyze run: annotate true cardinalities on the plan.
			res, err := run(ex, q.Root, true)
			if err != nil {
				errs[i] = fmt.Errorf("analyze %s: %w", q.Name, err)
				return
			}
			est.Estimate(q.Root)
			l := &Label{
				Name:      q.Name,
				Group:     q.Group,
				Root:      q.Root,
				Pipelines: plan.Decompose(q.Root),
			}
			for _, pt := range res.Pipelines {
				l.SourceRows = append(l.SourceRows, pt.SourceRows)
				l.Parallelism = append(l.Parallelism, pt.Parallelism)
			}
			for r := 0; r < cfg.Runs; r++ {
				res, err := run(ex, q.Root, false)
				if err != nil {
					errs[i] = fmt.Errorf("run %d of %s: %w", r, q.Name, err)
					return
				}
				times := make([]time.Duration, len(res.Pipelines))
				for p, pt := range res.Pipelines {
					times[p] = pt.Duration
				}
				l.PipelineRuns = append(l.PipelineRuns, times)
				l.Totals = append(l.Totals, res.Total)
			}
			out[i] = l
			obs.CollectQueries.Inc()
			obs.CollectQueryTime.Since(qStart)
		})
	elapsed := time.Since(start)

	// Report the first error in query order: deterministic regardless of
	// which worker hit it first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if secs := elapsed.Seconds(); secs > 0 {
		obs.CollectThroughput.Set(float64(len(qs)) / secs)
	}
	return &LabelSet{
		Instance: inst.Name,
		Labels:   out,
		Elapsed:  elapsed,
		Workers:  pool.Workers(),
	}, nil
}

// Split partitions the label set into train and holdout subsets by
// position: with holdout fraction f, every round(1/f)-th label (the last of
// each stride) is held out. The split is a pure function of (len(Labels),
// f) — no randomness, no durations — so the same collection always yields
// the same partition and the holdout subset's Fingerprint is reproducible
// anywhere. f is clamped to [0, 0.5]; f = 0 holds nothing out.
func (ls *LabelSet) Split(f float64) (train, holdout *LabelSet) {
	if f > 0.5 {
		f = 0.5
	}
	train = &LabelSet{Instance: ls.Instance, Elapsed: ls.Elapsed, Workers: ls.Workers}
	holdout = &LabelSet{Instance: ls.Instance, Workers: ls.Workers}
	if f <= 0 || len(ls.Labels) < 2 {
		train.Labels = append(train.Labels, ls.Labels...)
		return train, holdout
	}
	stride := int(1/f + 0.5)
	if stride < 2 {
		stride = 2
	}
	for i, l := range ls.Labels {
		if i%stride == stride-1 {
			holdout.Labels = append(holdout.Labels, l)
		} else {
			train.Labels = append(train.Labels, l)
		}
	}
	if len(holdout.Labels) == 0 && len(ls.Labels) >= 2 {
		// Tiny sets still get one holdout label so shadow evaluation
		// always has ground truth to judge on.
		last := len(train.Labels) - 1
		holdout.Labels = append(holdout.Labels, train.Labels[last])
		train.Labels = train.Labels[:last]
	}
	return train, holdout
}

// StableBytes serializes everything about the label set that is independent
// of measurement noise and scheduling: query identities, plan decompositions,
// source cardinalities, annotated true cardinalities and selectivities, and
// the shape of the timing data — but NOT the measured durations themselves.
// This is the determinism contract of parallel collection: StableBytes is
// byte-identical for any worker count. Source rows are length-prefixed, so a
// set decoded from a corpus file without them serializes deterministically
// too. Fingerprint hashes these bytes; it is the one label-set fingerprint.
func (ls *LabelSet) StableBytes() []byte {
	var buf bytes.Buffer
	buf.WriteString(ls.Instance)
	for _, l := range ls.Labels {
		buf.WriteByte(0)
		buf.WriteString(l.Name)
		buf.WriteByte(0)
		buf.WriteString(string(l.Group))
		writeUvarint(&buf, uint64(len(l.PipelineRuns)))
		writeUvarint(&buf, uint64(len(l.Pipelines)))
		for _, pl := range l.Pipelines {
			writeUvarint(&buf, uint64(len(pl.Stages)))
			for _, s := range pl.Stages {
				writeUvarint(&buf, uint64(s.Node.Op))
				writeUvarint(&buf, uint64(s.Stage))
			}
		}
		writeUvarint(&buf, uint64(len(l.SourceRows)))
		for _, n := range l.SourceRows {
			writeUvarint(&buf, uint64(n))
		}
		l.Root.Walk(func(n *plan.Node) {
			writeUvarint(&buf, math.Float64bits(n.OutCard.True))
			for i := range n.PredSel {
				writeUvarint(&buf, math.Float64bits(n.PredSel[i].True))
			}
		})
	}
	return buf.Bytes()
}

// Bytes serializes the full label set including measured durations. Two
// collections agree byte-for-byte only when durations were injected
// deterministically (the runner's plumbing tests do exactly that); real
// measurements differ run to run, which is why StableBytes exists.
func (ls *LabelSet) Bytes() []byte {
	var buf bytes.Buffer
	buf.Write(ls.StableBytes())
	for _, l := range ls.Labels {
		for r, times := range l.PipelineRuns {
			writeUvarint(&buf, uint64(l.Totals[r]))
			for _, d := range times {
				writeUvarint(&buf, uint64(d))
			}
		}
	}
	return buf.Bytes()
}

// Fingerprint is an FNV-1a hash of StableBytes, cheap to print and compare.
func (ls *LabelSet) Fingerprint() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range ls.StableBytes() {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}
