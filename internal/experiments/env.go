// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each experiment is a function on a shared Env that
// returns a structured result with a Format method printing the same rows or
// series the paper reports. cmd/t3bench drives these entry points;
// EXPERIMENTS.md records paper-vs-measured. System performance is not
// measured here but by bench/.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"t3"
	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/gbdt"
	"t3/internal/qerror"
	"t3/internal/workload"
)

// Config sizes the experiment suite: QuickConfig is cmd/t3bench's default
// (minutes), FullConfig its -full mode.
type Config struct {
	// Corpus sizes the training/evaluation workload.
	Corpus benchdata.Config
	// Rounds is the number of boosting rounds for all tree models.
	Rounds int
	// NNEpochs is the number of epochs for the zero-shot NN baseline.
	NNEpochs int
	// LeaveOneOutInstances caps how many instances Figure 9 retrains for
	// (0 = all).
	LeaveOneOutInstances int
	// JOBScale sizes the imdb-lite instance for the JOB experiments.
	JOBScale float64
	// JOBQueries caps how many JOB queries the join-ordering experiments
	// optimize (0 = all 113).
	JOBQueries int
	// DeepRunInstances and DeepRuns size the 10-run corpus used by Table 3
	// and Figure 14.
	DeepRunInstances int
	DeepRuns         int
	// Workers is the worker count for batched prediction and the
	// multi-threaded Figure 5 series (0 = GOMAXPROCS). Training is serial.
	Workers int
}

// QuickConfig returns cmd/t3bench's default configuration (also the corpus
// and model behind the root micro-benchmarks): small instances, a few
// queries per group, reduced rounds.
func QuickConfig() Config {
	return Config{
		Corpus:               benchdata.Config{Scale: 0.05, PerGroup: 3, Runs: 3, Seed: 9, ReleaseTables: true},
		Rounds:               80,
		NNEpochs:             15,
		LeaveOneOutInstances: 5,
		JOBScale:             0.02,
		JOBQueries:           30,
		DeepRunInstances:     4,
		DeepRuns:             10,
	}
}

// FullConfig returns the configuration for a full reproduction run
// (cmd/t3bench -full): the paper-scale 200-round models and the complete
// query sets, sized to finish in tens of minutes on a laptop.
func FullConfig() Config {
	return Config{
		Corpus:               benchdata.Config{Scale: 0.4, PerGroup: 8, Runs: 3, Seed: 1, ReleaseTables: true},
		Rounds:               200,
		NNEpochs:             40,
		LeaveOneOutInstances: 0,
		JOBScale:             0.05,
		JOBQueries:           0,
		DeepRunInstances:     6,
		DeepRuns:             10,
	}
}

// Env lazily builds and caches the expensive shared artifacts: the corpus,
// the trained T3 model, and the baselines.
type Env struct {
	Cfg Config

	corpusOnce sync.Once
	corpus     *benchdata.Corpus
	corpusErr  error

	t3Once sync.Once
	t3m    *t3.Model
	t3Err  error

	nnOnce sync.Once
	nnm    *zeroShotModel

	dtOnce sync.Once
	dtm    *perQueryModel
	dtErr  error

	deepOnce sync.Once
	deep     []*workload.Label
	deepErr  error

	jobOnce sync.Once
	job     *jobEnv
	jobErr  error
}

// NewEnv creates an environment with the given config.
func NewEnv(cfg Config) *Env { return &Env{Cfg: cfg} }

// Params returns the boosting parameters for the configured round count.
func (e *Env) Params() gbdt.Params {
	p := gbdt.DefaultParams()
	if e.Cfg.Rounds > 0 {
		p.NumRounds = e.Cfg.Rounds
	}
	return p
}

// Corpus builds (once) and returns the benchmarked workload.
func (e *Env) Corpus() (*benchdata.Corpus, error) {
	e.corpusOnce.Do(func() {
		e.corpus, e.corpusErr = benchdata.BuildCorpus(e.Cfg.Corpus)
	})
	return e.corpus, e.corpusErr
}

// T3 trains (once) and returns the T3 model on the full training corpus with
// perfect cardinalities.
func (e *Env) T3() (*t3.Model, error) {
	e.t3Once.Do(func() {
		c, err := e.Corpus()
		if err != nil {
			e.t3Err = err
			return
		}
		e.t3m, e.t3Err = t3.Train(c.AllTrain(), t3.TrainOptions{Params: e.Params()})
		if e.t3m != nil {
			e.t3m.SetWorkers(e.Cfg.Workers)
		}
	})
	return e.t3m, e.t3Err
}

// zeroShot trains (once) and returns the NN baseline on the full training
// corpus.
func (e *Env) zeroShot() (*zeroShotModel, error) {
	var err error
	e.nnOnce.Do(func() {
		var c *benchdata.Corpus
		c, err = e.Corpus()
		if err != nil {
			return
		}
		e.nnm = trainZeroShot(c.AllTrain(), plan.TrueCards, e.Cfg.NNEpochs, e.Cfg.Corpus.Seed, nil)
	})
	if e.nnm == nil {
		return nil, fmt.Errorf("experiments: zero-shot training unavailable: %v", err)
	}
	return e.nnm, nil
}

// perQueryDT trains (once) and returns the AutoWLM-style baseline.
func (e *Env) perQueryDT() (*perQueryModel, error) {
	e.dtOnce.Do(func() {
		c, err := e.Corpus()
		if err != nil {
			e.dtErr = err
			return
		}
		e.dtm, e.dtErr = trainPerQuery(c.AllTrain(), plan.TrueCards, e.Params())
	})
	return e.dtm, e.dtErr
}

// DeepRunQueries builds (once) a smaller corpus benchmarked with 10 timing
// runs per query, used by Table 3 and Figure 14.
func (e *Env) DeepRunQueries() ([]*workload.Label, error) {
	e.deepOnce.Do(func() {
		cfg := e.Cfg.Corpus
		cfg.Runs = e.Cfg.DeepRuns
		if cfg.Runs < 10 {
			cfg.Runs = 10
		}
		suite := workload.SuiteConfig{Scale: cfg.Scale, Seed: cfg.Seed + 77}
		makers := workload.TrainMakers(suite)
		if e.Cfg.DeepRunInstances > 0 && e.Cfg.DeepRunInstances < len(makers) {
			makers = makers[:e.Cfg.DeepRunInstances]
		}
		for _, mk := range makers {
			set, err := benchdata.BenchmarkInstance(mk.Make(), cfg)
			if err != nil {
				e.deepErr = err
				return
			}
			for _, l := range set.Labels {
				l.ReleaseTables()
			}
			e.deep = append(e.deep, set.Labels...)
		}
	})
	return e.deep, e.deepErr
}

// qerrors evaluates a predictor over labels and returns the q-errors of
// predicted vs. measured total times.
func qerrors(predict func(*workload.Label) float64, labels []*workload.Label) []float64 {
	es := make([]float64, 0, len(labels))
	for _, b := range labels {
		es = append(es, qerror.QError(predict(b), b.MedianTotal().Seconds()))
	}
	return es
}

// t3Predict returns a prediction closure for a T3 model under a cardinality
// mode.
func t3Predict(m *t3.Model, mode plan.CardMode) func(*workload.Label) float64 {
	return func(b *workload.Label) float64 {
		d, _ := m.PredictPlan(b.Root, mode)
		return d.Seconds()
	}
}

// fmtDur renders a duration with microsecond-level readability.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fus", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// fmtSummary renders a q-error summary as "p50=1.23 p90=2.34 avg=1.56".
func fmtSummary(s qerror.Summary) string {
	return fmt.Sprintf("p50=%.2f p90=%.2f avg=%.2f (n=%d)", s.P50, s.P90, s.Avg, s.N)
}
