package experiments

import (
	"fmt"
	"strings"
	"time"

	"t3"
	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/joinorder"
	"t3/internal/qerror"
	"t3/internal/workload"
	"t3/internal/zeroshot"
)

// jobEnv bundles the artifacts of the JOB experiments: the imdb-lite
// instance, the 113 join specs, the labeled JOB queries, and models
// trained with imdb held out (as in the paper's Figure 10 setup).
type jobEnv struct {
	inst   *workload.Instance
	specs  []*workload.JoinSpec
	labels []*workload.Label
	t3m    *t3.Model
	nn     *zeroshot.Model
}

// jobState caches the JOB environment on Env.
func (e *Env) jobState() (*jobEnv, error) {
	e.jobOnceDo()
	if e.jobErr != nil {
		return nil, e.jobErr
	}
	return e.job, nil
}

func (e *Env) jobOnceDo() {
	e.jobOnce.Do(func() {
		c, err := e.Corpus()
		if err != nil {
			e.jobErr = err
			return
		}
		scale := e.Cfg.JOBScale
		if scale <= 0 {
			scale = 0.02
		}
		inst := workload.MustGenerate(workload.IMDBSpec("imdb_job", scale, e.Cfg.Corpus.Seed+55))
		specs := workload.JOBJoinSpecs(inst)
		if e.Cfg.JOBQueries > 0 && e.Cfg.JOBQueries < len(specs) {
			specs = specs[:e.Cfg.JOBQueries]
		}

		// Label the JOB queries themselves (left-deep plans), one query at a
		// time as the corpus is.
		qs := make([]*workload.Query, len(specs))
		for i, sp := range specs {
			qs[i] = &workload.Query{
				Name:     fmt.Sprintf("%s/job_%s", inst.Name, sp.Name),
				Group:    workload.GroupFixed,
				Instance: inst.Name,
				Root:     sp.LeftDeepPlan(inst),
			}
		}
		labels, err := workload.CollectQueries(inst, qs, workload.CollectConfig{Workers: 1, Runs: e.Cfg.Corpus.Runs})
		if err != nil {
			e.jobErr = err
			return
		}

		// Train models with imdb data held out (Figure 10: "both are
		// trained on other database instances").
		train := c.TrainExcept("imdb")
		t3m, err := t3.Train(train, t3.TrainOptions{Params: e.Params()})
		if err != nil {
			e.jobErr = err
			return
		}
		cfg := zeroshot.DefaultTrainConfig()
		cfg.Epochs = e.Cfg.NNEpochs
		cfg.Seed = e.Cfg.Corpus.Seed + 3
		nn := zeroshot.Train(train, plan.TrueCards, cfg)

		e.job = &jobEnv{inst: inst, specs: specs, labels: labels.Labels, t3m: t3m, nn: nn}
	})
}

// Fig10 reproduces the Zero Shot accuracy comparison on the Join Order
// Benchmark queries with exact cardinalities.
type Fig10 struct {
	T3       qerror.Summary
	ZeroShot qerror.Summary
}

// RunFig10 evaluates T3 and the Zero Shot NN (both trained without imdb) on
// the JOB-like queries.
func (e *Env) RunFig10() (*Fig10, error) {
	job, err := e.jobState()
	if err != nil {
		return nil, err
	}
	f := &Fig10{}
	f.T3 = qerror.Summarize(qerrors(t3Predict(job.t3m, plan.TrueCards), job.labels))
	f.ZeroShot = qerror.Summarize(qerrors(func(b *workload.Label) float64 {
		return job.nn.PredictSeconds(b.Root, plan.TrueCards)
	}, job.labels))
	return f, nil
}

// Format renders Figure 10.
func (f *Fig10) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 10: accuracy on JOB queries (exact cardinalities, imdb held out)\n")
	fmt.Fprintf(&sb, "%-14s %s\n", "T3", fmtSummary(f.T3))
	fmt.Fprintf(&sb, "%-14s %s\n", "Zero Shot NN", fmtSummary(f.ZeroShot))
	return sb.String()
}

// Table5 reproduces the join-ordering optimization-time comparison.
type Table5 struct {
	Rows    []Table5Row
	Queries int
}

// Table5Row is one cost model's optimizer statistics over all queries.
type Table5Row struct {
	CostModel  string
	OptTime    time.Duration
	ModelCalls int
}

// TimePerCall returns the average model-call latency.
func (r Table5Row) TimePerCall() time.Duration {
	if r.ModelCalls == 0 {
		return 0
	}
	return r.OptTime / time.Duration(r.ModelCalls)
}

// RunTable5 optimizes all JOB queries with DPsize under Cout and T3,
// measuring optimization time and model calls. Oracle cardinalities are
// precomputed so the measured time stresses the cost model, as in the paper.
func (e *Env) RunTable5() (*Table5, error) {
	job, err := e.jobState()
	if err != nil {
		return nil, err
	}
	t5 := &Table5{Queries: len(job.specs)}

	// Warm the exact oracles up front (the paper uses a low-latency
	// cardinality oracle; we memoize every subset before timing).
	oracles := make([]*joinorder.ExactOracle, len(job.specs))
	for i, sp := range job.specs {
		oracles[i] = joinorder.NewExactOracle(job.inst, sp)
		if _, err := joinorder.DPSize(sp, joinorder.NewCout(oracles[i])); err != nil {
			return nil, err
		}
	}

	// Cout.
	calls := 0
	start := time.Now()
	for i, sp := range job.specs {
		cm := joinorder.NewCout(oracles[i])
		if _, err := joinorder.DPSize(sp, cm); err != nil {
			return nil, err
		}
		calls += cm.Calls()
	}
	t5.Rows = append(t5.Rows, Table5Row{CostModel: "Cout", OptTime: time.Since(start), ModelCalls: calls})

	// T3.
	calls = 0
	packed := job.t3m.Packed()
	reg := job.t3m.Registry()
	start = time.Now()
	for i, sp := range job.specs {
		cm := joinorder.NewT3Cost(packed, reg, job.inst, sp, oracles[i])
		if _, err := joinorder.DPSize(sp, cm); err != nil {
			return nil, err
		}
		calls += cm.Calls()
	}
	t5.Rows = append(t5.Rows, Table5Row{CostModel: "T3", OptTime: time.Since(start), ModelCalls: calls})
	return t5, nil
}

// Format renders Table 5.
func (t *Table5) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 5: DPsize join ordering over %d JOB queries\n", t.Queries)
	fmt.Fprintf(&sb, "%-10s %12s %12s %12s\n", "Cost Model", "Opt. Time", "Model Calls", "Time/Call")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-10s %12s %12d %12s\n", r.CostModel, fmtDur(r.OptTime), r.ModelCalls, fmtDur(r.TimePerCall()))
	}
	return sb.String()
}

// Table6 reproduces the plan-quality comparison: total execution time of all
// JOB queries under join orders chosen by Cout, T3, and the native
// (estimate-based greedy) optimizer.
type Table6 struct {
	Rows []Table6Row
}

// Table6Row is one optimizer's total execution time.
type Table6Row struct {
	CostModel string
	ExecTime  time.Duration
}

// RunTable6 executes the plans chosen by each optimizer.
func (e *Env) RunTable6() (*Table6, error) {
	job, err := e.jobState()
	if err != nil {
		return nil, err
	}
	packed := job.t3m.Packed()
	reg := job.t3m.Registry()

	var coutTotal, t3Total, nativeTotal time.Duration
	for _, sp := range job.specs {
		oracle := joinorder.NewExactOracle(job.inst, sp)

		coutRes, err := joinorder.DPSize(sp, joinorder.NewCout(oracle))
		if err != nil {
			return nil, err
		}
		t3Res, err := joinorder.DPSize(sp, joinorder.NewT3Cost(packed, reg, job.inst, sp, oracle))
		if err != nil {
			return nil, err
		}
		nativeTree, err := joinorder.Greedy(sp, joinorder.NewEstOracle(job.inst, sp))
		if err != nil {
			return nil, err
		}

		// As in the paper, the engine builds each hash table over the
		// smaller input regardless of the optimizer's tree orientation
		// (the "Native DB" plan only has estimates to decide with).
		estOracle := joinorder.NewEstOracle(job.inst, sp)
		for _, run := range []struct {
			tree   *joinorder.Tree
			acc    *time.Duration
			oracle joinorder.Oracle
		}{
			{coutRes.Tree, &coutTotal, oracle},
			{t3Res.Tree, &t3Total, oracle},
			{nativeTree, &nativeTotal, estOracle},
		} {
			res, err := exec.Run(joinorder.TreeToPlanSides(job.inst, sp, run.tree, run.oracle), false)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sp.Name, err)
			}
			*run.acc += res.Total
		}
	}
	return &Table6{Rows: []Table6Row{
		{"Cout", coutTotal},
		{"T3", t3Total},
		{"Native DB", nativeTotal},
	}}, nil
}

// Format renders Table 6.
func (t *Table6) Format() string {
	var sb strings.Builder
	sb.WriteString("Table 6: execution time of all JOB queries by join-order source\n")
	fmt.Fprintf(&sb, "%-10s %14s\n", "Cost Model", "Execution Time")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-10s %14s\n", r.CostModel, fmtDur(r.ExecTime))
	}
	return sb.String()
}
