package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/engine/refexec"
	"t3/internal/par"
	"t3/internal/workload"
)

// execInst is engine_exec: the morsel-parallel executor running generated
// queries, which is what collecting the labels of a retrain episode costs.
// An op is one execution of one pre-annotated plan.
type execInst struct {
	qs      []*workload.Query
	ex      *exec.Executor
	pool    *par.Pool
	order   []int
	want    []execAnswer
	genS    float64 // instance generation
	qgenMs  float64 // query generation
	workers int
}

// execAnswer is what an execution is checked against: the result's row count
// and the rows every pipeline read at its source.
type execAnswer struct {
	rows   int
	source []int
}

func answerOf(res *exec.RunResult) execAnswer {
	a := execAnswer{rows: res.Rows}
	for _, p := range res.Pipelines {
		a.source = append(a.source, p.SourceRows)
	}
	return a
}

// matches reports whether an execution gave this answer. It is called inside
// the timed op and allocates nothing.
func (a execAnswer) matches(res *exec.RunResult) bool {
	if res.Rows != a.rows || len(res.Pipelines) != len(a.source) {
		return false
	}
	for i, p := range res.Pipelines {
		if p.SourceRows != a.source[i] {
			return false
		}
	}
	return true
}

// minExecQueries is the smallest query set the workload accepts.
const minExecQueries = 64

// trueCards lists the annotated true cardinality of every node.
func trueCards(root *plan.Node) []float64 {
	var cards []float64
	root.Walk(func(n *plan.Node) { cards = append(cards, n.OutCard.True) })
	return cards
}

func setupEngineExec(ctx *setupCtx) (instance, error) {
	np := runtime.GOMAXPROCS(0)
	e := &execInst{workers: np, pool: par.Sized(np)}
	e.ex = &exec.Executor{Workers: np, Pool: e.pool, Reuse: true}
	t := time.Now()
	in, err := workload.Generate(workload.TPCHSpec("tpch_exec", execScale, ctx.seed))
	if err != nil {
		return nil, err
	}
	e.genS = time.Since(t).Seconds()
	t = time.Now()
	e.qs = execQueries(in)
	e.qgenMs = time.Since(t).Seconds() * 1e3
	if len(e.qs) < minExecQueries {
		return nil, fmt.Errorf("only %d queries scan the largest table, need %d", len(e.qs), minExecQueries)
	}
	// Ops run pre-annotated plans: the analyze run belongs to set-up.
	annotated := make([][]float64, len(e.qs))
	for i, q := range e.qs {
		if _, err := e.ex.Run(q.Root, true); err != nil {
			return nil, fmt.Errorf("annotating %s: %w", q.Name, err)
		}
		annotated[i] = trueCards(q.Root)
	}
	e.order = shuffled(len(e.qs), ctx.seed)

	err = ctx.reference(func() error {
		// The reference interpreter joins by nested loops, so on this
		// instance one query would take it minutes. It checks the engine on
		// the same templates over a 1/100 instance instead — every node's
		// cardinality, with morsels forced small so the parallel path runs —
		// and on the measured instance the reference is the serial engine,
		// which shares no scheduling, merging or buffer reuse with the path
		// being timed.
		if err := checkAgainstRefexec(ctx.seed, np, e.pool); err != nil {
			return err
		}
		var serial exec.Executor
		for i, q := range e.qs {
			res, err := serial.Run(q.Root, true)
			if err != nil {
				return fmt.Errorf("serial run of %s: %w", q.Name, err)
			}
			if !slices.Equal(trueCards(q.Root), annotated[i]) {
				return fmt.Errorf("%s: morsel-parallel and serial runs annotate different cardinalities", q.Name)
			}
			e.want = append(e.want, answerOf(res))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// checkAgainstRefexec runs the engine_exec templates on a small twin of the
// instance and compares the cardinality the morsel-parallel executor
// annotates on every plan node with the row count refexec produces for that
// node's subtree.
func checkAgainstRefexec(seed int64, workers int, pool *par.Pool) error {
	in, err := workload.Generate(workload.TPCHSpec("tpch_exec_twin", execScale/100, seed))
	if err != nil {
		return err
	}
	ex := &exec.Executor{Workers: workers, Pool: pool, MorselRows: 64}
	for _, q := range execQueries(in) {
		res, err := ex.Run(q.Root, true)
		if err != nil {
			return fmt.Errorf("twin run of %s: %w", q.Name, err)
		}
		var bad error
		q.Root.Walk(func(n *plan.Node) {
			ref, err := refexec.Run(n)
			switch {
			case bad != nil:
			case err != nil:
				bad = fmt.Errorf("refexec on %s: %w", q.Name, err)
			case float64(ref.N) != n.OutCard.True:
				bad = fmt.Errorf("%s: %s produces %v rows, refexec %d", q.Name, n.Op, n.OutCard.True, ref.N)
			case n == q.Root && res.Rows != ref.N:
				bad = fmt.Errorf("%s: %d result rows, refexec %d", q.Name, res.Rows, ref.N)
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

func (e *execInst) conns() int          { return 1 }
func (e *execInst) traceSteps() int     { return len(e.qs) }
func (e *execInst) server() *serverProc { return nil }
func (e *execInst) close() float64      { return 0 }

func (e *execInst) corrupt() {
	for i := range e.want {
		e.want[i].rows++
	}
}

func (e *execInst) step(_, i int, rec *recorder) {
	k := e.order[i%len(e.order)]
	t0 := time.Now()
	res, err := e.ex.Run(e.qs[k].Root, false)
	rec.done(t0, err == nil && e.want[k].matches(res))
}

// traced adds the executor's own report under the span of the call: one span
// per pipeline, laid end to end from the start of the call as the executor
// runs them, and inside a parallel pipeline the merge as its tail.
func (e *execInst) traced(_, i int, tr *tracer, rec *recorder) {
	k := e.order[i%len(e.order)]
	tr.nextOp(i)
	t0 := time.Now()
	run := tr.begin("exec.Executor.Run")
	at := tr.now()
	res, err := e.ex.Run(e.qs[k].Root, false)
	if err == nil {
		for _, p := range res.Pipelines {
			d := int64(p.Duration)
			name := "exec.pipeline.serial"
			if p.Morsels > 1 {
				name = "exec.pipeline.morsels"
			}
			pipe := tr.add(run, name, at, at+d)
			if p.Merge > 0 {
				tr.add(pipe, "exec.merge", at+d-int64(p.Merge), at+d)
			}
			at += d
		}
	}
	tr.end()
	rec.done(t0, err == nil && e.want[k].matches(res))
}

func (e *execInst) layers(out map[string]float64) error {
	// Two passes of each engine, taking turns query by query, so that a slow
	// second of the machine falls on both alike.
	const passes = 2
	var serial exec.Executor
	var serialNs []int64
	var serialTotal, total, merge, busy time.Duration
	var tuples, pipes, parallel, morsels int
	var allocs uint64
	for range passes {
		for _, q := range e.qs {
			t := time.Now()
			if _, err := serial.Run(q.Root, false); err != nil {
				return err
			}
			d := time.Since(t)
			serialNs = append(serialNs, int64(d))
			serialTotal += d

			before := mallocs()
			t = time.Now()
			res, err := e.ex.Run(q.Root, false)
			if err != nil {
				return err
			}
			total += time.Since(t)
			allocs += mallocs() - before
			for _, p := range res.Pipelines {
				tuples += p.SourceRows
				pipes++
				morsels += p.Morsels
				if p.Morsels > 1 {
					parallel++
				}
				merge += p.Merge
				busy += p.Duration
			}
		}
	}
	slices.Sort(serialNs)
	n := float64(passes * len(e.qs))
	out["exec.serial_query_ms_p50"] = float64(percentile(serialNs, 0.5)) / 1e6
	out["exec.allocs_per_query"] = float64(allocs) / n
	out["exec.tuples_per_s"] = float64(tuples) / total.Seconds()
	out["exec.parallel_pipeline_share"] = float64(parallel) / float64(pipes)
	out["exec.morsels_per_query"] = float64(morsels) / n
	out["exec.merge_share"] = float64(merge) / float64(busy)
	out["exec.morsel_speedup"] = float64(serialTotal) / float64(total)
	out["workload.instance_gen_s"] = e.genS
	out["workload.query_gen_ms"] = e.qgenMs

	const calls = 20000
	t := time.Now()
	for range calls {
		e.pool.Do(e.workers, func(int) {})
	}
	out["par.do_overhead_ns"] = float64(time.Since(t)) / calls
	return nil
}
