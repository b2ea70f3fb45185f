package main

import (
	"fmt"
	"math"
	"time"

	"t3"
	"t3/internal/joinorder"
	"t3/internal/workload"
)

// joinCase is one join graph with its warmed oracle and the answer the
// scalar enumerator gave for it.
type joinCase struct {
	name     string
	inst     *workload.Instance
	spec     *workload.JoinSpec
	oracle   joinorder.Oracle
	wantTree string
	wantCost uint64 // bits of the optimal cost
}

// planEnumInst is plan_enum: a planner costing join orders with the model,
// through joinorder.DPSizeBatched and so through the packed tier's 8-wide
// rows kernel rather than the scalar walker predict_inproc uses.
//
// An op is one round over all four graphs. The graphs take 1.5 to 20 ms
// each; were one enumeration the op, the median would sit in the gap between
// two graphs and jump with the slightest change of their mix.
//
// The graphs are those BENCH_planner.json records and the round takes them
// in its order, whatever the seed: what an enumeration costs depends on
// which graph left the caches warm before it, by up to a tenth.
//
// The enumerator predicts its batches on the calling goroutine (Workers: 1,
// BENCH_planner.json's "batched-w1" row). With the default fan-out over a
// par pool, on two shared cores, a round is slower (33 against 27 ms) and
// made of hand-overs between cores, whose cost drifts by 40 % over minutes
// on these machines — more than any change to the code under test would
// move it. par.do_overhead_ns reports the fan-out's cost per layer.
type planEnumInst struct {
	m     *t3.Model
	cases []joinCase
}

var enumConfig = joinorder.BatchConfig{Workers: 1}

func setupPlanEnum(ctx *setupCtx) (instance, error) {
	m, err := t3.Load(ctx.modelPath())
	if err != nil {
		return nil, err
	}
	p := &planEnumInst{m: m}
	for _, g := range joinGraphs {
		inst, spec := workload.SyntheticJoinBench(g.shape, g.n, 4000, g.seed)
		c := joinCase{name: g.name, inst: inst, spec: spec,
			oracle: joinorder.NewMemoOracle(joinorder.NewEstOracle(inst, spec), g.n)}
		// The scalar enumerator is the reference, and running it is also what
		// fills the oracle's memo, so every timed enumeration pays look-ups
		// only — as BENCH_planner.json's runs do.
		ref, err := joinorder.DPSize(spec, joinorder.NewT3Cost(m.Packed(), m.Registry(), inst, spec, c.oracle))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.name, err)
		}
		c.wantTree, c.wantCost = ref.Tree.String(), math.Float64bits(ref.Cost)
		p.cases = append(p.cases, c)
	}
	return p, nil
}

func (p *planEnumInst) conns() int          { return 1 }
func (p *planEnumInst) traceSteps() int     { return 10 }
func (p *planEnumInst) server() *serverProc { return nil }
func (p *planEnumInst) close() float64      { return 0 }

func (p *planEnumInst) corrupt() {
	for k := range p.cases {
		p.cases[k].wantCost++
	}
}

// enumerate runs the batched enumerator on one graph and reports whether it
// chose the scalar enumerator's tree at the scalar enumerator's cost, bit for
// bit.
func (p *planEnumInst) enumerate(c *joinCase) (*joinorder.Result, bool) {
	res, err := joinorder.DPSizeBatched(c.spec, p.m.Packed(), p.m.Registry(), c.inst, c.oracle, enumConfig)
	if err != nil {
		return nil, false
	}
	return res, math.Float64bits(res.Cost) == c.wantCost && res.Tree.String() == c.wantTree
}

func (p *planEnumInst) step(_, _ int, rec *recorder) {
	t0 := time.Now()
	correct := true
	for k := range p.cases {
		_, ok := p.enumerate(&p.cases[k])
		correct = correct && ok
	}
	rec.done(t0, correct)
}

func (p *planEnumInst) traced(_, i int, tr *tracer, rec *recorder) {
	tr.nextOp(i)
	t0 := time.Now()
	correct := true
	tr.begin("plan_enum.round")
	for k := range p.cases {
		tr.begin("joinorder.DPSizeBatched." + p.cases[k].name)
		_, ok := p.enumerate(&p.cases[k])
		tr.end()
		correct = correct && ok
	}
	tr.end()
	rec.done(t0, correct)
}

func (p *planEnumInst) layers(out map[string]float64) error {
	const rounds = 10
	var calls, pruned, batches, steps int
	for k := range p.cases {
		c := &p.cases[k]
		res, ok := p.enumerate(c)
		if !ok {
			return fmt.Errorf("%s: batched enumeration differs from the scalar one", c.name)
		}
		calls, pruned, batches, steps = calls+res.ModelCalls, pruned+res.Pruned, batches+res.Batches, steps+res.DPSteps
		t := time.Now()
		for range rounds {
			p.enumerate(c)
		}
		out["joinorder.enum_ms."+c.name] = time.Since(t).Seconds() * 1e3 / rounds
	}
	out["joinorder.model_calls"] = float64(calls)
	out["joinorder.pruned"] = float64(pruned)
	out["joinorder.batches"] = float64(batches)
	out["joinorder.dp_steps"] = float64(steps)
	before := mallocs()
	for k := range p.cases {
		c := &p.cases[k] // without the check, whose tree rendering allocates
		_, _ = joinorder.DPSizeBatched(c.spec, p.m.Packed(), p.m.Registry(), c.inst, c.oracle, enumConfig)
	}
	out["joinorder.allocs_per_enum"] = float64(mallocs()-before) / float64(len(p.cases))
	return nil
}
