// Package exec executes physical plans pipeline by pipeline.
//
// The executor mirrors the push-based, pipelined execution model of
// compiling engines like Umbra: each pipeline scans its source, pushes
// batches of tuples through pass-through and probe stages, and terminates in
// a build stage or the query result. Crucially for T3, the executor measures
// the wall-clock time of *each pipeline individually*; these per-pipeline
// times are the training targets of the model (§2.4).
//
// With annotation enabled, the executor also records true cardinalities for
// every operator and per-predicate selectivities for table scans — the
// engine's "explain analyze" (§4.3).
//
// With Workers > 1, eligible pipelines run morsel-driven parallel: the
// source is split into contiguous blocks pulled by the workers of a
// par.Pool, each block runs the full stage chain into a block-local
// partial of the pipeline's terminal, and the partials merge in block order
// as blocks finish, so results (row order, group discovery order,
// cardinality counters) match a one-block run exactly. Every other pipeline
// runs as that one block, through the same runner. See parallel.go.
package exec

import (
	"fmt"
	"time"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
	"t3/internal/obs"
	"t3/internal/par"
)

// DefaultBatchSize is the number of tuples pushed per batch.
const DefaultBatchSize = 1024

// Executor runs plans. The zero value is usable and executes serially.
type Executor struct {
	// BatchSize overrides DefaultBatchSize when > 0.
	BatchSize int

	// Workers sets the intra-query parallelism degree: pipelines whose
	// source is large enough are split into morsels executed over Pool.
	// 0 or 1 means serial execution (bit-identical to the zero executor).
	Workers int

	// MorselRows overrides DefaultMorselRows when > 0.
	MorselRows int

	// Pool supplies the workers for morsel execution. When nil and
	// Workers > 1, the process-wide par.Sized(Workers) pool is used.
	// Sharing one pool between inter-query fan-out (workload.CollectLabels)
	// and intra-query morsels is safe: Do never waits for a busy worker, so
	// a saturated pool leaves the submitting goroutine to pull every morsel.
	Pool *par.Pool

	// Reuse makes Run recycle the RunResult and the output Materialized
	// across calls: the returned result and its Output remain valid only
	// until the next Run on this executor. The executor also keeps its
	// execution scratch — the run's own and one per morsel partition — and
	// the one buffer arena they all draw their arrays from, instead of
	// checking scratch out of the process-wide pool, which every GC empties.
	// The arena keeps one query's worth of arrays by type and size, not
	// every buffer position's largest array. An analyze run (annotate set)
	// of a plan without cardinalities grows its arrays past what later runs
	// need, so it runs on pooled scratch and returns a fresh result
	// instead. An executor with Reuse set must not be shared between
	// goroutines. Label-collection workers set it to keep the steady-state
	// loop allocation-free.
	Reuse bool

	res     RunResult
	out     Materialized
	scratch *execScratch   // the run's own scratch (Reuse)
	parts   []*execScratch // partition k's scratch at index k (Reuse)
}

// PipelineTiming records the measured execution of one pipeline.
type PipelineTiming struct {
	// Index is the pipeline's position in execution order.
	Index int
	// SourceRows is the number of tuples scanned at the pipeline source.
	SourceRows int
	// Parallelism is the number of workers that can execute the pipeline's
	// partitions concurrently: min(executor workers, Morsels). 1 for a
	// pipeline run as one block.
	Parallelism int
	// Morsels is the number of source blocks the pipeline was split into (1
	// when it ran as one block).
	Morsels int
	// Duration is the wall-clock execution time of the pipeline.
	Duration time.Duration
	// Merge is the pipeline's serial tail: from the end of its last
	// partition block to the end of the pipeline, i.e. the ordered merge no
	// block overlapped plus the finalize. It is included in Duration (0 for
	// a pipeline run as one block).
	Merge time.Duration
}

// Materialized holds a fully materialized tuple stream.
type Materialized struct {
	Cols []storage.Column
	N    int

	ar *arena // the columns grow through it; nil for a result that escapes
}

// appendBatch copies all rows of b into m.
func (m *Materialized) appendBatch(b *expr.Batch) {
	for c := range m.Cols {
		m.ar.appendCol(&m.Cols[c], &b.Cols[c], b.N)
	}
	m.N += b.N
}

// appendMat bulk-appends all rows of src to m (same schema).
func (m *Materialized) appendMat(src *Materialized) {
	for c := range m.Cols {
		m.ar.appendCol(&m.Cols[c], &src.Cols[c], src.N)
	}
	m.N += src.N
}

func newMaterialized(schema []plan.ColMeta) *Materialized {
	m := &Materialized{Cols: make([]storage.Column, len(schema))}
	for i, cm := range schema {
		m.Cols[i] = storage.Column{Name: cm.Name, Kind: cm.Kind}
	}
	return m
}

// RunResult is the outcome of executing a plan.
type RunResult struct {
	// Pipelines holds per-pipeline timings in execution order.
	Pipelines []PipelineTiming
	// Total is the summed pipeline execution time.
	Total time.Duration
	// Rows is the number of result rows.
	Rows int
	// Output is the materialized query result.
	Output *Materialized
}

// Run executes the plan. If annotate is true, true cardinalities and
// per-predicate selectivities are written back into the plan nodes.
func (e *Executor) Run(root *plan.Node, annotate bool) (*RunResult, error) {
	batchSize := e.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	workers := e.Workers
	pool := e.Pool
	if workers <= 0 {
		workers = 1
	}
	if workers > 1 && pool == nil {
		pool = par.Sized(workers)
	}
	morsel := e.MorselRows
	if morsel <= 0 {
		morsel = DefaultMorselRows
	}
	// An analyze run of a plan without cardinalities grows its arrays by
	// doubling, up to twice what it needs, and plain runs would go on
	// drawing those arrays: it runs on pooled scratch, so that a Reuse
	// executor's arena only holds arrays sized from measured cardinalities.
	reuse := e.Reuse && !annotate
	var scratch *execScratch
	if reuse {
		if e.scratch == nil {
			e.scratch = &execScratch{}
		}
		scratch = e.scratch
	} else {
		scratch = scratchPool.Get().(*execScratch)
		defer scratchPool.Put(scratch)
	}
	scratch.begin()
	if reuse {
		// The previous result is released with the previous run.
		scratch.arena().returnCols(e.out.Cols)
	}
	pipelines := plan.DecomposeInto(root, &scratch.pipes)
	rt := &runtime{
		batchSize: batchSize,
		states:    scratch.states,
		counts:    scratch.counts,
		scratch:   scratch,
		workers:   workers,
		morsel:    morsel,
		pool:      pool,
	}
	res := &RunResult{}
	if reuse {
		res = &e.res
		*res = RunResult{Pipelines: res.Pipelines[:0]}
		rt.own = e
	}
	for _, p := range pipelines {
		start := time.Now()
		srcRows, err := rt.runPipeline(p, root)
		if err != nil {
			return nil, fmt.Errorf("pipeline %d: %w", p.Index, err)
		}
		d := time.Since(start)
		res.Pipelines = append(res.Pipelines, PipelineTiming{
			Index:       p.Index,
			SourceRows:  srcRows,
			Parallelism: rt.lastPar,
			Morsels:     rt.lastMorsels,
			Duration:    d,
			Merge:       rt.lastMerge,
		})
		res.Total += d
		obs.ExecPipelines.Inc()
		obs.ExecPipelineTime.Observe(d)
		obs.ExecTuples.Add(uint64(srcRows))
	}
	obs.ExecPlans.Inc()
	res.Output = rt.result
	if rt.result != nil {
		res.Rows = rt.result.N
	}
	if annotate {
		rt.writeAnnotations(root)
	}
	return res, nil
}

// Run executes the plan with a default executor.
func Run(root *plan.Node, annotate bool) (*RunResult, error) {
	var e Executor
	return e.Run(root, annotate)
}

// AnnotateTrueCards executes the plan once and fills in true cardinalities,
// discarding the result. Estimated cardinalities are left untouched.
func AnnotateTrueCards(root *plan.Node) error {
	_, err := Run(root, true)
	return err
}

// nodeCount accumulates per-node counters during execution.
type nodeCount struct {
	out      int64
	predEval []int64 // per pushed-down predicate: tuples it was evaluated on
	predPass []int64 // per pushed-down predicate: tuples that passed
}

// add folds another counter for the same node into c.
func (c *nodeCount) add(o *nodeCount) {
	c.out += o.out
	for i := range o.predEval {
		c.predEval[i] += o.predEval[i]
	}
	for i := range o.predPass {
		c.predPass[i] += o.predPass[i]
	}
}

// runtime carries execution state across the pipelines of one plan run.
type runtime struct {
	batchSize int
	states    map[*plan.Node]any
	counts    map[*plan.Node]*nodeCount
	result    *Materialized
	// term is the running pipeline's terminal; in a partition's runtime,
	// the block's partial of it.
	term terminal
	stop bool // set by LIMIT once satisfied
	// scratch supplies pooled batch buffers, hash tables, selection
	// vectors, materialized buffers, and build states; it is checked out
	// for the duration of one Run (or one parallel partition).
	scratch *execScratch

	workers int       // intra-query parallelism degree (1 = one block per pipeline)
	morsel  int       // rows per morsel for parallel eligibility/splitting
	pool    *par.Pool // worker pool for morsel execution

	// own, when set, is the Reuse executor whose output Materialized and
	// partition scratches the run uses.
	own *Executor

	// lastPar/lastMorsels/lastMerge describe the most recent runPipeline
	// call.
	lastPar, lastMorsels int
	lastMerge            time.Duration
}

func (rt *runtime) count(n *plan.Node) *nodeCount {
	c := rt.counts[n]
	if c == nil {
		if rt.scratch != nil {
			c = rt.scratch.nodeCount(n)
		} else {
			c = &nodeCount{}
			if n.Op == plan.TableScanOp {
				c.predEval = make([]int64, len(n.Predicates))
				c.predPass = make([]int64, len(n.Predicates))
			}
		}
		rt.counts[n] = c
	}
	return c
}

// resultMat returns the Materialized that receives the query result of
// expected rows: the executor-owned reusable buffer, its arrays drawn from
// the arena, in Reuse mode; a fresh allocation otherwise (the result escapes
// the run, so it cannot come from pooled scratch).
func (rt *runtime) resultMat(schema []plan.ColMeta, rows int) *Materialized {
	if rt.own != nil {
		rt.scratch.arena().shapeMat(&rt.own.out, schema, rows)
		return &rt.own.out
	}
	return newMaterialized(schema)
}

// writeAnnotations copies measured counters into the plan's Card.True
// fields.
func (rt *runtime) writeAnnotations(root *plan.Node) {
	root.Walk(func(n *plan.Node) {
		c := rt.counts[n]
		if c == nil {
			return
		}
		n.OutCard.True = float64(c.out)
		if n.Op == plan.TableScanOp {
			for i := range n.Predicates {
				if c.predEval[i] > 0 {
					n.PredSel[i].True = float64(c.predPass[i]) / float64(c.predEval[i])
				} else {
					n.PredSel[i].True = 0
				}
			}
		}
	})
}

// pushFn consumes one batch. No batch holds more rows than the runtime's
// batchSize, so stages size their per-batch vectors by it once.
type pushFn func(b *expr.Batch)

// runPipeline executes one pipeline and returns the number of source rows
// scanned. It is the engine's one pipeline runner: it resolves the source,
// opens the pipeline's terminal — the join build state, the group-by state,
// the sort/window/materialize input buffer or the query result — runs the
// source rows through the stage chain as `parts` contiguous blocks, and
// closes the terminal in one finalize. A single block feeds the terminal
// directly: no partial, no merge, no pool. More blocks run morsel-parallel
// (parallel.go).
func (rt *runtime) runPipeline(p *plan.Pipeline, root *plan.Node) (int, error) {
	rt.stop = false
	rt.lastPar, rt.lastMorsels, rt.lastMerge = 1, 1, 0
	rows, srcMat, err := rt.source(p.Stages[0].Node)
	if err != nil {
		return 0, err
	}
	if err := rt.openTerminal(p, root, nil, rows); err != nil {
		return 0, err
	}
	var tail time.Time // when the last of several blocks finished its scan
	parts := rt.partitions(p, rows)
	if parts == 1 {
		err = rt.feed(p, srcMat, 0, rows)
	} else {
		tail, err = rt.runMorsels(p, root, srcMat, parts, rows)
	}
	if err != nil {
		return 0, err
	}
	rt.finalize()
	rt.scratch.releaseStages()
	if parts > 1 {
		rt.lastMerge = time.Since(tail)
		obs.ExecMergeTime.Observe(rt.lastMerge)
	}
	return rows, nil
}

// source resolves a pipeline source: its row count and, when it scans a
// breaker's output, that materialized state (nil for a base table).
func (rt *runtime) source(n *plan.Node) (int, *Materialized, error) {
	switch n.Op {
	case plan.TableScanOp:
		if n.Table == nil {
			return 0, nil, fmt.Errorf("table scan %q has no bound table", n.TableName)
		}
		return n.Table.NumRows(), nil, nil
	case plan.GroupByOp, plan.SortOp, plan.WindowOp, plan.MaterializeOp:
		m, ok := rt.states[n].(*Materialized)
		if !ok {
			return 0, nil, fmt.Errorf("scan of %v before its build ran", n.Op)
		}
		return m.N, m, nil
	default:
		return 0, nil, fmt.Errorf("node %v cannot be a pipeline source", n.Op)
	}
}

// terminal is what a pipeline's last stage feeds: a build state or buffer,
// or the query result. A block's partial has the same shape, with a
// joinPartial in place of the joinState.
type terminal struct {
	node  *plan.Node // the build node; nil for the query result
	join  *joinState
	jp    *joinPartial
	group *groupState
	mat   *Materialized // sort/window/materialize input or the query result
}

// openTerminal sets up pipeline p's terminal as rt.term, on rt's scratch.
// With shared nil it is the pipeline's own, registered where probes and
// later pipelines look for it; otherwise it is a partial of shared for a
// block of rows source rows. Its buffers are sized from the cardinality
// annotation of what it receives, a partial's to at most its block's rows.
func (rt *runtime) openTerminal(p *plan.Pipeline, root *plan.Node, shared *terminal, rows int) error {
	t := &rt.term
	*t = terminal{}
	expected := func(c plan.Card, input *plan.Node) int {
		e := presize(c, input)
		if shared == nil {
			return e
		}
		return min(e, rows)
	}
	last := p.Stages[len(p.Stages)-1]
	if last.Stage != plan.StageBuild {
		if shared == nil {
			rt.result = rt.resultMat(root.Schema, expected(root.OutCard, root))
			t.mat = rt.result
		} else {
			t.mat = rt.scratch.mat(root.Schema, expected(root.OutCard, root))
		}
		return nil
	}
	n := last.Node
	t.node = n
	switch n.Op {
	case plan.HashJoinOp:
		if shared == nil {
			t.join = rt.newJoinState(n)
			rt.states[n] = t.join
		} else {
			t.jp = rt.scratch.joinPart()
			t.jp.shape(shared.join, rt.scratch.arena(), expected(n.Left.OutCard, n.Left))
		}
	case plan.GroupByOp:
		// Presize from the group-by's own output-cardinality annotation; a
		// block's state cannot discover more groups than the block has rows.
		t.group = rt.newGroupState(n, expected(n.OutCard, n.Left))
		if shared == nil {
			// finalize replaces the state with the materialized output, and
			// a premature scan fails source's *Materialized assertion.
			rt.states[n] = t.group
		}
	case plan.SortOp, plan.WindowOp, plan.MaterializeOp:
		t.mat = rt.scratch.mat(n.Left.Schema, expected(n.Left.OutCard, n.Left))
	default:
		return fmt.Errorf("node %v has no build stage", n.Op)
	}
	return nil
}

// feed runs source rows [lo, hi) of pipeline p through its stage chain into
// rt.term. srcMat is the source's materialized state, nil for a base table.
func (rt *runtime) feed(p *plan.Pipeline, srcMat *Materialized, lo, hi int) error {
	t := &rt.term
	var sink pushFn
	switch n := t.node; {
	case t.join != nil:
		st, hs := t.join, rt.scratch.hashBuf(rt.batchSize)
		sink = func(b *expr.Batch) { st.buildBatch(n, b, hs) }
	case t.jp != nil:
		jp := t.jp
		sink = func(b *expr.Batch) { jp.buildBatch(n, b) }
	case t.group != nil:
		sink = rt.groupSink(n, t.group)
	default:
		m := t.mat
		sink = func(b *expr.Batch) { m.appendBatch(b) }
	}
	stages := p.Stages[1:] // the source drives the chain
	if t.node != nil {
		stages = stages[:len(stages)-1] // the build stage is the terminal
	}
	for i := len(stages) - 1; i >= 0; i-- {
		var err error
		if sink, err = rt.makeStage(stages[i], sink); err != nil {
			return err
		}
	}
	if src := p.Stages[0].Node; srcMat != nil {
		rt.scanMatRange(src, srcMat, sink, lo, hi)
	} else {
		rt.scanTableRange(src, sink, lo, hi)
	}
	return nil
}

// finalize closes the pipeline's terminal once every block has fed it.
// Join builds and the query result are complete as fed.
func (rt *runtime) finalize() {
	t := &rt.term
	n := t.node
	if n == nil {
		return
	}
	switch n.Op {
	case plan.GroupByOp:
		rt.finalizeGroup(n, t.group)
	case plan.SortOp:
		rt.finalizeSort(n, t.mat)
	case plan.WindowOp:
		rt.finalizeWindow(n, t.mat)
	case plan.MaterializeOp:
		rt.states[n] = t.mat
		rt.count(n).out = int64(t.mat.N)
	}
}

// scanTableRange scans base-table rows [lo, hi) in batches and pushes them.
// The caller guarantees n.Table is bound.
//
// Pushed-down predicates run on a read-only view of the batch's rows in the
// base table, with short-circuit AND semantics, and only the rows that pass
// are gathered into the pooled batch buffer, column by column. The buffer is
// a copy either way, because downstream stages (filter compaction, limit
// truncation) mutate batch columns in place and must never write through to
// the base table; a scan without predicates, or a batch where every row
// passes, bulk-copies its rows.
func (rt *runtime) scanTableRange(n *plan.Node, sink pushFn, lo, hi int) {
	t := n.Table
	nc := rt.count(n)
	bb := rt.scratch.batchMeta(n.Schema, rt.batchSize)
	var (
		view *expr.Batch
		sel  []bool
		idx  []int32
	)
	if len(n.Predicates) > 0 {
		view = rt.scratch.view(len(n.ScanCols))
		sel = rt.scratch.selBuf(rt.batchSize)
		idx = rt.scratch.idxBuf(rt.batchSize)
	}
	for off := lo; off < hi && !rt.stop; off += rt.batchSize {
		end := min(off+rt.batchSize, hi)
		m := end - off
		if view != nil {
			for i, ci := range n.ScanCols {
				sliceRows(&view.Cols[i], &t.Columns[ci], off, end)
			}
			view.N = m
			idx = filterView(n, nc, view, sel[:m], idx)
		}
		if view == nil || len(idx) == m {
			for i, ci := range n.ScanCols {
				copyRows(&bb.cols[i], &t.Columns[ci], off, end)
			}
		} else {
			for i := range n.ScanCols {
				gatherRows(&bb.cols[i], &view.Cols[i], idx)
			}
			m = len(idx)
		}
		if m > 0 {
			nc.out += int64(m)
			sink(bb.attach(m))
		}
	}
	if view != nil {
		// Views hold slices of the base table's columns; drop them so a
		// retained scratch never pins a released table's arrays.
		clear(view.Cols)
	}
}

// filterView applies n's pushed-down predicates to the view's rows, counting
// per predicate the rows it was evaluated on and the rows that passed, and
// returns the passing rows in idx's storage. EvalBool returns the rows
// selected on entry, so the rows passing predicate k are the rows predicate
// k+1 was evaluated on, and the last predicate's are the returned rows.
func filterView(n *plan.Node, nc *nodeCount, view *expr.Batch, sel []bool, idx []int32) []int32 {
	for i := range sel {
		sel[i] = true
	}
	for pi, pred := range n.Predicates {
		evaluated := int64(pred.EvalBool(view, sel))
		nc.predEval[pi] += evaluated
		if pi > 0 {
			nc.predPass[pi-1] += evaluated
		}
	}
	idx = selectedRows(sel, idx)
	nc.predPass[len(n.Predicates)-1] += int64(len(idx))
	return idx
}

// sliceRows points dst at rows [lo, hi) of src without copying.
func sliceRows(dst, src *storage.Column, lo, hi int) {
	*dst = storage.Column{Name: src.Name, Kind: src.Kind}
	switch src.Kind {
	case storage.Int64:
		dst.Ints = src.Ints[lo:hi]
	case storage.Float64:
		dst.Flts = src.Flts[lo:hi]
	case storage.String:
		dst.Strs = src.Strs[lo:hi]
	}
	if src.Nulls != nil {
		dst.Nulls = src.Nulls[lo:hi]
	}
}

// selectedRows returns the positions of the selected rows, ascending, in
// idx's storage. Every position is written and the cursor advances only past
// selected ones, which keeps the loop free of unpredictable branches.
func selectedRows(sel []bool, idx []int32) []int32 {
	idx = idx[:len(sel)]
	k := 0
	for i, s := range sel {
		idx[k] = int32(i)
		step := 0
		if s {
			step = 1
		}
		k += step
	}
	return idx[:k]
}

// scanMatRange pushes rows [lo, hi) of a breaker's materialized state in
// batches. The breaker's out count was already recorded when its state
// materialized.
func (rt *runtime) scanMatRange(n *plan.Node, m *Materialized, sink pushFn, lo, hi int) {
	bb := rt.scratch.batch(len(m.Cols), func(i int) (string, storage.Type) { return m.Cols[i].Name, m.Cols[i].Kind }, rt.batchSize)
	for off := lo; off < hi && !rt.stop; off += rt.batchSize {
		end := min(off+rt.batchSize, hi)
		// Copy for the same reason as scanTableRange: downstream stages
		// mutate batches in place.
		for i := range m.Cols {
			copyRows(&bb.cols[i], &m.Cols[i], off, end)
		}
		sink(bb.attach(end - off))
	}
}

// makeStage wraps sink with the given pass-through or probe stage.
func (rt *runtime) makeStage(s plan.StageRef, sink pushFn) (pushFn, error) {
	n := s.Node
	switch {
	case n.Op == plan.FilterOp:
		nc := rt.count(n)
		sel := rt.scratch.selBuf(rt.batchSize)
		idx := rt.scratch.idxBuf(rt.batchSize)
		return func(b *expr.Batch) {
			sel := sel[:b.N]
			for i := range sel {
				sel[i] = true
			}
			n.FilterPred.EvalBool(b, sel)
			// Compact in place, one column at a time.
			if idx := selectedRows(sel, idx); len(idx) < b.N {
				for c := range b.Cols {
					gatherRows(&b.Cols[c], &b.Cols[c], idx)
				}
				b.N = len(idx)
			}
			if b.N > 0 {
				nc.out += int64(b.N)
				sink(b)
			}
		}, nil

	case n.Op == plan.MapOp:
		nc := rt.count(n)
		comps := compileMapExprs(n)
		// A batch buffer of the scratch holds one compute column per map
		// expression in cols and the published column headers in hdr. Both
		// are reused across batches: downstream sinks consume each batch
		// synchronously and never hold onto its column headers.
		mb := rt.scratch.batch(len(n.MapExprs), func(i int) (string, storage.Type) {
			return n.MapNames[i], n.MapExprs[i].Kind()
		}, rt.batchSize)
		return func(b *expr.Batch) {
			out := mb.hdr[:0]
			if !n.MapReplaces() {
				out = append(out, b.Cols...)
			}
			for i := range n.MapExprs {
				dst := &mb.cols[i]
				comps[i](b, dst)
				out = append(out, *dst)
			}
			mb.hdr = out
			b.Cols = out
			nc.out += int64(b.N)
			sink(b)
		}, nil

	case n.Op == plan.LimitOp:
		nc := rt.count(n)
		remaining := n.LimitN
		return func(b *expr.Batch) {
			if remaining <= 0 {
				rt.stop = true
				return
			}
			if b.N > remaining {
				truncate(b, remaining)
			}
			remaining -= b.N
			if remaining <= 0 {
				rt.stop = true
			}
			nc.out += int64(b.N)
			sink(b)
		}, nil

	case n.Op == plan.HashJoinOp && s.Stage == plan.StageProbe:
		return rt.makeProbe(n, sink)

	default:
		return nil, fmt.Errorf("unsupported stage %v of %v", s.Stage, n.Op)
	}
}

// truncate shortens b to n rows.
func truncate(b *expr.Batch, n int) {
	for c := range b.Cols {
		col := &b.Cols[c]
		switch col.Kind {
		case storage.Int64:
			col.Ints = col.Ints[:n]
		case storage.Float64:
			col.Flts = col.Flts[:n]
		case storage.String:
			col.Strs = col.Strs[:n]
		}
		if col.Nulls != nil {
			col.Nulls = col.Nulls[:n]
		}
	}
	b.N = n
}
