package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/obs"
)

// Morsel-driven parallel pipeline execution.
//
// An eligible pipeline's source rows are split into `parts` contiguous
// blocks. Each block runs the full stage chain — range scan, filters, maps,
// probes — on a pool worker with its own execScratch (block k's is the Reuse
// executor's partition scratch k, or one from the pool), feeding a
// partition-local terminal (a joinPartial, a partition groupState, or a
// partial Materialized). The partials merge back *in block order*, which
// reproduces the serial engine's observable behaviour exactly. A block that
// finishes marks itself done, and whichever participant then holds the
// merge token folds every consecutive done partial into the shared state,
// so the merge of early blocks overlaps the scan of later ones; the driver
// merges only what is left once the pool returns:
//
//   - join builds: partitions precompute row hashes and buffer key/payload
//     columns; the merge inserts the hashes into the shared open-addressing
//     table sequentially in block order, so entry ids — and therefore probe
//     chain order and probe output order — are bit-identical to a serial
//     build;
//   - group-by builds: partitions aggregate into local states recording each
//     group's hash in discovery order; the merge folds partition groups in
//     block order (lookup-or-add on the shared state), so merged group ids
//     equal serial discovery order and the finalized output row order is
//     identical. Only float SUM/AVG accumulators can differ, by reassociated
//     rounding (ULPs); counts, min/max, keys, and every cardinality counter
//     are exact;
//   - sort/window/materialize builds and the final result: partition blocks
//     materialize locally and concatenate in block order, bit-identical to
//     the serial append order.
//
// Per-node counters accumulate in partition-local maps and are summed into
// the driver's counters by the same merge (integer addition — exact), so
// annotations and label fingerprints do not depend on the worker count.
// Pipelines containing a LIMIT run serially: LIMIT's early-stop is
// inherently order-dependent.

// DefaultMorselRows is the minimum number of source rows per partition
// block. Pipelines smaller than two morsels run serially — below that, the
// fixed cost of dispatching to the pool and merging partials outweighs the
// scan work. 4096 rows ≈ a few hundred KiB of scanned columns, comfortably
// L2-resident while amortizing dispatch.
const DefaultMorselRows = 4096

// maxPartsPerWorker bounds how many blocks each worker gets. More blocks
// than workers gives the pool slack to balance skewed filter selectivities;
// too many shrinks blocks below useful sizes.
const maxPartsPerWorker = 4

// parallelism decides whether pipeline p is eligible for morsel-parallel
// execution, returning the partition count, total source rows, and the
// resolved source state (nil for base-table scans).
func (rt *runtime) parallelism(p *plan.Pipeline) (parts, rows int, srcMat *Materialized, ok bool) {
	if rt.workers <= 1 || rt.pool == nil {
		return 0, 0, nil, false
	}
	for _, s := range p.Stages {
		if s.Node.Op == plan.LimitOp {
			// LIMIT stops the pipeline after N rows; which rows survive
			// depends on push order, so it stays serial.
			return 0, 0, nil, false
		}
	}
	src := p.Stages[0].Node
	switch src.Op {
	case plan.TableScanOp:
		if src.Table == nil {
			return 0, 0, nil, false // serial path reports the error
		}
		rows = src.Table.NumRows()
	case plan.GroupByOp, plan.SortOp, plan.WindowOp, plan.MaterializeOp:
		m, isMat := rt.states[src].(*Materialized)
		if !isMat {
			return 0, 0, nil, false // serial path reports the error
		}
		srcMat, rows = m, m.N
	default:
		return 0, 0, nil, false
	}
	parts = rows / rt.morsel
	if limit := maxPartsPerWorker * rt.workers; parts > limit {
		parts = limit
	}
	if parts < 2 {
		return 0, 0, nil, false
	}
	return parts, rows, srcMat, true
}

// partResult is one partition's terminal state plus its runtime (for the
// counter merge).
type partResult struct {
	scratch *execScratch
	rt      runtime
	jp      *joinPartial  // join build partial
	gs      *groupState   // group-by build partial
	mat     *Materialized // sort/window/materialize buffer or result partial
	err     error
	end     time.Time   // when the block's scan returned
	done    atomic.Bool // set once every field above is final
}

// ready reports whether block k has finished without error, so it can be
// merged.
func ready(results []partResult, k int) bool {
	return k < len(results) && results[k].done.Load() && results[k].err == nil
}

// runPipelineParallel executes one pipeline morsel-parallel over `parts`
// contiguous source blocks and merges the partials in block order.
func (rt *runtime) runPipelineParallel(p *plan.Pipeline, root *plan.Node, parts, rows int, srcMat *Materialized) (int, error) {
	rt.lastPar = rt.workers
	if parts < rt.lastPar {
		rt.lastPar = parts
	}
	rt.lastMorsels = parts
	obs.ExecParallelPipelines.Inc()
	obs.ExecMorsels.Add(uint64(parts))

	last := p.Stages[len(p.Stages)-1]
	isBuild := last.Stage == plan.StageBuild
	buildNode := last.Node

	// Set up the shared terminal on the driver before partitions launch, so
	// probe stages inside partitions can look up earlier build states and
	// the merge has a target.
	var (
		jst    *joinState
		gst    *groupState
		bufMat *Materialized
	)
	if isBuild {
		switch buildNode.Op {
		case plan.HashJoinOp:
			jst = rt.newJoinState(buildNode)
			rt.states[buildNode] = jst
		case plan.GroupByOp:
			gst = rt.newGroupState(buildNode, presize(buildNode.OutCard, buildNode.Left))
			rt.states[buildNode] = gst
		case plan.SortOp, plan.WindowOp, plan.MaterializeOp:
			bufMat = rt.scratch.mat(buildNode.Left.Schema)
		default:
			return 0, fmt.Errorf("node %v has no build stage", buildNode.Op)
		}
	} else {
		bufMat = rt.resultMat(root.Schema)
		rt.result = bufMat
	}

	src := p.Stages[0].Node
	results := make([]partResult, parts)
	// mergeTok is the merge token: its holder folds done partials into the
	// shared terminal and advances merged, the count of blocks merged so far.
	var (
		mergeTok sync.Mutex
		merged   int
	)
	if o := rt.own; o != nil {
		for len(o.parts) < parts {
			o.parts = append(o.parts, &execScratch{})
		}
	}
	rt.pool.Do(parts, func(k int) {
		start := time.Now()
		res := &results[k]
		var scratch *execScratch
		if rt.own != nil {
			scratch = rt.own.parts[k]
		} else {
			scratch = scratchPool.Get().(*execScratch)
		}
		scratch.begin()
		res.scratch = scratch
		res.rt = runtime{
			batchSize: rt.batchSize,
			states:    rt.states, // read-only inside partitions
			counts:    scratch.counts,
			scratch:   scratch,
			workers:   1, // partitions never nest further splitting
			morsel:    rt.morsel,
		}
		prt := &res.rt
		lo := k * rows / parts
		hi := (k + 1) * rows / parts

		// Partition-local terminal sink.
		var sink pushFn
		if isBuild {
			switch buildNode.Op {
			case plan.HashJoinOp:
				jp := scratch.joinPart()
				jp.shape(jst)
				res.jp = jp
				sink = func(b *expr.Batch) { jp.buildBatch(buildNode, b) }
			case plan.GroupByOp:
				// Presize the partition state like the shared one, but no
				// larger than the block: it cannot discover more groups
				// than it has rows.
				gs := prt.newGroupState(buildNode, min(presize(buildNode.OutCard, buildNode.Left), hi-lo))
				res.gs = gs
				sink = prt.groupSink(buildNode, gs)
			default:
				m := scratch.mat(buildNode.Left.Schema)
				res.mat = m
				sink = func(b *expr.Batch) { m.appendBatch(b) }
			}
		} else {
			m := scratch.mat(root.Schema)
			res.mat = m
			sink = func(b *expr.Batch) { m.appendBatch(b) }
		}

		// Wrap intermediate stages (source at 0, terminal build excluded).
		end := len(p.Stages)
		if isBuild {
			end--
		}
		for i := end - 1; i >= 1; i-- {
			var err error
			sink, err = prt.makeStage(p.Stages[i], sink)
			if err != nil {
				res.err = err
				break
			}
		}
		if res.err == nil {
			if srcMat != nil {
				prt.scanMatRange(src, srcMat, sink, lo, hi)
			} else {
				prt.scanTableRange(src, sink, lo, hi)
			}
		}
		res.end = time.Now()
		obs.ExecPartitionTime.Observe(res.end.Sub(start))
		res.done.Store(true)
		// Merge what is ready while the other participants scan. A block
		// that finishes while the token is held leaves its merge to the
		// holder, which looks again after letting go.
		for mergeTok.TryLock() {
			next := rt.mergeParts(results, merged, jst, gst, bufMat, buildNode)
			merged = next
			mergeTok.Unlock()
			if !ready(results, next) {
				break
			}
		}
	})

	defer func() {
		// Partition partials live in their scratches; return pooled ones
		// only after the merge copied everything out.
		if rt.own != nil {
			return
		}
		for i := range results {
			if results[i].scratch != nil {
				scratchPool.Put(results[i].scratch)
			}
		}
	}()

	// First error in block order, so failures are deterministic.
	for i := range results {
		if err := results[i].err; err != nil {
			return 0, err
		}
	}

	// The serial tail starts when the last block's scan returned: merges
	// still running then, the rest of the merge and the finalize below.
	var tailStart time.Time
	for i := range results {
		if results[i].end.After(tailStart) {
			tailStart = results[i].end
		}
	}
	rt.mergeParts(results, merged, jst, gst, bufMat, buildNode)

	// Shared finalize, identical to the serial path.
	if isBuild {
		switch buildNode.Op {
		case plan.GroupByOp:
			rt.finalizeGroup(buildNode, gst)
		case plan.SortOp:
			rt.finalizeSort(buildNode, bufMat)
		case plan.WindowOp:
			rt.finalizeWindow(buildNode, bufMat)
		case plan.MaterializeOp:
			rt.states[buildNode] = bufMat
			rt.count(buildNode).out = int64(bufMat.N)
		}
	}
	rt.lastMerge = time.Since(tailStart)
	obs.ExecMergeTime.Observe(rt.lastMerge)
	return rows, nil
}

// mergeParts folds the partials of blocks from, from+1, … into the shared
// terminal, in block order, while they are ready, and returns the first
// block it did not merge. Its caller holds the merge token, or is the driver
// after every block finished.
func (rt *runtime) mergeParts(results []partResult, from int, jst *joinState, gst *groupState, bufMat *Materialized, buildNode *plan.Node) int {
	k := from
	for ; ready(results, k); k++ {
		res := &results[k]
		switch {
		case res.jp != nil:
			jst.merge(res.jp)
		case res.gs != nil:
			gst.merge(buildNode, res.gs)
		case res.mat != nil:
			bufMat.appendMat(res.mat)
		}
		// Fold partition counters into the driver's (integer adds — exact,
		// so annotation results are independent of worker count and order).
		for node, pc := range res.rt.counts {
			rt.count(node).add(pc)
		}
	}
	return k
}
