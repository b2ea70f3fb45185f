package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"t3/internal/engine/plan"
	"t3/internal/obs"
)

// Morsel-driven pipeline execution: the k > 1 blocks case of runPipeline
// (exec.go).
//
// A pipeline splits into blocks only when the executor has more than one
// worker, the pipeline holds no LIMIT (its early stop depends on push order)
// and its source spans at least two morsels; every other pipeline runs as
// one block that feeds its terminal directly, inline on the calling
// goroutine. With k > 1 blocks, each block runs the same stage chain on a
// pool worker with its own execScratch (block k's is the Reuse executor's
// partition scratch k, or one from the pool) and feeds a block-local partial
// of the terminal (a joinPartial, a block groupState, or a block
// Materialized). The partials merge into the terminal *in block order*,
// which reproduces the one-block run's observable behaviour exactly. A block
// that finishes marks itself done, and whichever participant then holds the
// merge token folds every consecutive done partial into the terminal, so the
// merge of early blocks overlaps the scan of later ones; the driver merges
// only what is left once the pool returns, and runPipeline finalizes:
//
//   - join builds: partitions precompute row hashes and buffer key/payload
//     columns; the merge inserts the hashes into the shared open-addressing
//     table sequentially in block order, so entry ids — and therefore probe
//     chain order and probe output order — are bit-identical to a one-block
//     build;
//   - group-by builds: partitions aggregate into local states recording each
//     group's hash in discovery order; the merge folds partition groups in
//     block order (lookup-or-add on the shared state), so merged group ids
//     equal one-block discovery order and the finalized output row order is
//     identical. Only float SUM/AVG accumulators can differ, by reassociated
//     rounding (ULPs); counts, min/max, keys, and every cardinality counter
//     are exact;
//   - sort/window/materialize builds and the final result: partition blocks
//     materialize locally and concatenate in block order, bit-identical to
//     the one-block append order.
//
// Per-node counters accumulate in partition-local maps and are summed into
// the driver's counters by the same merge (integer addition — exact), so
// annotations and label fingerprints do not depend on the worker count.

// DefaultMorselRows is the minimum number of source rows per partition
// block. Pipelines smaller than two morsels run as one block — below that,
// the fixed cost of dispatching to the pool and merging partials outweighs
// the scan work. 4096 rows ≈ a few hundred KiB of scanned columns,
// comfortably L2-resident while amortizing dispatch.
const DefaultMorselRows = 4096

// maxPartsPerWorker bounds how many blocks each worker gets. More blocks
// than workers gives the pool slack to balance skewed filter selectivities;
// too many shrinks blocks below useful sizes.
const maxPartsPerWorker = 4

// partitions returns the number of blocks pipeline p's source, of rows
// rows, splits into.
func (rt *runtime) partitions(p *plan.Pipeline, rows int) int {
	if rt.workers <= 1 || rt.pool == nil {
		return 1
	}
	for _, s := range p.Stages {
		if s.Node.Op == plan.LimitOp {
			return 1 // which rows LIMIT keeps depends on push order
		}
	}
	return max(1, min(rows/rt.morsel, maxPartsPerWorker*rt.workers))
}

// partResult is one block's runtime, whose term is the block's partial and
// whose counts the merge folds in.
type partResult struct {
	scratch *execScratch
	rt      runtime
	err     error
	end     time.Time   // when the block's scan returned
	done    atomic.Bool // set once every field above is final
}

// ready reports whether block k has finished without error, so it can be
// merged.
func ready(results []partResult, k int) bool {
	return k < len(results) && results[k].done.Load() && results[k].err == nil
}

// runMorsels feeds pipeline p's source as `parts` contiguous blocks pulled
// by the pool's workers and merges their partials into rt.term in block
// order. It returns when the last block's scan returned: the start of the
// pipeline's serial tail.
func (rt *runtime) runMorsels(p *plan.Pipeline, root *plan.Node, srcMat *Materialized, parts, rows int) (time.Time, error) {
	rt.lastPar, rt.lastMorsels = min(rt.workers, parts), parts
	obs.ExecParallelPipelines.Inc()
	obs.ExecMorsels.Add(uint64(parts))

	results := make([]partResult, parts)
	// mergeTok is the merge token: its holder folds done partials into
	// rt.term and advances merged, the count of blocks merged so far.
	var (
		mergeTok sync.Mutex
		merged   int
	)
	if o := rt.own; o != nil {
		for len(o.parts) < parts {
			o.parts = append(o.parts, &execScratch{ar: o.scratch.arena()})
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
		lo, hi := k*rows/parts, (k+1)*rows/parts
		res.err = res.rt.openTerminal(p, root, &rt.term, hi-lo)
		if res.err == nil {
			res.err = res.rt.feed(p, srcMat, lo, hi)
		}
		// Only the partial waits for the merge; the stages' buffers go
		// back to the arena for the blocks still to scan.
		scratch.releaseStages()
		res.end = time.Now()
		obs.ExecPartitionTime.Observe(res.end.Sub(start))
		res.done.Store(true)
		// Merge what is ready while the other participants scan. A block
		// that finishes while the token is held leaves its merge to the
		// holder, which looks again after letting go.
		for mergeTok.TryLock() {
			next := rt.mergeParts(results, merged)
			merged = next
			mergeTok.Unlock()
			if !ready(results, next) {
				break
			}
		}
	})

	defer func() {
		// Partition partials live in their scratches; release them, and
		// return pooled ones, only after the merge copied everything out.
		// Merged blocks were released already.
		for i := range results {
			if s := results[i].scratch; s != nil {
				s.release()
				if rt.own == nil {
					scratchPool.Put(s)
				}
			}
		}
	}()

	// First error in block order, so failures are deterministic.
	var tail time.Time
	for i := range results {
		if err := results[i].err; err != nil {
			return tail, err
		}
		if results[i].end.After(tail) {
			tail = results[i].end
		}
	}
	rt.mergeParts(results, merged)
	return tail, nil
}

// mergeParts folds the partials of blocks from, from+1, … into rt.term, in
// block order, while they are ready, and returns the first block it did not
// merge. Its caller holds the merge token, or is the driver after every
// block finished.
func (rt *runtime) mergeParts(results []partResult, from int) int {
	term := &rt.term
	k := from
	for ; ready(results, k); k++ {
		part := &results[k].rt.term
		switch {
		case part.jp != nil:
			term.join.merge(part.jp)
		case part.group != nil:
			term.group.merge(term.node, part.group)
		default:
			term.mat.appendMat(part.mat)
		}
		// Fold partition counters into the driver's (integer adds — exact,
		// so annotation results are independent of worker count and order).
		for node, pc := range results[k].rt.counts {
			rt.count(node).add(pc)
		}
		// The partial's arrays go back to the arena for the blocks still
		// to come.
		results[k].scratch.release()
	}
	return k
}
