package exec

import (
	"sync"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// execScratch holds the reusable buffers of one plan execution: batch
// buffers and read-only scan views, hash tables, selection, hash and index
// vectors, materialized intermediates, join/group build states, per-node
// counters, the pipeline decomposition, and the runtime's node maps. An
// Executor with Reuse set owns one for the run itself and one per morsel
// partition index, kept across runs; every other run checks one out of a
// process-wide pool (per partition too) and returns it when done.
//
// The scratch keeps the objects it hands out, but not the arrays they fill:
// every column, hash vector and hash table draws its backing arrays from the
// scratch's arena (arena.go), sized for the rows it will hold, and release
// gives them all back. Selection and index vectors are batch-sized and stay
// with their checkout position.
//
// Every object is handed out through a cursor-based checkout: buffers handed
// out during a run stay checked out until the scratch is released (pipeline
// states outlive their pipeline), so reuse happens across runs and, for
// partition scratches, across the blocks of one pipeline.
type execScratch struct {
	ar *arena // created on first use when the owner set none

	// Stage buffers; the cursors count those handed out since the last
	// release.
	sels    [][]bool
	ns      int
	hashes  [][]uint64
	nh      int
	idxs    [][]int32
	ni      int
	batches []*batchBuf
	nb      int
	views   []*expr.Batch
	nv      int

	tabs   []*hashTab
	nt     int // tables handed out this run
	mats   []*Materialized
	nm     int // materialized buffers handed out this run
	joins  []*joinState
	nj     int // join states handed out this run
	groups []*groupState
	ng     int // group states handed out this run
	jparts []*joinPartial
	np     int // join partials handed out this run
	ncs    []*nodeCount
	nn     int // node counters handed out this run

	perm  []int32
	pipes plan.PipelineScratch

	// states/counts back the runtime's per-node maps; cleared per run.
	states map[*plan.Node]any
	counts map[*plan.Node]*nodeCount
}

var scratchPool = sync.Pool{New: func() any { return &execScratch{} }}

// arena returns the scratch's buffer arena.
func (s *execScratch) arena() *arena {
	if s.ar == nil {
		s.ar = &arena{}
	}
	return s.ar
}

// begin releases the previous run's buffers and resets the node maps for a
// new run.
func (s *execScratch) begin() {
	s.release()
	if s.states == nil {
		s.states = make(map[*plan.Node]any)
	} else {
		clear(s.states)
	}
	if s.counts == nil {
		s.counts = make(map[*plan.Node]*nodeCount)
	} else {
		clear(s.counts)
	}
}

// release returns every array the checked-out objects hold to the arena and
// resets the check-out cursors. Published batch headers are cleared with
// them, so no batch still reaches a released array.
func (s *execScratch) release() {
	s.releaseStages()
	a := s.arena()
	a.mu.Lock()
	for _, t := range s.tabs[:s.nt] {
		a.slots.put(t.slots)
		a.chains.put(t.next)
		t.slots, t.next = nil, nil
	}
	for _, m := range s.mats[:s.nm] {
		a.putCols(m.Cols)
		m.N = 0
	}
	for _, st := range s.joins[:s.nj] {
		a.putCols(st.keyCols)
		a.putCols(st.payload)
		st.ht = nil
	}
	for _, st := range s.groups[:s.ng] {
		a.putCols(st.keyCols)
		a.hashes.put(st.hashes)
		putVecs(&a.flts, st.sums)
		putVecs(&a.ints, st.counts)
		putVecs(&a.strs, st.strMin)
		putVecs(&a.strs, st.strMax)
		st.hashes, st.ht = nil, nil
	}
	for _, p := range s.jparts[:s.np] {
		a.hashes.put(p.hashes)
		a.putCols(p.keyCols)
		a.putCols(p.payload)
		p.hashes = nil
	}
	a.mu.Unlock()
	s.nt, s.nm, s.nj, s.ng, s.np, s.nn = 0, 0, 0, 0, 0, 0
}

// releaseStages releases what only the stages of a pipeline use — batch
// buffers, scan views, selection, index and hash vectors — and keeps the
// pipeline states later pipelines read.
func (s *execScratch) releaseStages() {
	a := s.arena()
	a.mu.Lock()
	putVecs(&a.hashes, s.hashes[:s.nh])
	for _, bb := range s.batches[:s.nb] {
		a.putCols(bb.cols)
		clear(bb.hdr[:cap(bb.hdr)])
		bb.hdr = bb.hdr[:0]
		bb.b = expr.Batch{}
	}
	a.mu.Unlock()
	s.ns, s.nh, s.ni, s.nb, s.nv = 0, 0, 0, 0, 0
}

// take hands out the next object of a checkout list, allocating one when the
// list is exhausted.
func take[T any](list *[]*T, cursor *int) *T {
	if *cursor == len(*list) {
		*list = append(*list, new(T))
	}
	x := (*list)[*cursor]
	*cursor++
	return x
}

// takeVec hands out the next vector of a checkout list with length n. Each
// checkout is a distinct buffer (a scan and the stages it feeds hold theirs
// simultaneously); capacity is retained across runs.
func takeVec[T any](list *[][]T, cursor *int, n int) []T {
	if *cursor == len(*list) {
		*list = append(*list, nil)
	}
	v := resize((*list)[*cursor], n)
	(*list)[*cursor] = v
	*cursor++
	return v
}

// selBuf hands out a selection vector of length n.
func (s *execScratch) selBuf(n int) []bool { return takeVec(&s.sels, &s.ns, n) }

// idxBuf hands out an index vector of length n: selected rows, probe/build
// row pairs, or group ids.
func (s *execScratch) idxBuf(n int) []int32 { return takeVec(&s.idxs, &s.ni, n) }

// hashBuf hands out a hash vector of length n, drawn from the arena.
func (s *execScratch) hashBuf(n int) []uint64 {
	if s.nh == len(s.hashes) {
		s.hashes = append(s.hashes, nil)
	}
	a := s.arena()
	a.mu.Lock()
	v := a.hashes.get(n)[:n]
	a.mu.Unlock()
	s.hashes[s.nh] = v
	s.nh++
	return v
}

// batch hands out a batch buffer of n columns, column i named and typed by
// meta(i), with room for rows rows per column.
func (s *execScratch) batch(n int, meta func(i int) (string, storage.Type), rows int) *batchBuf {
	bb := take(&s.batches, &s.nb)
	bb.cols = shapeCols(bb.cols, n)
	for i := range bb.cols {
		c := &bb.cols[i]
		c.Name, c.Kind = meta(i)
	}
	s.arena().drawCols(bb.cols, rows)
	return bb
}

// batchMeta is batch for a plan schema.
func (s *execScratch) batchMeta(schema []plan.ColMeta, rows int) *batchBuf {
	return s.batch(len(schema), func(i int) (string, storage.Type) { return schema[i].Name, schema[i].Kind }, rows)
}

// view hands out a batch with n columns for read-only views of base-table
// rows. Views live in a list of their own, so no writable batch buffer ever
// holds a slice of a base table, and no base-table array ever reaches the
// arena; the scan clears the view when it ends.
func (s *execScratch) view(n int) *expr.Batch {
	v := take(&s.views, &s.nv)
	v.Cols = resize(v.Cols, n)
	return v
}

// table hands out a hash table presized for `expected` entries, its slot and
// chain arrays drawn from the arena.
func (s *execScratch) table(expected int) *hashTab {
	t := take(&s.tabs, &s.nt)
	t.ar = s.arena()
	t.reset(expected)
	return t
}

// mat hands out an empty materialized buffer shaped to the schema, with room
// for rows rows per column.
func (s *execScratch) mat(schema []plan.ColMeta, rows int) *Materialized {
	m := take(&s.mats, &s.nm)
	s.arena().shapeMat(m, schema, rows)
	return m
}

// joinState hands out a recycled join build state; the caller shapes it.
func (s *execScratch) joinState() *joinState { return take(&s.joins, &s.nj) }

// groupState hands out a recycled group-by build state; the caller shapes it.
func (s *execScratch) groupState() *groupState { return take(&s.groups, &s.ng) }

// joinPart hands out a recycled per-partition join build buffer.
func (s *execScratch) joinPart() *joinPartial { return take(&s.jparts, &s.np) }

// nodeCount hands out a zeroed per-node counter. Table scans get per-predicate
// counter slices sized to their predicate count.
func (s *execScratch) nodeCount(n *plan.Node) *nodeCount {
	c := take(&s.ncs, &s.nn)
	c.out = 0
	if n.Op == plan.TableScanOp {
		c.predEval = zeroInt64(c.predEval, len(n.Predicates))
		c.predPass = zeroInt64(c.predPass, len(n.Predicates))
	} else {
		c.predEval = c.predEval[:0]
		c.predPass = c.predPass[:0]
	}
	return c
}

// permBuf hands out the sort permutation buffer, resized to n. Only one sort
// finalize runs at a time (finalizers run on the pipeline driver), so a
// single buffer per scratch suffices.
func (s *execScratch) permBuf(n int) []int32 {
	if cap(s.perm) < n {
		s.perm = make([]int32, n)
	}
	return s.perm[:n]
}

// zeroInt64 returns s resized to n with every element zeroed.
func zeroInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// shapeCols resizes a retained column-header slice to n columns. The
// columns hold no arrays (release took them); callers set names and kinds.
func shapeCols(cols []storage.Column, n int) []storage.Column {
	if cap(cols) < n {
		next := make([]storage.Column, n)
		copy(next, cols)
		cols = next
	}
	return cols[:n]
}

// copyRows sets dst to rows [lo, hi) of src, null flags included.
func copyRows(dst, src *storage.Column, lo, hi int) {
	switch src.Kind {
	case storage.Int64:
		dst.Ints = append(dst.Ints[:0], src.Ints[lo:hi]...)
	case storage.Float64:
		dst.Flts = append(dst.Flts[:0], src.Flts[lo:hi]...)
	case storage.String:
		dst.Strs = append(dst.Strs[:0], src.Strs[lo:hi]...)
	}
	if src.Nulls != nil {
		dst.Nulls = append(dst.Nulls[:0], src.Nulls[lo:hi]...)
	} else {
		dst.Nulls = nil
	}
}

// gatherCol sets dst to the values src holds at the rows idx, in idx's order;
// null flags are not carried. dst may be src when idx ascends: row j is then
// written only after every row it is read from.
func gatherCol(dst, src *storage.Column, idx []int32) {
	switch src.Kind {
	case storage.Int64:
		dst.Ints = gather(dst.Ints, src.Ints, idx)
	case storage.Float64:
		dst.Flts = gather(dst.Flts, src.Flts, idx)
	case storage.String:
		dst.Strs = gather(dst.Strs, src.Strs, idx)
	}
}

// gatherRows is gatherCol for the selected rows of a batch column: idx
// ascends, and null flags go with their rows.
func gatherRows(dst, src *storage.Column, idx []int32) {
	gatherCol(dst, src, idx)
	if src.Nulls != nil {
		dst.Nulls = gather(dst.Nulls, src.Nulls, idx)
	} else {
		dst.Nulls = nil
	}
}

// gather returns dst resized to len(idx) with dst[j] = src[idx[j]].
func gather[T any](dst, src []T, idx []int32) []T {
	dst = resize(dst, len(idx))
	for j, i := range idx {
		dst[j] = src[i]
	}
	return dst
}

// resize returns s with length n, reallocating only when its capacity is
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// batchBuf is a reusable batch buffer. The columns in cols hold the arena
// arrays of the checkout; callers truncate and append into cols, then call
// attach to publish the filled columns into the batch handed downstream.
// Downstream stages may shrink or replace b.Cols freely — the next refill
// starts from cols again.
type batchBuf struct {
	b    expr.Batch
	cols []storage.Column
	hdr  []storage.Column // what attach publishes as b.Cols
}

// attach publishes the retained columns (filled by the caller) as the
// batch's columns with n rows. Must be called after every refill, because
// appends into cols may have reallocated backing arrays.
func (bb *batchBuf) attach(n int) *expr.Batch {
	// Copy the headers into the buffer's own slice: a map stage may have
	// replaced b.Cols with a slice of its own, which must not be written.
	bb.hdr = append(bb.hdr[:0], bb.cols...)
	bb.b.Cols = bb.hdr
	bb.b.N = n
	return &bb.b
}
