package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// hashing: FNV-1a style mixing over column values. Collisions are handled by
// verifying key equality, so hash quality only affects speed.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func mix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime
	// Extra avalanche so sequential integers spread across buckets.
	h ^= h >> 29
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// hashCols sets hs[i] to the hash of row i of the key columns idxs, for the
// first len(hs) rows, one key column at a time: the FNV offset, then per key
// column in key order mix of the value's bits or the FNV loop over a
// string's bytes. Null flags are not hashed.
func hashCols(cols []storage.Column, idxs []int, hs []uint64) {
	for i := range hs {
		hs[i] = fnvOffset
	}
	for _, ci := range idxs {
		c := &cols[ci]
		switch c.Kind {
		case storage.Int64:
			for i, v := range c.Ints[:len(hs)] {
				hs[i] = mix(hs[i], uint64(v))
			}
		case storage.Float64:
			for i, v := range c.Flts[:len(hs)] {
				hs[i] = mix(hs[i], math.Float64bits(v))
			}
		case storage.String:
			for i, v := range c.Strs[:len(hs)] {
				hs[i] = hashString(hs[i], v)
			}
		}
	}
}

// rowsEqual compares row a of cols (at idxs) against row b of keyCols.
func rowsEqual(cols []storage.Column, idxs []int, a int, keyCols []storage.Column, b int) bool {
	for k, ci := range idxs {
		c := &cols[ci]
		kc := &keyCols[k]
		switch c.Kind {
		case storage.Int64:
			if c.Ints[a] != kc.Ints[b] {
				return false
			}
		case storage.Float64:
			if c.Flts[a] != kc.Flts[b] {
				return false
			}
		case storage.String:
			if c.Strs[a] != kc.Strs[b] {
				return false
			}
		}
	}
	return true
}

// keyRowsEqual compares row a of cols a against row b of cols b, column by
// column (used when merging per-partition group states, where both sides are
// already key-column layouts).
func keyRowsEqual(a []storage.Column, ai int, b []storage.Column, bi int) bool {
	for k := range a {
		ca, cb := &a[k], &b[k]
		switch ca.Kind {
		case storage.Int64:
			if ca.Ints[ai] != cb.Ints[bi] {
				return false
			}
		case storage.Float64:
			if ca.Flts[ai] != cb.Flts[bi] {
				return false
			}
		case storage.String:
			if ca.Strs[ai] != cb.Strs[bi] {
				return false
			}
		}
	}
	return true
}

// joinState is the materialized build side of a hash join. Build rows are
// entries of the open-addressing table in insertion order, so the table's
// entry ids double as row indices into keyCols/payload.
type joinState struct {
	keyCols []storage.Column // key columns, one row per build tuple
	payload []storage.Column // payload columns, one row per build tuple
	ht      *hashTab
	rows    int
}

// joinPartial is one morsel partition's contribution to a hash-join build:
// the key/payload rows plus their precomputed hashes, without a hash table.
// Partials are merged into the shared joinState in block order, reproducing
// the exact insertion order (and therefore probe output order) of a
// one-block build.
type joinPartial struct {
	hashes  []uint64
	keyCols []storage.Column
	payload []storage.Column
	rows    int
}

// appendVal appends value at row i of src to dst: one value, such as a newly
// discovered group's key.
func appendVal(dst, src *storage.Column, i int) {
	switch src.Kind {
	case storage.Int64:
		dst.Ints = append(dst.Ints, src.Ints[i])
	case storage.Float64:
		dst.Flts = append(dst.Flts, src.Flts[i])
	case storage.String:
		dst.Strs = append(dst.Strs, src.Strs[i])
	}
}

// newJoinState checks a join build state out of the scratch and shapes it
// for n's build side.
func (rt *runtime) newJoinState(n *plan.Node) *joinState {
	in := n.Left
	st := rt.scratch.joinState()
	// Presize from the build input's cardinality annotation so steady-state
	// builds (label collection re-executing annotated plans) never rehash,
	// clamped to what the input can actually produce.
	st.ht = rt.scratch.table(presize(in.OutCard, in))
	st.rows = 0
	st.keyCols = shapeCols(st.keyCols, len(n.BuildKeys))
	for k, ci := range n.BuildKeys {
		st.keyCols[k].Name, st.keyCols[k].Kind = "", in.Schema[ci].Kind
	}
	st.payload = shapeCols(st.payload, len(n.BuildPayload))
	for k, ci := range n.BuildPayload {
		st.payload[k].Name, st.payload[k].Kind = in.Schema[ci].Name, in.Schema[ci].Kind
	}
	return st
}

// buildBatch folds one batch into the join build state: the batch's key
// hashes into hs, then the table inserts in row order (entry id == st.rows,
// sequential), then the key and payload columns in bulk.
func (st *joinState) buildBatch(n *plan.Node, b *expr.Batch, hs []uint64) {
	hs = hs[:b.N]
	hashCols(b.Cols, n.BuildKeys, hs)
	for _, h := range hs {
		st.ht.insert(h)
	}
	appendCols(st.keyCols, b.Cols, n.BuildKeys, b.N)
	appendCols(st.payload, b.Cols, n.BuildPayload, b.N)
	st.rows += b.N
}

// appendCols bulk-appends the first n rows of the columns idxs of src to dst,
// dst[k] receiving src[idxs[k]].
func appendCols(dst, src []storage.Column, idxs []int, n int) {
	for k, ci := range idxs {
		appendCol(&dst[k], &src[ci], n)
	}
}

// shape prepares a partition-local join partial matching st's layout.
func (p *joinPartial) shape(st *joinState) {
	p.hashes = p.hashes[:0]
	p.rows = 0
	p.keyCols = shapeCols(p.keyCols, len(st.keyCols))
	for k := range st.keyCols {
		p.keyCols[k].Kind = st.keyCols[k].Kind
	}
	p.payload = shapeCols(p.payload, len(st.payload))
	for k := range st.payload {
		p.payload[k].Kind = st.payload[k].Kind
	}
}

// buildBatch folds one batch into the partition-local join partial: the key
// hashes straight into the tail of p.hashes, the columns in bulk.
func (p *joinPartial) buildBatch(n *plan.Node, b *expr.Batch) {
	at := len(p.hashes)
	p.hashes = slices.Grow(p.hashes, b.N)[:at+b.N]
	hashCols(b.Cols, n.BuildKeys, p.hashes[at:])
	appendCols(p.keyCols, b.Cols, n.BuildKeys, b.N)
	appendCols(p.payload, b.Cols, n.BuildPayload, b.N)
	p.rows += b.N
}

// merge appends a partition's rows to the shared join state. Hashes were
// precomputed morsel-parallel; the table inserts are sequential and in block
// order, so entry ids match a one-block build exactly.
func (st *joinState) merge(p *joinPartial) {
	for _, h := range p.hashes {
		st.ht.insert(h)
	}
	for k := range st.keyCols {
		appendCol(&st.keyCols[k], &p.keyCols[k], p.rows)
	}
	for k := range st.payload {
		appendCol(&st.payload[k], &p.payload[k], p.rows)
	}
	st.rows += p.rows
}

// makeProbe wraps sink with the probe stage of a hash join. Per batch it
// hashes the probe keys, then walks probe rows in order and each row's chain
// in build insertion order, collecting (probe row, build entry) pairs of
// equal keys; every rt.batchSize pairs, and at the end of the batch, it
// gathers the output column by column and pushes it. A LIMIT downstream sets
// rt.stop during a push, and no further probe row starts, so the pairs, the
// flush boundaries and the row where the pipeline stops are those of a
// row-at-a-time probe.
func (rt *runtime) makeProbe(n *plan.Node, sink pushFn) (pushFn, error) {
	st, ok := rt.states[n].(*joinState)
	if !ok {
		return nil, fmt.Errorf("probe of %v before its build ran", n)
	}
	nc := rt.count(n)
	nProbe := len(n.Right.Schema)
	// One reusable output buffer for the whole probe stage: sinks consume
	// batches synchronously and never retain them, so the buffer can be
	// refilled after every flush.
	out := rt.scratch.batchMeta(n.Schema)
	hs := rt.scratch.hashBuf(rt.batchSize)
	rows := rt.scratch.idxBuf(rt.batchSize)
	entries := rt.scratch.idxBuf(rt.batchSize)
	on := 0 // pairs collected since the last flush
	return func(b *expr.Batch) {
		flush := func() {
			if on == 0 {
				return
			}
			for c := 0; c < nProbe; c++ {
				gatherCol(&out.cols[c], &b.Cols[c], rows[:on])
			}
			for c := range st.payload {
				gatherCol(&out.cols[nProbe+c], &st.payload[c], entries[:on])
			}
			nc.out += int64(on)
			sink(out.attach(on))
			on = 0
		}
		h := hs[:b.N]
		hashCols(b.Cols, n.ProbeKeys, h)
		for i := 0; i < b.N && !rt.stop; i++ {
			for e := st.ht.lookup(h[i]); e >= 0; e = st.ht.next[e] {
				if !rowsEqual(b.Cols, n.ProbeKeys, i, st.keyCols, int(e)) {
					continue
				}
				rows[on], entries[on] = int32(i), e
				if on++; on >= rt.batchSize {
					flush()
				}
			}
		}
		flush()
	}, nil
}

// groupState is the hash-aggregation state of a group-by build. Groups are
// entries of the open-addressing table in discovery order, so the table's
// entry ids double as group ids.
type groupState struct {
	keyCols []storage.Column // one row per group
	ht      *hashTab
	groups  int
	// hashes records each group's key hash in discovery order, so
	// per-partition states can be merged without rehashing keys.
	hashes []uint64
	// accumulators, one slice entry per group per aggregate
	sums   [][]float64
	counts [][]int64
	// strMin/strMax are allocated lazily: only aggregates that MIN/MAX over
	// a string column get a per-group value slice; all others stay nil.
	strMin [][]string
	strMax [][]string
}

// addGroup appends zeroed accumulator slots for a newly discovered group.
func (st *groupState) addGroup(aggs []plan.Agg) {
	st.groups++
	for a, agg := range aggs {
		st.sums[a] = append(st.sums[a], initialAcc(agg.Fn))
		st.counts[a] = append(st.counts[a], 0)
		if st.strMin[a] != nil {
			st.strMin[a] = append(st.strMin[a], "")
			st.strMax[a] = append(st.strMax[a], "")
		}
	}
}

// newGroupState checks a group state out of the scratch and shapes it for n,
// presizing the table for `expected` groups.
func (rt *runtime) newGroupState(n *plan.Node, expected int) *groupState {
	in := n.Left
	st := rt.scratch.groupState()
	st.ht = rt.scratch.table(expected)
	st.groups = 0
	st.hashes = st.hashes[:0]
	st.keyCols = shapeCols(st.keyCols, len(n.GroupCols))
	for k, ci := range n.GroupCols {
		st.keyCols[k].Name, st.keyCols[k].Kind = in.Schema[ci].Name, in.Schema[ci].Kind
	}
	st.sums = truncAccF(st.sums, len(n.Aggs))
	st.counts = truncAccI(st.counts, len(n.Aggs))
	st.strMin = truncAccS(st.strMin, len(n.Aggs))
	st.strMax = truncAccS(st.strMax, len(n.Aggs))
	for a, agg := range n.Aggs {
		if (agg.Fn == plan.AggMin || agg.Fn == plan.AggMax) && in.Schema[agg.Col].Kind == storage.String {
			if st.strMin[a] == nil {
				st.strMin[a] = []string{}
				st.strMax[a] = []string{}
			}
		} else {
			st.strMin[a] = nil
			st.strMax[a] = nil
		}
	}
	return st
}

func truncAccF(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		next := make([][]float64, n)
		copy(next, s)
		s = next
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

func truncAccI(s [][]int64, n int) [][]int64 {
	if cap(s) < n {
		next := make([][]int64, n)
		copy(next, s)
		s = next
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

func truncAccS(s [][]string, n int) [][]string {
	if cap(s) < n {
		next := make([][]string, n)
		copy(next, s)
		s = next
	}
	s = s[:n]
	for i := range s {
		if s[i] != nil {
			s[i] = s[i][:0]
		}
	}
	return s
}

// update folds one batch into the group state in two passes. The first
// hashes the group columns into hs and resolves every row's group id into
// gids in row order, adding the groups it discovers in discovery order. The
// second folds each aggregate over the id vector, so each group's float sums
// accumulate in row order.
func (st *groupState) update(n *plan.Node, b *expr.Batch, hs []uint64, gids []int32) {
	hs, gids = hs[:b.N], gids[:b.N]
	hashCols(b.Cols, n.GroupCols, hs)
	for i, h := range hs {
		gi := int32(-1)
		for cand := st.ht.lookup(h); cand >= 0; cand = st.ht.next[cand] {
			if rowsEqual(b.Cols, n.GroupCols, i, st.keyCols, int(cand)) {
				gi = cand
				break
			}
		}
		if gi < 0 {
			gi = st.ht.insert(h) // entry id == st.groups (sequential)
			st.hashes = append(st.hashes, h)
			for k, ci := range n.GroupCols {
				appendVal(&st.keyCols[k], &b.Cols[ci], i)
			}
			st.addGroup(n.Aggs)
		}
		gids[i] = gi
	}
	for a, agg := range n.Aggs {
		st.fold(a, agg, b, gids)
	}
}

// merge folds a partition's groups into st, in the partition's discovery
// order. Because partitions are merged in block order, the merged group
// order equals the one-block discovery order exactly.
func (st *groupState) merge(n *plan.Node, src *groupState) {
	for sg := 0; sg < src.groups; sg++ {
		h := src.hashes[sg]
		gi := int32(-1)
		for cand := st.ht.lookup(h); cand >= 0; cand = st.ht.next[cand] {
			if keyRowsEqual(src.keyCols, sg, st.keyCols, int(cand)) {
				gi = cand
				break
			}
		}
		if gi < 0 {
			gi = st.ht.insert(h)
			st.hashes = append(st.hashes, h)
			for k := range st.keyCols {
				appendVal(&st.keyCols[k], &src.keyCols[k], sg)
			}
			st.addGroup(n.Aggs)
		}
		for a, agg := range n.Aggs {
			mergeAcc(st, a, agg, src, gi, sg)
		}
	}
}

// mergeAcc folds partition group sg's accumulator into st's group gi.
func mergeAcc(st *groupState, a int, agg plan.Agg, src *groupState, gi int32, sg int) {
	srcCount := src.counts[a][sg]
	if srcCount == 0 {
		return
	}
	switch {
	case agg.Fn == plan.AggCount:
		// count only
	case st.strMin[a] != nil:
		if st.counts[a][gi] == 0 {
			st.strMin[a][gi] = src.strMin[a][sg]
			st.strMax[a][gi] = src.strMax[a][sg]
		} else {
			if agg.Fn == plan.AggMin && src.strMin[a][sg] < st.strMin[a][gi] {
				st.strMin[a][gi] = src.strMin[a][sg]
			}
			if agg.Fn == plan.AggMax && src.strMax[a][sg] > st.strMax[a][gi] {
				st.strMax[a][gi] = src.strMax[a][sg]
			}
		}
	default:
		v := src.sums[a][sg]
		switch agg.Fn {
		case plan.AggSum, plan.AggAvg:
			st.sums[a][gi] += v
		case plan.AggMin:
			if v < st.sums[a][gi] {
				st.sums[a][gi] = v
			}
		case plan.AggMax:
			if v > st.sums[a][gi] {
				st.sums[a][gi] = v
			}
		}
	}
	st.counts[a][gi] += srcCount
}

// groupSink returns the push function that folds batches into st, with its
// hash and group-id vectors checked out of rt's scratch.
func (rt *runtime) groupSink(n *plan.Node, st *groupState) pushFn {
	hs := rt.scratch.hashBuf(rt.batchSize)
	gids := rt.scratch.idxBuf(rt.batchSize)
	return func(b *expr.Batch) { st.update(n, b, hs, gids) }
}

// finalizeGroup materializes the group state as n's breaker output.
func (rt *runtime) finalizeGroup(n *plan.Node, st *groupState) {
	// A global aggregate over empty input still yields one row.
	if len(n.GroupCols) == 0 && st.groups == 0 {
		st.addGroup(n.Aggs)
	}
	out := rt.scratch.mat(n.Schema)
	ng := len(n.GroupCols)
	// Copy the key columns rather than aliasing st.keyCols: both the state
	// and the output buffer are pooled, and aliasing would let a future
	// checkout of one corrupt the other.
	for k := range st.keyCols {
		appendCol(&out.Cols[k], &st.keyCols[k], st.groups)
	}
	for a, agg := range n.Aggs {
		col := &out.Cols[ng+a]
		for g := 0; g < st.groups; g++ {
			writeAgg(col, st, a, agg, int32(g))
		}
	}
	out.N = st.groups
	rt.states[n] = out
	rt.count(n).out = int64(st.groups)
}

func initialAcc(fn plan.AggFn) float64 {
	switch fn {
	case plan.AggMin:
		return math.Inf(1)
	case plan.AggMax:
		return math.Inf(-1)
	default:
		return 0
	}
}

// fold folds every batch row i, in row order, into group gids[i]'s
// accumulator for aggregate a.
func (st *groupState) fold(a int, agg plan.Agg, b *expr.Batch, gids []int32) {
	counts := st.counts[a]
	if agg.Fn == plan.AggCount {
		for _, g := range gids {
			counts[g]++
		}
		return
	}
	c := &b.Cols[agg.Col]
	switch c.Kind {
	case storage.Int64:
		foldNum(agg.Fn, st.sums[a], counts, c.Ints[:len(gids)], gids)
	case storage.Float64:
		foldNum(agg.Fn, st.sums[a], counts, c.Flts[:len(gids)], gids)
	case storage.String:
		mins, maxs := st.strMin[a], st.strMax[a]
		for i, g := range gids {
			s, first := c.Strs[i], counts[g] == 0
			switch agg.Fn {
			case plan.AggMin:
				if first || s < mins[g] {
					mins[g] = s
				}
			case plan.AggMax:
				if first || s > maxs[g] {
					maxs[g] = s
				}
			}
			counts[g]++
		}
	}
}

// foldNum is fold for a numeric column, read as float64.
func foldNum[T int64 | float64](fn plan.AggFn, sums []float64, counts []int64, xs []T, gids []int32) {
	switch fn {
	case plan.AggSum, plan.AggAvg:
		for i, g := range gids {
			sums[g] += float64(xs[i])
		}
	case plan.AggMin:
		for i, g := range gids {
			if v := float64(xs[i]); v < sums[g] {
				sums[g] = v
			}
		}
	case plan.AggMax:
		for i, g := range gids {
			if v := float64(xs[i]); v > sums[g] {
				sums[g] = v
			}
		}
	}
	for _, g := range gids {
		counts[g]++
	}
}

// writeAgg appends group g's final aggregate value for agg a to col.
func writeAgg(col *storage.Column, st *groupState, a int, agg plan.Agg, g int32) {
	switch col.Kind {
	case storage.Int64:
		switch agg.Fn {
		case plan.AggCount:
			col.Ints = append(col.Ints, st.counts[a][g])
		default: // min/max over int columns
			v := st.sums[a][g]
			if math.IsInf(v, 0) {
				v = 0
			}
			col.Ints = append(col.Ints, int64(v))
		}
	case storage.Float64:
		v := st.sums[a][g]
		if agg.Fn == plan.AggAvg {
			if st.counts[a][g] > 0 {
				v /= float64(st.counts[a][g])
			} else {
				v = 0
			}
		}
		if math.IsInf(v, 0) {
			v = 0
		}
		col.Flts = append(col.Flts, v)
	case storage.String:
		switch agg.Fn {
		case plan.AggMin:
			col.Strs = append(col.Strs, st.strMin[a][g])
		case plan.AggMax:
			col.Strs = append(col.Strs, st.strMax[a][g])
		default:
			col.Strs = append(col.Strs, "")
		}
	}
}

// finalizeSort materializes the sort breaker output from its input buffer.
func (rt *runtime) finalizeSort(n *plan.Node, buf *Materialized) {
	perm := sortPerm(buf, n.SortCols, n.SortDesc, rt.scratch.permBuf(buf.N))
	out := rt.applyPerm(buf, perm, n.Schema)
	rt.states[n] = out
	rt.count(n).out = int64(out.N)
}

// finalizeWindow sorts the buffered input by partition+order keys and
// computes the window function into the output's last column.
func (rt *runtime) finalizeWindow(n *plan.Node, buf *Materialized) {
	keys := append(append([]int(nil), n.WinPartition...), n.WinOrder...)
	desc := make([]bool, len(keys))
	perm := sortPerm(buf, keys, desc, rt.scratch.permBuf(buf.N))
	// applyPerm with the full output schema: buf has one column fewer than
	// n.Schema, so the trailing (window function) column comes out shaped
	// and empty, ready to be appended into.
	sorted := rt.applyPerm(buf, perm, n.Schema)

	fnCol := &sorted.Cols[len(sorted.Cols)-1]
	var rowNum int64
	var rank int64
	var runSum float64
	for i := 0; i < sorted.N; i++ {
		newPart := i == 0 || !sameRow(sorted, i, i-1, n.WinPartition)
		if newPart {
			rowNum, rank, runSum = 0, 0, 0
		}
		rowNum++
		if newPart || !sameRow(sorted, i, i-1, n.WinOrder) {
			rank = rowNum
		}
		switch n.WinFunc {
		case plan.WinRowNumber:
			fnCol.Ints = append(fnCol.Ints, rowNum)
		case plan.WinRank:
			fnCol.Ints = append(fnCol.Ints, rank)
		case plan.WinSum:
			c := &sorted.Cols[n.WinArg]
			if c.Kind == storage.Int64 {
				runSum += float64(c.Ints[i])
			} else {
				runSum += c.Flts[i]
			}
			fnCol.Flts = append(fnCol.Flts, runSum)
		}
	}
	rt.states[n] = sorted
	rt.count(n).out = int64(sorted.N)
}

// sameRow reports whether rows a and b agree on the given key columns.
func sameRow(m *Materialized, a, b int, keys []int) bool {
	for _, ci := range keys {
		c := &m.Cols[ci]
		switch c.Kind {
		case storage.Int64:
			if c.Ints[a] != c.Ints[b] {
				return false
			}
		case storage.Float64:
			if c.Flts[a] != c.Flts[b] {
				return false
			}
		case storage.String:
			if c.Strs[a] != c.Strs[b] {
				return false
			}
		}
	}
	return true
}

// sortPerm computes a permutation ordering buf by the key columns into the
// caller-supplied buffer (len buf.N).
func sortPerm(buf *Materialized, keys []int, desc []bool, perm []int32) []int32 {
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(x, y int) bool {
		a, b := int(perm[x]), int(perm[y])
		for k, ci := range keys {
			c := &buf.Cols[ci]
			var cmp int
			switch c.Kind {
			case storage.Int64:
				switch {
				case c.Ints[a] < c.Ints[b]:
					cmp = -1
				case c.Ints[a] > c.Ints[b]:
					cmp = 1
				}
			case storage.Float64:
				switch {
				case c.Flts[a] < c.Flts[b]:
					cmp = -1
				case c.Flts[a] > c.Flts[b]:
					cmp = 1
				}
			case storage.String:
				switch {
				case c.Strs[a] < c.Strs[b]:
					cmp = -1
				case c.Strs[a] > c.Strs[b]:
					cmp = 1
				}
			}
			if cmp != 0 {
				if k < len(desc) && desc[k] {
					return cmp > 0
				}
				return cmp < 0
			}
		}
		return false
	})
	return perm
}

// applyPerm materializes buf reordered by perm into a pooled buffer with the
// given schema. Schema columns beyond buf's width come out empty.
func (rt *runtime) applyPerm(buf *Materialized, perm []int32, schema []plan.ColMeta) *Materialized {
	out := rt.scratch.mat(schema)
	for c := range buf.Cols {
		gatherCol(&out.Cols[c], &buf.Cols[c], perm)
	}
	out.N = len(perm)
	return out
}
