package exec

import (
	"math/bits"
	"sync"

	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// arena is the buffer arena of an execution: typed free lists of the backing
// arrays that columns, hash vectors and hash tables are built in. A Reuse
// executor keeps one, shared by its run scratch and every partition scratch;
// a pooled scratch has its own.
//
// A checkout draws each array it needs from its type's list: the free array
// with the smallest capacity that holds the rows the plan says it will hold
// (its best fit), or a new one of exactly that capacity when none does, in
// place of a free array too small for it. An array that fills up grows the
// same way, to at least twice its capacity, and its old array goes back to
// the list. Every array returns when its holder is released: a pipeline's
// stage buffers when it ends, a morsel block's partial as soon as it is
// merged, the run's states when the next run begins. So the arena retains
// about one query's worth of arrays by type and size, rather than each
// checkout position's high-water mark in each column kind it ever had.
//
// Partition scratches draw and release from pool workers at the same time,
// so every operation on the lists holds mu.
type arena struct {
	mu     sync.Mutex
	ints   freeList[int64]
	flts   freeList[float64]
	strs   freeList[string]
	hashes freeList[uint64]
	slots  freeList[htSlot]
	chains freeList[int32]
}

// freeList holds free arrays of one type by capacity class: class k holds
// the arrays whose capacity has bit length k, in no particular order.
type freeList[T any] [bits.UintSize + 1][][]T

// get removes and returns, emptied, the free array of least capacity that
// holds n elements. When none does, it allocates one and drops a free array
// of the largest capacity class below n, if any: the list keeps about as
// many arrays as a run holds at once, and they grow with the requests.
// n <= 0 draws nothing.
func (l *freeList[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	for k := bits.Len(uint(n)); k < len(l); k++ {
		if i := smallest(l[k], n); i >= 0 {
			return l.remove(k, i)[:0]
		}
	}
	for k := bits.Len(uint(n)); k >= 0; k-- {
		if len(l[k]) > 0 {
			l.remove(k, len(l[k])-1)
			break
		}
	}
	return make([]T, 0, n)
}

// remove takes array i out of class k and returns it.
func (l *freeList[T]) remove(k, i int) []T {
	c := l[k]
	s := c[i]
	c[i] = c[len(c)-1]
	c[len(c)-1] = nil
	l[k] = c[:len(c)-1]
	return s
}

// smallest returns the index of the array of least capacity that holds n
// elements in c, or -1. Most draws are for the batch size, so it stops at
// the first exact fit.
func smallest[T any](c [][]T, n int) int {
	best := -1
	for i, f := range c {
		if cap(f) == n {
			return i
		}
		if cap(f) > n && (best < 0 || cap(f) < cap(c[best])) {
			best = i
		}
	}
	return best
}

// put adds s to the list; an array without capacity is dropped.
func (l *freeList[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	k := bits.Len(uint(cap(s)))
	l[k] = append(l[k], s[:0])
}

// bytes is the capacity of every free array, in bytes of element size w.
func (l *freeList[T]) bytes(w int) int {
	b := 0
	for _, c := range l {
		for _, f := range c {
			b += cap(f) * w
		}
	}
	return b
}

// room returns s with capacity for n more elements. When s lacks it, its
// elements move to the best-fit array of l for at least twice its capacity,
// and its old array goes back to l.
func room[T any](a *arena, l *freeList[T], s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return regrow(a, l, s, n)
}

// regrow is room's slow path.
func regrow[T any](a *arena, l *freeList[T], s []T, n int) []T {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := append(l.get(max(len(s)+n, 2*cap(s))), s...)
	l.put(s)
	return t
}

// drawCols gives every column of cols an empty array of its kind with room
// for n rows. The columns hold no arrays on entry.
func (a *arena) drawCols(cols []storage.Column, n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range cols {
		c := &cols[i]
		switch c.Kind {
		case storage.Int64:
			c.Ints = a.ints.get(n)
		case storage.Float64:
			c.Flts = a.flts.get(n)
		case storage.String:
			c.Strs = a.strs.get(n)
		}
	}
}

// shapeMat empties m and shapes it to the schema, each column with room for
// rows rows, growing through a. m's columns hold no arrays on entry.
func (a *arena) shapeMat(m *Materialized, schema []plan.ColMeta, rows int) {
	m.Cols = shapeCols(m.Cols, len(schema))
	for i := range m.Cols {
		m.Cols[i].Name, m.Cols[i].Kind = schema[i].Name, schema[i].Kind
	}
	m.N = 0
	m.ar = a
	a.drawCols(m.Cols, rows)
}

// returnCols is putCols for a caller that does not hold mu.
func (a *arena) returnCols(cols []storage.Column) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.putCols(cols)
}

// putCols returns the arrays of cols and leaves the columns holding none.
// Null flags are not kept. The caller holds mu.
func (a *arena) putCols(cols []storage.Column) {
	for i := range cols {
		c := &cols[i]
		a.ints.put(c.Ints)
		a.flts.put(c.Flts)
		a.strs.put(c.Strs)
		c.Ints, c.Flts, c.Strs, c.Nulls = nil, nil, nil, nil
	}
}

// putVecs returns every array of vs to l and leaves vs holding none. The
// caller holds mu.
func putVecs[T any](l *freeList[T], vs [][]T) {
	for i, v := range vs {
		l.put(v)
		vs[i] = nil
	}
}

// appendCol bulk-appends the first n rows of src to dst (same kind), growing
// dst through a; a nil arena grows it with append.
func (a *arena) appendCol(dst, src *storage.Column, n int) {
	switch dst.Kind {
	case storage.Int64:
		if a != nil {
			dst.Ints = room(a, &a.ints, dst.Ints, n)
		}
		dst.Ints = append(dst.Ints, src.Ints[:n]...)
	case storage.Float64:
		if a != nil {
			dst.Flts = room(a, &a.flts, dst.Flts, n)
		}
		dst.Flts = append(dst.Flts, src.Flts[:n]...)
	case storage.String:
		if a != nil {
			dst.Strs = room(a, &a.strs, dst.Strs, n)
		}
		dst.Strs = append(dst.Strs, src.Strs[:n]...)
	}
}

// appendVal appends the value at row i of src to dst, growing dst through a:
// one value, such as a newly discovered group's key.
func (a *arena) appendVal(dst, src *storage.Column, i int) {
	switch src.Kind {
	case storage.Int64:
		dst.Ints = append(room(a, &a.ints, dst.Ints, 1), src.Ints[i])
	case storage.Float64:
		dst.Flts = append(room(a, &a.flts, dst.Flts, 1), src.Flts[i])
	case storage.String:
		dst.Strs = append(room(a, &a.strs, dst.Strs, 1), src.Strs[i])
	}
}

// freeBytes is the capacity of every free array of the arena, in bytes.
func (a *arena) freeBytes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ints.bytes(8) + a.flts.bytes(8) + a.strs.bytes(16) +
		a.hashes.bytes(8) + a.slots.bytes(16) + a.chains.bytes(4)
}
