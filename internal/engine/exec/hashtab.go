package exec

import (
	"t3/internal/engine/plan"
)

// hashTab is the purpose-built open-addressing hash table behind hash joins
// and hash aggregation, replacing the previous map[uint64][]int32 states.
// It mirrors the layout tricks of purpose-built engine tables (the
// non-linearities T3 must learn from measured executions):
//
//   - power-of-two capacity with linear probing, so a probe is a masked
//     index plus a short forward scan — no modulo, no bucket pointers;
//   - each 16-byte slot stores the full 64-bit hash and an inline
//     first-entry reference, so the common no-duplicate case touches a
//     single cache line per lookup;
//   - duplicate entries (same hash) chain through a side "next" arena
//     indexed by entry id, appended in insertion order so probe output
//     order matches the previous map-based implementation;
//   - tables are presized from the plan's cardinality annotations
//     (true cardinalities after an analyze run, estimates otherwise), so
//     steady-state builds never rehash.
//
// Like the map it replaces, the table is keyed purely by hash: callers
// verify key equality on the chained entries, so hash collisions cost time,
// never correctness.
type hashTab struct {
	slots []htSlot
	next  []int32 // chain arena: next[entry] = next entry with equal hash
	mask  uint64
	used  int    // occupied slots (distinct hashes)
	ar    *arena // every array comes from it and goes back to it
}

// htSlot is one 16-byte table slot. head < 0 marks an empty slot.
type htSlot struct {
	hash       uint64
	head, tail int32
}

const htMinCap = 16

// nextPow2 returns the smallest power of two >= n (and >= htMinCap).
func nextPow2(n int) int {
	c := htMinCap
	for c < n {
		c <<= 1
	}
	return c
}

// reset prepares the table for a build expecting `expected` entries: its
// arrays go back to the arena, and it draws a slot array and a chain arena
// that fit.
func (t *hashTab) reset(expected int) {
	// Size for a load factor <= 1/2 at the expected entry count; inserts
	// still grow on demand if the annotation undershoots.
	capacity := nextPow2(2 * expected)
	a := t.ar
	a.mu.Lock()
	a.slots.put(t.slots)
	a.chains.put(t.next)
	t.slots = a.slots.get(capacity)[:capacity]
	t.next = a.chains.get(expected)
	a.mu.Unlock()
	for i := range t.slots {
		t.slots[i].head = -1
	}
	t.mask = uint64(capacity) - 1
	t.used = 0
}

// insert adds the next sequential entry id (len of the chain arena) under
// hash h and returns it. Entries with equal hash chain in insertion order.
func (t *hashTab) insert(h uint64) int32 {
	e := int32(len(t.next))
	t.next = append(room(t.ar, &t.ar.chains, t.next, 1), -1)
	if 4*t.used >= 3*len(t.slots) {
		t.grow()
	}
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.head < 0 {
			s.hash, s.head, s.tail = h, e, e
			t.used++
			return e
		}
		if s.hash == h {
			t.next[s.tail] = e
			s.tail = e
			return e
		}
		i = (i + 1) & t.mask
	}
}

// lookup returns the first entry id inserted under hash h, or -1. Further
// equal-hash entries follow via next[].
func (t *hashTab) lookup(h uint64) int32 {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.head < 0 {
			return -1
		}
		if s.hash == h {
			return s.head
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the slot array and repositions slots; chains are untouched
// because they live in the entry-indexed arena.
func (t *hashTab) grow() {
	old, a := t.slots, t.ar
	a.mu.Lock()
	t.slots = a.slots.get(2 * len(old))[:2*len(old)]
	a.mu.Unlock()
	for i := range t.slots {
		t.slots[i].head = -1
	}
	t.mask = uint64(len(t.slots)) - 1
	for _, s := range old {
		if s.head < 0 {
			continue
		}
		i := s.hash & t.mask
		for t.slots[i].head >= 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
	a.mu.Lock()
	a.slots.put(old)
	a.mu.Unlock()
}

// maxPresize caps annotation-driven hash-table presizing so a wild
// overestimate cannot balloon the initial allocation.
const maxPresize = 1 << 22

// expectedCard reads a cardinality annotation for presizing: the measured
// (true) value when an analyze run filled it, the estimate otherwise.
// Annotations are untrusted inputs (estimators produce garbage, deserialized
// plans carry arbitrary values): negative, zero, and NaN values all read as
// 0, and the result is capped at maxPresize. The !(v > 0) comparisons are
// deliberate — v <= 0 is false for NaN, which would then flow into int(v),
// an implementation-defined conversion.
func expectedCard(c plan.Card) int {
	v := c.True
	if !(v > 0) {
		v = c.Est
	}
	switch {
	case !(v > 0):
		return 0
	case v > maxPresize:
		return maxPresize
	default:
		return int(v)
	}
}

// inputBound returns an upper bound on the number of tuples n can emit,
// derived from base-table sizes rather than annotations. Build stages clamp
// annotation-driven presizing with it, so a hostile annotation (say 1e18 on
// a 3-row input) cannot allocate maxPresize slots for a tiny build.
func inputBound(n *plan.Node) int {
	if n == nil {
		return 0
	}
	switch n.Op {
	case plan.TableScanOp:
		if n.Table == nil {
			// Unbound scans (deserialized plans) carry no size information;
			// fall back to the global cap rather than guessing small.
			return maxPresize
		}
		return n.Table.NumRows()
	case plan.HashJoinOp:
		l, r := inputBound(n.Left), inputBound(n.Right)
		p := int64(l) * int64(r)
		if l != 0 && p/int64(l) != int64(r) || p > maxPresize {
			return maxPresize
		}
		return int(p)
	case plan.LimitOp:
		b := inputBound(n.Left)
		if n.LimitN < 0 {
			return 0
		}
		if n.LimitN < b {
			return n.LimitN
		}
		return b
	default:
		// Filter, map, group-by, sort, window, materialize never emit more
		// tuples than their input carries.
		return inputBound(n.Left)
	}
}

// presize combines an annotation with the annotation-independent input
// bound: the annotation is trusted only up to what the input can possibly
// produce.
func presize(c plan.Card, input *plan.Node) int {
	e := expectedCard(c)
	if b := inputBound(input); b < e {
		return b
	}
	return e
}
