// Package predcache is the serving tier's prediction cache: a sharded,
// bounded LRU mapping plan fingerprints (see internal/wire.Key) to
// predicted execution times.
//
// Predictions are pure functions of (plan structure, cardinality
// annotations, card mode), so repeated plans — the common case for
// parameterized workloads, plan enumeration, and scheduler re-admission —
// can skip decode-adjacent featurization and tree evaluation entirely.
//
// Design constraints, in order:
//
//   - The hit path must be allocation-free and short: one shard lock, one
//     map probe, one intrusive-list splice. Entries live in a slot arena per
//     shard; the LRU list is index-linked, so recency updates and evictions
//     never touch the allocator.
//   - Memory grows with the most entries ever held, up to the bound, and is
//     never given back: a shard's arena and index start empty and grow on
//     insert, the arena by doubling, clipped at the shard's bound; neither
//     shrinks after Invalidate or when the working set does. A cold insert
//     below the bound may allocate, amortized, until the working set is
//     cached; an empty cache of any bound costs about a kilobyte.
//   - Model swaps must invalidate atomically without blocking readers on a
//     global lock: a generation counter is bumped once; entries stamped
//     with an older generation read as misses and are reclaimed lazily.
//     An entry carries the generation its value was computed under
//     (PutGen), not the one current when it arrives, so a prediction that
//     lost a race with the swap is never served.
//   - Sharding (by the key's own hash bits) keeps lock hold times short
//     under concurrent serving.
//
// Hit/miss/eviction/invalidation counts are recorded into internal/obs
// (t3_serve_cache_*), so /metrics proves cache effectiveness in production.
package predcache

import (
	"sync"
	"sync/atomic"
	"time"

	"t3/internal/obs"
)

// Key identifies a cached prediction: a structural plan fingerprint plus a
// cardinality-annotation hash with the card mode folded in. It is
// layout-compatible with (and produced from) internal/wire.Key.
type Key struct {
	Struct uint64
	Cards  uint64
}

// numShards is the shard count (power of two). 16 shards keep lock
// contention negligible at serving concurrencies well past typical core
// counts.
const numShards = 16

// none is the nil index of the intrusive LRU list.
const none = int32(-1)

// entry is one cache slot. Slots are arena-allocated per shard and linked
// into an LRU list by index, so hits and evictions never allocate.
type entry struct {
	key        Key
	val        int64 // predicted nanoseconds
	gen        uint64
	prev, next int32
}

type shard struct {
	mu    sync.Mutex
	idx   map[Key]int32
	ents  []entry // slots in use or freed; grows up to bound
	bound int     // the shard's capacity in entries
	head  int32   // most recently used
	tail  int32   // least recently used
	free  int32   // freed-slot list, linked through next
}

// Cache is a sharded, bounded, generation-invalidated LRU. The zero value
// is not usable; construct with New.
type Cache struct {
	shards [numShards]shard
	gen    atomic.Uint64
}

// New returns a cache holding up to capacity entries (rounded down to a
// multiple of the shard count; minimum one entry per shard). It allocates no
// slots: those come with the entries.
func New(capacity int) *Cache {
	per := capacity / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{}
	for i := range c.shards {
		s := &c.shards[i]
		s.idx = make(map[Key]int32)
		s.bound = per
		s.head, s.tail, s.free = none, none, none
	}
	return c
}

// shardOf picks the shard from the key's own hash bits. Struct and Cards
// are already FNV-1a digests; mixing them spreads single-plan workloads
// with varying annotations across shards.
func (c *Cache) shardOf(k Key) *shard {
	return &c.shards[(k.Struct^(k.Cards>>17))&(numShards-1)]
}

// Get returns the cached prediction for k, bumping its recency. A stale
// entry (written before the last Invalidate) reads as a miss and frees its
// slot.
func (c *Cache) Get(k Key) (time.Duration, bool) {
	gen := c.gen.Load()
	s := c.shardOf(k)
	s.mu.Lock()
	i, ok := s.idx[k]
	if !ok {
		s.mu.Unlock()
		obs.ServeCacheMisses.Inc()
		return 0, false
	}
	e := &s.ents[i]
	if e.gen != gen {
		// Invalidated by a model swap: reclaim lazily.
		s.unlink(i)
		delete(s.idx, k)
		e.next = s.free
		s.free = i
		s.mu.Unlock()
		obs.ServeCacheMisses.Inc()
		return 0, false
	}
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
	v := e.val
	s.mu.Unlock()
	obs.ServeCacheHits.Inc()
	return time.Duration(v), true
}

// Put stores a prediction for k under the current generation. It is for
// callers whose value cannot predate an Invalidate; one that computes the
// value from a model another goroutine may swap must use PutGen.
func (c *Cache) Put(k Key, v time.Duration) { c.PutGen(c.gen.Load(), k, v) }

// PutGen stores a prediction for k that was computed under generation gen,
// evicting the shard's least recently used entry when full. The caller reads
// Generation before it loads the model it predicts with, so a value from a
// model that has since been swapped out carries the generation the swap
// ended: PutGen drops it, and one that slips in beside a concurrent
// Invalidate is stamped with the old generation and reads as a miss. Either
// way no entry of the current generation ever holds an older model's answer.
func (c *Cache) PutGen(gen uint64, k Key, v time.Duration) {
	if gen != c.gen.Load() {
		return
	}
	s := c.shardOf(k)
	s.mu.Lock()
	if i, ok := s.idx[k]; ok {
		e := &s.ents[i]
		if e.gen <= gen { // never replace a newer model's answer
			e.val = int64(v)
			e.gen = gen
			if s.head != i {
				s.unlink(i)
				s.pushFront(i)
			}
		}
		s.mu.Unlock()
		return
	}
	// A freed slot first (LIFO), then a never-used one, then the LRU tail's.
	i := s.free
	switch {
	case i != none:
		s.free = s.ents[i].next
	case len(s.ents) < s.bound:
		i = s.grow()
	default:
		// Full: evict the LRU tail and reuse its slot.
		i = s.tail
		s.unlink(i)
		delete(s.idx, s.ents[i].key)
		obs.ServeCacheEvictions.Inc()
	}
	e := &s.ents[i]
	e.key, e.val, e.gen = k, int64(v), gen
	s.pushFront(i)
	s.idx[k] = i
	s.mu.Unlock()
}

// Invalidate atomically discards every cached prediction: one generation
// bump, no locks taken, concurrent readers immediately miss on all prior
// entries. Serving calls this when the model is swapped.
func (c *Cache) Invalidate() {
	c.gen.Add(1)
	obs.ServeCacheInvalidations.Inc()
}

// Generation returns the current cache generation. It advances by exactly
// one per Invalidate, so observers (the control plane's e2e checks) can
// assert that a model swap really flushed the cache.
func (c *Cache) Generation() uint64 { return c.gen.Load() }

// Len returns the number of live (current-generation) entries, for tests
// and debugging; it takes every shard lock.
func (c *Cache) Len() int {
	gen := c.gen.Load()
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, idx := range s.idx {
			if s.ents[idx].gen == gen {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// minSlots is the arena a shard allocates on its first insert.
const minSlots = 8

// grow appends a never-used slot to the arena and returns its index. When
// the arena is full it doubles, clipped at the bound, so a shard never holds
// more slots than it may fill. Callers ensure len(s.ents) < s.bound.
func (s *shard) grow() int32 {
	n := len(s.ents)
	if n == cap(s.ents) {
		ents := make([]entry, n, min(max(2*n, minSlots), s.bound))
		copy(ents, s.ents)
		s.ents = ents
	}
	s.ents = s.ents[:n+1]
	return int32(n)
}

// unlink removes slot i from the shard's LRU list.
func (s *shard) unlink(i int32) {
	e := &s.ents[i]
	if e.prev != none {
		s.ents[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next != none {
		s.ents[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// pushFront links slot i as the most recently used.
func (s *shard) pushFront(i int32) {
	e := &s.ents[i]
	e.prev, e.next = none, s.head
	if s.head != none {
		s.ents[s.head].prev = i
	}
	s.head = i
	if s.tail == none {
		s.tail = i
	}
}
