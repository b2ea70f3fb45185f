package predcache

import (
	"container/list"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"t3/internal/obs"
)

// refCache is the oracle the cache is held to: per shard, a container/list
// LRU (front = most recent) and a map into it, bounded at the same number of
// entries, with the same generation rules and nothing about slots.
type refCache struct {
	per    int
	gen    uint64
	shards [numShards]refShard
}

type refShard struct {
	lru list.List // of *refEntry
	idx map[Key]*list.Element
}

type refEntry struct {
	key Key
	val time.Duration
	gen uint64
}

func newRefCache(per int) *refCache {
	r := &refCache{per: per}
	for i := range r.shards {
		r.shards[i].idx = map[Key]*list.Element{}
	}
	return r
}

func (r *refCache) shardOf(k Key) *refShard {
	return &r.shards[(k.Struct^(k.Cards>>17))&(numShards-1)]
}

// get reads k: a hit moves it to the front; an entry of an older generation
// is a miss and is dropped.
func (r *refCache) get(k Key) (time.Duration, bool) {
	s := r.shardOf(k)
	el, ok := s.idx[k]
	if !ok {
		return 0, false
	}
	e := el.Value.(*refEntry)
	if e.gen != r.gen {
		s.lru.Remove(el)
		delete(s.idx, k)
		return 0, false
	}
	s.lru.MoveToFront(el)
	return e.val, true
}

// putGen stores v for k computed under gen and reports whether it evicted.
// A value of a past generation is dropped; a present key is overwritten
// unless it holds a newer generation's answer; a new key in a full shard
// evicts the least recently used entry, current or stale.
func (r *refCache) putGen(gen uint64, k Key, v time.Duration) (evicted bool) {
	if gen != r.gen {
		return false
	}
	s := r.shardOf(k)
	if el, ok := s.idx[k]; ok {
		if e := el.Value.(*refEntry); e.gen <= gen {
			e.val, e.gen = v, gen
			s.lru.MoveToFront(el)
		}
		return false
	}
	if s.lru.Len() == r.per {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.idx, back.Value.(*refEntry).key)
		evicted = true
	}
	s.idx[k] = s.lru.PushFront(&refEntry{key: k, val: v, gen: gen})
	return evicted
}

func (r *refCache) len() int {
	n := 0
	for i := range r.shards {
		for _, el := range r.shards[i].idx {
			if el.Value.(*refEntry).gen == r.gen {
				n++
			}
		}
	}
	return n
}

// Operations of a differential sequence.
const (
	opGet = iota
	opPut
	opPutGen // under a generation at most two behind the current one
	opInvalidate
	numOps
)

// differ runs one operation on the cache and the reference and reports what
// the two disagree on, or "" when they agree on the answer, the evictions
// and Len.
func differ(c *Cache, r *refCache, op int, k Key, v time.Duration, back uint64) string {
	ev0 := obs.ServeCacheEvictions.Value()
	var refEvicted bool
	switch op {
	case opGet:
		gv, gok := c.Get(k)
		rv, rok := r.get(k)
		if gv != rv || gok != rok {
			return fmt.Sprintf("Get answered (%v, %v), reference (%v, %v)", gv, gok, rv, rok)
		}
	case opPut:
		c.Put(k, v)
		refEvicted = r.putGen(r.gen, k, v)
	case opPutGen:
		gen := r.gen - min(back, r.gen)
		c.PutGen(gen, k, v)
		refEvicted = r.putGen(gen, k, v)
	case opInvalidate:
		c.Invalidate()
		r.gen++
	}
	if evicted := obs.ServeCacheEvictions.Value() - ev0; evicted > 1 || (evicted == 1) != refEvicted {
		return fmt.Sprintf("evicted %d, reference evicted %v", evicted, refEvicted)
	}
	if c.Generation() != r.gen {
		return fmt.Sprintf("generation %d, reference %d", c.Generation(), r.gen)
	}
	if got, want := c.Len(), r.len(); got != want {
		return fmt.Sprintf("Len %d, reference %d", got, want)
	}
	return ""
}

// refKey is key number id of a differential run: its low bits pick one of
// mask+1 shards, so a small key space still overfills a shard.
func refKey(id, mask uint64) Key { return Key{Struct: id<<4 | id&mask, Cards: id >> 3} }

// TestMatchesReferenceLRU drives the cache and the reference through the
// same seeded sequences of Get, Put, PutGen and Invalidate at capacities of
// 1 to 64 entries per shard; they must agree on every hit, value, miss,
// eviction and Len.
func TestMatchesReferenceLRU(t *testing.T) {
	for _, per := range []int{1, 2, 3, 5, 8, 13, 31, 64} {
		for seed := range uint64(4) {
			rng := rand.New(rand.NewPCG(seed, uint64(per)))
			mask := []uint64{0, 1, 3, 15}[seed]
			keys := uint64(per*(int(mask)+1)*2 + 1) // twice what fits
			c, r := New(per*numShards), newRefCache(per)
			for step := range 5000 {
				op := opGet
				switch x := rng.IntN(1000); {
				case x < 2:
					op = opInvalidate
				case x < 40:
					op = opPutGen
				case x < 500:
					op = opPut
				}
				k := refKey(rng.Uint64N(keys), mask)
				v := time.Duration(rng.Int64N(1 << 40))
				if msg := differ(c, r, op, k, v, rng.Uint64N(3)); msg != "" {
					t.Fatalf("per=%d seed=%d step %d (op %d on %v): %s", per, seed, step, op, k, msg)
				}
			}
		}
	}
}

// FuzzPredcache holds the cache to the reference LRU over fuzzer-chosen
// sequences. The first byte picks the capacity (1–64 entries per shard) and
// how many shards the keys fall into; then every three bytes are one
// operation, a key number and a value (or, for PutGen, how many
// generations back the value was computed).
func FuzzPredcache(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 2, 1, 0, 1, 0, 0, 1, 2, 3})
	f.Add([]byte{0x41, 1, 5, 9, 1, 6, 9, 0, 5, 0, 3, 0, 0, 0, 5, 0, 2, 5, 1})
	f.Add([]byte{0xff, 1, 1, 1, 1, 2, 2, 1, 3, 3, 0, 1, 0, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		per := 1 + int(data[0]&63)
		mask := []uint64{0, 1, 3, 15}[data[0]>>6]
		c, r := New(per*numShards), newRefCache(per)
		for i := 1; i+2 < len(data); i += 3 {
			op := int(data[i]) % numOps
			k := refKey(uint64(data[i+1]), mask)
			v, back := time.Duration(data[i+2]), uint64(data[i+2]%3)
			if msg := differ(c, r, op, k, v, back); msg != "" {
				t.Fatalf("per=%d mask=%d op %d (%d on %v): %s", per, mask, i/3, op, k, msg)
			}
		}
	})
}
