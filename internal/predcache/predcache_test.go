package predcache

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/wire"
	"t3/internal/workload"
)

func key(a, b uint64) Key { return Key{Struct: a, Cards: b} }

func TestGetPutRoundtrip(t *testing.T) {
	c := New(64)
	if _, ok := c.Get(key(1, 2)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(key(1, 2), 42*time.Microsecond)
	v, ok := c.Get(key(1, 2))
	if !ok || v != 42*time.Microsecond {
		t.Fatalf("got (%v, %v), want (42µs, true)", v, ok)
	}
	// Overwrite updates in place.
	c.Put(key(1, 2), 7*time.Microsecond)
	if v, _ := c.Get(key(1, 2)); v != 7*time.Microsecond {
		t.Fatalf("overwrite kept %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestPutGenNeverServesAcrossInvalidate is the miss path losing its race
// with a model swap, step by step: the generation is captured, the swap
// invalidates, and the old model's answer arrives afterwards. It must read
// as a miss, and must not displace an answer the new model already stored.
func TestPutGenNeverServesAcrossInvalidate(t *testing.T) {
	c := New(64)
	k := key(3, 4)

	gen := c.Generation() // the miss path reads this before it loads the model
	c.Invalidate()        // SetModel
	c.PutGen(gen, k, 11*time.Microsecond)
	if v, ok := c.Get(k); ok {
		t.Fatalf("an answer computed before the swap is served after it: %v", v)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after a stale put, want 0", c.Len())
	}

	c.PutGen(c.Generation(), k, 22*time.Microsecond) // the new model's answer
	c.PutGen(gen, k, 11*time.Microsecond)            // the straggler again
	if v, ok := c.Get(k); !ok || v != 22*time.Microsecond {
		t.Fatalf("got (%v, %v), want the new model's (22µs, true)", v, ok)
	}

	// A put that passed the generation check just before the bump is stamped
	// with the generation it was computed under, not the one it arrives in.
	c.shardOf(k).ents[c.shardOf(k).idx[k]].gen = gen
	if _, ok := c.Get(k); ok {
		t.Fatal("an entry of an older generation read as a hit")
	}
}

// TestPlanFingerprintKeys exercises the cache with real plan fingerprints:
// the same plan hits, and plans differing only in cardinality annotations
// do not collide.
func TestPlanFingerprintKeys(t *testing.T) {
	in := workload.MustGenerate(workload.TPCHSpec("tpch_pc", 0.01, 3))
	root := workload.TPCHBenchmarkQueries(in)[2].Root
	if err := exec.AnnotateTrueCards(root); err != nil {
		t.Fatal(err)
	}

	c := New(128)
	k1 := Key(wire.PlanKey(root, plan.TrueCards))
	c.Put(k1, 100*time.Microsecond)
	if _, ok := c.Get(Key(wire.PlanKey(root, plan.TrueCards))); !ok {
		t.Fatal("identical plan fingerprint missed")
	}

	// Same structure, different cardinality annotation: distinct entry.
	root.OutCard.True *= 3
	k2 := Key(wire.PlanKey(root, plan.TrueCards))
	if k2 == k1 {
		t.Fatal("cardinality change produced an identical key")
	}
	if _, ok := c.Get(k2); ok {
		t.Fatal("different annotations hit the old entry")
	}
	c.Put(k2, 300*time.Microsecond)
	v1, _ := c.Get(k1)
	v2, _ := c.Get(k2)
	if v1 != 100*time.Microsecond || v2 != 300*time.Microsecond {
		t.Fatalf("colliding values: %v, %v", v1, v2)
	}

	// Distinct card modes are distinct entries too.
	k3 := Key(wire.PlanKey(root, plan.EstCards))
	if k3 == k2 {
		t.Fatal("card mode not part of the key")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(numShards) // one slot per shard
	perShard := 1
	// Fill one specific shard beyond capacity and check the oldest leaves.
	var keys []Key
	target := c.shardOf(key(0, 0))
	for i := uint64(0); len(keys) < perShard+2; i++ {
		k := key(i, i*31)
		if c.shardOf(k) == target {
			keys = append(keys, k)
		}
	}
	c.Put(keys[0], 1)
	c.Put(keys[1], 2) // evicts keys[0]
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if v, ok := c.Get(keys[1]); !ok || v != 2 {
		t.Fatal("most recent entry lost")
	}
	// Recency: touch keys[1], insert keys[2]; keys[1] must survive if there
	// were two slots — with one slot it is evicted; just assert the new
	// entry is present and the cache stays consistent.
	c.Put(keys[2], 3)
	if v, ok := c.Get(keys[2]); !ok || v != 3 {
		t.Fatal("newest entry lost after eviction")
	}
}

func TestRecencyOrder(t *testing.T) {
	c := New(numShards * 2) // two slots per shard
	target := c.shardOf(key(0, 0))
	var keys []Key
	for i := uint64(0); len(keys) < 3; i++ {
		k := key(i, i*31)
		if c.shardOf(k) == target {
			keys = append(keys, k)
		}
	}
	c.Put(keys[0], 1)
	c.Put(keys[1], 2)
	c.Get(keys[0])    // keys[0] now MRU; keys[1] is LRU
	c.Put(keys[2], 3) // evicts keys[1]
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently used entry evicted")
	}
}

func TestInvalidateDropsEverything(t *testing.T) {
	c := New(256)
	for i := uint64(0); i < 100; i++ {
		c.Put(key(i, i), time.Duration(i))
	}
	c.Invalidate()
	if n := c.Len(); n != 0 {
		t.Fatalf("%d live entries after Invalidate", n)
	}
	for i := uint64(0); i < 100; i++ {
		if _, ok := c.Get(key(i, i)); ok {
			t.Fatalf("stale entry %d served after Invalidate", i)
		}
	}
	// New generation entries work.
	c.Put(key(7, 7), 70)
	if v, ok := c.Get(key(7, 7)); !ok || v != 70 {
		t.Fatal("cache dead after Invalidate")
	}
}

// TestCacheHitPathIsAllocationFree is the serving-tier zero-alloc guard:
// a steady-state hit (lookup + recency bump) must not allocate.
func TestCacheHitPathIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	c := New(1024)
	k1, k2 := key(1, 2), key(3, 4)
	c.Put(k1, 10)
	c.Put(k2, 20)
	allocs := testing.AllocsPerRun(1000, func() {
		// Alternate so the recency splice actually runs.
		c.Get(k1)
		c.Get(k2)
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestSteadyStateChurnIsNearlyAllocationFree guards the miss/evict/put
// cycle at capacity: slot and map storage are reused, not reallocated.
func TestSteadyStateChurnIsNearlyAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	c := New(64)
	// Saturate.
	for i := uint64(0); i < 1024; i++ {
		c.Put(key(i, i^0xbeef), time.Duration(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k := key(77, 88)
		c.Get(k)
		c.Put(k, 5)
	})
	if allocs > 0.5 {
		t.Fatalf("churn allocates %.2f allocs/op, want ~0", allocs)
	}
}

// fillAndChurn puts 2^18 distinct keys, filling the cache and then evicting
// through it, as a serving core under a key space larger than its bound does.
func fillAndChurn(c *Cache) {
	for i := uint64(0); i < 1<<18; i++ {
		c.Put(key(i, i*0x9e3779b97f4a7c15), time.Duration(i))
	}
}

// heapGrowth returns how much live heap build adds; what build returns is
// kept alive until after the count.
func heapGrowth(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// presized gives every shard of a new cache the layout a cache that
// preallocates has at boot: an index presized to the shard's bound and a
// slot arena of the bound's capacity.
func presized(c *Cache) *Cache {
	for i := range c.shards {
		s := &c.shards[i]
		s.idx = make(map[Key]int32, s.bound)
		s.ents = make([]entry, 0, s.bound)
	}
	return c
}

// TestEmptyCacheHoldsNoSlots: a cache of the serving default's bound
// (serve.DefaultCacheEntries, 65 536) costs almost nothing until it holds
// something.
func TestEmptyCacheHoldsNoSlots(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under -race")
	}
	if b := heapGrowth(func() any { return New(1 << 16) }); b > 64<<10 {
		t.Fatalf("an empty 65536-entry cache holds %d B of heap, want <= 64 KiB", b)
	}
}

// TestFullCacheFootprint: once filled and churned, a cache that grew on
// demand holds at most 5 % more heap than one that preallocated its bound,
// so growing never overshoots the bound by much. 10 000 entries are 625 a
// shard, which doubling from 8 slots passes.
func TestFullCacheFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under -race")
	}
	for _, n := range []int{1 << 13, 10000, 1 << 16} {
		grown := heapGrowth(func() any { c := New(n); fillAndChurn(c); return c })
		pre := heapGrowth(func() any { c := presized(New(n)); fillAndChurn(c); return c })
		if float64(grown) > 1.05*float64(pre) {
			t.Errorf("%d entries: grown cache holds %d B, preallocated %d B (> 1.05x)", n, grown, pre)
		}
		t.Logf("%d entries: grown %d B, preallocated %d B", n, grown, pre)
	}
}

// TestFillAndChurnAllocations pins how many allocations building an
// 8192-entry cache and filling and churning it takes: slot arenas doubling
// to their bound and index maps growing with them. It must not rise. The
// pin, 465, was measured with go1.24.0's maps; a toolchain bump can move it
// with no change here, so measure it again then. A map's hash seed is
// random, and once in about 1500 runs churn leaves one map enough
// tombstones to grow once more (+5), so the test takes the fewest
// allocations of eight single runs, each on a new cache.
func TestFillAndChurnAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	const pinned = 465
	fewest := math.Inf(1)
	for range 8 {
		fewest = min(fewest, testing.AllocsPerRun(1, func() { fillAndChurn(New(1 << 13)) }))
	}
	if fewest > pinned {
		t.Fatalf("filling and churning an 8192-entry cache made %.0f allocations, want <= %d", fewest, pinned)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(512)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); i < 5000; i++ {
				k := key(i%300, g<<32|i%97)
				if v, ok := c.Get(k); ok && v < 0 {
					t.Error("negative cached value")
					return
				}
				c.Put(k, time.Duration(i))
				if i%1000 == 0 && g == 0 {
					c.Invalidate()
				}
			}
		}(uint64(g))
	}
	wg.Wait()
}
