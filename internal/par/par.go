// Package par provides the shared worker-pool abstraction behind parallel
// GBDT training and batched prediction.
//
// A Pool owns workers-1 long-lived goroutines pulling tasks from an
// unbuffered channel; the goroutine calling Do participates as the remaining
// worker by running tasks inline whenever no pool worker is immediately
// available. This caller-runs design keeps a one-worker pool entirely
// allocation- and synchronization-free on the dispatch path, makes nested Do
// calls deadlock-free, and lets a nil *Pool act as a serial executor.
//
// Determinism: Do and For guarantee nothing about execution order, but chunk
// *boundaries* in For and MapReduce depend only on (n, chunk) — never on the
// worker count — and MapReduce folds partial results in ascending chunk
// order on the calling goroutine. Any computation whose tasks write disjoint
// output slots, or that reduces exclusively through MapReduce with a fixed
// chunk size, therefore produces bit-for-bit identical results for every
// worker count. The gbdt trainer relies on exactly this contract.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size worker pool for fork-join parallelism.
type Pool struct {
	workers int
	tasks   chan func()
	close   sync.Once
	// persistent marks the process-wide cached pools of Sized, whose
	// goroutines must outlive any single caller; Close is a no-op on them.
	persistent bool
}

// New creates a pool with the given number of workers (0 means GOMAXPROCS).
// Pools with more than one worker hold goroutines until Close is called.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan func())
		// workers-1 goroutines; the Do caller is the final worker.
		for i := 1; i < workers; i++ {
			go func() {
				for task := range p.tasks {
					task()
				}
			}()
		}
	}
	return p
}

// sizedPools maps a requested worker count to its cached pool. The map is
// immutable once published: Sized reads it with one atomic load and no lock,
// and a miss republishes a copy under sizedMu.
var (
	sizedMu    sync.Mutex
	sizedPools atomic.Pointer[map[int]*Pool]
)

// Sized returns the process-wide cached pool with exactly the given worker
// count; 0 means the current GOMAXPROCS, read at every call, so
// Sized(n).Workers() == n for every n > 0 whatever GOMAXPROCS is or was.
// Unlike New, repeated calls with the same count reuse one long-lived pool,
// so hot paths that honour a per-call worker override never pay goroutine
// construction or teardown. Cached pools are never closed; Close on them is a
// no-op.
func Sized(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if m := sizedPools.Load(); m != nil {
		if p, ok := (*m)[workers]; ok {
			return p
		}
	}
	sizedMu.Lock()
	defer sizedMu.Unlock()
	old := sizedPools.Load()
	if old != nil {
		if p, ok := (*old)[workers]; ok {
			return p
		}
	}
	p := New(workers)
	p.persistent = true
	m := map[int]*Pool{workers: p}
	if old != nil {
		for k, v := range *old {
			m[k] = v
		}
	}
	sizedPools.Store(&m)
	return p
}

// Workers returns the pool's worker count. A nil pool reports one worker.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close releases the pool's goroutines. The pool must not be used afterwards.
// Closing a nil, single-worker, or process-wide cached pool is a no-op; Close
// is idempotent.
func (p *Pool) Close() {
	if p == nil || p.tasks == nil || p.persistent {
		return
	}
	p.close.Do(func() { close(p.tasks) })
}

// Do runs fn(0) … fn(n-1), distributing calls across the pool, and returns
// once all have completed. On a nil or single-worker pool every call runs
// inline on the caller. Tasks must not depend on execution order.
func (p *Pool) Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.tasks == nil || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		task := func() {
			defer wg.Done()
			fn(i)
		}
		// Hand the task to a parked worker if one is ready; otherwise the
		// caller runs it, so the pool can never deadlock on nested use.
		select {
		case p.tasks <- task:
		default:
			task()
		}
	}
	wg.Wait()
}

// DoState runs fn(state, 0) … fn(state, n-1) across the pool like Do, but
// hands every concurrent task one of min(Workers, n) per-worker states
// created up front by newState. A state is owned exclusively by one task at a
// time, so fn may mutate it freely; states are recycled between tasks, never
// shared concurrently. On a nil or single-worker pool one state serves every
// call inline. Like Do, execution order is unspecified — determinism must
// come from tasks writing disjoint, index-keyed output slots.
func DoState[S any](p *Pool, n int, newState func() S, fn func(st S, i int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if p == nil || p.tasks == nil || w <= 1 || n == 1 {
		st := newState()
		for i := 0; i < n; i++ {
			fn(st, i)
		}
		return
	}
	states := make(chan S, w)
	for i := 0; i < w; i++ {
		states <- newState()
	}
	// Do bounds concurrency by the pool's worker count >= w states, so a
	// task never blocks on the channel longer than one in-flight peer.
	p.Do(n, func(i int) {
		st := <-states
		defer func() { states <- st }()
		fn(st, i)
	})
}

// For splits [0, n) into chunks of the given size and runs body(lo, hi) for
// every chunk in parallel. Chunk boundaries depend only on n and chunk, so a
// body writing output slots keyed by index produces identical results for
// any worker count.
func (p *Pool) For(n, chunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	nc := (n + chunk - 1) / chunk
	p.Do(nc, func(c int) {
		lo := c * chunk
		hi := min(lo+chunk, n)
		body(lo, hi)
	})
}

// MapReduce splits [0, n) into fixed-size chunks, evaluates mapFn on every
// chunk in parallel, and folds the partial results in ascending chunk order
// on the calling goroutine. Because both the chunking and the fold order are
// independent of the worker count, non-associative reductions (floating-point
// sums in particular) are bit-for-bit deterministic.
func MapReduce[T any](p *Pool, n, chunk int, mapFn func(lo, hi int) T, fold func(acc, x T) T, zero T) T {
	if n <= 0 {
		return zero
	}
	if chunk < 1 {
		chunk = 1
	}
	nc := (n + chunk - 1) / chunk
	parts := make([]T, nc)
	p.Do(nc, func(c int) {
		lo := c * chunk
		hi := min(lo+chunk, n)
		parts[c] = mapFn(lo, hi)
	})
	acc := zero
	for _, x := range parts {
		acc = fold(acc, x)
	}
	return acc
}
