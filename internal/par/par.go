// Package par provides the shared worker-pool abstraction behind batched
// prediction, label collection and morsel-driven query execution.
//
// A Pool owns workers-1 long-lived goroutines parked on an unbuffered
// channel. Work is pulled: every participant in a Job — the calling goroutine
// and each pool worker that accepts it — takes the next index from the job's
// atomic cursor until none is left. The caller offers the job to the workers
// that are parked at that moment, never waits for a busy one, and pulls
// whatever the others have not taken, so a slow-to-wake worker costs at most
// the index it is running, nested jobs cannot deadlock, a one-worker pool
// stays allocation- and synchronization-free, and a nil *Pool acts as a
// serial executor. Job.Do is the one dispatch loop; Do, DoState and For wrap
// it, and a caller that keeps its own Job and Task dispatches without
// allocating.
//
// Determinism: Do and For guarantee nothing about execution order, but chunk
// *boundaries* in For depend only on (n, chunk) — never on the worker count.
// Any computation whose tasks write disjoint, index-keyed output slots
// therefore produces bit-for-bit identical results for every worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size worker pool for fork-join parallelism.
type Pool struct {
	workers int
	tasks   chan *Job
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
		p.tasks = make(chan *Job)
		// workers-1 goroutines; the Do caller is the final worker.
		for i := 1; i < workers; i++ {
			go func() {
				for j := range p.tasks {
					j.help()
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

// Task is the body of a Job: Run(w, i) runs index i as participant w.
type Task interface {
	Run(w, i int)
}

// taskFunc adapts a function to Task.
type taskFunc func(w, i int)

func (f taskFunc) Run(w, i int) { f(w, i) }

// Job is one fork-join dispatch as its participants share it: the index
// cursor they pull from and the pool workers that joined it. A Job is
// caller-owned and reusable, one Do at a time: a hot path that keeps one in
// its scratch, with a Task that lives there too, dispatches without
// allocating. Pool.Do, DoState and For each run a Job of their own.
type Job struct {
	t       Task
	n       int
	next    atomic.Int64 // next index to hand out
	helpers atomic.Int32 // participant ids handed to pool workers so far
	wg      sync.WaitGroup
}

// pull runs t.Run(w, i) for every index i it takes from the cursor, until
// the cursor passes n.
func (j *Job) pull(w int) {
	for i := int(j.next.Add(1) - 1); i < j.n; i = int(j.next.Add(1) - 1) {
		j.t.Run(w, i)
	}
}

// help is a pool worker's part in a job it accepted: pull under the next
// participant id, then report done.
func (j *Job) help() {
	j.pull(int(j.helpers.Add(1)))
	j.wg.Done()
}

// Do runs t.Run(w, i) for every i in [0, n) over p and returns once all
// have completed. w < min(p.Workers(), n) identifies the participant
// running the call — 0 for the caller, 1, 2, … for the pool workers that
// joined — so a participant runs its calls one after another under one w.
// On a nil or single-worker pool, or for n == 1, every call runs inline on
// the caller as participant 0. Execution order is unspecified.
func (j *Job) Do(p *Pool, n int, t Task) {
	if !p.fans(n) {
		for i := 0; i < n; i++ {
			t.Run(0, i)
		}
		return
	}
	j.t, j.n = t, n
	j.next.Store(0)
	j.helpers.Store(0)
	// Offer the job to every parked worker, one send each. A failed send
	// means none is parked now: the caller does not wait for a busy worker
	// (it may be running the caller's own parent job) but pulls the rest
	// itself, which keeps nested use deadlock-free.
offer:
	for h := 1; h < min(p.workers, n); h++ {
		j.wg.Add(1)
		select {
		case p.tasks <- j:
		default:
			j.wg.Done()
			break offer
		}
	}
	j.pull(0)
	j.wg.Wait()
	j.t = nil
}

// fans reports whether n calls are spread over p's workers rather than run
// inline on the caller.
func (p *Pool) fans(n int) bool { return p != nil && p.tasks != nil && n > 1 }

// Do runs fn(0) … fn(n-1), distributing calls across the pool, and returns
// once all have completed. On a nil or single-worker pool every call runs
// inline on the caller, allocation-free. Tasks must not depend on execution
// order.
func (p *Pool) Do(n int, fn func(i int)) {
	if !p.fans(n) {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	new(Job).Do(p, n, taskFunc(func(_, i int) { fn(i) }))
}

// DoState runs fn(state, 0) … fn(state, n-1) across the pool like Do, but
// hands every participant one of min(Workers, n) states created up front by
// newState, which it keeps for all the calls it runs. A state is owned
// exclusively by one participant, so fn may mutate it freely; states are
// never shared concurrently. On a nil or single-worker pool one state serves
// every call inline. Like Do, execution order is unspecified — determinism
// must come from tasks writing disjoint, index-keyed output slots.
func DoState[S any](p *Pool, n int, newState func() S, fn func(st S, i int)) {
	if n <= 0 {
		return
	}
	states := make([]S, min(p.Workers(), n))
	for w := range states {
		states[w] = newState()
	}
	new(Job).Do(p, n, taskFunc(func(w, i int) { fn(states[w], i) }))
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
