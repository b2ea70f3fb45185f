package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hangGuard is how long a test waits for a Do call that should finish in
// microseconds before it reports a deadlock. It is no timing assertion.
const hangGuard = 30 * time.Second

// finishes runs f on a new goroutine and fails the test if f has not
// returned within hangGuard.
func finishes(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(hangGuard):
		t.Fatalf("%s did not return: deadlock", what)
	}
}

// holdWorker parks a job on one of p's workers that blocks until the
// returned release is called, so the worker is busy when the test calls Do.
// release waits until the worker has let go of the job.
func holdWorker(p *Pool) (release func()) {
	hold := make(chan struct{})
	j := &Job{n: 1, t: taskFunc(func(_, _ int) { <-hold })}
	j.wg.Add(1)
	p.tasks <- j // blocks until a worker takes it
	return func() {
		close(hold)
		j.wg.Wait()
	}
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 3, 17, 1000} {
			counts := make([]int32, n)
			p.Do(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
		p.Close()
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers = %d, want 1", p.Workers())
	}
	sum := 0
	p.Do(5, func(i int) { sum += i })
	if sum != 10 {
		t.Fatalf("nil pool Do sum = %d, want 10", sum)
	}
	p.Close() // must not panic
}

func TestForCoversRangeExactly(t *testing.T) {
	p := New(4)
	defer p.Close()
	for _, n := range []int{0, 1, 5, 100, 101} {
		for _, chunk := range []int{0, 1, 7, 100, 1000} {
			seen := make([]int32, n)
			p.For(n, chunk, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("empty chunk [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d chunk=%d: index %d covered %d times", n, chunk, i, c)
				}
			}
		}
	}
}

func TestNestedDo(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total int64
	p.Do(8, func(i int) {
		p.Do(8, func(j int) { atomic.AddInt64(&total, 1) })
	})
	if total != 64 {
		t.Fatalf("nested Do ran %d tasks, want 64", total)
	}
}

// TestDoWithBusyHelper: while another caller holds the pool's only helper,
// Do neither waits for it nor loses an index — the caller pulls them all.
func TestDoWithBusyHelper(t *testing.T) {
	p := New(2)
	defer p.Close()
	release := holdWorker(p)
	for _, n := range []int{1, 2, 3, 64} {
		counts := make([]int32, n)
		finishes(t, fmt.Sprintf("Do(%d) beside a busy helper", n), func() {
			p.Do(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
	var states atomic.Int32
	finishes(t, "DoState beside a busy helper", func() {
		DoState(p, 10, func() int { return int(states.Add(1)) }, func(int, int) {})
	})
	if states.Load() != 2 {
		t.Fatalf("DoState created %d states, want 2", states.Load())
	}
	release()
	// The helper is free again and the pool still works.
	var total atomic.Int64
	finishes(t, "Do after release", func() {
		p.Do(100, func(int) { total.Add(1) })
	})
	if total.Load() != 100 {
		t.Fatalf("Do after release ran %d tasks, want 100", total.Load())
	}
}

// TestDoNestedAndConcurrentCallers: callers on many goroutines share one
// pool, each task calls Do again on the same pool, and one of the pool's
// workers is held busy throughout. Every index of every call runs exactly
// once and nothing deadlocks.
func TestDoNestedAndConcurrentCallers(t *testing.T) {
	const callers, outer, inner = 8, 20, 7
	p := New(3)
	defer p.Close()
	release := holdWorker(p)
	defer release()
	counts := make([]int32, callers*outer*inner)
	finishes(t, "nested Do from concurrent callers", func() {
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Do(outer, func(o int) {
					p.Do(inner, func(i int) {
						atomic.AddInt32(&counts[(c*outer+o)*inner+i], 1)
					})
				})
			}()
		}
		wg.Wait()
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestSizedWorkersMatchRequest pins the contract hot paths branch on:
// Sized(n) has exactly n workers for every n > 0, whatever GOMAXPROCS is now
// or was when a pool of another size was first built (testing.AllocsPerRun
// pins GOMAXPROCS to 1 around its body), and Sized(0) tracks the current
// GOMAXPROCS.
func TestSizedWorkersMatchRequest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4} {
		runtime.GOMAXPROCS(procs)
		for n := 1; n <= 9; n++ {
			if got := Sized(n).Workers(); got != n {
				t.Fatalf("GOMAXPROCS=%d: Sized(%d) has %d workers", procs, n, got)
			}
		}
		if got := Sized(0).Workers(); got != procs {
			t.Fatalf("GOMAXPROCS=%d: Sized(0) has %d workers", procs, got)
		}
	}
}

func TestSizedPoolsAreCached(t *testing.T) {
	if Sized(0) != Sized(runtime.GOMAXPROCS(0)) {
		t.Fatal("Sized(0) should be the GOMAXPROCS-sized pool")
	}
	p1, p2 := Sized(3), Sized(3)
	if p1 != p2 {
		t.Fatal("Sized(3) returned different pools across calls")
	}
	if p1.Workers() != 3 {
		t.Fatalf("Sized(3) has %d workers", p1.Workers())
	}
	// Cached pools survive Close: a no-op so one caller cannot tear the
	// pool down under another.
	p1.Close()
	var total int64
	p1.Do(16, func(i int) { atomic.AddInt64(&total, 1) })
	if total != 16 {
		t.Fatalf("pool ran %d tasks after Close, want 16", total)
	}
}

func TestSizedConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	pools := make([]*Pool, 16)
	for i := range pools {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pools[i] = Sized(5)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(pools); i++ {
		if pools[i] != pools[0] {
			t.Fatal("concurrent Sized(5) returned different pools")
		}
	}
}

func TestDoStateEveryIndexOnceOwnedState(t *testing.T) {
	type state struct {
		id    int
		inUse atomic.Bool
	}
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 3, 17, 200} {
			var created atomic.Int32
			counts := make([]int32, n)
			DoState(p, n,
				func() *state { return &state{id: int(created.Add(1))} },
				func(st *state, i int) {
					if !st.inUse.CompareAndSwap(false, true) {
						t.Error("state used by two tasks concurrently")
					}
					atomic.AddInt32(&counts[i], 1)
					st.inUse.Store(false)
				})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
			if n > 0 {
				want := int32(min(workers, n))
				if got := created.Load(); got != want {
					t.Fatalf("workers=%d n=%d: created %d states, want %d", workers, n, got, want)
				}
			}
		}
		p.Close()
	}
}

func TestDoStateNilPool(t *testing.T) {
	var p *Pool
	var states int
	sum := 0
	DoState(p, 5, func() int { states++; return 100 }, func(st, i int) { sum += st + i })
	if states != 1 || sum != 510 {
		t.Fatalf("nil pool DoState: states=%d sum=%d", states, sum)
	}
}

// countTask counts how often each index runs.
type countTask struct{ counts []int32 }

func (c *countTask) Run(_, i int) { atomic.AddInt32(&c.counts[i], 1) }

// TestJobReuseRunsEveryIndexOnce: one caller-owned Job, dispatched 10 000
// times at several sizes, runs every index of every dispatch exactly once —
// no participant of one dispatch leaks into the next.
func TestJobReuseRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{2, 4} {
		p := New(workers)
		var j Job
		task := &countTask{counts: make([]int32, 67)}
		for r := range 10000 {
			n := 1 + r%len(task.counts)
			clear(task.counts)
			j.Do(p, n, task)
			for i, c := range task.counts {
				if want := int32(min(1, max(0, n-i))); c != want {
					t.Fatalf("workers=%d reuse %d n=%d: index %d ran %d times, want %d", workers, r, n, i, c, want)
				}
			}
		}
		p.Close()
	}
}

// nestedTask starts a Job of its own from inside every task of an outer one.
type nestedTask struct {
	p     *Pool
	inner []Job
	count *countTask
	per   int
}

func (n *nestedTask) Run(_, i int) {
	n.inner[i].Do(n.p, n.per, &countTask{counts: n.count.counts[i*n.per : (i+1)*n.per]})
}

// TestJobNestedInPoolTask: a Job started from inside a pool task — while the
// pool's workers are busy with the outer job — completes, every index once.
func TestJobNestedInPoolTask(t *testing.T) {
	for _, workers := range []int{2, 4} {
		p := New(workers)
		const outer, per = 16, 9
		nt := &nestedTask{p: p, inner: make([]Job, outer), count: &countTask{counts: make([]int32, outer*per)}, per: per}
		finishes(t, fmt.Sprintf("a job nested in a %d-worker pool task", workers), func() {
			var j Job
			j.Do(p, outer, nt)
		})
		for i, c := range nt.count.counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		p.Close()
	}
}

// TestJobDoZeroAlloc: dispatching a warm Job over a pool whose workers join
// it allocates nothing. testing.AllocsPerRun pins GOMAXPROCS to 1, but New(n)
// has n-1 parked workers whatever GOMAXPROCS is, so the fanned path runs.
func TestJobDoZeroAlloc(t *testing.T) {
	for _, workers := range []int{2, 4} {
		p := New(workers)
		var j Job
		task := &countTask{counts: make([]int32, 64)}
		j.Do(p, len(task.counts), task)
		if allocs := testing.AllocsPerRun(200, func() { j.Do(p, len(task.counts), task) }); allocs != 0 {
			t.Errorf("workers=%d: a warm Job allocates %.1f objects per dispatch, want 0", workers, allocs)
		}
		p.Close()
	}
}
