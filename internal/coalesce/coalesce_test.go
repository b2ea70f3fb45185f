package coalesce

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"t3/internal/engine/plan"
)

// fakeDispatch predicts a value derived from the node's ScanCard, so every
// request can verify it got ITS result back, and records batch sizes.
type fakeDispatch struct {
	mu      sync.Mutex
	batches []int
	calls   atomic.Int64
}

func (f *fakeDispatch) dispatch(roots []*plan.Node, out []time.Duration) {
	f.calls.Add(1)
	f.mu.Lock()
	f.batches = append(f.batches, len(roots))
	f.mu.Unlock()
	for i, r := range roots {
		out[i] = time.Duration(r.ScanCard)
	}
}

func node(v float64) *plan.Node {
	return &plan.Node{Op: plan.TableScanOp, ScanCard: v}
}

func TestSingleRequest(t *testing.T) {
	f := &fakeDispatch{}
	b := New(f.dispatch, 8, 100*time.Microsecond)
	if got := b.Predict(node(42)); got != 42 {
		t.Fatalf("got %v, want 42", got)
	}
	if f.calls.Load() != 1 {
		t.Fatalf("%d dispatches, want 1", f.calls.Load())
	}
}

// TestEveryRequestGetsItsOwnResult drives concurrent clients and checks
// result routing under coalescing (run with -race).
func TestEveryRequestGetsItsOwnResult(t *testing.T) {
	f := &fakeDispatch{}
	b := New(f.dispatch, 16, 200*time.Microsecond)
	const goroutines, perG = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				want := float64(g*perG + i + 1)
				if got := b.Predict(node(want)); got != time.Duration(want) {
					t.Errorf("g%d i%d: got %v, want %v", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	total := 0
	f.mu.Lock()
	for _, n := range f.batches {
		if n < 1 || n > 16 {
			t.Errorf("batch size %d outside [1,16]", n)
		}
		total += n
	}
	f.mu.Unlock()
	if total != goroutines*perG {
		t.Fatalf("dispatched %d requests, want %d", total, goroutines*perG)
	}
}

// TestCoalescingAmortizes checks that concurrent load actually forms
// multi-request batches: far fewer dispatches than requests.
func TestCoalescingAmortizes(t *testing.T) {
	f := &fakeDispatch{}
	// Generous wait so slow CI schedulers still coalesce.
	b := New(f.dispatch, 64, 2*time.Millisecond)
	const goroutines, perG = 32, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b.Predict(node(float64(g + 1)))
			}
		}(g)
	}
	wg.Wait()
	requests := int64(goroutines * perG)
	calls := f.calls.Load()
	if calls >= requests {
		t.Fatalf("no amortization: %d dispatches for %d requests", calls, requests)
	}
	t.Logf("%d requests in %d dispatches (mean batch %.1f)",
		requests, calls, float64(requests)/float64(calls))
}

func TestMaxBatchDetachesEarly(t *testing.T) {
	f := &fakeDispatch{}
	// A wait no request outlives: only the size bound can close a window, so
	// 16 requests leave as exactly four full batches (were the bound
	// ignored, all 16 would sit in one window until the timer fired).
	b := New(f.dispatch, 4, 10*time.Second)
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Predict(node(float64(i + 1)))
		}(i)
	}
	wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.batches) != n/4 {
		t.Fatalf("%d dispatches %v, want %d full batches", len(f.batches), f.batches, n/4)
	}
	for _, sz := range f.batches {
		if sz != 4 {
			t.Fatalf("batch of %d, want maxBatch 4 (%v)", sz, f.batches)
		}
	}
}

func TestDefaults(t *testing.T) {
	b := New(func(_ []*plan.Node, out []time.Duration) {
		for i := range out {
			out[i] = 1
		}
	}, 0, 0)
	if b.maxBatch != 64 || b.maxWait != 20*time.Microsecond {
		t.Fatalf("defaults = (%d, %v)", b.maxBatch, b.maxWait)
	}
	if b.Predict(node(1)) != 1 {
		t.Fatal("default batcher broken")
	}
}

// TestSequentialSteadyStateIsAllocationFree guards the pooled-batch path:
// after warm-up a lone caller's coalesced predict performs no allocations
// in this package.
func TestSequentialSteadyStateIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	f := &fakeDispatch{}
	f.batches = make([]int, 0, 4096)
	b := New(f.dispatch, 8, 10*time.Microsecond)
	n := node(7)
	for i := 0; i < 8; i++ {
		b.Predict(n)
	}
	allocs := testing.AllocsPerRun(200, func() { b.Predict(n) })
	// The fake dispatch itself appends to f.batches (pre-sized above); the
	// batcher must add nothing.
	if allocs > 0 {
		t.Fatalf("steady-state Predict allocates %.2f allocs/op, want 0", allocs)
	}
}
