// Package coalesce batches concurrent single-plan predict requests into
// one batched prediction call.
//
// Nothing serves through it any more. internal/serve batches per connection
// — the frames one read brings in, priced in one model call on the
// connection's own goroutine — because the timer this package waits on took
// 0.4–1 ms to fire a 20 µs window and gathered fewer than two requests
// (bench/README.md, first latency budget). Its one importer is bench/'s
// mirror of the old request path, which a gain-claiming change may not edit;
// the package leaves with the next benchmark change. What follows describes
// it as it was used.
//
// The packed tier predicts a plan in ~µs, but every serving request still
// pays per-call overhead: scratch checkout, pool dispatch, instrumentation.
// Under concurrency those calls arrive together, so the serving tier
// gathers requests that are in flight at the same instant — bounded by a
// maximum batch size and a maximum wait — and dispatches them as ONE
// Model.PredictBatchInto call over pooled scratch. Amortization rises with
// load: an idle server adds at most MaxWait to a lone request, a busy one
// fills batches before the timer fires.
//
// The mechanism is leader-based, like singleflight: the first request to
// find no open batch becomes the leader, opens one, and waits for it to
// fill or time out; followers append themselves and block on the batch's
// completion. Batches, their slices, and their timers are pooled, so the
// steady-state coalesced path performs no allocation in this package.
package coalesce

import (
	"sync"
	"sync/atomic"
	"time"

	"t3/internal/engine/plan"
	"t3/internal/obs"
)

// DispatchFunc evaluates a batch of plans: out[i] receives the predicted
// execution time of roots[i]. The serving tier passes a closure over the
// current model's PredictBatchInto.
type DispatchFunc func(roots []*plan.Node, out []time.Duration)

// Batcher coalesces concurrent Predict calls into batched dispatches. Safe
// for concurrent use.
type Batcher struct {
	dispatch DispatchFunc
	maxBatch int
	maxWait  time.Duration

	mu   sync.Mutex
	cur  *batch
	pool sync.Pool
}

// batch is one coalescing window. It is recycled through the Batcher's
// pool once every participant has read its result.
type batch struct {
	roots []*plan.Node
	outs  []time.Duration
	wg    sync.WaitGroup // released by the leader after dispatch
	refs  atomic.Int32   // participants still to read their result
	// ready (capacity 1) wakes the leader: a filler sends when maxBatch is
	// reached, the timer's AfterFunc sends when maxWait expires. Blocking
	// on a plain channel receive instead of a timer-channel select keeps
	// the leader wait allocation-free.
	ready chan struct{}
	timer *time.Timer
}

// New returns a Batcher dispatching at most maxBatch requests per call and
// holding the first request of a window at most maxWait. maxBatch < 1
// defaults to 64; maxWait <= 0 defaults to 20µs.
func New(dispatch DispatchFunc, maxBatch int, maxWait time.Duration) *Batcher {
	if maxBatch < 1 {
		maxBatch = 64
	}
	if maxWait <= 0 {
		maxWait = 20 * time.Microsecond
	}
	return &Batcher{dispatch: dispatch, maxBatch: maxBatch, maxWait: maxWait}
}

// getBatch returns a reset batch from the pool.
func (b *Batcher) getBatch() *batch {
	bt, ok := b.pool.Get().(*batch)
	if !ok {
		bt = &batch{ready: make(chan struct{}, 1)}
		bt.timer = time.AfterFunc(time.Hour, func() { bt.wake() })
		bt.timer.Stop()
	}
	bt.roots = bt.roots[:0]
	bt.outs = bt.outs[:0]
	select { // drain a stale wake-up from a previous window
	case <-bt.ready:
	default:
	}
	return bt
}

// wake signals the batch's leader, dropping the token if one is already
// pending. A late timer firing into a recycled batch at worst closes the
// next window early — a smaller batch, never a wrong result.
func (bt *batch) wake() {
	select {
	case bt.ready <- struct{}{}:
	default:
	}
}

// Predict coalesces one prediction request. It blocks until the request's
// batch has been dispatched and returns this plan's predicted time.
func (b *Batcher) Predict(root *plan.Node) time.Duration {
	b.mu.Lock()
	bt := b.cur
	leader := bt == nil
	if leader {
		bt = b.getBatch()
		bt.wg.Add(1)
		b.cur = bt
	}
	idx := len(bt.roots)
	bt.roots = append(bt.roots, root)
	bt.outs = append(bt.outs, 0)
	bt.refs.Add(1)
	if len(bt.roots) == b.maxBatch {
		// Window full: detach so the next request opens a fresh one, and
		// wake the leader early.
		b.cur = nil
		bt.wake()
	}
	b.mu.Unlock()

	if leader {
		bt.timer.Reset(b.maxWait)
		<-bt.ready
		bt.timer.Stop()
		b.mu.Lock()
		if b.cur == bt {
			b.cur = nil
		}
		b.mu.Unlock()
		b.dispatch(bt.roots, bt.outs)
		obs.ServeCoalesceBatches.Inc()
		obs.ServeCoalesceBatchSize.Record(uint64(len(bt.roots)))
		bt.wg.Done()
	} else {
		bt.wg.Wait()
	}

	v := bt.outs[idx]
	if bt.refs.Add(-1) == 0 {
		// Last participant out recycles the batch.
		b.pool.Put(bt)
	}
	return v
}
