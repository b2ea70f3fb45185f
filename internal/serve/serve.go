// Package serve is the serving core behind cmd/t3serve: the binary wire
// endpoints (/predict.bin over HTTP and a raw TCP listener), the
// fingerprint-keyed prediction cache, per-connection batching of cache
// misses into one model call, and atomic model hot-swapping.
//
// Each connection has a goroutine that owns a scratch (read buffer,
// plan-decode arena, prediction scratch, response buffer); no timer and no
// hand-over to another goroutine stand between a frame and its answer. After
// each blocking read the connection answers every complete frame the read
// brought in, at most maxBatchFrames, as one batch:
//
//  1. Decode each frame into its own region of the connection's arena
//     (wire.Decoder.DecodeNext — no steady-state allocation).
//  2. Fingerprint each plan (wire.PlanKey) and probe the prediction cache;
//     a hit is answered without touching the model.
//  3. Price all misses of the batch in one model call on the connection's
//     own scratch — Model.PredictBatchScratch, one batch-kernel call over
//     every pipeline of every missed plan, scored in blocks of eight rows
//     that share the tree nodes all eight fail, whose 32-row tasks the
//     connection's goroutine shares with whichever of the model's pool
//     workers are parked (Model.SetWorkers; a busy pool leaves them all to
//     the connection); a lone miss takes Model.PredictPlanScratch, as
//     /predict.bin's single frame does — and insert the results under the
//     cache generation read before the model was loaded.
//  4. Append the responses in request order and write them once.
//
// A client that sends one frame and waits gets exactly that frame's path and
// two socket calls; a client that pipelines gets its batch for free, sized
// by what it sent rather than by a timer. The server never waits on the
// socket while it owes an answer.
//
// The scratch, all but the read buffer, is pooled across connections. A warm
// connection allocates nothing per frame, hit or miss; the only allocations
// left are the cache's inserts while it grows toward its bound (amortized,
// see internal/predcache), which stop once the working set is cached.
//
// Where a hot round trip goes (bench/README.md, serve_rtt_hot on two cores):
// 70 % of it is outside the server — the client's own socket calls, the
// kernel's wake-ups and queueing for a core — 28 % is the server's read and
// write, and wire decode, fingerprint, cache probe and response encoding
// together are 1.5 %. A cache miss adds the model on top: about two thirds of
// what the server spends on one. Fanning a batch's kernel rows over the pool
// answers serve_batch_miss's 32-frame writes a fifth to a quarter sooner on
// two cores, and costs nothing when every core is already busy with a
// connection (EXPERIMENTS.md, "Served-batch fan-out").
//
// Model swaps (SetModel) are an atomic pointer store plus one cache
// generation bump: in-flight requests finish against whichever model they
// loaded, and what they insert afterwards carries the old generation, so no
// request ever observes a cached prediction from a previous model.
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"t3"
	"t3/internal/engine/plan"
	"t3/internal/obs"
	"t3/internal/obs/trace"
	"t3/internal/predcache"
	"t3/internal/wire"
)

// Config tunes the serving core. The zero value enables the cache at its
// default size.
type Config struct {
	// CacheEntries bounds the prediction cache (0 = 65536). Negative
	// disables caching.
	CacheEntries int
}

// DefaultCacheEntries is the default prediction-cache bound. The cache's
// memory grows with the most entries it has ever held, up to the bound, and
// is not given back: a held entry costs about 93 B (its 40 B slot, the rest
// its index), so a full cache takes about 6 MiB, and an empty one about a
// kilobyte.
const DefaultCacheEntries = 1 << 16

const (
	// maxBatchFrames caps how many frames of one read are answered as one
	// batch, and with it the connection's arenas. Its some 180 pipeline rows
	// are twenty-odd of the row kernel's eight-row blocks, so all but the
	// last few rows are scored in full blocks.
	maxBatchFrames = 64
	// readBufSize is the connection's read buffer: frames that fit are
	// decoded in place, larger ones (up to wire.MaxPayload) are copied out.
	readBufSize = 64 << 10
	// maxPooledBody is the largest frame buffer a scratch may take back to
	// the pool when its connection ends.
	maxPooledBody = 64 << 10
)

// Server is the serving core. Safe for concurrent use.
type Server struct {
	model atomic.Pointer[t3.Model]
	cache *predcache.Cache // nil when disabled
	conns sync.Pool        // *connScratch
}

// frame is one request of a batch: its plan in the connection's decode
// arena, and what became of it.
type frame struct {
	root *plan.Node // nil when err is set
	err  error      // the payload is not a plan; poisons only this frame
	mode plan.CardMode
	miss bool // the model has to answer (cache miss, or no cache)
	key  predcache.Key
	ns   int64
	tr   *trace.Trace // non-nil for the sampled few
}

// connScratch is the per-connection reusable state of the binary request
// path: frame buffer, plan-decode arena, the batch being answered, the
// prediction scratch its misses are priced on, and the response buffer.
type connScratch struct {
	hdr    [wire.HeaderSize]byte
	body   []byte
	resp   []byte
	dec    wire.Decoder
	frames []frame // the batch; at most maxBatchFrames
	// gen is the cache generation read before the model that priced the
	// batch's misses was loaded; fill inserts under it.
	gen  uint64
	pred t3.PredictScratch
	// The misses of one card mode, gathered for one model call: their
	// plans, their indices in frames, and the call's output.
	roots []*plan.Node
	slots []int
	durs  [maxBatchFrames]time.Duration
}

// New builds a serving core around the given model.
func New(model *t3.Model, cfg Config) *Server {
	s := &Server{}
	s.model.Store(model)
	if cfg.CacheEntries >= 0 {
		n := cfg.CacheEntries
		if n == 0 {
			n = DefaultCacheEntries
		}
		s.cache = predcache.New(n)
	}
	return s
}

// Model returns the currently served model.
func (s *Server) Model() *t3.Model { return s.model.Load() }

// SetModel atomically swaps the served model and invalidates every cached
// prediction. In-flight requests complete on the model they loaded.
func (s *Server) SetModel(m *t3.Model) {
	s.model.Store(m)
	if s.cache != nil {
		s.cache.Invalidate()
	}
}

// CacheGeneration reports the prediction cache's generation counter, which
// advances on every SetModel (0 when caching is disabled).
func (s *Server) CacheGeneration() uint64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.Generation()
}

// CacheLen reports live cache entries (0 when caching is disabled).
func (s *Server) CacheLen() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.Len()
}

// getConn hands out a pooled connection scratch.
func (s *Server) getConn() *connScratch {
	if c, ok := s.conns.Get().(*connScratch); ok {
		return c
	}
	return &connScratch{}
}

// putConn takes a scratch back when its connection ends — unless one large
// frame grew it toward wire.MaxPayload, which the pool would then hold on to
// for a server full of 200-byte plans.
func (s *Server) putConn(c *connScratch) {
	if cap(c.body) <= maxPooledBody {
		s.conns.Put(c)
	}
}

// reset starts a new batch, invalidating the previous one's plans.
func (c *connScratch) reset() {
	c.dec.Reset()
	c.frames = c.frames[:0]
}

// add decodes one plan payload as the batch's next frame. A sampled subset
// of frames (trace.Default) records a flight-recorder trace of the whole
// path without allocating; the untraced majority pays one atomic add.
func (c *connScratch) add(payload []byte, mode plan.CardMode) {
	f := frame{mode: mode, tr: trace.Default.Begin(trace.KindServeBin, uint8(mode))}
	var t0 time.Time
	if f.tr != nil {
		t0 = f.tr.Start()
	}
	f.root, f.err = c.dec.DecodeNext(payload)
	if f.tr != nil {
		if f.err != nil {
			f.tr.Flags |= trace.FlagError
		} else {
			f.tr.Record(trace.StageWireDecode, t0, uint32(len(payload)))
		}
	}
	c.frames = append(c.frames, f)
}

// serve answers the batch in c.frames: hits from the cache, every miss from
// one model call per card mode.
func (s *Server) serve(c *connScratch) {
	if s.lookup(c) > 0 {
		s.price(c)
		s.fill(c)
	}
	for i := range c.frames {
		f := &c.frames[i]
		if f.tr == nil {
			continue
		}
		if f.err == nil {
			if s.cache == nil {
				f.tr.Fingerprint = trace.KeyFingerprint(wire.PlanKey(f.root, f.mode))
			}
			f.tr.PredictedNs = f.ns
		}
		trace.Default.Publish(f.tr)
	}
}

// lookup fingerprints every decoded frame and answers what the cache holds.
// It returns how many frames are left to the model.
func (s *Server) lookup(c *connScratch) (misses int) {
	for i := range c.frames {
		f := &c.frames[i]
		if f.err != nil {
			continue
		}
		if s.cache != nil {
			var t0 time.Time
			if f.tr != nil {
				t0 = time.Now()
			}
			f.key = predcache.Key(wire.PlanKey(f.root, f.mode))
			d, ok := s.cache.Get(f.key)
			if f.tr != nil {
				f.tr.Record(trace.StageCacheLookup, t0, 0)
				f.tr.Fingerprint = trace.KeyFingerprint(wire.Key(f.key))
			}
			if ok {
				f.ns = d.Nanoseconds()
				if f.tr != nil {
					f.tr.Flags |= trace.FlagCacheHit
				}
				continue
			}
		}
		f.miss = true
		misses++
	}
	return misses
}

// price answers the batch's misses from the model: all of a card mode's in
// one PredictBatchScratch call on the connection's scratch, whose kernel rows
// fan out over the model's pool, a lone one through PredictPlanScratch, whose
// decompose, featurize and tree-eval spans land on the request's own trace.
func (s *Server) price(c *connScratch) {
	// The generation is read before the model: an answer computed on a model
	// that SetModel has since replaced then carries a generation the swap
	// has ended, and predcache drops it (see predcache.PutGen).
	if s.cache != nil {
		c.gen = s.cache.Generation()
	}
	m := s.model.Load()
	for _, mode := range [...]plan.CardMode{plan.TrueCards, plan.EstCards} {
		c.roots, c.slots = c.roots[:0], c.slots[:0]
		for i := range c.frames {
			if f := &c.frames[i]; f.miss && f.mode == mode {
				c.roots = append(c.roots, f.root)
				c.slots = append(c.slots, i)
			}
		}
		n := len(c.roots)
		if n == 0 {
			continue
		}
		obs.ServeCoalesceBatches.Inc()
		obs.ServeCoalesceBatchSize.Record(uint64(n))
		if n == 1 {
			f := &c.frames[c.slots[0]]
			c.pred.AttachTrace(f.tr)
			d, _ := m.PredictPlanScratch(f.root, mode, &c.pred)
			c.pred.AttachTrace(nil)
			f.ns = d.Nanoseconds()
			continue
		}
		t0 := time.Now()
		m.PredictBatchScratch(c.roots, mode, c.durs[:n], &c.pred)
		for j, i := range c.slots {
			f := &c.frames[i]
			f.ns = c.durs[j].Nanoseconds()
			if f.tr != nil {
				f.tr.Record(trace.StageBatchEval, t0, uint32(n))
				f.tr.Flags |= trace.FlagBatched
			}
		}
	}
}

// fill inserts what price computed, under the generation price read.
func (s *Server) fill(c *connScratch) {
	if s.cache == nil {
		return
	}
	for i := range c.frames {
		if f := &c.frames[i]; f.miss {
			s.cache.PutGen(c.gen, f.key, time.Duration(f.ns))
		}
	}
}

// predictPayload serves one plan payload as a batch of one and returns the
// predicted nanoseconds.
func (s *Server) predictPayload(c *connScratch, payload []byte, mode plan.CardMode) (int64, error) {
	c.reset()
	c.add(payload, mode)
	s.serve(c)
	return c.frames[0].ns, c.frames[0].err
}

// PredictBinHandler returns the HTTP handler of POST /predict.bin: the
// request body is one wire request frame, the response body one wire
// response frame.
func (s *Server) PredictBinHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		obs.ServeBinRequests.Inc()
		obs.ServeInflight.Inc()
		defer obs.ServeInflight.Dec()
		if r.Method != http.MethodPost {
			obs.ServeBinErrors.Inc()
			http.Error(w, "POST a wire frame", http.StatusMethodNotAllowed)
			return
		}
		c := s.getConn()
		defer s.putConn(c)
		ns, status, err := s.handleFrame(c, r.Body)
		w.Header().Set("Content-Type", "application/octet-stream")
		c.resp = c.resp[:0]
		if err != nil {
			obs.ServeBinErrors.Inc()
			w.WriteHeader(http.StatusBadRequest)
			c.resp = wire.AppendErrorResponse(c.resp, status, err.Error())
		} else {
			c.resp = wire.AppendResponse(c.resp, ns)
		}
		_, _ = w.Write(c.resp)
		obs.ServeBinLatency.Since(start)
	}
}

// handleFrame reads one request frame from rd and serves it.
func (s *Server) handleFrame(c *connScratch, rd io.Reader) (int64, byte, error) {
	if _, err := io.ReadFull(rd, c.hdr[:]); err != nil {
		return 0, wire.StatusBadRequest, fmt.Errorf("reading frame header: %w", err)
	}
	mode, n, err := wire.ParseHeader(c.hdr[:])
	if err != nil {
		return 0, wire.StatusBadRequest, err
	}
	if err := c.readBody(rd, n); err != nil {
		return 0, wire.StatusBadRequest, fmt.Errorf("reading frame payload: %w", err)
	}
	ns, err := s.predictPayload(c, c.body, mode)
	if err != nil {
		return 0, wire.StatusBadRequest, err
	}
	return ns, wire.StatusOK, nil
}

// readBody fills c.body with the next n bytes of rd.
func (c *connScratch) readBody(rd io.Reader, n int) error {
	if cap(c.body) < n {
		c.body = make([]byte, n)
	}
	c.body = c.body[:n]
	_, err := io.ReadFull(rd, c.body)
	return err
}

// ServeTCP accepts connections on l and speaks the framed wire protocol on
// each: any number of request frames per connection, one response frame
// per request, in order. It returns when the listener is closed.
func (s *Server) ServeTCP(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveConn(conn)
	}
}

// serveConn runs one connection's request loop over pooled scratch. Each
// turn blocks for one frame, takes along every further frame that read
// already completed, answers them as one batch and writes the answers
// before it blocks again.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	c := s.getConn()
	defer s.putConn(c)
	rd := bufio.NewReaderSize(conn, readBufSize)
	for {
		c.reset()
		var start time.Time
		var badHeader error
		for len(c.frames) < maxBatchFrames {
			// Only the batch's first frame may wait for the socket; the
			// rest must be complete in the buffer, so nothing decoded ever
			// sits unanswered behind a read.
			first := len(c.frames) == 0
			if !first && rd.Buffered() < wire.HeaderSize {
				break
			}
			hdr, err := rd.Peek(wire.HeaderSize)
			if err != nil {
				return // EOF or torn connection: drop it
			}
			if first {
				start = time.Now()
			}
			mode, n, err := wire.ParseHeader(hdr)
			if err != nil {
				badHeader = err
				break
			}
			if !first && rd.Buffered() < wire.HeaderSize+n {
				break
			}
			if err := c.take(rd, mode, n); err != nil {
				return
			}
		}

		n := len(c.frames)
		obs.ServeBinRequests.Add(uint64(n))
		obs.ServeInflight.Add(float64(n))
		s.serve(c)
		c.resp = c.resp[:0]
		for i := range c.frames {
			if f := &c.frames[i]; f.err != nil {
				// A malformed plan poisons only its own request; the frame
				// boundary is intact, so the connection survives.
				obs.ServeBinErrors.Inc()
				c.resp = wire.AppendErrorResponse(c.resp, wire.StatusBadRequest, f.err.Error())
			} else {
				c.resp = wire.AppendResponse(c.resp, f.ns)
			}
		}
		if badHeader != nil {
			// Framing is broken: answer everything before it, then this
			// once, and hang up.
			obs.ServeBinRequests.Inc()
			obs.ServeBinErrors.Inc()
			c.resp = wire.AppendErrorResponse(c.resp, wire.StatusBadRequest, badHeader.Error())
		}
		_, err := conn.Write(c.resp)
		obs.ServeInflight.Add(float64(-n))
		if err != nil || badHeader != nil {
			return
		}
		d := time.Since(start)
		for range n {
			obs.ServeBinLatency.Observe(d)
		}
	}
}

// take decodes the frame at the front of rd, whose header announced n
// payload bytes, as the batch's next frame and consumes it. It blocks until
// the frame is complete.
func (c *connScratch) take(rd *bufio.Reader, mode plan.CardMode, n int) error {
	if size := wire.HeaderSize + n; size <= rd.Size() {
		b, err := rd.Peek(size)
		if err != nil {
			return err
		}
		c.add(b[wire.HeaderSize:], mode) // decoding copies; nothing aliases b
		_, err = rd.Discard(size)
		return err
	}
	// Larger than the read buffer: copy the payload out.
	if _, err := rd.Discard(wire.HeaderSize); err != nil {
		return err
	}
	if err := c.readBody(rd, n); err != nil {
		return err
	}
	c.add(c.body, mode)
	return nil
}
