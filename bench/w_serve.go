package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"time"

	"t3"
	"t3/internal/coalesce"
	"t3/internal/engine/plan"
	"t3/internal/predcache"
	"t3/internal/serve"
	"t3/internal/wire"
)

// serveKind is what tells the two serve workloads apart. Both talk to a real
// t3serve over raw TCP with one connection per caller.
type serveKind struct {
	name string
	// keys is how many distinct cache keys the callers cycle through.
	keys int
	// batch is how many frames a caller writes before it reads the answers.
	batch int
	// cache is the server's -cache flag; 0 leaves its default (65536).
	cache int
}

var (
	// serveHot is an optimizer in the loop: one frame, wait, next frame, over
	// so few plans that the cache answers all of them.
	serveHot = serveKind{name: "serve_rtt_hot", keys: 64, batch: 1}
	// serveMiss is a scheduler scoring its queue: 32 frames per write, over
	// four times more keys than the cache holds. A caller's keys come round
	// again only after more distinct keys than an LRU of 8192 entries can
	// keep, so every lookup misses and every insert evicts.
	serveMiss = serveKind{name: "serve_batch_miss", keys: 32768, batch: 32, cache: 8192}
)

// numConns is the number of closed-loop callers of a serve workload. The
// load comes from this one process; more callers than cores would measure
// the callers queueing for a CPU.
func numConns() int { return min(runtime.NumCPU(), 4) }

// serveMirror pushes a request frame through the layers t3serve's request
// path is made of — wire.Decoder.Decode, wire.PlanKey, predcache.Get, on a
// miss coalesce.Batcher.Predict around the model and predcache.Put, then
// wire.AppendResponse — in this process, with a span around each. It is one
// caller's: its cache and coalescer are not shared, so spans never cross
// goroutines.
type serveMirror struct {
	dec     wire.Decoder
	cache   *predcache.Cache
	batcher *coalesce.Batcher
	model   predictMirror
	resp    []byte
	tr      *tracer // where the coalescer's dispatch records its spans
}

func newServeMirror(m *t3.Model, cacheEntries int) *serveMirror {
	sm := &serveMirror{cache: predcache.New(cacheEntries), model: predictMirror{m: m}}
	sm.batcher = coalesce.New(func(roots []*plan.Node, out []time.Duration) {
		sm.tr.begin("t3.Model.PredictBatchInto")
		for i, root := range roots {
			out[i] = sm.model.predict(root, sm.tr)
		}
		sm.tr.end()
	}, 0, 0)
	return sm
}

func (sm *serveMirror) serve(frame []byte, tr *tracer) (int64, error) {
	sm.tr = tr
	tr.begin("wire.Decoder.Decode")
	root, err := sm.dec.Decode(frame[wire.HeaderSize:])
	tr.end()
	if err != nil {
		return 0, err
	}
	tr.begin("wire.PlanKey")
	key := predcache.Key(wire.PlanKey(root, plan.TrueCards))
	tr.end()
	tr.begin("predcache.Cache.Get")
	d, hit := sm.cache.Get(key)
	if hit {
		tr.endAs("predcache.Cache.Get.hit")
	} else {
		tr.endAs("predcache.Cache.Get.miss")
		tr.begin("coalesce.Batcher.Predict")
		d = sm.batcher.Predict(root)
		tr.end()
		tr.begin("predcache.Cache.Put")
		sm.cache.Put(key, d)
		tr.end()
	}
	tr.begin("wire.AppendResponse")
	sm.resp = wire.AppendResponse(sm.resp[:0], d.Nanoseconds())
	tr.end()
	return wire.ParseResponse(sm.resp)
}

// serveCaller is one connection and its buffers.
type serveCaller struct {
	conn   net.Conn
	rd     *bufio.Reader
	out    []byte
	resp   [wire.HeaderSize + 8]byte
	starts []int // frame indices of the batch in flight
	mirror *serveMirror
}

type serveInst struct {
	kind    serveKind
	m       *t3.Model
	plans   []*plan.Node
	fs      *frameSet
	srv     *serverProc
	callers []*serveCaller
}

func setupServe(ctx *setupCtx, kind serveKind) (instance, error) {
	m, err := t3.Load(ctx.modelPath())
	if err != nil {
		return nil, err
	}
	all, err := buildPlans(ctx.seed)
	if err != nil {
		return nil, err
	}
	s := &serveInst{kind: kind, m: m, plans: all}
	base := all
	if kind.keys < len(all) {
		base = strided(all, kind.keys)
	}
	// The reference is the model file's own answer, computed in this process
	// from the plan object — not from the frame, so a fault in the wire
	// encoding cannot hide in both sides.
	var refNs int64
	s.fs, err = buildFrames(base, kind.keys, ctx.seed, func(root *plan.Node) int64 {
		t := time.Now()
		d, _ := m.PredictPlan(root, plan.TrueCards)
		refNs += int64(time.Since(t))
		return d.Nanoseconds()
	})
	ctx.refNs += refNs
	if err != nil {
		return nil, err
	}
	cacheEntries := serve.DefaultCacheEntries
	if kind.cache > 0 {
		cacheEntries = kind.cache
	}
	for range numConns() {
		s.callers = append(s.callers, &serveCaller{mirror: newServeMirror(m, cacheEntries), starts: make([]int, kind.batch)})
	}
	if !ctx.withServer {
		return s, nil
	}
	var flags []string
	if kind.cache > 0 {
		flags = []string{"-cache", strconv.Itoa(kind.cache)}
	}
	if s.srv, err = startServer(ctx.serveBin, ctx.modelPath(), flags...); err != nil {
		return nil, err
	}
	for _, c := range s.callers {
		if c.conn, err = net.Dial("tcp", s.srv.tcpAddr); err != nil {
			s.close()
			return nil, fmt.Errorf("connecting to t3serve: %w", err)
		}
		c.rd = bufio.NewReaderSize(c.conn, 4096)
	}
	return s, nil
}

func (s *serveInst) conns() int          { return len(s.callers) }
func (s *serveInst) server() *serverProc { return s.srv }

func (s *serveInst) traceSteps() int { return max(2048/s.kind.batch, 64) }

func (s *serveInst) corrupt() {
	for i := range s.fs.want {
		s.fs.want[i]++
	}
}

func (s *serveInst) close() float64 {
	for _, c := range s.callers {
		if c.conn != nil {
			c.conn.Close()
		}
	}
	if s.srv == nil {
		return 0
	}
	s.srv.client.CloseIdleConnections()
	return s.srv.stop()
}

// frameIndex is the k-th frame of caller c's step i. Each caller cycles its
// own share of the keys, so how far one caller runs ahead of another cannot
// turn a miss into a hit.
func (s *serveInst) frameIndex(c, i, k int) int {
	share := s.kind.keys / len(s.callers)
	return c*share + (i*s.kind.batch+k)%share
}

// exchange writes one batch and reads its answers, recording each op when
// its answer has been parsed. It returns when the write began and when the
// last answer was in.
func (s *serveInst) exchange(c, i int, rec *recorder) (t0, t1 time.Time, err error) {
	cl := s.callers[c]
	cl.out = cl.out[:0]
	for k := range cl.starts {
		cl.starts[k] = s.frameIndex(c, i, k)
		cl.out = append(cl.out, s.fs.frames[cl.starts[k]]...)
	}
	t0 = time.Now()
	if _, err = cl.conn.Write(cl.out); err != nil {
		return t0, t0, err
	}
	for _, idx := range cl.starts {
		if _, err = io.ReadFull(cl.rd, cl.resp[:]); err != nil {
			return t0, t0, err
		}
		got, perr := wire.ParseResponse(cl.resp[:])
		t1 = time.Now()
		rec.doneAt(t0, t1, perr == nil && got == s.fs.want[idx])
	}
	return t0, t1, nil
}

func (s *serveInst) step(c, i int, rec *recorder) {
	if _, _, err := s.exchange(c, i, rec); err != nil {
		// A torn connection fails this op and every later one: nothing is
		// retried, so failed_share shows it.
		rec.attempted++
		rec.failed++
		time.Sleep(time.Millisecond)
	}
}

func (s *serveInst) traced(c, i int, tr *tracer, rec *recorder) {
	cl := s.callers[c]
	tr.nextOp(i * s.kind.batch)
	t0, t1, err := s.exchange(c, i, rec)
	if err != nil {
		rec.attempted++
		rec.failed++
		return
	}
	root := "client.round_trip"
	if s.kind.batch > 1 {
		root = "client.batch_round_trip"
	}
	tr.add(-1, root, int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)))
	for k, idx := range cl.starts {
		tr.nextOp(i*s.kind.batch + k)
		tr.begin("mirror")
		got, err := cl.mirror.serve(s.fs.frames[idx], tr)
		tr.end()
		if err != nil || got != s.fs.want[idx] {
			rec.attempted++
			rec.failed++
		}
	}
}

func (s *serveInst) layers(out map[string]float64) error {
	const passes = 20
	var buf []byte
	var bytes int
	t := time.Now()
	for range passes {
		for _, root := range s.plans {
			buf = wire.AppendFrame(buf[:0], root, plan.TrueCards)
			bytes += len(buf)
		}
	}
	n := float64(passes * len(s.plans))
	out["wire.encode_ns"] = float64(time.Since(t)) / n
	out["wire.frame_bytes_mean"] = float64(bytes) / n

	// Hit path: every plan, twice round a cache that holds them all.
	frames, err := buildFrames(s.plans, len(s.plans), 1, func(*plan.Node) int64 { return 0 })
	if err != nil {
		return err
	}
	tr := newTracer(time.Now(), passes*len(frames.frames)*8)
	hot := newServeMirror(s.m, serve.DefaultCacheEntries)
	for range passes {
		for _, f := range frames.frames {
			if _, err := hot.serve(f, tr); err != nil {
				return err
			}
		}
	}
	// Miss path: eight times more keys than the cache holds.
	const missCache = 512
	if frames, err = buildFrames(s.plans, 8*missCache, 2, func(*plan.Node) int64 { return 0 }); err != nil {
		return err
	}
	cold := newServeMirror(s.m, missCache)
	for _, f := range frames.frames[:missCache] {
		if _, err := cold.serve(f, newTracer(time.Now(), 16)); err != nil {
			return err
		}
	}
	mtr := newTracer(time.Now(), len(frames.frames)*16)
	for _, f := range frames.frames[missCache:] {
		if _, err := cold.serve(f, mtr); err != nil {
			return err
		}
	}
	h, m := summariseSpans(tr.spans).Layers, summariseSpans(mtr.spans).Layers
	if h["predcache.Cache.Get.hit"].Count == 0 || m["predcache.Cache.Get.hit"].Count > 0 {
		return fmt.Errorf("layer probe: %d hits on the hit path, %d on the miss path",
			h["predcache.Cache.Get.hit"].Count, m["predcache.Cache.Get.hit"].Count)
	}
	out["wire.decode_ns"] = h["wire.Decoder.Decode"].MeanNs
	out["wire.plankey_ns"] = h["wire.PlanKey"].MeanNs
	out["wire.response_ns"] = h["wire.AppendResponse"].MeanNs
	out["predcache.get_hit_ns"] = h["predcache.Cache.Get.hit"].MeanNs
	out["predcache.get_miss_ns"] = m["predcache.Cache.Get.miss"].MeanNs
	out["predcache.put_evict_ns"] = m["predcache.Cache.Put"].MeanNs
	solo := m["coalesce.Batcher.Predict"]
	out["coalesce.predict_solo_ns"] = solo.MeanNs
	// The share of a lone coalesced prediction that is not the prediction:
	// the wait for company that never comes, and the hand-over.
	out["coalesce.wait_share"] = float64(solo.SelfNs) / float64(solo.TotalNs)

	core := serve.New(s.m, serve.Config{})
	t = time.Now()
	const swaps = 200
	for range swaps {
		core.SetModel(s.m)
	}
	out["serve.swap_us"] = float64(time.Since(t)) / swaps / 1e3
	return nil
}

// serveObserved turns two /metrics.json snapshots taken around a stretch of
// load into the per-layer numbers only the server can report. clientMeanUs is
// the callers' mean op latency over the same stretch.
func serveObserved(before, after *serverSnapshot, clientMeanUs float64, elapsed time.Duration) map[string]float64 {
	counter := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	gauge := func(name string) float64 { return after.Gauges[name] - before.Gauges[name] }
	hist := func(name string) (count, sum float64) {
		a, b := after.Histograms[name], before.Histograms[name]
		return float64(a.Count - b.Count), a.Sum - b.Sum
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	reqs := counter("t3_serve_bin_requests_total")
	hits, misses := counter("t3_serve_cache_hits_total"), counter("t3_serve_cache_misses_total")
	n, sumS := hist("t3_serve_bin_request_seconds")
	batches, batched := hist("t3_serve_coalesce_batch_size")
	obs := map[string]float64{
		"predcache.hit_share":        ratio(hits, hits+misses),
		"predcache.evictions_per_op": ratio(counter("t3_serve_cache_evictions_total"), reqs),
		"coalesce.batch_size_mean":   ratio(batched, batches),
		"coalesce.batches_per_kop":   ratio(counter("t3_serve_coalesce_batches_total"), reqs/1000),
		"serve.server_mean_us":       ratio(sumS, n) * 1e6,
		"serve.gc_cycles_per_kop":    ratio(gauge("t3_gc_cycles_total"), reqs/1000),
		"serve.gc_pause_share":       ratio(gauge("t3_gc_pause_seconds_total"), elapsed.Seconds()),
		"serve.errors":               counter("t3_serve_bin_errors_total"),
	}
	// What the callers wait for beyond the server's own request time: the
	// two socket crossings, the kernel's wake-ups, and queueing for a core.
	obs["serve.edge_us"] = clientMeanUs - obs["serve.server_mean_us"]
	return obs
}

// mirroredServeUs adds up the in-process cost of the layer calls one request
// of the workload makes, from the layer metrics already in m. Workloads
// without a server report serve_rtt_hot's server, so they take its path.
func mirroredServeUs(workload string, m map[string]float64) float64 {
	ns := m["wire.decode_ns"] + m["wire.plankey_ns"] + m["wire.response_ns"]
	if workload == "serve_batch_miss" {
		ns += m["predcache.get_miss_ns"] + m["coalesce.predict_solo_ns"] + m["predcache.put_evict_ns"]
	} else {
		ns += m["predcache.get_hit_ns"]
	}
	return ns / 1e3
}
