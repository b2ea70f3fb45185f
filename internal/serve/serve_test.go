package serve

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"t3"
	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/obs"
	"t3/internal/obs/trace"
	"t3/internal/predcache"
	"t3/internal/wire"
	"t3/internal/workload"
)

var (
	modelOnce sync.Once
	model     *t3.Model
	modelErr  error
)

func loadModel(t testing.TB) *t3.Model {
	t.Helper()
	modelOnce.Do(func() { model, modelErr = t3.Load("../../models/t3_default.json") })
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

func benchPlans(t testing.TB) []*plan.Node {
	t.Helper()
	in := workload.MustGenerate(workload.TPCHSpec("tpch_serve", 0.01, 3))
	qs := workload.TPCHBenchmarkQueries(in)
	roots := make([]*plan.Node, 0, len(qs))
	for _, q := range qs {
		if err := exec.AnnotateTrueCards(q.Root); err != nil {
			t.Fatal(err)
		}
		roots = append(roots, q.Root)
	}
	return roots
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return New(loadModel(t), cfg)
}

func TestPredictBinHTTPMatchesPredictPlan(t *testing.T) {
	s := newServer(t, Config{})
	h := httptest.NewServer(s.PredictBinHandler())
	defer h.Close()

	m := loadModel(t)
	for _, root := range benchPlans(t) {
		want, _ := m.PredictPlan(root, plan.TrueCards)
		frame := wire.AppendFrame(nil, root, plan.TrueCards)
		resp, err := http.Post(h.URL, "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		ns, err := wire.ParseResponse(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if ns != want.Nanoseconds() {
			t.Fatalf("served %d ns, PredictPlan says %d ns", ns, want.Nanoseconds())
		}
	}
}

func TestPredictBinRejectsGarbage(t *testing.T) {
	s := newServer(t, Config{})
	h := httptest.NewServer(s.PredictBinHandler())
	defer h.Close()

	resp, err := http.Post(h.URL, "application/octet-stream", bytes.NewReader([]byte("not a frame at all")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if _, err := wire.ParseResponse(buf.Bytes()); err == nil {
		t.Fatal("garbage request produced an ok response frame")
	}
}

func TestServeTCPRoundtripAndPipelining(t *testing.T) {
	s := newServer(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.ServeTCP(l) }()

	m := loadModel(t)
	roots := benchPlans(t)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Pipelined: write every request first, then read every response in
	// order.
	var frames []byte
	var want []int64
	for _, root := range roots {
		frames = wire.AppendFrame(frames, root, plan.TrueCards)
		d, _ := m.PredictPlan(root, plan.TrueCards)
		want = append(want, d.Nanoseconds())
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	respBuf := make([]byte, wire.HeaderSize+8)
	for i := range roots {
		if err := readFull(conn, respBuf); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		ns, err := wire.ParseResponse(respBuf)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if ns != want[i] {
			t.Fatalf("response %d: %d ns, want %d", i, ns, want[i])
		}
	}
}

func readFull(conn net.Conn, buf []byte) error {
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for n := 0; n < len(buf); {
		m, err := conn.Read(buf[n:])
		if err != nil {
			return err
		}
		n += m
	}
	return nil
}

// TestBadPlanKeepsTCPConnectionAlive: a well-framed but undecodable plan
// answers an error frame without dropping the connection.
func TestBadPlanKeepsTCPConnectionAlive(t *testing.T) {
	s := newServer(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.ServeTCP(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Valid header, garbage payload.
	bad := make([]byte, wire.HeaderSize)
	wire.PutHeader(bad, plan.TrueCards, 4)
	bad = append(bad, 0xEE, 0xEE, 0xEE, 0xEE)
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, wire.HeaderSize)
	if err := readFull(conn, hdr); err != nil {
		t.Fatal(err)
	}
	if hdr[3] != wire.StatusBadRequest {
		t.Fatalf("status %d, want bad request", hdr[3])
	}
	msg := make([]byte, int(uint32(hdr[4])|uint32(hdr[5])<<8|uint32(hdr[6])<<16|uint32(hdr[7])<<24))
	if err := readFull(conn, msg); err != nil {
		t.Fatal(err)
	}

	// The connection must still serve a good request.
	root := benchPlans(t)[0]
	if _, err := conn.Write(wire.AppendFrame(nil, root, plan.TrueCards)); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, wire.HeaderSize+8)
	if err := readFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ParseResponse(resp); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitsAndModelSwapInvalidation(t *testing.T) {
	s := newServer(t, Config{})
	c := s.getConn()
	root := benchPlans(t)[1]
	payload := wire.AppendPlan(nil, root)

	hits0, misses0 := obs.ServeCacheHits.Value(), obs.ServeCacheMisses.Value()
	ns1, err := s.predictPayload(c, payload, plan.TrueCards)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.ServeCacheMisses.Value() - misses0; got != 1 {
		t.Fatalf("first request: %d misses, want 1", got)
	}
	ns2, err := s.predictPayload(c, payload, plan.TrueCards)
	if err != nil {
		t.Fatal(err)
	}
	if ns2 != ns1 {
		t.Fatalf("cache served %d ns, first prediction was %d ns", ns2, ns1)
	}
	if got := obs.ServeCacheHits.Value() - hits0; got != 1 {
		t.Fatalf("second request: %d hits, want 1", got)
	}
	if s.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d, want 1", s.CacheLen())
	}

	// Swap the model: same bytes must MISS (and still predict correctly).
	m2, err := t3.Load("../../models/t3_default.json")
	if err != nil {
		t.Fatal(err)
	}
	s.SetModel(m2)
	if s.CacheLen() != 0 {
		t.Fatalf("CacheLen = %d after swap, want 0", s.CacheLen())
	}
	misses1 := obs.ServeCacheMisses.Value()
	ns3, err := s.predictPayload(c, payload, plan.TrueCards)
	if err != nil {
		t.Fatal(err)
	}
	if obs.ServeCacheMisses.Value()-misses1 != 1 {
		t.Fatal("post-swap request did not miss")
	}
	if ns3 != ns1 {
		t.Fatalf("identical model predicts %d ns after swap, was %d ns", ns3, ns1)
	}
}

// TestCacheHitRequestPathIsAllocationFree is the tentpole zero-alloc
// guard: a warm binary request that hits the cache — header parse, arena
// decode, fingerprint, cache probe — performs zero heap allocations.
func TestCacheHitRequestPathIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	s := newServer(t, Config{})
	c := s.getConn()
	root := benchPlans(t)[2]
	payload := wire.AppendPlan(nil, root)
	for i := 0; i < 8; i++ { // warm arena + cache
		if _, err := s.predictPayload(c, payload, plan.TrueCards); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.predictPayload(c, payload, plan.TrueCards); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit request path allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestCacheHitAllocationFreeAcrossSwap re-checks the zero-alloc guarantee
// after a model swap: invalidation is a generation bump, so once the cache
// re-warms against the new model the hit path must again be free — no
// rehashing, no entry churn, no per-request cleanup debt from the old
// generation.
func TestCacheHitAllocationFreeAcrossSwap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	s := newServer(t, Config{})
	c := s.getConn()
	root := benchPlans(t)[3]
	payload := wire.AppendPlan(nil, root)

	measure := func(stage string) {
		t.Helper()
		for i := 0; i < 8; i++ { // warm arena + cache
			if _, err := s.predictPayload(c, payload, plan.TrueCards); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(500, func() {
			if _, err := s.predictPayload(c, payload, plan.TrueCards); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: cache-hit path allocates %.2f allocs/op, want 0", stage, allocs)
		}
	}

	measure("before swap")
	m2, err := t3.Load("../../models/t3_default.json")
	if err != nil {
		t.Fatal(err)
	}
	s.SetModel(m2)
	measure("after swap")
}

// TestConcurrentClientsWithModelSwaps hammers the TCP listener from many
// connections while models are swapped, under -race in CI.
func TestConcurrentClientsWithModelSwaps(t *testing.T) {
	s := newServer(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.ServeTCP(l) }()

	m := loadModel(t)
	roots := benchPlans(t)
	frames := make([][]byte, len(roots))
	want := make([]int64, len(roots))
	for i, root := range roots {
		frames[i] = wire.AppendFrame(nil, root, plan.TrueCards)
		d, _ := m.PredictPlan(root, plan.TrueCards)
		want[i] = d.Nanoseconds()
	}

	const clients, perClient = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			resp := make([]byte, wire.HeaderSize+8)
			for i := 0; i < perClient; i++ {
				q := (g + i) % len(roots)
				if _, err := conn.Write(frames[q]); err != nil {
					t.Error(err)
					return
				}
				if err := readFull(conn, resp); err != nil {
					t.Error(err)
					return
				}
				ns, err := wire.ParseResponse(resp)
				if err != nil {
					t.Error(err)
					return
				}
				// Both models are loaded from the same artifact, so the
				// prediction is stable across swaps.
				if ns != want[q] {
					t.Errorf("client %d query %d: %d ns, want %d", g, q, ns, want[q])
					return
				}
			}
		}(g)
	}
	done, swapped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swapped)
		for {
			select {
			case <-done:
				return
			default:
				m2, err := t3.Load("../../models/t3_default.json")
				if err == nil {
					s.SetModel(m2)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(done)
	// Join the swapper: a model load still running here would allocate
	// inside the AllocsPerRun guards of the tests that follow.
	<-swapped
}

func TestCacheDisabled(t *testing.T) {
	s := newServer(t, Config{CacheEntries: -1})
	c := s.getConn()
	payload := wire.AppendPlan(nil, benchPlans(t)[0])
	misses0 := obs.ServeCacheMisses.Value()
	if _, err := s.predictPayload(c, payload, plan.TrueCards); err != nil {
		t.Fatal(err)
	}
	if _, err := s.predictPayload(c, payload, plan.TrueCards); err != nil {
		t.Fatal(err)
	}
	if obs.ServeCacheMisses.Value() != misses0 {
		t.Fatal("disabled cache recorded traffic")
	}
	if s.CacheLen() != 0 {
		t.Fatal("disabled cache holds entries")
	}
}

// TestServeRequestsAppearInFlightRecorder drives enough requests through
// the sampled recorder to see serve-path traces in the ring, with the
// stages and flags the path implies.
func TestServeRequestsAppearInFlightRecorder(t *testing.T) {
	s := newServer(t, Config{})
	root := benchPlans(t)[0]
	payload := wire.AppendPlan(nil, root)
	c := s.getConn()
	key := predcache.Key(wire.PlanKey(root, plan.TrueCards))
	wantFP := trace.KeyFingerprint(wire.Key(key))

	// 64 requests at 1-in-16 sampling: ~4 traces; all but the first hit.
	for i := 0; i < 64; i++ {
		if _, err := s.predictPayload(c, payload, plan.TrueCards); err != nil {
			t.Fatal(err)
		}
	}
	var hit *trace.Trace
	for _, tr := range trace.Default.Snapshot(nil) {
		if tr.Kind == trace.KindServeBin && tr.Fingerprint == wantFP &&
			tr.Flags&trace.FlagCacheHit != 0 {
			hit = &tr
			break
		}
	}
	if hit == nil {
		t.Fatal("no cache-hit serve trace in the flight recorder after 64 requests")
	}
	stages := map[trace.Stage]bool{}
	for _, sp := range hit.Spans[:hit.NSpans] {
		stages[sp.Stage] = true
	}
	if !stages[trace.StageWireDecode] || !stages[trace.StageCacheLookup] {
		t.Fatalf("cache-hit trace missing decode/lookup spans: %+v", hit.Spans[:hit.NSpans])
	}
	if hit.PredictedNs <= 0 {
		t.Fatalf("trace predicted %d ns", hit.PredictedNs)
	}
}

// TestLoneMissTraceIsOneTimeline drives lone cache misses — each frame its
// own batch, so PredictPlanScratch prices it on the request's attached trace
// — until the sampler has traced some. Each such trace holds the deepest
// path the flight recorder records, five spans on one timeline: wire
// decode, cache lookup, then the model's decompose, featurize and tree
// eval, each starting after the one before it ended. The server samples its
// requests alone: a miss it did not trace begins no trace in the model, and
// exactly the traced misses time their stages into the stage histograms.
func TestLoneMissTraceIsOneTimeline(t *testing.T) {
	s := newServer(t, Config{})
	c := s.getConn()
	frames := variantFrames(t, 64, plan.TrueCards)
	var lastID uint64 // traces of earlier tests are still in the ring
	for _, tr := range trace.Default.Snapshot(nil) {
		lastID = max(lastID, tr.ID)
	}
	decompose0 := obs.PredictDecompose.Snapshot().Count
	for _, f := range frames {
		if _, err := s.predictPayload(c, f[wire.HeaderSize:], plan.TrueCards); err != nil {
			t.Fatal(err)
		}
	}
	want := []trace.Stage{trace.StageWireDecode, trace.StageCacheLookup,
		trace.StageDecompose, trace.StageFeaturize, trace.StageTreeEval}
	lone := 0
	for _, tr := range trace.Default.Snapshot(nil) {
		if tr.ID <= lastID {
			continue
		}
		if tr.Kind != trace.KindServeBin || tr.Flags != 0 {
			t.Fatalf("unexpected trace of a lone miss: %+v", tr)
		}
		spans := tr.Spans[:tr.NSpans]
		if len(spans) != len(want) {
			t.Fatalf("lone-miss trace has %d spans, want %v: %+v", len(spans), want, spans)
		}
		var end int64
		for i, sp := range spans {
			if sp.Stage != want[i] || sp.StartNs < end || sp.DurNs < 0 {
				t.Fatalf("span %d of %+v: want %v starting at or after %d ns", i, spans, want[i], end)
			}
			end = sp.StartNs + sp.DurNs
		}
		if spans[4].Arg == 0 || end > tr.TotalNs || tr.PredictedNs <= 0 {
			t.Fatalf("lone-miss trace: %d pipelines, spans end at %d of %d ns, predicted %d ns",
				spans[4].Arg, end, tr.TotalNs, tr.PredictedNs)
		}
		lone++
	}
	// 64 requests at 1-in-16 sampling.
	if lone != len(frames)/trace.DefaultSampleEvery {
		t.Fatalf("%d lone-miss serve traces in the flight recorder after %d misses, want %d",
			lone, len(frames), len(frames)/trace.DefaultSampleEvery)
	}
	if got := obs.PredictDecompose.Snapshot().Count - decompose0; got != uint64(lone) {
		t.Errorf("decompose stage timed %d times, want once per traced miss (%d)", got, lone)
	}
}
