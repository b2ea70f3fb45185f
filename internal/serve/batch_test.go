package serve

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"

	"t3"
	"t3/internal/engine/plan"
	"t3/internal/gbdt"
	"t3/internal/obs"
	"t3/internal/obs/trace"
	"t3/internal/wire"
)

// variantFrames returns n request frames with n distinct cache keys: the
// benchmark plans round-robin, each with its root cardinality nudged by the
// variant number, which changes the key (wire.PlanKey hashes every
// cardinality) and the prediction, but not the plan's shape.
func variantFrames(t testing.TB, n int, mode plan.CardMode) [][]byte {
	t.Helper()
	roots := benchPlans(t)
	frames := make([][]byte, n)
	for i := range frames {
		root := roots[i%len(roots)]
		card := root.OutCard
		root.OutCard.True += float64(i / len(roots))
		root.OutCard.Est += float64(i / len(roots))
		frames[i] = wire.AppendFrame(nil, root, mode)
		root.OutCard = card
	}
	return frames
}

// sequentialReference is what a connection must answer to the byte stream
// in: the frames one at a time through handleFrame — the /predict.bin path,
// which knows nothing of batches — on a server and cache of its own. A
// malformed plan answers an error frame and the stream goes on; a header that
// does not parse answers one and ends it; a frame the stream ends inside is
// never answered. hungUp says whether the stream ended on a bad header.
func sequentialReference(t testing.TB, m *t3.Model, cfg Config, in []byte) (want []byte, hungUp bool) {
	t.Helper()
	s := New(m, cfg)
	c := s.getConn()
	for len(in) >= wire.HeaderSize {
		size := wire.HeaderSize
		_, n, herr := wire.ParseHeader(in)
		if herr == nil {
			if size += n; len(in) < size {
				break
			}
		}
		ns, status, err := s.handleFrame(c, bytes.NewReader(in[:size]))
		if err != nil {
			want = wire.AppendErrorResponse(want, status, err.Error())
		} else {
			want = wire.AppendResponse(want, ns)
		}
		if herr != nil {
			return want, true
		}
		in = in[size:]
	}
	return want, false
}

// overPipe plays chunks, one Write each, to a fresh connection of s over
// net.Pipe, where every Write is one Read of the server's. It requires the
// connection to answer exactly want, then — having seen everything written —
// to say nothing more: to hang up if hungUp, to wait for the next frame
// otherwise. At last the peer closes, and serveConn has to return.
func overPipe(t testing.TB, s *Server, chunks [][]byte, want []byte, hungUp bool) {
	t.Helper()
	cli, srv := net.Pipe()
	done, written := make(chan struct{}), make(chan struct{})
	go func() {
		s.serveConn(srv)
		close(done)
	}()
	go func() {
		defer close(written)
		for _, ch := range chunks {
			if _, err := cli.Write(ch); err != nil {
				return // the server hung up on a bad header
			}
		}
	}()

	got := make([]byte, len(want))
	_ = cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := io.ReadFull(cli, got); err != nil {
		t.Fatalf("read %d of %d response bytes: %v\ngot  %x\nwant %x", n, len(want), err, got[:n], want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("response stream differs from the sequential reference\ngot  %x\nwant %x", got, want)
	}
	select {
	case <-written:
	case <-time.After(5 * time.Second):
		t.Fatal("the server stopped reading")
	}
	var one [1]byte
	quiet := 500 * time.Microsecond // long enough for an answer already computed
	if hungUp {
		quiet = 5 * time.Second // the hang-up ends the wait
	}
	_ = cli.SetReadDeadline(time.Now().Add(quiet))
	n, err := cli.Read(one[:])
	switch {
	case n > 0:
		t.Fatalf("the server answered more than the reference: %x...", one)
	case hungUp && err != io.EOF:
		t.Fatalf("after a bad header the server did not hang up: %v", err)
	case !hungUp && !errors.Is(err, os.ErrDeadlineExceeded):
		t.Fatalf("the server hung up on a good stream: %v", err)
	}
	cli.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn is still blocked after its peer closed")
	}
}

// chunked cuts stream at random bytes — inside headers, inside payloads,
// between frames, or not at all — into pieces from one byte to many frames.
func chunked(rng *rand.Rand, stream []byte) [][]byte {
	var chunks [][]byte
	for len(stream) > 0 {
		var n int
		switch rng.Intn(4) {
		case 0:
			n = 1 + rng.Intn(wire.HeaderSize+4)
		case 1:
			n = 1 + rng.Intn(400)
		case 2:
			n = 1 + rng.Intn(8<<10)
		default:
			n = len(stream)
		}
		n = min(n, len(stream))
		chunks = append(chunks, stream[:n])
		stream = stream[n:]
	}
	return chunks
}

// TestBatchedResponsesEqualSequentialReference is the contract of the batch
// path: whatever the frames and however the bytes arrive, the connection
// answers byte for byte what one-frame-at-a-time serving answers. Each
// seeded sequence mixes misses, hits (a key seen earlier), duplicates (the
// same key twice in a row, so both may sit in one batch), both card modes,
// malformed plans, and sometimes a bad header with more frames behind it.
//
// It runs on the served model and on one whose batches fan their kernel rows
// over two workers, so a batch's answers are the same whichever worker scored
// which of its rows.
func TestBatchedResponsesEqualSequentialReference(t *testing.T) {
	t.Run("default workers", func(t *testing.T) { checkBatchedResponses(t, loadModel(t)) })
	t.Run("two workers", func(t *testing.T) { checkBatchedResponses(t, twoWorkerModel(t)) })
}

// twoWorkerModel is a fresh copy of the default model whose batches fan out
// over par.Sized(2): two workers whatever GOMAXPROCS is, so the fanned path
// runs even where testing.AllocsPerRun pins GOMAXPROCS to 1.
func twoWorkerModel(t testing.TB) *t3.Model {
	t.Helper()
	m, err := t3.Load("../../models/t3_default.json")
	if err != nil {
		t.Fatal(err)
	}
	m.SetWorkers(2)
	return m
}

func checkBatchedResponses(t *testing.T, m *t3.Model) {
	pool := append(variantFrames(t, 96, plan.TrueCards), variantFrames(t, 24, plan.EstCards)...)
	sequences := 1000
	if testing.Short() {
		sequences = 100
	}
	for seed := range sequences {
		rng := rand.New(rand.NewSource(int64(seed)))
		// A cache too small for the pool, so that entries are evicted too;
		// every fourth sequence runs without one.
		cfg := Config{CacheEntries: 32}
		if seed%4 == 3 {
			cfg.CacheEntries = -1
		}
		var stream []byte
		var prev []byte
		for range 1 + rng.Intn(24) {
			var f []byte
			switch k := rng.Intn(20); {
			case k < 9:
				f = pool[rng.Intn(len(pool))]
			case k < 13:
				f = pool[rng.Intn(8)] // a few hot keys: hits
			case k < 16 && prev != nil:
				f = prev
			case k < 19:
				f = malformedFrame(rng, pool)
			case seed%3 == 0:
				f = badHeaderFrame(rng, pool)
			default:
				f = pool[rng.Intn(len(pool))]
			}
			prev = f
			stream = append(stream, f...)
		}
		if rng.Intn(4) == 0 { // end inside a frame
			f := pool[rng.Intn(len(pool))]
			stream = append(stream, f[:rng.Intn(len(f))]...)
		}
		want, hungUp := sequentialReference(t, m, cfg, stream)
		overPipe(t, New(m, cfg), chunked(rng, stream), want, hungUp)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// malformedFrame is a well-framed request whose payload is not a plan: a
// real payload truncated, extended, or with one byte flipped (which now and
// then still decodes — then it is simply one more plan).
func malformedFrame(rng *rand.Rand, pool [][]byte) []byte {
	payload := append([]byte(nil), pool[rng.Intn(len(pool))][wire.HeaderSize:]...)
	switch rng.Intn(3) {
	case 0:
		payload = payload[:rng.Intn(len(payload))]
	case 1:
		payload = append(payload, byte(rng.Intn(256)))
	default:
		payload[rng.Intn(len(payload))] ^= 1 << rng.Intn(8)
	}
	f := make([]byte, wire.HeaderSize, wire.HeaderSize+len(payload))
	wire.PutHeader(f, plan.CardMode(rng.Intn(2)), len(payload))
	return append(f, payload...)
}

// badHeaderFrame is a real frame with a header the server must refuse: wrong
// magic, version, card mode, or a length above wire.MaxPayload.
func badHeaderFrame(rng *rand.Rand, pool [][]byte) []byte {
	f := append([]byte(nil), pool[rng.Intn(len(pool))]...)
	switch rng.Intn(4) {
	case 0:
		f[rng.Intn(2)] ^= 0x20
	case 1:
		f[2] = wire.Version + 1
	case 2:
		f[3] = 2 + byte(rng.Intn(200))
	default:
		f[7] = 0x7f
	}
	return f
}

// TestAnswerNotWithheldBehindPartialFrame: a client that has sent frame A
// and part of frame B is owed A's answer now, not when B completes.
func TestAnswerNotWithheldBehindPartialFrame(t *testing.T) {
	s := newServer(t, Config{})
	frames := variantFrames(t, 2, plan.TrueCards)
	a, b := frames[0], frames[1]
	cut := wire.HeaderSize + (len(b)-wire.HeaderSize)/2

	cli, srv := net.Pipe()
	defer cli.Close()
	go s.serveConn(srv)
	go func() { _, _ = cli.Write(append(append([]byte(nil), a...), b[:cut]...)) }()

	resp := make([]byte, wire.HeaderSize+8)
	_ = cli.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	if _, err := io.ReadFull(cli, resp); err != nil {
		t.Fatalf("A's answer did not arrive while B was incomplete: %v", err)
	}
	if _, err := wire.ParseResponse(resp); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = cli.Write(b[cut:]) }()
	_ = cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(cli, resp); err != nil {
		t.Fatalf("B's answer: %v", err)
	}
	if _, err := wire.ParseResponse(resp); err != nil {
		t.Fatal(err)
	}
}

// TestLargeFrameScratchIsNotPooled: a frame above the read buffer is served
// through a body buffer grown to fit it; that buffer must not come back out
// of the pool for the next connection.
func TestLargeFrameScratchIsNotPooled(t *testing.T) {
	s := newServer(t, Config{})
	big := make([]byte, wire.HeaderSize+maxPooledBody+1)
	wire.PutHeader(big, plan.TrueCards, len(big)-wire.HeaderSize)
	want, _ := sequentialReference(t, loadModel(t), Config{}, big)
	overPipe(t, s, [][]byte{big}, want, false)
	for range 16 { // whatever the pool holds now
		if c := s.getConn(); cap(c.body) > maxPooledBody {
			t.Fatalf("pooled a %d-byte frame buffer", cap(c.body))
		}
	}
}

// scaledModel is the default model with every per-tuple prediction scaled by
// a power of ten: same trees, different answers.
func scaledModel(t *testing.T, shift float64) *t3.Model {
	t.Helper()
	gbm, err := gbdt.Load("../../models/t3_default.json")
	if err != nil {
		t.Fatal(err)
	}
	gbm.BaseScore += shift
	m, err := t3.NewModel(gbm)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSwapBetweenPredictAndPutIsNotServed walks a miss through its steps
// with a model swap between the prediction and the cache insert: the old
// model's answer must not become a hit under the new model.
func TestSwapBetweenPredictAndPutIsNotServed(t *testing.T) {
	oldModel, newModel := loadModel(t), scaledModel(t, 1)
	root := benchPlans(t)[1]
	payload := wire.AppendPlan(nil, root)
	oldWant, _ := oldModel.PredictPlan(root, plan.TrueCards)
	newWant, _ := newModel.PredictPlan(root, plan.TrueCards)
	if oldWant == newWant {
		t.Fatal("the two models agree; the test cannot tell them apart")
	}

	s := New(oldModel, Config{})
	c := s.getConn()
	c.reset()
	c.add(payload, plan.TrueCards)
	if s.lookup(c) != 1 {
		t.Fatal("an empty cache answered")
	}
	s.price(c)
	if got := c.frames[0].ns; got != oldWant.Nanoseconds() {
		t.Fatalf("priced %d ns, the loaded model says %d", got, oldWant.Nanoseconds())
	}
	s.SetModel(newModel) // lands between predict and put
	s.fill(c)

	hits0 := obs.ServeCacheHits.Value()
	got, err := s.predictPayload(c, payload, plan.TrueCards)
	if err != nil {
		t.Fatal(err)
	}
	if obs.ServeCacheHits.Value() != hits0 {
		t.Error("the old model's answer was inserted as an entry of the new generation")
	}
	if got != newWant.Nanoseconds() {
		t.Fatalf("served %d ns after the swap; the new model says %d, the old one %d",
			got, newWant.Nanoseconds(), oldWant.Nanoseconds())
	}
}

// TestBatchIsOneModelCallAndOneObservationPerRequest pins the accounting of
// a batch of misses: one miss batch of its size, one latency observation per
// request, and on a sampled request's trace one batch-evaluation span that
// carries the batch size.
func TestBatchIsOneModelCallAndOneObservationPerRequest(t *testing.T) {
	const batch = 32
	s := newServer(t, Config{})
	frames := variantFrames(t, batch, plan.TrueCards)
	var stream []byte
	for _, f := range frames {
		stream = append(stream, f...)
	}
	want, _ := sequentialReference(t, loadModel(t), Config{}, stream)

	reqs0 := obs.ServeBinRequests.Value()
	lat0 := obs.ServeBinLatency.Snapshot().Count
	calls0 := obs.ServeCoalesceBatches.Value()
	sizes0 := obs.ServeCoalesceBatchSize.Snapshot()
	var lastID uint64 // traces of earlier tests are still in the ring
	for _, tr := range trace.Default.Snapshot(nil) {
		lastID = max(lastID, tr.ID)
	}
	overPipe(t, s, [][]byte{stream}, want, false)
	if got := obs.ServeBinRequests.Value() - reqs0; got != batch {
		t.Errorf("%d requests counted, want %d", got, batch)
	}
	if got := obs.ServeBinLatency.Snapshot().Count - lat0; got != batch {
		t.Errorf("%d latency observations, want one per request (%d)", got, batch)
	}
	if got := obs.ServeCoalesceBatches.Value() - calls0; got != 1 {
		t.Errorf("%d model calls for one read of %d misses, want 1", got, batch)
	}
	sizes := obs.ServeCoalesceBatchSize.Snapshot()
	if n, sum := sizes.Count-sizes0.Count, sizes.Sum-sizes0.Sum; n != 1 || sum != batch {
		t.Errorf("batch-size histogram took %d observations summing to %v, want 1 and %d", n, sum, batch)
	}

	// 32 requests at 1-in-16 sampling: at least one trace.
	found := false
	for _, tr := range trace.Default.Snapshot(nil) {
		if tr.ID <= lastID || tr.Kind != trace.KindServeBin || tr.Flags&trace.FlagBatched == 0 {
			continue
		}
		stages := map[trace.Stage]uint32{}
		for _, sp := range tr.Spans[:tr.NSpans] {
			stages[sp.Stage] = sp.Arg
		}
		_, decoded := stages[trace.StageWireDecode]
		_, looked := stages[trace.StageCacheLookup]
		if !decoded || !looked || stages[trace.StageBatchEval] != batch || tr.NSpans != 3 {
			t.Fatalf("batched trace has spans %+v, want decode, lookup and one batch_eval of %d", tr.Spans[:tr.NSpans], batch)
		}
		found = true
	}
	if !found {
		t.Fatal("no batched serve trace in the flight recorder after a 32-miss batch")
	}
}

// allocsPerFrame drives a live connection from an allocation-free client:
// every run writes `writes` messages of `per` frames each, reading the
// answers of one before it sends the next, over `keys` frames whose keys come
// round too rarely for the cache to still hold them.
func allocsPerFrame(t *testing.T, cfg Config, keys, per, writes int) float64 {
	t.Helper()
	return allocsPerFrameOn(t, newServer(t, cfg), keys, per, writes)
}

// allocsPerFrameOn is allocsPerFrame against a server of the caller's.
func allocsPerFrameOn(t *testing.T, s *Server, keys, per, writes int) float64 {
	t.Helper()
	frames := variantFrames(t, keys, plan.TrueCards)
	var msgs [][]byte
	for i := 0; i+per <= len(frames); i += per {
		var msg []byte
		for _, f := range frames[i : i+per] {
			msg = append(msg, f...)
		}
		msgs = append(msgs, msg)
	}
	cli, srv := net.Pipe()
	defer cli.Close()
	go s.serveConn(srv)
	resp := make([]byte, per*(wire.HeaderSize+8))
	next := 0
	run := func() {
		for range writes {
			if _, err := cli.Write(msgs[next%len(msgs)]); err != nil {
				t.Fatal(err)
			}
			next++
			if _, err := io.ReadFull(cli, resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits0 := obs.ServeCacheHits.Value()
	for range 4 * len(msgs) / writes { // warm arenas, scratch, cache, trace pool
		run()
	}
	allocs := testing.AllocsPerRun(50, run)
	if obs.ServeCacheHits.Value() != hits0 {
		t.Fatal("the miss guard hit the cache")
	}
	return allocs / float64(per*writes)
}

// TestMissPathIsAllocationFree guards both shapes of the miss path on a warm
// connection — one frame per read (PredictPlanScratch) and a 32-frame batch
// (PredictBatchScratch) — with the cache filling and evicting, and without
// one: zero heap allocations per frame, read loop and response write
// included. The last case is serve_batch_miss's shape: an 8192-entry cache
// that grew its slots and index on demand, warmed past its bound by twice as
// many keys, evicting on every insert.
func TestMissPathIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	for _, tc := range []struct {
		name              string
		cfg               Config
		keys, per, writes int
	}{
		{"one frame per read, cache on", Config{CacheEntries: 16}, 512, 1, 32},
		{"one frame per read, cache off", Config{CacheEntries: -1}, 512, 1, 32},
		{"32-frame batch, cache on", Config{CacheEntries: 16}, 512, 32, 1},
		{"32-frame batch, cache off", Config{CacheEntries: -1}, 512, 32, 1},
		{"32-frame batch, 8192-entry cache past its bound", Config{CacheEntries: 8192}, 16384, 32, 1},
	} {
		if allocs := allocsPerFrame(t, tc.cfg, tc.keys, tc.per, tc.writes); allocs != 0 {
			t.Errorf("%s: %.3f allocs per frame, want 0", tc.name, allocs)
		}
	}
}

// TestFannedMissPathIsAllocationFree is TestMissPathIsAllocationFree's batch
// shape on a model whose batches fan out over two workers. Every 32-frame
// message holds at least two of the kernel's 32-row tasks, so each batch is
// offered to the pool's parked worker: the offer, the worker's share and the
// wait for it must allocate nothing either.
func TestFannedMissPathIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	m := twoWorkerModel(t)
	roots := benchPlans(t)
	for first := range roots {
		rows := 0
		for i := range 32 {
			_, pipes := m.PredictPlan(roots[(first+i)%len(roots)], plan.TrueCards)
			rows += len(pipes)
		}
		if rows < 64 {
			t.Fatalf("a 32-frame batch from plan %d has %d pipeline rows, too few to fan out", first, rows)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"32-frame batch over two workers, cache on", Config{CacheEntries: 16}},
		{"32-frame batch over two workers, cache off", Config{CacheEntries: -1}},
	} {
		if allocs := allocsPerFrameOn(t, New(m, tc.cfg), 512, 32, 1); allocs != 0 {
			t.Errorf("%s: %.3f allocs per frame, want 0", tc.name, allocs)
		}
	}
}
