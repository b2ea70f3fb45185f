package ctrl

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/obs"
	"t3/internal/obs/trace"
	"t3/internal/serve"
	"t3/internal/wire"

	t3 "t3"
)

// TestDriftToPromotionEndToEnd is the control plane's closed loop, end to
// end and fully deterministic: a serving tier answers binary predict
// requests from a seed model; drifted observations flow through
// t3.RecordObserved into the online q-error histogram; the drift detector
// (ticked with fixed times) raises its alarm; the attached controller
// collects fresh labels, trains a candidate, shadow-evaluates it against
// the live model on held-out labels plus replayed exemplars, and promotes
// it through the server's atomic swap — after which the same request bytes
// get a different prediction and the cache generation has advanced. No
// sleeps: every time the loop acts on is a tick time the test chose.
func TestDriftToPromotionEndToEnd(t *testing.T) {
	now := t0
	live := seedModel(t)
	srv := serve.New(live, serve.Config{})
	h := httptest.NewServer(srv.PredictBinHandler())
	defer h.Close()

	// Capture worst-misprediction exemplars the way production does: the
	// live model's prediction vs the drifted measurement, with the full
	// request frame for replay.
	store := trace.NewExemplarStore(8)
	driftedRun := scaledRunPlan(4)
	roots := samplePlans(t)[:3]
	for _, root := range roots {
		res, err := driftedRun(&exec.Executor{}, root, true)
		if err != nil {
			t.Fatal(err)
		}
		pred, _ := live.PredictPlan(root, plan.TrueCards)
		store.Offer(root, plan.TrueCards, pred.Nanoseconds(), res.Total.Nanoseconds(), now)
	}
	if store.Len() == 0 {
		t.Fatal("no exemplars captured; drift evidence is incomplete")
	}

	c, err := New(Config{
		Registry:  openRegistry(t),
		Source:    &scaledSource{inst: ctrlInstance(t), scale: 4, workers: 2},
		Swapper:   srv,
		Train:     trainWith(testParams()),
		Exemplars: store,
	})
	if err != nil {
		t.Fatal(err)
	}

	det := trace.NewDetector(obs.QErrorDrift)
	c.Attach(det)

	// A served prediction before the swap, via the real binary endpoint.
	probe := roots[0]
	frame := wire.AppendFrame(nil, probe, plan.TrueCards)
	before := postPredict(t, h.URL, frame)
	gen0 := srv.CacheGeneration()

	// Baseline tick, then two epochs of 4x-slow observations: the detector
	// raises the alarm on the second drifted tick, which runs the whole
	// retrain episode inline.
	tick := func() {
		now = now.Add(time.Second)
		det.Tick(now)
	}
	tick()
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < 50; i++ {
			pred, _ := srv.Model().PredictPlan(probe, plan.TrueCards)
			t3.RecordObserved(pred, 4*pred)
		}
		tick()
	}

	if !det.Status().Raised {
		t.Fatalf("drift alarm did not raise: %+v", det.Status())
	}
	st := c.Status()
	if st.Episodes != 1 || st.Promotions != 1 {
		t.Fatalf("alarm did not drive a promotion: %+v", st)
	}
	if st.LastShadow.ExemplarN != store.Len() {
		t.Fatalf("shadow replayed %d exemplars, store holds %d", st.LastShadow.ExemplarN, store.Len())
	}
	if srv.Model() == live {
		t.Fatal("server still serves the boot model")
	}
	if v, ok, err := c.cfg.Registry.Latest(); err != nil || !ok || v != 2 {
		t.Fatalf("registry after promotion: (%d,%v,%v), want v2", v, ok, err)
	}
	// The episode ran at the alarm's tick time, and the artifact says so.
	art, err := c.cfg.Registry.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	if art.Meta.CreatedUnixNs != now.UnixNano() {
		t.Fatalf("promoted artifact created at %d ns, want the alarm's tick time %d", art.Meta.CreatedUnixNs, now.UnixNano())
	}

	// The swap invalidated the cache and changed what the same bytes get.
	if gen1 := srv.CacheGeneration(); gen1 != gen0+1 {
		t.Fatalf("cache generation %d -> %d across promotion, want +1", gen0, gen1)
	}
	after := postPredict(t, h.URL, frame)
	if after == before {
		t.Fatalf("served prediction unchanged across promotion: %d ns", after)
	}
	// The new model was trained on 4x-slower measurements: predictions
	// must have moved toward slower, not just wiggled.
	if after < before {
		t.Fatalf("drift made queries 4x slower but the promoted model predicts faster: %d -> %d ns", before, after)
	}
}

func postPredict(t *testing.T, url string, frame []byte) int64 {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	ns, err := wire.ParseResponse(buf.Bytes())
	if err != nil {
		t.Fatalf("bad response frame: %v", err)
	}
	return ns
}
