package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"t3"
	"t3/internal/ctrl"
	"t3/internal/engine/exec"
	"t3/internal/obs"
	"t3/internal/obs/trace"
	"t3/internal/planio"
	"t3/internal/registry"
	"t3/internal/serve"
	"t3/internal/workload"
)

// testPlan returns an annotated TPC-H plan and its JSON body.
func testPlan(t *testing.T) (*t3.Plan, []byte) {
	t.Helper()
	in := workload.MustGenerate(workload.TPCHSpec("tpch_t3serve", 0.01, 3))
	root := workload.TPCHBenchmarkQueries(in)[0].Root
	if err := exec.AnnotateTrueCards(root); err != nil {
		t.Fatal(err)
	}
	body, err := planio.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, body
}

const testModel = "../../models/t3_default.json"

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// testServer returns t3serve as main assembles it over the default model,
// without a registry, and the JSON body of an annotated TPC-H plan.
func testServer(t *testing.T) (*server, []byte) {
	t.Helper()
	s, err := newServer(config{modelPath: testModel, cacheEntries: serve.DefaultCacheEntries}, discardLogger(), http.NewServeMux())
	if err != nil {
		t.Fatal(err)
	}
	_, body := testPlan(t)
	return s, body
}

// TestHandlersPredictOnce drives /predict and /run through their handlers:
// each request is one model prediction — t3_predictions_total moves by
// exactly 1 — and the pipelines in the answer are those of that prediction,
// so their totals sum to predicted_ns.
func TestHandlersPredictOnce(t *testing.T) {
	s, body := testServer(t)
	for _, c := range []struct {
		url     string
		handler http.HandlerFunc
	}{
		{"/predict", s.handlePredict},
		{"/predict?cards=est", s.handlePredict},
		{"/run?actual_ns=1500000", s.handleRun},
	} {
		before := obs.Predictions.Value()
		rec := httptest.NewRecorder()
		c.handler(rec, httptest.NewRequest(http.MethodPost, c.url, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.url, rec.Code, rec.Body)
		}
		if n := obs.Predictions.Value() - before; n != 1 {
			t.Errorf("%s: counted %d predictions for one request", c.url, n)
		}
		var resp predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", c.url, err)
		}
		var sum int64
		for _, p := range resp.Pipelines {
			sum += p.TotalNs
		}
		if len(resp.Pipelines) == 0 || resp.PredictedNs <= 0 || sum != resp.PredictedNs {
			t.Errorf("%s: %d pipelines summing to %d ns, predicted_ns %d",
				c.url, len(resp.Pipelines), sum, resp.PredictedNs)
		}
	}
}

// TestRunRequiresActual pins that /run only scores a time the caller
// measured: without a usable actual_ns — a positive integer; a zero time
// would score a q-error of a billion — it answers 400 before it decodes or
// predicts anything, publishes no flight-recorder trace and records nothing
// into the drift histogram.
func TestRunRequiresActual(t *testing.T) {
	s, body := testServer(t)
	for _, url := range []string{"/run", "/run?actual_ns=", "/run?actual_ns=-1", "/run?actual_ns=0", "/run?actual_ns=1.5ms"} {
		preds, published := obs.Predictions.Value(), trace.Published.Value()
		drift := obs.QErrorDrift.Snapshot().Count
		rec := httptest.NewRecorder()
		s.handleRun(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want %d: %s", url, rec.Code, http.StatusBadRequest, rec.Body)
		}
		if n := obs.Predictions.Value() - preds; n != 0 {
			t.Errorf("%s: counted %d predictions for a rejected request", url, n)
		}
		if n := trace.Published.Value() - published; n != 0 {
			t.Errorf("%s: published %d traces for a rejected request", url, n)
		}
		if n := obs.QErrorDrift.Snapshot().Count - drift; n != 0 {
			t.Errorf("%s: recorded %d q-errors into the drift histogram for a rejected request", url, n)
		}
	}
}

// TestDebugDriftReportsPolicy pins what /debug/drift shows an operator of
// the detector's fixed policy: the field names, and the values of the
// constants.
func TestDebugDriftReportsPolicy(t *testing.T) {
	mux := http.NewServeMux()
	if _, err := newServer(config{modelPath: testModel, cacheEntries: serve.DefaultCacheEntries}, discardLogger(), mux); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/drift", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/drift: status %d: %s", rec.Code, rec.Body)
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("/debug/drift: %v: %s", err, rec.Body)
	}
	for field, want := range map[string]float64{
		"watched_quantile": trace.DriftQuantile,
		"threshold":        trace.DriftThreshold,
		"clear":            trace.DriftClear,
		"min_observations": trace.DriftMinCount,
		"window_epochs":    trace.DriftEpochs,
	} {
		if v, ok := got[field]; !ok || v != want {
			t.Errorf("/debug/drift %q = %v (present %v), want %v", field, v, ok, want)
		}
	}
}

// TestUsageNamesRegisteredFlags keeps the package comment's usage block, the
// drift and retrain flags README.md and DESIGN.md name, and the flags main
// registers from drifting apart: Go's flag package matches names exactly, so
// a documented flag main does not register is a command line that does not
// start. The usage block lists every registered flag, and only those. It
// holds the package comment's Endpoints block to the paths newServer
// registers the same way, both ways round.
func TestUsageNamesRegisteredFlags(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.\w+\("([a-z-]+)"`).FindAllSubmatch(src, -1) {
		registered[string(m[1])] = true
	}
	start, end := bytes.Index(src, []byte("// Usage:")), bytes.Index(src, []byte("// Endpoints:"))
	if start < 0 || end < start {
		t.Fatal("package comment has no Usage block before Endpoints")
	}
	used := map[string]bool{}
	for _, m := range regexp.MustCompile(`\[-([a-z][a-z-]*)`).FindAllSubmatch(src[start:end], -1) {
		used[string(m[1])] = true
		if !registered[string(m[1])] {
			t.Errorf("usage documents -%s, which main does not register", m[1])
		}
	}
	if len(registered) == 0 {
		t.Fatal("found no registered flags")
	}
	for f := range registered {
		if !used[f] {
			t.Errorf("main registers -%s, which the usage block does not document", f)
		}
	}
	// Every endpoint the package comment lists is registered, and every
	// registered one is listed. /debug/vars and /debug/pprof/ are the
	// exceptions: the expvar and net/http/pprof imports register them.
	paths := map[string]bool{}
	for _, m := range regexp.MustCompile(`mux\.HandleFunc\("([^"]+)"`).FindAllSubmatch(src, -1) {
		paths[string(m[1])] = true
	}
	byImport := map[string]bool{"/debug/vars": true, "/debug/pprof/": true}
	endEndpoints := bytes.Index(src[end:], []byte("\n//\n// With "))
	if endEndpoints < 0 {
		t.Fatal("package comment's Endpoints block has no end")
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^//\t(?:GET|POST) +(/[^\s?]*)`).FindAllSubmatch(src[end:end+endEndpoints], -1) {
		p := string(m[1])
		documented[p] = true
		if !paths[p] && !byImport[p] {
			t.Errorf("Endpoints documents %s, which main does not register", p)
		}
	}
	if len(documented) < 10 {
		t.Fatalf("found %d endpoints in the Endpoints block", len(documented))
	}
	for p := range paths {
		if !documented[p] {
			t.Errorf("main registers %s, which Endpoints does not document", p)
		}
	}

	// The prose documents the drift and retrain flags too; the -drift-* and
	// -retrain-* group wildcards name no flag and do not match.
	prose := regexp.MustCompile(`(?:^|[^\w-])-((?:drift|retrain)(?:-[a-z]+)+)`)
	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		found := prose.FindAllSubmatch(text, -1)
		if len(found) == 0 {
			t.Errorf("%s names no -drift-/-retrain- flag", doc)
		}
		for _, m := range found {
			if !registered[string(m[1])] {
				t.Errorf("%s documents -%s, which main does not register", doc, m[1])
			}
		}
	}
}

// TestServerBootsFromRegistry drives the assembly main runs on a temporary
// registry whose latest version is not the -model file: t3serve serves that
// version and reports it in /debug/ctrl, refuses /reload with 409 (which
// without a registry still swaps the file in), and two
// drifted detector ticks after a baseline run exactly one retrain episode,
// which is over when the second Tick returns.
func TestServerBootsFromRegistry(t *testing.T) {
	boot, err := t3.Load(testModel)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	half := *boot.Boosted()
	half.Trees = half.Trees[:len(half.Trees)/2]
	half.BestIteration = len(half.Trees)
	for _, a := range []*registry.Artifact{
		{Meta: registry.Meta{Source: "test"}, GBM: boot.Boosted()},
		{Meta: registry.Meta{Source: "test", ParentVersion: 1}, GBM: &half},
	} {
		if _, err := reg.Put(a); err != nil {
			t.Fatal(err)
		}
	}
	latest, err := t3.NewModel(&half)
	if err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	s, err := newServer(config{modelPath: testModel, cacheEntries: serve.DefaultCacheEntries, registryDir: reg.Dir()},
		discardLogger(), mux)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := testPlan(t)
	served, _ := s.core.Model().PredictPlan(root, t3.TrueCards)
	want, _ := latest.PredictPlan(root, t3.TrueCards)
	fromFile, _ := boot.PredictPlan(root, t3.TrueCards)
	if served != want || served == fromFile {
		t.Fatalf("serves a model predicting %v; registry version 2 predicts %v, the -model file %v", served, want, fromFile)
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/ctrl", nil))
	var st ctrl.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/debug/ctrl: %v: %s", err, rec.Body)
	}
	if st.LiveVersion != 2 || st.PreviousVersion != 1 {
		t.Fatalf("/debug/ctrl reports live %d previous %d, want 2 and 1", st.LiveVersion, st.PreviousVersion)
	}

	// /reload would serve a model with no rollback target. Without a
	// registry it swaps the model file in.
	plain, _ := testServer(t)
	before := plain.core.Model()
	rec = httptest.NewRecorder()
	plain.handleReload(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusOK || plain.core.Model() == before {
		t.Fatalf("/reload without a registry: status %d, swapped %v: %s", rec.Code, plain.core.Model() != before, rec.Body)
	}
	live := s.core.Model()
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "/debug/ctrl") {
		t.Fatalf("/reload with a registry: status %d: %s", rec.Code, rec.Body)
	}
	if s.core.Model() != live {
		t.Fatal("refused /reload swapped the model")
	}

	// A baseline tick, then two epochs of 4x-slow observations: the
	// detector raises on the second drifted tick and the episode runs on
	// this goroutine, inside Tick.
	now := time.Now()
	s.drift.Tick(now)
	for epoch := 1; epoch <= 2; epoch++ {
		if n := s.ctrl.Status().Episodes; n != 0 {
			t.Fatalf("%d episodes before the alarm", n)
		}
		pred, _ := s.core.Model().PredictPlan(root, t3.TrueCards)
		for range 50 {
			t3.RecordObserved(pred, 4*pred)
		}
		s.drift.Tick(now.Add(time.Duration(epoch) * driftTick))
	}
	if !s.drift.Status().Raised {
		t.Fatalf("drift alarm did not raise: %+v", s.drift.Status())
	}
	st = s.ctrl.Status()
	if st.Episodes != 1 || st.State != "idle" || st.Promotions+st.ShadowRejects+st.Failures != 1 {
		t.Fatalf("after the alarm: %+v, want one finished episode", st)
	}
}
