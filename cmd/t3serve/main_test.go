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
	"testing"

	"t3"
	"t3/internal/engine/exec"
	"t3/internal/obs"
	"t3/internal/obs/trace"
	"t3/internal/planio"
	"t3/internal/serve"
	"t3/internal/workload"
)

// testServer returns a handler-level server over the default model and the
// JSON body of an annotated TPC-H plan.
func testServer(t *testing.T) (*server, []byte) {
	t.Helper()
	model, err := t3.Load("../../models/t3_default.json")
	if err != nil {
		t.Fatal(err)
	}
	s := &server{
		core: serve.New(model, serve.Config{}),
		log:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	in := workload.MustGenerate(workload.TPCHSpec("tpch_t3serve", 0.01, 3))
	root := workload.TPCHBenchmarkQueries(in)[0].Root
	if err := exec.AnnotateTrueCards(root); err != nil {
		t.Fatal(err)
	}
	body, err := planio.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
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
// measured: without a usable actual_ns it answers 400 before it decodes or
// predicts anything, and publishes no flight-recorder trace.
func TestRunRequiresActual(t *testing.T) {
	s, body := testServer(t)
	for _, url := range []string{"/run", "/run?actual_ns=", "/run?actual_ns=-1", "/run?actual_ns=1.5ms"} {
		preds, published := obs.Predictions.Value(), trace.Published.Value()
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
	}
}

// TestUsageNamesRegisteredFlags keeps the package comment's usage block, the
// drift and retrain flags README.md and DESIGN.md name, and the flags main
// registers from drifting apart: Go's flag package matches names exactly, so
// a documented -retrain-promote that is really -retrain-promote-ratio is a
// command line that does not start. It holds the package comment's Endpoints
// block to the paths main registers the same way, both ways round.
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
	used := regexp.MustCompile(`\[-([a-z][a-z-]*)`).FindAllSubmatch(src[start:end], -1)
	if len(used) < 10 || len(registered) < len(used) {
		t.Fatalf("found %d flags in the usage block and %d registered", len(used), len(registered))
	}
	for _, m := range used {
		if !registered[string(m[1])] {
			t.Errorf("usage documents -%s, which main does not register", m[1])
		}
	}
	// Every endpoint the package comment lists is registered, and every
	// registered one is listed. /debug/vars and /debug/pprof/ are the
	// exceptions: the expvar and net/http/pprof imports register them.
	paths := map[string]bool{}
	for _, m := range regexp.MustCompile(`http\.HandleFunc\("([^"]+)"`).FindAllSubmatch(src, -1) {
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
