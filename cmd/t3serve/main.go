// Command t3serve serves a trained T3 model over HTTP and raw TCP:
// prediction and drift-scoring endpoints, a high-throughput binary wire
// protocol with a fingerprint-keyed prediction cache and per-connection
// batching of cache misses, plus the full observability surface of
// internal/obs.
//
// Usage:
//
//	t3serve [-addr :8080] [-tcp :8091] [-model models/t3_default.json]
//	        [-cache 65536] [-log text|json] [-v] [-retrain-registry dir]
//
// Endpoints:
//
//	POST /predict            plan JSON in (see internal/planio), prediction out.
//	                         ?cards=true|est selects cardinality annotations.
//	POST /predict.bin        binary wire frame in (see internal/wire), wire
//	                         response frame out. Served through the
//	                         caching core (internal/serve).
//	POST /run?actual_ns=N    predict the plan and score the q-error against
//	                         N, the caller's measured execution time, into
//	                         the drift histogram and /debug/worst. The plan
//	                         is never executed here: a plan sent over the
//	                         wire carries annotations, not data. Without
//	                         a positive actual_ns the answer is 400.
//	POST /reload             re-read the model file, atomically swap it in,
//	                         and invalidate the prediction cache. With
//	                         -retrain-registry the registry owns the served
//	                         model and the answer is 409: use /debug/ctrl.
//	GET  /metrics            Prometheus text exposition of every metric.
//	GET  /metrics.json       the same registry as a JSON snapshot (the
//	                         schema t3predict/t3bench -json also emit).
//	GET  /healthz            liveness probe.
//	GET  /debug/vars         expvar, including the metrics snapshot.
//	GET  /debug/pprof/       net/http/pprof profiles.
//	GET  /debug/queries      the flight recorder: recent traced queries with
//	                         per-stage span timelines (?n= caps the count).
//	GET  /debug/worst        worst mispredictions by q-error, each with a
//	                         replayable wire frame.
//	GET  /debug/worst/frame  ?rank=N downloads one exemplar's raw frame;
//	                         POST it to /predict.bin to reproduce the
//	                         prediction.
//	GET  /debug/drift        windowed vs lifetime q-error quantiles and the
//	                         drift alarm state.
//	GET  /debug/ctrl         the retrain control plane: live/previous registry
//	                         versions, episode counts, last shadow comparison.
//	                         POST ?action=retrain starts an episode by hand,
//	                         POST ?action=rollback restores the previous
//	                         registry version. Requires -retrain-registry.
//
// The drift detector ticks every 5 s over a 12-epoch window and raises its
// alarm when the windowed p90 q-error exceeds 2. With -retrain-registry
// the alarm closes the loop: t3serve serves the registry's latest version,
// and on an alarm the controller (internal/ctrl) collects fresh labels from
// a TPC-H-lite workload (scale 0.01, one query per structure group, three
// timing runs), retrains, shadow-evaluates the candidate against the live
// model on held-out labels plus the worst-misprediction exemplars, and
// promotes winners through the same atomic swap /reload uses — writing
// every promoted model to the versioned registry first so a rollback can
// restore the prior version bit-identically. The episode runs on the
// detector's goroutine, at most one every 10 minutes.
//
// With -tcp the same binary wire protocol is served on a raw TCP listener:
// any number of length-prefixed request frames per connection, one response
// frame each, in order. Pipelining is encouraged: the frames one read
// brings in are answered as one batch, their cache misses priced in a
// single model call, their responses written at once.
//
// Example:
//
//	t3serve -model models/t3_default.json -tcp :8091 &
//	curl -s -X POST --data-binary @plan.json localhost:8080/predict
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=5
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"t3"
	"t3/internal/ctrl"
	"t3/internal/obs"
	"t3/internal/obs/trace"
	"t3/internal/planio"
	"t3/internal/registry"
	"t3/internal/serve"
	"t3/internal/wire"
	"t3/internal/workload"
)

// The drift and retraining policy every deployment runs.
const (
	// driftTick is the drift detector's epoch period.
	driftTick = 5 * time.Second
	// The retraining workload: a TPC-H-lite instance at retrainScale, each
	// episode collecting retrainPerGroup queries per structure group, each
	// timed retrainRuns times, on GOMAXPROCS workers.
	retrainScale    = 0.01
	retrainSeed     = 1
	retrainPerGroup = 1
	retrainRuns     = 3
)

// HTTP serving metrics, alongside the built-in T3 metrics on obs.Default.
var (
	httpRequests = obs.Default.NewCounter("t3_http_requests_total",
		"HTTP requests served.")
	httpErrors = obs.Default.NewCounter("t3_http_errors_total",
		"HTTP requests answered with a non-2xx status.")
	httpLatency = obs.Default.NewHistogram("t3_http_request_seconds",
		"HTTP request handling latency.", obs.UnitNanoseconds)
)

// maxBody bounds request bodies (plans are small; 8 MiB is generous).
const maxBody = 8 << 20

// server carries the serving core through the handlers. The model is read
// through the core so /reload swaps are visible everywhere at once.
type server struct {
	core      *serve.Server
	modelPath string
	reloadMu  sync.Mutex
	log       *slog.Logger
	drift     *trace.Detector
	// ctrl is the retrain control plane (nil unless -retrain-registry).
	ctrl *ctrl.Controller
}

func (s *server) model() *t3.Model { return s.core.Model() }

// predictResponse is the JSON answer of /predict and the prediction half
// of /run.
type predictResponse struct {
	PredictedNs int64              `json:"predicted_ns"`
	Predicted   string             `json:"predicted"`
	Pipelines   []pipelinePredJSON `json:"pipelines"`
}

type pipelinePredJSON struct {
	Index           int     `json:"index"`
	PerTupleSeconds float64 `json:"per_tuple_seconds"`
	Cardinality     float64 `json:"cardinality"`
	TotalNs         int64   `json:"total_ns"`
}

// runResponse is the JSON answer of /run.
type runResponse struct {
	predictResponse
	ActualNs int64   `json:"actual_ns"`
	Actual   string  `json:"actual"`
	QError   float64 `json:"qerror"`
}

// readPlan decodes the request body as a plan and picks the card mode. The
// body is hard-capped at maxBody via http.MaxBytesReader, which also closes
// the connection of an oversized sender.
func readPlan(w http.ResponseWriter, r *http.Request) (*t3.Plan, t3.CardMode, error) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		return nil, t3.TrueCards, fmt.Errorf("reading body: %w", err)
	}
	root, err := planio.Unmarshal(data)
	if err != nil {
		return nil, t3.TrueCards, fmt.Errorf("decoding plan: %w", err)
	}
	mode := t3.TrueCards
	if r.URL.Query().Get("cards") == "est" {
		mode = t3.EstCards
	}
	return root, mode, nil
}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a plan JSON")
		return
	}
	root, mode, err := readPlan(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	total, per := s.model().PredictPlan(root, mode)
	writeJSON(w, predictResp(total, per))
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a plan JSON")
		return
	}
	// The caller executed the query elsewhere and reports the measured
	// time; we score our prediction against it.
	ns, err := strconv.ParseInt(r.URL.Query().Get("actual_ns"), 10, 64)
	if err != nil || ns <= 0 {
		httpError(w, http.StatusBadRequest, "?actual_ns=N is required: N is the measured execution time in ns, a positive integer")
		return
	}
	root, mode, err := readPlan(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	actual := time.Duration(ns)
	// Client-reported rounds carry real execution times, so they are always
	// traced (ForceBegin bypasses sampling) on top of scoring the drift
	// histogram and the exemplar store (/debug/worst).
	tr := trace.Default.ForceBegin(trace.KindRun, uint8(mode))
	var ps t3.PredictScratch
	ps.AttachTrace(tr)
	predicted, per := s.model().PredictPlanScratch(root, mode, &ps)
	q := t3.RecordObservedPlan(root, mode, predicted, actual)
	tr.Fingerprint = trace.KeyFingerprint(wire.PlanKey(root, mode))
	tr.PredictedNs = predicted.Nanoseconds()
	tr.ActualNs = actual.Nanoseconds()
	if qm := q * 1000; qm >= 0 && qm < 1e18 {
		tr.QErrorMilli = uint64(qm)
	}
	trace.Default.Publish(tr)
	writeJSON(w, runResponse{
		predictResponse: predictResp(predicted, per),
		ActualNs:        actual.Nanoseconds(),
		Actual:          actual.String(),
		QError:          q,
	})
}

// handleReload re-reads the model file and atomically swaps it into the
// serving core, invalidating every cached prediction.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST to reload")
		return
	}
	if s.ctrl != nil {
		// A model that bypassed the registry would have no rollback target.
		httpError(w, http.StatusConflict, "the model registry owns the served model: POST /debug/ctrl?action=rollback or ?action=retrain")
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	model, err := t3.Load(s.modelPath)
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("reloading %s: %v", s.modelPath, err))
		return
	}
	s.core.SetModel(model)
	s.log.Info("model reloaded", "path", s.modelPath)
	writeJSON(w, map[string]string{"status": "reloaded", "model": s.modelPath})
}

func predictResp(total time.Duration, per []t3.PipelinePrediction) predictResponse {
	resp := predictResponse{
		PredictedNs: total.Nanoseconds(),
		Predicted:   total.String(),
		Pipelines:   make([]pipelinePredJSON, len(per)),
	}
	for i, p := range per {
		resp.Pipelines[i] = pipelinePredJSON{
			Index:           p.Index,
			PerTupleSeconds: p.PerTupleSeconds,
			Cardinality:     p.Cardinality,
			TotalNs:         p.Total.Nanoseconds(),
		}
	}
	return resp
}

func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default.WritePrometheus(w)
}

func handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, obs.Default.Snapshot())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	httpErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// instrument wraps a handler with request counting, latency recording, and
// structured access logging.
func instrument(log *slog.Logger, name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		httpRequests.Inc()
		h(w, r)
		d := time.Since(start)
		httpLatency.Observe(d)
		log.Debug("request", "endpoint", name, "method", r.Method, "remote", r.RemoteAddr, "dur", d)
	}
}

// config is what t3serve's flags select besides its listeners and logging.
type config struct {
	modelPath    string
	cacheEntries int
	// registryDir enables drift-triggered retraining ("" = off).
	registryDir string
}

// newServer assembles t3serve: the serving core over the model file, the
// q-error drift detector and, with a registry directory, the retrain
// controller attached to it, which swaps in the registry's latest version.
// It registers every handler on mux. The caller ticks the detector.
func newServer(cfg config, logger *slog.Logger, mux *http.ServeMux) (*server, error) {
	model, err := t3.Load(cfg.modelPath)
	if err != nil {
		return nil, fmt.Errorf("loading model %s: %w", cfg.modelPath, err)
	}
	scfg := serve.Config{CacheEntries: cfg.cacheEntries}
	if cfg.cacheEntries <= 0 {
		scfg.CacheEntries = -1
	}
	core := serve.New(model, scfg)
	drift := trace.NewDetector(obs.QErrorDrift)
	drift.OnAlarm(func(ev trace.DriftEvent) {
		if ev.Raised {
			logger.Warn("drift alarm raised", "qerror", ev.Quantile,
				"threshold", trace.DriftThreshold, "window_observations", ev.Count)
		} else {
			logger.Info("drift alarm cleared", "qerror", ev.Quantile,
				"window_observations", ev.Count)
		}
	})
	s := &server{core: core, modelPath: cfg.modelPath, log: logger, drift: drift}

	if cfg.registryDir != "" {
		logger.Info("generating retraining instance", "schema", "tpch", "scale", retrainScale)
		inst, err := workload.Generate(workload.TPCHSpec("tpch_retrain", retrainScale, retrainSeed))
		if err != nil {
			return nil, fmt.Errorf("generating retraining instance: %w", err)
		}
		reg, err := registry.Open(cfg.registryDir)
		if err != nil {
			return nil, fmt.Errorf("opening model registry: %w", err)
		}
		s.ctrl, err = ctrl.New(ctrl.Config{
			Registry: reg,
			Source: &ctrl.WorkloadSource{
				Instance: inst,
				Config: workload.CollectConfig{
					Runs: retrainRuns, PerGroup: retrainPerGroup, Seed: retrainSeed,
				},
			},
			Swapper:   core,
			Exemplars: trace.Exemplars,
		})
		if err != nil {
			return nil, fmt.Errorf("starting retrain controller: %w", err)
		}
		s.ctrl.Attach(drift)
		logger.Info("retrain control plane enabled", "registry", reg.Dir(),
			"live_version", s.ctrl.Status().LiveVersion)
	}

	mux.HandleFunc("/predict", instrument(logger, "predict", s.handlePredict))
	mux.HandleFunc("/predict.bin", core.PredictBinHandler())
	mux.HandleFunc("/run", instrument(logger, "run", s.handleRun))
	mux.HandleFunc("/reload", instrument(logger, "reload", s.handleReload))
	mux.HandleFunc("/metrics", instrument(logger, "metrics", handleMetrics))
	mux.HandleFunc("/metrics.json", instrument(logger, "metrics.json", handleMetricsJSON))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/queries", instrument(logger, "debug.queries", handleDebugQueries))
	mux.HandleFunc("/debug/worst", instrument(logger, "debug.worst", handleDebugWorst))
	mux.HandleFunc("/debug/worst/frame", instrument(logger, "debug.worst.frame", handleDebugWorstFrame))
	mux.HandleFunc("/debug/drift", instrument(logger, "debug.drift", s.handleDebugDrift))
	mux.HandleFunc("/debug/ctrl", instrument(logger, "debug.ctrl", s.handleDebugCtrl))
	return s, nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		tcpAddr      = flag.String("tcp", "", "raw TCP wire-protocol listen address (empty = disabled)")
		modelPath    = flag.String("model", "models/t3_default.json", "trained model (JSON)")
		cacheEntries = flag.Int("cache", serve.DefaultCacheEntries, "prediction cache entries (0 disables)")
		logFormat    = flag.String("log", "text", "log format: text|json")
		verbose      = flag.Bool("v", false, "debug logging (per-request access logs)")
		registryDir  = flag.String("retrain-registry", "", "model registry directory; serves its latest version and enables drift-triggered retraining")
	)
	flag.Parse()
	logger := obs.SetupLogging(os.Stderr, *logFormat, *verbose)

	// The default mux already holds /debug/pprof/* and /debug/vars, which
	// the net/http/pprof and expvar imports register.
	s, err := newServer(config{modelPath: *modelPath, cacheEntries: *cacheEntries, registryDir: *registryDir},
		logger, http.DefaultServeMux)
	if err != nil {
		logger.Error("starting t3serve", "err", err)
		os.Exit(1)
	}

	// The metrics snapshot doubles as an expvar, so stock expvar tooling
	// (and /debug/vars) sees the same numbers as /metrics.
	expvar.Publish("t3_metrics", expvar.Func(func() any { return obs.Default.Snapshot() }))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Drift detection runs for the life of the process; ctx.Done doubles as
	// its stop signal during shutdown. A raised alarm runs its retrain
	// episode on this goroutine.
	go s.drift.Run(driftTick, ctx.Done())

	srv := &http.Server{
		Addr:              *addr,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}

	errc := make(chan error, 2)
	var tcpLn net.Listener
	if *tcpAddr != "" {
		tcpLn, err = net.Listen("tcp", *tcpAddr)
		if err != nil {
			logger.Error("tcp listen", "addr", *tcpAddr, "err", err)
			os.Exit(1)
		}
		logger.Info("t3serve wire listener", "addr", tcpLn.Addr().String())
		go func() {
			if err := s.core.ServeTCP(tcpLn); err != nil {
				errc <- fmt.Errorf("tcp server: %w", err)
			}
		}()
	}

	logger.Info("t3serve listening", "addr", *addr, "model", *modelPath, "cache", *cacheEntries)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- fmt.Errorf("http server: %w", err)
		}
	}()

	select {
	case <-ctx.Done():
		logger.Info("shutting down", "reason", "signal")
	case err := <-errc:
		logger.Error("server stopped", "err", err)
		os.Exit(1)
	}

	// Graceful drain: stop accepting, let in-flight requests finish.
	if tcpLn != nil {
		_ = tcpLn.Close()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("shutdown", "err", err)
		os.Exit(1)
	}
	logger.Info("bye")
}
