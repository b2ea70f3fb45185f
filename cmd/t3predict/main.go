// Command t3predict loads a trained T3 model and predicts the execution
// time of annotated physical plans given as JSON (see internal/planio for
// the schema). A single plan prints the total prediction and the
// per-pipeline breakdown; multiple plans are predicted as one batch across
// the worker pool and printed as a summary table.
//
// Usage:
//
//	t3predict -model models/t3_default.json [-cards true|est] plan.json [plan2.json ...]
//	cat plan.json | t3predict -model models/t3_default.json -
//
// -json emits the predictions plus the metrics snapshot (the same schema
// cmd/t3serve exposes at /metrics.json) for CI diffing; -stats dumps the
// observability registry in human-readable form.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"t3"
	"t3/internal/obs"
	"t3/internal/planio"
)

// minLatencySamples is the smallest sample count for which the reported
// p99 is meaningful: below it the tail quantiles collapse onto the max.
const minLatencySamples = 100

// measureLatency times reps scratch-path predictions of every plan into a
// shared-quantile-code histogram and returns its snapshot. It warns when
// the sample count is too small for a trustworthy tail.
func measureLatency(model *t3.Model, roots []*t3.Plan, mode t3.CardMode, reps int) obs.HistSnapshot {
	h := obs.NewHistogram("t3predict_latency_seconds", "", obs.UnitNanoseconds)
	var s t3.PredictScratch
	for _, r := range roots { // warm the scratch so timing sees steady state
		model.PredictPlanScratch(r, mode, &s)
	}
	for i := 0; i < reps; i++ {
		for _, r := range roots {
			start := time.Now()
			model.PredictPlanScratch(r, mode, &s)
			h.Since(start)
		}
	}
	snap := h.Snapshot()
	if snap.Count < minLatencySamples {
		slog.Warn("latency sample count too small for a meaningful p99",
			"samples", snap.Count, "want", minLatencySamples)
	}
	return snap
}

// jsonOutput is the -json schema: per-plan predictions plus the metrics
// snapshot (the same schema t3serve serves at /metrics.json).
type jsonOutput struct {
	Schema  string       `json:"schema"`
	Plans   []jsonPlan   `json:"plans"`
	Metrics obs.Snapshot `json:"metrics"`
}

type jsonPlan struct {
	Plan        string `json:"plan"`
	PredictedNs int64  `json:"predicted_ns"`
	Predicted   string `json:"predicted"`
}

func main() {
	var (
		modelPath = flag.String("model", "models/t3_default.json", "trained model (JSON)")
		cards     = flag.String("cards", "true", "cardinality annotations to use: true|est")
		workers   = flag.Int("workers", 0, "parallel workers for batched prediction (0 = GOMAXPROCS)")
		verbose   = flag.Bool("v", false, "print the feature vectors")
		stats     = flag.Bool("stats", false, "dump the observability registry to stderr on exit")
		jsonOut   = flag.Bool("json", false, "emit predictions + metrics snapshot as JSON")
		logFormat = flag.String("log", "text", "log format: text|json")
	)
	flag.Parse()
	obs.SetupLogging(os.Stderr, *logFormat, false)
	if flag.NArg() < 1 {
		slog.Error("usage: t3predict [-model m.json] [-cards true|est] <plan.json|-> [plan2.json ...]")
		os.Exit(2)
	}

	roots := make([]*t3.Plan, flag.NArg())
	for i, arg := range flag.Args() {
		var data []byte
		var err error
		if arg == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(arg)
		}
		if err != nil {
			slog.Error("reading plan", "arg", arg, "err", err)
			os.Exit(1)
		}
		if roots[i], err = planio.Unmarshal(data); err != nil {
			slog.Error("decoding plan", "arg", arg, "err", err)
			os.Exit(1)
		}
	}
	model, err := t3.Load(*modelPath)
	if err != nil {
		slog.Error("loading model", "path", *modelPath, "err", err)
		os.Exit(1)
	}
	model.SetWorkers(*workers)
	mode := t3.TrueCards
	if *cards == "est" {
		mode = t3.EstCards
	}
	if *stats {
		defer func() { fmt.Fprint(os.Stderr, obs.Default.DumpText()) }()
	}

	if *jsonOut {
		totals := model.PredictBatch(roots, mode)
		measureLatency(model, roots, mode, 100)
		out := jsonOutput{Schema: "t3/metrics-snapshot/v1", Metrics: obs.Default.Snapshot()}
		for i, d := range totals {
			out.Plans = append(out.Plans, jsonPlan{Plan: flag.Arg(i), PredictedNs: d.Nanoseconds(), Predicted: d.String()})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			slog.Error("encoding output", "err", err)
			os.Exit(1)
		}
		return
	}

	if len(roots) > 1 {
		// Many plans: one batched prediction over the worker pool.
		totals := model.PredictBatch(roots, mode)
		fmt.Printf("%-30s %14s\n", "plan", "predicted")
		for i, d := range totals {
			fmt.Printf("%-30s %14v\n", flag.Arg(i), d)
		}
		lat := measureLatency(model, roots, mode, 100)
		fmt.Printf("per-query prediction latency: p50 %v, p95 %v, p99 %v (n=%d)\n",
			lat.QuantileDuration(0.50), lat.QuantileDuration(0.95), lat.QuantileDuration(0.99), lat.Count)
		return
	}

	root := roots[0]
	total, per := model.PredictPlan(root, mode)
	fmt.Printf("predicted execution time: %v\n", total)
	lat := measureLatency(model, roots, mode, 300)
	fmt.Printf("prediction latency: p50 %v, p95 %v, p99 %v (n=%d)\n",
		lat.QuantileDuration(0.50), lat.QuantileDuration(0.95), lat.QuantileDuration(0.99), lat.Count)
	fmt.Printf("%-10s %14s %14s %14s\n", "pipeline", "per-tuple", "cardinality", "total")
	for _, p := range per {
		fmt.Printf("P%-9d %12.3gs %14.0f %14v\n", p.Index, p.PerTupleSeconds, p.Cardinality, p.Total)
	}
	if *verbose {
		vecs, _ := t3.Featurize(root, mode)
		reg := model.Registry()
		for i, v := range vecs {
			fmt.Printf("\npipeline %d features:\n%s", i, reg.Describe(v))
		}
	}
}
