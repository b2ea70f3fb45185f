// Command t3train builds the training corpus (generate instances, generate
// queries, execute and benchmark them), trains a T3 model, evaluates it on
// the held-out TPC-DS instances, and saves the model as JSON.
//
// Usage:
//
//	t3train [-scale 0.4] [-pergroup 8] [-runs 3] [-rounds 200] [-seed 1] \
//	        [-workers 0] [-stats] [-log text|json] [-o models/t3_default.json] \
//	        [-registry dir]
//
// With -registry the trained model is also written to the versioned model
// registry (internal/registry) — the same store t3serve's retrain control
// plane promotes from — stamped with the held-out corpus fingerprint so a
// later shadow comparison can tell which evaluation set the recorded
// accuracy refers to.
//
// The held-out evaluation doubles as online drift accounting: every
// prediction is scored against the measured execution time through
// t3.RecordObserved, so -stats shows the q-error drift histogram alongside
// the training metrics (rounds, per-round timing, rows/sec).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"t3"
	"t3/internal/benchdata"
	"t3/internal/obs"
	"t3/internal/qerror"
	"t3/internal/registry"
	"t3/internal/workload"
)

func main() {
	var (
		scale      = flag.Float64("scale", 0.4, "instance size multiplier (1 = full-size lite instances)")
		perGroup   = flag.Int("pergroup", 8, "generated queries per structure group per instance (paper: 40)")
		runs       = flag.Int("runs", 3, "timing runs per query (paper: 10)")
		rounds     = flag.Int("rounds", 200, "boosting rounds")
		workers    = flag.Int("workers", 0, "parallel workers for training and prediction (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "generator seed")
		out        = flag.String("o", "models/t3_default.json", "output model path")
		cardMode   = flag.String("cards", "true", "cardinality mode to train on: true|est")
		saveCorpus = flag.String("save-corpus", "", "save the benchmarked corpus to this path (.json or .json.gz)")
		loadCorpus = flag.String("load-corpus", "", "retrain from a saved corpus instead of benchmarking")
		stats      = flag.Bool("stats", false, "dump the observability registry to stderr on exit")
		logFormat  = flag.String("log", "text", "log format: text|json")
		regDir     = flag.String("registry", "", "also register the model in this versioned registry directory")
	)
	flag.Parse()
	obs.SetupLogging(os.Stderr, *logFormat, false)

	fail := func(msg string, err error) {
		slog.Error(msg, "err", err)
		if *stats {
			fmt.Fprint(os.Stderr, obs.Default.DumpText())
		}
		os.Exit(1)
	}

	start := time.Now()
	var corpus *benchdata.Corpus
	var err error
	if *loadCorpus != "" {
		slog.Info("loading corpus", "path", *loadCorpus)
		corpus, err = benchdata.LoadCorpus(*loadCorpus)
		if err != nil {
			fail("loading corpus", err)
		}
	} else {
		cfg := benchdata.Config{
			Scale:         *scale,
			PerGroup:      *perGroup,
			Runs:          *runs,
			Seed:          *seed,
			ReleaseTables: true,
			Progress:      func(s string) { slog.Info(s) },
		}
		slog.Info("building corpus", "scale", *scale, "queries_per_group", *perGroup, "runs", *runs)
		corpus, err = benchdata.BuildCorpus(cfg)
		if err != nil {
			fail("building corpus", err)
		}
	}
	slog.Info("corpus ready",
		"elapsed", time.Since(start).Round(time.Second),
		"train_queries", len(corpus.AllTrain()), "test_queries", len(corpus.AllTest()))
	if *saveCorpus != "" {
		if err := benchdata.SaveCorpus(corpus, *saveCorpus); err != nil {
			fail("saving corpus", err)
		}
		slog.Info("corpus saved", "path", *saveCorpus)
	}

	mode := t3.TrueCards
	if *cardMode == "est" {
		mode = t3.EstCards
	}
	params := t3.DefaultParams()
	params.NumRounds = *rounds
	params.Workers = *workers
	trainStart := time.Now()
	model, err := t3.Train(corpus.AllTrain(), t3.TrainOptions{Params: params, CardMode: mode})
	if err != nil {
		fail("training", err)
	}
	model.SetWorkers(*workers)
	slog.Info("trained", "trees", *rounds, "elapsed", time.Since(trainStart).Round(time.Millisecond))

	// Held-out evaluation: every prediction is scored against the measured
	// execution time, which also feeds the online drift histogram.
	test := corpus.AllTest()
	roots := make([]*t3.Plan, len(test))
	for i, b := range test {
		roots[i] = b.Root
	}
	preds := model.PredictBatch(roots, mode)
	es := make([]float64, len(test))
	for i, b := range test {
		es[i] = t3.RecordObserved(preds[i], b.MedianTotal())
	}
	s := qerror.Summarize(es)
	slog.Info("TPC-DS zero-shot accuracy", "p50", s.P50, "p90", s.P90, "avg", s.Avg, "n", s.N)

	if dir := filepath.Dir(*out); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fail("creating output dir", err)
		}
	}
	if err := model.Save(*out); err != nil {
		fail("saving model", err)
	}
	fmt.Printf("model saved to %s\n", *out)

	if *regDir != "" {
		reg, err := registry.Open(*regDir)
		if err != nil {
			fail("opening registry", err)
		}
		ver, err := register(reg, registry.Meta{
			CreatedUnixNs:      time.Now().UnixNano(),
			Source:             "t3train",
			TrainLabels:        len(corpus.AllTrain()),
			HoldoutLabels:      len(test),
			HoldoutFingerprint: (&workload.LabelSet{Labels: test}).Fingerprint(),
			Note: fmt.Sprintf("t3train -scale %g -pergroup %d -runs %d -rounds %d -seed %d (zero-shot p50 %.3f p90 %.3f)",
				*scale, *perGroup, *runs, *rounds, *seed, s.P50, s.P90),
		}, model)
		if err != nil {
			fail("registering model", err)
		}
		slog.Info("model registered", "registry", reg.Dir(), "version", ver)
	}
	if *stats {
		fmt.Fprint(os.Stderr, obs.Default.DumpText())
	}
}

// register writes m to the registry as its next version. The registry's
// latest version, the one a server booting from it would have served, is
// recorded as the parent, so the new version has a rollback target.
func register(reg *registry.Registry, meta registry.Meta, m *t3.Model) (int, error) {
	meta.ParentVersion = registry.ParentLatest
	return reg.Put(&registry.Artifact{Meta: meta, GBM: m.Boosted()})
}
