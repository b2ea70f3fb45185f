# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet bench bench-baseline bench-predict bench-engine bench-serve bench-planner fuzz-smoke train compile experiments serve clean

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Full benchmark harness: one benchmark per paper table/figure.
bench:
	go test -bench=. -benchmem -run xxx .

# Training/prediction perf baseline: BenchmarkTrain across worker counts plus
# batched prediction, as machine-readable JSON for the perf trajectory.
bench-baseline:
	go test -run xxx -bench '^(BenchmarkTrain|BenchmarkPredictBatch)$$' -benchmem -json . > BENCH_train.json

# Prediction hot-path smoke: single/batch prediction benchmarks with alloc
# counts, as machine-readable JSON (mirrors the CI bench-smoke job).
bench-predict:
	go test -run xxx -bench=Predict -benchtime=100x -benchmem -json . > BENCH_predict.json

# Engine-kernel baseline: hash-join and group-by kernels (open-addressing vs
# the map baseline on identical inputs), morsel-parallel single-pipeline
# scaling, and label-collection throughput by worker count, as
# machine-readable JSON.
bench-engine:
	go test -run xxx -bench '^(BenchmarkHashJoin|BenchmarkGroupBy|BenchmarkParallelPipeline)$$' -benchmem -json ./internal/engine/exec/ > BENCH_engine.json
	go test -run xxx -bench '^BenchmarkLabelCollect$$' -benchmem -json ./internal/workload/ >> BENCH_engine.json

# Serving-tier benchmark matrix: boots t3serve and drives t3loadgen over
# JSON, binary HTTP, and raw TCP, with and without the prediction cache and
# request coalescing, into BENCH_serve.json. `make bench-serve DUR=10s CONC=16`
# passes through to the script.
bench-serve:
	DUR=$(or $(DUR),5s) CONC=$(or $(CONC),8) scripts/bench_serve.sh

# Planner-costing benchmark: DPsize join-order enumeration across costing
# paths, all on treec.Packed (scalar without the open-pipeline memo as the
# baseline, scalar with it, level-batched over the rows kernel),
# plan-quality execution, and the batched-dispatch scheduling comparison,
# into BENCH_planner.json; asserts bit-identical plans and the batched
# speedup floor. `make bench-planner FULL=1 MIN_SPEEDUP=4` passes through.
bench-planner:
	FULL=$(or $(FULL),0) MIN_SPEEDUP=$(or $(MIN_SPEEDUP),2.5) scripts/bench_planner.sh

# Short fuzzing pass over every native fuzz target, starting from the
# checked-in corpora under testdata/fuzz/. Override the per-target budget
# with e.g. `make fuzz-smoke FUZZTIME=2m`.
FUZZTIME ?= 20s

fuzz-smoke:
	go test -run xxx -fuzz '^FuzzExecDifferential$$' -fuzztime $(FUZZTIME) ./internal/engine/exec/
	go test -run xxx -fuzz '^FuzzTreeTiers$$' -fuzztime $(FUZZTIME) ./internal/treec/
	go test -run xxx -fuzz '^FuzzDecodePacked$$' -fuzztime $(FUZZTIME) ./internal/treec/
	go test -run xxx -fuzz '^FuzzPlanIO$$' -fuzztime $(FUZZTIME) ./internal/planio/
	go test -run xxx -fuzz '^FuzzSQL$$' -fuzztime $(FUZZTIME) ./internal/sql/
	go test -run xxx -fuzz '^FuzzHistogramMerge$$' -fuzztime $(FUZZTIME) ./internal/obs/
	go test -run xxx -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/wire/
	go test -run xxx -fuzz '^FuzzServeConn$$' -fuzztime $(FUZZTIME) ./internal/serve/

# Rebuild the checked-in model and its compiled form.
train:
	go run ./cmd/t3train -scale 0.2 -pergroup 4 -runs 2 -rounds 200 -o models/t3_default.json

compile:
	go run ./cmd/t3compile -in models/t3_default.json -out internal/compiled/model_gen.go -pkg compiled

# Reproduce every table and figure of the paper (quick config).
experiments:
	go run ./cmd/t3bench

# Serve predictions over HTTP with /metrics, expvar, and pprof attached.
serve:
	go run ./cmd/t3serve -model models/t3_default.json

clean:
	go clean ./...
