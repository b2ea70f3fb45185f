# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet loc bench microbench fuzz-smoke train experiments serve clean

all: build vet test

build:
	go build ./...

# gofmt -l prints the files it would change; any output fails the target.
vet:
	go vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	go test ./...

# Non-test Go lines per package, bench/ included, and their total: the
# "non-test LOC before -> after" figure simplicity changes report.
loc:
	@{ go list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... && \
	   cd bench && go list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./...; } | \
	while read -r pkg files; do \
		if [ -n "$$files" ]; then printf '%7d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; fi; \
	done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'

# The system benchmark (BENCHMARK.json): six workloads, each in a child
# process, medians over counted repeats. Every system performance number
# quoted in this repository is one of its metrics; see bench/README.md.
bench:
	cd bench && go run .

# The testing.B loops of every package (ns/op, allocs/op): the single-step
# numbers behind cmd/t3bench's Table 1 and Figure 5, the exec and treec
# kernels, label collection, training, and served 32-frame miss batches
# from 1, 2 and 4 connections (BenchmarkServeBatchMiss).
microbench:
	go test -run xxx -bench . -benchmem ./...

# Short fuzzing pass over every native fuzz target, starting from the
# checked-in corpora under testdata/fuzz/. Override the per-target budget
# with e.g. `make fuzz-smoke FUZZTIME=2m`.
FUZZTIME ?= 20s

fuzz-smoke:
	go test -run xxx -fuzz '^FuzzExecDifferential$$' -fuzztime $(FUZZTIME) ./internal/engine/exec/
	go test -run xxx -fuzz '^FuzzTreeTiers$$' -fuzztime $(FUZZTIME) ./internal/treec/
	go test -run xxx -fuzz '^FuzzGrow$$' -fuzztime $(FUZZTIME) ./internal/gbdt/
	go test -run xxx -fuzz '^FuzzModelJSON$$' -fuzztime $(FUZZTIME) ./internal/gbdt/
	go test -run xxx -fuzz '^FuzzRegistryDecode$$' -fuzztime $(FUZZTIME) ./internal/registry/
	go test -run xxx -fuzz '^FuzzPlanIO$$' -fuzztime $(FUZZTIME) ./internal/planio/
	go test -run xxx -fuzz '^FuzzHistogramMerge$$' -fuzztime $(FUZZTIME) ./internal/obs/
	go test -run xxx -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/wire/
	go test -run xxx -fuzz '^FuzzPredcache$$' -fuzztime $(FUZZTIME) ./internal/predcache/
	go test -run xxx -fuzz '^FuzzServeConn$$' -fuzztime $(FUZZTIME) ./internal/serve/

# Rebuild the checked-in model.
train:
	go run ./cmd/t3train -scale 0.2 -pergroup 4 -runs 2 -rounds 200 -o models/t3_default.json

# Reproduce every table and figure of the paper (quick config).
experiments:
	go run ./cmd/t3bench

# Serve predictions over HTTP with /metrics, expvar, and pprof attached.
serve:
	go run ./cmd/t3serve -model models/t3_default.json

clean:
	go clean ./...
