# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet bench microbench fuzz-smoke train experiments serve clean

all: build vet test

build:
	go build ./...

# gofmt -l prints the files it would change; any output fails the target.
vet:
	go vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	go test ./...

# The system benchmark (BENCHMARK.json): six workloads, each in a child
# process, medians over counted repeats. Every system performance number
# quoted in this repository is one of its metrics; see bench/README.md.
bench:
	cd bench && go run .

# The testing.B loops of every package (ns/op, allocs/op): the single-step
# numbers behind cmd/t3bench's Table 1 and Figure 5, the exec and treec
# kernels, label collection and training by worker count.
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
	go test -run xxx -fuzz '^FuzzRegistryDecode$$' -fuzztime $(FUZZTIME) ./internal/registry/
	go test -run xxx -fuzz '^FuzzPlanIO$$' -fuzztime $(FUZZTIME) ./internal/planio/
	go test -run xxx -fuzz '^FuzzSQL$$' -fuzztime $(FUZZTIME) ./internal/sql/
	go test -run xxx -fuzz '^FuzzHistogramMerge$$' -fuzztime $(FUZZTIME) ./internal/obs/
	go test -run xxx -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/wire/
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
