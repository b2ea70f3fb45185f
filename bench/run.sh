#!/usr/bin/env bash
# The benchmark contract's entry point (BENCHMARK.json "command"):
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# It builds the benchmark from source into bench/out/, keeps the Go build
# cache there too, so that a run reads and writes nothing outside its
# checkout, and runs the one workload; the program ends its output with the
# contract's JSON object. The first call in a checkout compiles (about a
# minute on two cores); later calls find everything up to date.
#
# Developers run the program directly instead: cd bench && go run . -h
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$bench/out"
mkdir -p "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath" # nothing is downloaded: no module has a dependency
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local

args=(-warmup 1500ms)
while (($#)); do
	case $1 in
	--workload) args+=(-workloads "$2") ;;
	--seed) args+=(-seed "$2") ;;
	--seconds) args+=(-window "$2s") ;;
	--trace) args+=("-trace=$2") ;;
	*)
		echo "run.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
	shift 2
done

(cd "$bench" && go build -o "$out/bench" .)
exec "$out/bench" -root "$bench/.." -out "$out" "${args[@]}"
