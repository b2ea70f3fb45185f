#!/usr/bin/env bash
# bench_serve.sh — serving-tier benchmark matrix for cmd/t3serve.
#
# Boots t3serve and drives cmd/t3loadgen over every protocol, then once
# more against a cache-disabled server to isolate what the prediction cache
# buys. Results accumulate as
# JSON lines in BENCH_serve.json (one t3/metrics-snapshot/v1 record per
# line: the run under "run", client-side latency metrics under "metrics").
# After each phase the server's own /metrics.json snapshot — the same
# schema — is saved next to it (BENCH_serve.server-<phase>.json), so client
# and server views of one run diff uniformly.
#
# Knobs (environment):
#   DUR=5s WARM=1s CONC=8 OUT=BENCH_serve.json scripts/bench_serve.sh
set -euo pipefail
cd "$(dirname "$0")/.."

DUR=${DUR:-5s}
WARM=${WARM:-1s}
CONC=${CONC:-8}
OUT=${OUT:-BENCH_serve.json}
HTTP_ADDR=${HTTP_ADDR:-127.0.0.1:18080}
TCP_ADDR=${TCP_ADDR:-127.0.0.1:18091}

bindir=$(mktemp -d)
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$bindir"
}
trap cleanup EXIT

echo "building t3serve + t3loadgen..."
go build -o "$bindir" ./cmd/t3serve ./cmd/t3loadgen

start_serve() { # args: extra t3serve flags
    "$bindir/t3serve" -addr "$HTTP_ADDR" -tcp "$TCP_ADDR" \
        -model models/t3_default.json "$@" >"$bindir/serve.log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 100); do
        curl -fsS "http://$HTTP_ADDR/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "t3serve did not come up:" >&2
    cat "$bindir/serve.log" >&2
    exit 1
}

stop_serve() {
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    serve_pid=""
}

gen() { # args: name proto addr [extra flags]
    local name=$1 proto=$2 addr=$3
    shift 3
    "$bindir/t3loadgen" -addr "$addr" -proto "$proto" -concurrency "$CONC" \
        -duration "$DUR" -warmup "$WARM" -name "$name" -out "$OUT" "$@" >/dev/null
}

snap() { # capture the server-side metrics snapshot of the current phase
    curl -fsS "http://$HTTP_ADDR/metrics.json" >"${OUT%.json}.server-$1.json"
}

qps() { # extract qps of the named record from $OUT
    grep "\"name\":\"$1\"" "$OUT" | tail -1 | sed 's/.*"qps":\([0-9.]*\).*/\1/'
}

: >"$OUT"

echo "=== cache enabled ==="
start_serve
gen json-baseline      json "$HTTP_ADDR"
gen bin-cached         bin  "$HTTP_ADDR"
gen tcp-cached         tcp  "$TCP_ADDR"
gen tcp-cache-hot      tcp  "$TCP_ADDR" -distinct 1
snap cached
stop_serve

echo "=== cache disabled (isolation run) ==="
start_serve -cache 0
gen bin-nocache        bin  "$HTTP_ADDR"
gen tcp-nocache        tcp  "$TCP_ADDR" -distinct 1
snap nocache
stop_serve

json_qps=$(qps json-baseline)
bin_qps=$(qps bin-cached)
tcp_qps=$(qps tcp-cached)
hot_qps=$(qps tcp-cache-hot)
cold_qps=$(qps tcp-nocache)

echo
echo "results ($OUT):"
awk -v j="$json_qps" -v b="$bin_qps" -v t="$tcp_qps" -v h="$hot_qps" -v c="$cold_qps" 'BEGIN {
    printf "  JSON /predict         %10.0f QPS (baseline)\n", j
    printf "  binary /predict.bin   %10.0f QPS (%.1fx JSON)\n", b, b/j
    printf "  binary TCP            %10.0f QPS (%.1fx JSON)\n", t, t/j
    printf "  TCP single-plan hot   %10.0f QPS (cache on)\n", h
    printf "  TCP single-plan cold  %10.0f QPS (cache off, %.1fx slower)\n", c, h/c
    ok = 1
    if (j <= 0 || b <= 0 || t <= 0 || h <= 0 || c <= 0) { print "FAIL: a run recorded zero QPS"; ok = 0 }
    if (b < 2*j) { printf "FAIL: binary endpoint %.1fx JSON, want >= 2x\n", b/j; ok = 0 }
    if (h <= c)  { print "FAIL: prediction cache shows no speedup"; ok = 0 }
    exit ok ? 0 : 1
}'
