#!/usr/bin/env bash
# bench_planner.sh — planner-costing benchmark for the join-order enumerator.
#
# Runs the t3bench "planner" experiment: DPsize enumeration over synthetic
# chain/star/clique join graphs, timed under each costing path, all on
# treec.Packed (scalar DPSize without the open-pipeline memo as the baseline,
# scalar with it, and level-batched costing over the rows kernel), plus
# plan-quality execution of the chosen trees and the batched-dispatch
# scheduling comparison. Structured results land in BENCH_planner.json
# (t3/bench-results/v1), and the script asserts the headline: on the best 8+
# relation graph, batched costing must beat the scalar no-memo path
# (scalar-packed-nomemo) by >= MIN_SPEEDUP, choosing a plan bit-identical
# to the scalar packed reference on every case. The default floor (2.5x) is a
# single-threaded regression guard tolerant of model-training variance and
# noisy runners; measured single-core clique-8 runs land near 4x, and
# multi-worker runs on multicore hardware go well past it because per-level
# prediction batches fan over the worker pool while the scalar path is
# inherently serial.
#
# Knobs (environment):
#   OUT=BENCH_planner.json MIN_SPEEDUP=2.5 FULL=0 scripts/bench_planner.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${OUT:-BENCH_planner.json}
MIN_SPEEDUP=${MIN_SPEEDUP:-2.5}
FULL=${FULL:-0}

flags=(-results "$OUT")
[ "$FULL" = "1" ] && flags+=(-full)

go run ./cmd/t3bench "${flags[@]}" planner

[ -s "$OUT" ] || { echo "FAIL: $OUT is empty" >&2; exit 1; }

# Pull per-case batched speedups out of the results JSON, check bit-identity
# on every case, and enforce the speedup floor on the best 8+ relation case.
go run ./scripts/planner_check.go -in "$OUT" -min-speedup "$MIN_SPEEDUP"
