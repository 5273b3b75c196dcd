#!/bin/sh
# bench_sweep.sh — run the perf-contract benchmarks and record the
# baselines as machine-readable JSON at the repo root.
#
# Three contracts, three files:
#
#   BENCH_sweep.json — the sweep-engine set (root package). The recorded
#     numbers are the telemetry layer's performance contract: with no
#     collector enabled the instrumented sweeps must stay within a few
#     percent of these (the span hot path is a nil check).
#
#   BENCH_sim.json — the compiled-schedule set: the internal/sim
#     re-time benchmarks (BenchmarkProgramReTime*, BenchmarkRunRebuild)
#     plus the evolution-grid benchmark, which is the re-time path's
#     end-to-end effect. Regressions show up as a diff in this file.
#
#   BENCH_stream.json — the streaming-sweep set: per-row sink encoding
#     (NDJSON), the online reducers (Pareto on a coarse stream and on a
#     thousands-row frontier, top-K), the ordered chunk engine, and the
#     arena re-time step that prices one grid point in zero
#     allocations. These are the per-point costs that decide
#     whether a 10⁶-10⁷ point search is practical.
#
# scripts/bench_gate.sh holds a fresh run to the committed sim and
# stream baselines; scripts/bench_report.sh renders all three into
# BENCHMARK.md.
#
# Usage: scripts/bench_sweep.sh [sweep.json] [sim.json] [stream.json]
# Environment: BENCH_COUNT (default 3) -count passed to go test.
set -eu

sweep_out="${1:-BENCH_sweep.json}"
sim_out="${2:-BENCH_sim.json}"
stream_out="${3:-BENCH_stream.json}"
count="${BENCH_COUNT:-3}"
cd "$(dirname "$0")/.."
. scripts/bench_lib.sh

raw_sweep="$(mktemp)"
raw_sim="$(mktemp)"
raw_stream="$(mktemp)"
trap 'rm -f "$raw_sweep" "$raw_sim" "$raw_stream"' EXIT

go test -run '^$' -bench 'Sweep|EvolutionGrid' -benchmem -count="$count" . | tee "$raw_sweep" >&2
go test -run '^$' -bench 'ProgramReTime|RunRebuild' -benchmem -count="$count" ./internal/sim | tee "$raw_sim" >&2
go test -run '^$' -bench 'NDJSONEmit|ParetoEmit|TopKEmit|CalibrationSpin' -benchmem -count="$count" ./internal/stream | tee "$raw_stream" >&2
go test -run '^$' -bench 'StreamCtx' -benchmem -count="$count" ./internal/parallel | tee -a "$raw_stream" >&2

# The grid benchmark belongs to both contracts: it is the sweep set's
# heaviest member and the compiled-schedule layer's acceptance number.
grep '^BenchmarkSerializedEvolutionGrid' "$raw_sweep" >> "$raw_sim"

# The calibration spin (a fixed CPU workload, not a contract) is
# recorded into both gated sets so bench_gate.sh can normalize each for
# machine-speed drift between the baseline run and the gate run.
grep '^BenchmarkCalibrationSpin' "$raw_stream" >> "$raw_sim"

emit_json "$raw_sweep" "$sweep_out" "$count"
emit_json "$raw_sim" "$sim_out" "$count"
emit_json "$raw_stream" "$stream_out" "$count"
