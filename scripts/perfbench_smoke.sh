#!/bin/sh
# perfbench_smoke.sh — run every BENCHMARK.json workload for a couple of
# seconds and fail unless each run exits 0 and its result line (the last
# line of stdout) reads "correct":true with "failed":0. A correct run has
# matched its output goldens: sweep_sha256, search_digest,
# simulate_digest and proj_err_pct. The traced sweep runs as well, so
# the per-layer instrumentation is exercised too.
#
# Usage: scripts/perfbench_smoke.sh
set -eu
cd "$(dirname "$0")/.."

smoke() {
    if ! out=$(python3 perfbench/run.py --workload "$1" --seed 1 --seconds 2 --trace "$2"); then
        echo "perfbench_smoke: $1 --trace $2 exited non-zero" >&2
        exit 1
    fi
    last=$(printf '%s\n' "$out" | tail -n 1)
    case "$last" in
    '{"correct":true,'*'"failed":0,'*) echo "ok   $1 --trace $2" ;;
    *)
        echo "perfbench_smoke: $1 --trace $2: $last" >&2
        exit 1
        ;;
    esac
}

for w in sweep search study simulate; do
    smoke "$w" 0
done
smoke sweep 1
