#!/bin/sh
# serve_smoke.sh — the CI daemon smoke: boot twocsd, hold it to the
# service contracts end to end, and shut it down like production would
# (SIGTERM), checking:
#
#   - the daemon announces its bound address on stderr and /healthz
#     answers while it serves;
#   - POST /v1/study twice with equivalent specs (second one permuted):
#     the first is a cache miss, the second a hit with a byte-identical
#     body, and /metrics shows exactly one twocs_serve_cache_miss and
#     one twocs_serve_cache_hit;
#   - POST /v1/sweep streams NDJSON whose every line is valid JSON,
#     whose trailer is complete with rows == data lines, and whose row
#     count /progress agrees with after the stream;
#   - an over-limit request body (5 MB, above the 4 MiB bound) is
#     answered 413, and the daemon still answers /healthz and a study;
#   - SIGTERM exits 0 with the shutdown announcement — the leak-free
#     drain path, not a kill.
#
# Usage: scripts/serve_smoke.sh [binary]   (default: build ./cmd/twocsd)
set -eu

BIN=${1:-}
if [ -z "$BIN" ]; then
    BIN=$(mktemp -d)/twocsd
    go build -o "$BIN" ./cmd/twocsd
fi

WORK=$(mktemp -d)
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

"$BIN" -addr 127.0.0.1:0 2> "$WORK/stderr.txt" &
PID=$!

ADDR=
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's#^twocsd: listening on http://##p' "$WORK/stderr.txt" | head -1)
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "daemon died during startup"; cat "$WORK/stderr.txt"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "daemon never announced an address"; cat "$WORK/stderr.txt"; exit 1; }

curl -sf "http://$ADDR/healthz" | grep -q '^ok$'

# Study twice: equivalent specs (axes permuted and duplicated the
# second time) must land on one cache entry.
curl -sf -D "$WORK/h1.txt" -o "$WORK/b1.json" -X POST \
    -d '{"h":[1024,2048],"sl":[1024],"tp":[4,8,16],"flopbw":[1,2],"target_fraction":0.5}' \
    "http://$ADDR/v1/study"
curl -sf -D "$WORK/h2.txt" -o "$WORK/b2.json" -X POST \
    -d '{"tp":[16,8,4,8],"sl":[1024],"h":[2048,1024],"b":1,"flopbw":[2,1]}' \
    "http://$ADDR/v1/study"
grep -qi '^X-Twocsd-Cache: miss' "$WORK/h1.txt" || { echo "first study was not a miss"; cat "$WORK/h1.txt"; exit 1; }
grep -qi '^X-Twocsd-Cache: hit' "$WORK/h2.txt" || { echo "second study was not a hit"; cat "$WORK/h2.txt"; exit 1; }
cmp "$WORK/b1.json" "$WORK/b2.json" || { echo "cached body differs from computed body"; exit 1; }

# The study body is well-formed: scenarios with points and crossover
# tables, spec echoed in normalized form.
python3 - "$WORK/b1.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["spec"]["h"] == [1024, 2048], r["spec"]
assert r["spec"]["target_fraction"] == 0.5, r["spec"]
assert r["points"] > 0 and len(r["scenarios"]) == 2, (r["points"], len(r["scenarios"]))
for sc in r["scenarios"]:
    assert sc["points"] and sc["crossover"], sc["evo"]
    for p in sc["points"]:
        assert 0 <= p["comm_frac"] <= 1, p
EOF

# The request metrics on /metrics agree with what just happened.
curl -sf "http://$ADDR/metrics" > "$WORK/metrics.txt"
grep -q '^twocs_serve_cache_miss 1$' "$WORK/metrics.txt" || { echo "cache miss counter wrong"; grep twocs_serve "$WORK/metrics.txt"; exit 1; }
grep -q '^twocs_serve_cache_hit 1$' "$WORK/metrics.txt" || { echo "cache hit counter wrong"; grep twocs_serve "$WORK/metrics.txt"; exit 1; }

# Sweep: machine-check the NDJSON artifact and its trailer.
curl -sf -X POST \
    -d '{"h":[1024,2048],"sl":[1024,2048],"tp":[4,8],"flopbw":[1,2]}' \
    "http://$ADDR/v1/sweep" > "$WORK/sweep.ndjson"
python3 - "$WORK/sweep.ndjson" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
rows = [json.loads(l) for l in lines]          # every line must parse
trailer = rows[-1]
data = rows[:-1]
assert trailer.get("trailer") is True, trailer
assert trailer["complete"] is True and not trailer.get("reason"), trailer
assert trailer["rows"] == trailer["total"] == len(data), (trailer, len(data))
assert not any(r.get("canceled") for r in data), "complete sweep has canceled rows"
EOF

# /progress describes the sweep that just finished, agreeing with the
# trailer's verdict and row count.
curl -sf "http://$ADDR/progress" > "$WORK/progress.json"
python3 - "$WORK/progress.json" "$WORK/sweep.ndjson" <<'EOF'
import json, sys
p = json.load(open(sys.argv[1]))
trailer = json.loads([l for l in open(sys.argv[2]) if l.strip()][-1])
assert p["label"] == "sweep-stream", p
assert p["done"] and p["complete"], p
assert p["rows"] == trailer["rows"] and p["total"] == trailer["total"], (p, trailer)
EOF

# An over-limit body: one h value repeated a million times, 5 MB of
# JSON. The daemon reads no more than its body limit and answers 413,
# then keeps serving.
python3 -c 'import sys; sys.stdout.write("{\"h\":[" + "1024," * 1000000 + "1024]}")' > "$WORK/big.json"
CODE=$(curl -s -o "$WORK/big.txt" -w '%{http_code}' -X POST --data-binary @"$WORK/big.json" "http://$ADDR/v1/study" || true)
[ "$CODE" = 413 ] || { echo "over-limit body: status $CODE, want 413"; cat "$WORK/big.txt"; exit 1; }
curl -sf "http://$ADDR/healthz" | grep -q '^ok$' || { echo "/healthz failed after the over-limit body"; exit 1; }
curl -sf -o "$WORK/b3.json" -X POST -d '{"h":[4096],"sl":[2048],"tp":[8,16]}' "http://$ADDR/v1/study" ||
    { echo "study failed after the over-limit body"; exit 1; }
python3 -c 'import json, sys; assert json.load(open(sys.argv[1]))["points"] > 0' "$WORK/b3.json"

# SIGTERM: graceful, announced, exit 0.
kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
[ "$STATUS" -eq 0 ] || { echo "SIGTERM exit status $STATUS, want 0"; cat "$WORK/stderr.txt"; exit 1; }
grep -q '^twocsd: shutting down$' "$WORK/stderr.txt" || { echo "no shutdown announcement"; cat "$WORK/stderr.txt"; exit 1; }

echo "serve_smoke: OK (served at $ADDR)"
