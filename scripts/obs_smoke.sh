#!/bin/sh
# obs_smoke.sh — the CI observability smoke: launch a streaming sweep
# with the live plane armed (-http, -sample, -progress), hold it
# MID-RUN, scrape the debug server, and hold the answers to the wire
# contracts:
#
#   - /healthz answers "ok" while the sweep is still streaming;
#   - /metrics is well-formed Prometheus text exposition (every sample
#     line's metric has a # TYPE header, counters are integers) and the
#     twocs_core_stream_rows counter is nonzero;
#   - /progress is valid JSON naming the sweep-stream label and says
#     the stream is not done — proof the scrapes landed mid-stream;
#   - the -progress NDJSON heartbeats on stderr are valid JSON events;
#   - the run itself still exits 0 with its artifact intact.
#
# Usage: scripts/obs_smoke.sh [binary]   (default: build ./cmd/twocs)
set -eu

BIN=${1:-}
if [ -z "$BIN" ]; then
    BIN=$(mktemp -d)/twocs
    go build -o "$BIN" ./cmd/twocs
fi

WORK=$(mktemp -d)
PID= DRAIN=
# A held sweep blocks in a write to the FIFO, which it opened read-write
# itself, and does not return to act on SIGTERM; only SIGKILL frees it.
# A signal to this script exits through the same cleanup.
trap 'kill -9 $PID $DRAIN 2>/dev/null || true; rm -rf "$WORK"' EXIT
trap 'exit 1' HUP INT TERM

# The sweep writes its artifact into a FIFO that nothing reads until
# the scrapes are done, so it stalls once the pipe fills, a few hundred
# rows in, however fast it streams. Holding the FIFO open read-write on
# fd 3 keeps the sweep's open from blocking; fd 3 is never read.
mkfifo "$WORK/rows.fifo"
exec 3<>"$WORK/rows.fifo"
"$BIN" -http 127.0.0.1:0 -sample 100ms -progress 200ms \
    sweep-stream -scenarios 2000 -out "$WORK/rows.fifo" \
    > "$WORK/stdout.txt" 2> "$WORK/stderr.txt" 3<&- &
PID=$!

# The bound address is announced on stderr; poll for it once the
# backgrounded run has created the file.
ADDR=
i=0
while [ $i -lt 100 ]; do
    if [ -f "$WORK/stderr.txt" ]; then
        ADDR=$(sed -n 's#^twocs: debug server listening on http://##p' "$WORK/stderr.txt" | head -1)
        [ -n "$ADDR" ] && break
    fi
    kill -0 "$PID" 2>/dev/null || { echo "run died before serving"; cat "$WORK/stderr.txt"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "debug server never announced an address"; cat "$WORK/stderr.txt"; exit 1; }

# Poll /metrics until the stream has emitted rows (a mid-run scrape).
SCRAPED=0
i=0
while [ $i -lt 100 ]; do
    if curl -sf "http://$ADDR/metrics" > "$WORK/metrics.txt" 2>/dev/null; then
        ROWS=$(sed -n 's/^twocs_core_stream_rows \([0-9][0-9]*\)$/\1/p' "$WORK/metrics.txt")
        if [ -n "$ROWS" ] && [ "$ROWS" -gt 0 ]; then SCRAPED=1; break; fi
    fi
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.1
    i=$((i + 1))
done
[ "$SCRAPED" -eq 1 ] || { echo "never scraped a nonzero rows counter mid-run"; cat "$WORK/metrics.txt" 2>/dev/null || true; exit 1; }

curl -sf "http://$ADDR/healthz" | grep -q '^ok$'
curl -sf "http://$ADDR/progress" > "$WORK/progress.json"

kill -0 "$PID" 2>/dev/null || { echo "run exited before the scrapes finished"; exit 1; }

# Well-formed Prometheus text: every sample line's metric family has a
# matching # TYPE header, and the scraped counter is an integer.
python3 - "$WORK/metrics.txt" <<'EOF'
import re, sys
typed, sampled = set(), set()
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# TYPE "):
        parts = line.split()
        assert len(parts) == 4 and parts[3] in ("counter", "gauge", "histogram"), line
        typed.add(parts[2])
    elif line.startswith("#"):
        continue
    else:
        m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$', line)
        assert m, f"malformed sample line: {line!r}"
        name = m.group(1)
        base = re.sub(r'_(bucket|sum|count|p50|p95|p99)$', '', name)
        sampled.add((name, base))
for name, base in sampled:
    assert name in typed or base in typed, f"sample {name} has no # TYPE header"
assert any(n == "twocs_core_stream_rows" for n, _ in sampled)
EOF

# /progress is valid JSON for the live sweep, scraped before it ended.
python3 - "$WORK/progress.json" <<'EOF'
import json, sys
p = json.load(open(sys.argv[1]))
assert p["label"] == "sweep-stream", p
assert p["total"] > 0, p
assert not p["done"] and 0 < p["rows"] < p["total"], p
EOF

# Release the sweep: drain the FIFO into the artifact, then close the
# shell's own end, so the drain sees EOF once the sweep closes its file.
cat "$WORK/rows.fifo" 3<&- > "$WORK/rows.ndjson" &
DRAIN=$!
exec 3<&-
wait "$PID"
wait "$DRAIN"

# Heartbeats: every NDJSON event line on stderr parses, and the final
# one reports the completed stream.
grep '"event":"progress"' "$WORK/stderr.txt" > "$WORK/heartbeats.ndjson"
python3 - "$WORK/heartbeats.ndjson" <<'EOF'
import json, sys
events = [json.loads(l) for l in open(sys.argv[1])]
assert events, "no heartbeat events on stderr"
assert all(e["event"] == "progress" for e in events)
last = events[-1]
assert last["done"] and last["complete"], last
EOF

# The artifact is intact: complete trailer on the streamed rows.
tail -1 "$WORK/rows.ndjson" | grep -q '"complete":true'

echo "obs_smoke: OK (scraped live at $ADDR)"
