# Developer entry points for the twocs analysis engine. Everything here
# is plain `go` + POSIX sh; CI runs the same steps (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: build test race lint bench bench-sim bench-stream bench-json bench-gate bench-report obs-smoke serve-smoke serve-loadtest clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the repo's own analyzer suite plus gofmt.
lint:
	$(GO) run ./cmd/twocslint ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

# bench prints the sweep-engine benchmarks (the telemetry layer's
# perf-contract set) without updating the recorded baseline.
bench:
	$(GO) test -run '^$$' -bench 'Sweep|EvolutionGrid' -benchmem .

# bench-sim prints the compiled-schedule benchmarks: the internal/sim
# re-time set plus the evolution grid they accelerate.
bench-sim:
	$(GO) test -run '^$$' -bench 'ProgramReTime|RunRebuild' -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench 'SerializedEvolutionGrid' -benchmem .

# bench-stream prints the streaming-sweep benchmarks: sink encoding,
# online reducers (ParetoEmit also selects ParetoEmitFrontier, the
# large-frontier case), and the ordered chunk engine.
bench-stream:
	$(GO) test -run '^$$' -bench 'NDJSONEmit|ParetoEmit|TopKEmit' -benchmem ./internal/stream
	$(GO) test -run '^$$' -bench 'StreamCtx' -benchmem ./internal/parallel

# bench-json refreshes BENCH_sweep.json, BENCH_sim.json, and
# BENCH_stream.json, the recorded baselines the telemetry layer, the
# compiled-schedule layer, and the streaming sweep are held to (see
# EXPERIMENTS.md). Re-render BENCHMARK.md afterwards.
bench-json:
	scripts/bench_sweep.sh
	scripts/bench_report.sh

# bench-gate re-runs the gated sets and fails on a >10% ns/op or any
# allocs/op regression against the committed baselines — the same
# check CI runs.
bench-gate:
	scripts/bench_gate.sh

# bench-report re-renders BENCHMARK.md from the committed baselines.
bench-report:
	scripts/bench_report.sh

# obs-smoke exercises the live observability plane end to end: a
# streaming sweep with -http/-sample/-progress, scraped mid-run — the
# same check CI runs.
obs-smoke:
	scripts/obs_smoke.sh

# serve-smoke exercises the twocsd analysis daemon end to end: study
# cache miss→hit with byte-identical bodies, a machine-checked NDJSON
# sweep stream whose trailer agrees with /progress, and a graceful
# SIGTERM shutdown — the same check CI runs.
serve-smoke:
	scripts/serve_smoke.sh

# serve-loadtest hammers a local twocsd with identical study requests
# and reports cold-vs-warm latency (p50/p95/p99/max) plus error
# counts; every warm request must be a cache hit (see EXPERIMENTS.md).
serve-loadtest:
	scripts/serve_loadtest.sh

clean:
	rm -f twocs twocslint
