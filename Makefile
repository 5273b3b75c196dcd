# Developer entry points for the twocs analysis engine. Everything here
# is plain `go` + POSIX sh; CI runs the same steps (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: build test race lint bench obs-smoke serve-smoke serve-loadtest clean

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

# bench runs every BENCHMARK.json workload briefly through perfbench and
# fails unless each run is correct (goldens matched) with no failed
# operations, then vets and tests the perfbench module, which the root
# module's build and tests do not reach — the same checks CI runs.
bench:
	scripts/perfbench_smoke.sh
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

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
