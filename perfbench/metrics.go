package main

// metricDef names one reported metric and its unit. The two lists
// below must match BENCHMARK.json; metrics_test.go pins that.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported on every
// workload. Where a metric's primary quantity does not exist on a
// workload, README.md says which quantity of that workload stands in.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/cpu_s"},
	{"http_rows_per_s", "rows/cpu_s"},
	{"latency_p50_ms", "ms"},
	{"iters_per_s", "1/cpu_s"},
	{"proj_err_pct", "%"},
	{"heap_growth_mb", "MB"},
}

// perLayer are the metrics of a traced run. A metric that belongs to
// another workload's layers reads 0.
var perLayer = []metricDef{
	{"latency_p99_ms", "ms"},
	{"parallel.ns_per_row", "ns"},
	{"core.self_ns_per_row", "ns"},
	{"opmodel.hit_ns", "ns"},
	{"stream.ndjson_ns_per_row", "ns"},
	{"stream.bytes_per_row", "B"},
	{"io.write_ns_per_row", "ns"},
	{"io.write_calls", "count"},
	{"stream.pareto_ns_per_row", "ns"},
	{"stream.topk_ns_per_row", "ns"},
	{"stream.marginals_ns_per_row", "ns"},
	{"stream.pareto_frontier_rows", "rows"},
	{"serve.sweep_first_row_ms", "ms"},
	{"serve.http_ns_per_row", "ns"},
	{"ladder.e2e_ns_per_row", "ns"},
	{"ladder.gap_pct", "%"},
	{"serve.hit_us_p50", "us"},
	{"serve.miss_us_p50", "us"},
	{"serve.miss_us_p99", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.status_4xx", "count"},
	{"serve.status_5xx", "count"},
	{"serve.refused", "count"},
	{"core.study_grid_us", "us"},
	{"opmodel.miss_us", "us"},
	{"model.ops_build_us", "us"},
	{"load.late_p50_ms", "ms"},
	{"load.late_p99_ms", "ms"},
	{"dist.compile_ms", "ms"},
	{"dist.run_us", "us"},
	{"sim.ops_per_iter", "ops"},
	{"sim.host_ns_per_op", "ns"},
	{"core.measured_split_us", "us"},
	{"opmodel.projcache_hit_ratio", "ratio"},
	{"model.opscache_hit_ratio", "ratio"},
	{"core.substrate_hit_ratio", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"telemetry.overhead_pct", "%"},
}
