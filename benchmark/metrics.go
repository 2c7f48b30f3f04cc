package main

// metricDef names one printed metric and its unit. BENCHMARK.json at the
// repository root lists the same names; the smoke test holds the two equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run prints for every workload. Each
// workload defines its own operation (README.md, "End-to-end metrics"): an
// HTTP request for serve-*, one engine admission or replay for
// replay-elastic, one model's cold tune for tune-models.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics a traced run prints for every workload. A layer a
// workload bypasses reads 0; those metrics are shares, counts and rates so
// that no time unit is ever constant. The per-call times at the end are
// measured on every workload (each one tunes and resolves kernels).
var perLayer = []metricDef{
	{"bench.late_send_ratio", "fraction"},
	{"bench.pace_share", "fraction"},
	{"bench.conn_wait_share", "fraction"},
	{"bench.trace_overhead", "fraction"},
	{"bench.spans", "count"},

	{"bench.send.self_share", "fraction"},
	{"gateway.http.self_share", "fraction"},
	{"core.service.self_share", "fraction"},
	{"datasynth.batch.self_share", "fraction"},
	{"fleet.serve.self_share", "fraction"},
	{"tuner.tune.self_share", "fraction"},
	{"core.measure.self_share", "fraction"},
	{"baselines.measure.self_share", "fraction"},

	{"gateway.clock_now_per_req", "1/req"},
	{"gateway.clock_after_per_req", "1/req"},
	{"gateway.session_bytes_per_req", "B/req"},
	{"gateway.session_write_share", "fraction"},
	{"gateway.retained_bytes_per_req", "B/req"},

	{"core.service_calls_per_req", "1/req"},
	{"core.service_misses", "count"},
	{"core.useful_miss_ratio", "fraction"},

	{"fleet.replay_req_per_s", "1/s"},
	{"fleet.allocs_per_req", "1/req"},
	{"fleet.alloc_bytes_per_req", "B/req"},
	{"fleet.ladder_req_per_s.static", "1/s"},
	{"fleet.ladder_req_per_s.preempt", "1/s"},
	{"fleet.ladder_req_per_s.autoscale", "1/s"},
	{"fleet.ladder_req_per_s.classes", "1/s"},
	{"fleet.ladder_req_per_s.cache", "1/s"},
	{"fleet.ladder_req_per_s.all", "1/s"},
	{"fleet.preemptions", "count"},
	{"fleet.scale_events", "count"},
	{"fleet.max_queue", "count"},
	{"fleet.timeouts", "count"},
	{"fleet.shed", "count"},

	{"emcache.hit_rate", "fraction"},
	{"emcache.penalty_share", "fraction"},
	{"emcache.evictions", "count"},
	{"emcache.retiers", "count"},

	{"tuner.ms_per_tune", "ms"},
	{"tuner.sims_per_tune", "count"},
	{"tuner.memo_hit_ratio", "fraction"},
	{"datasynth.us_per_batch", "us"},
	{"fusion.us_per_compile", "us"},
	{"gpusim.us_per_simulate", "us"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_inuse_mb", "MiB"},
}
