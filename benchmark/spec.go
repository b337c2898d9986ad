package main

// The benchmark's contract, spelled once: workload names, the metrics
// each run must print, and their units. BENCHMARK.json at the repo root
// declares the same names (spec_test.go keeps the two in step), and
// emit refuses a run that leaves a declared metric unset or sets an
// undeclared one.

type metricDef struct {
	name, unit string
}

var workloadNames = []string{"svc-read", "svc-open", "svc-churn", "lib-grow", "lib-mixed"}

// endToEnd are printed by an untraced run (-trace 0). Every one is
// defined on every workload; README.md says what each means where.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"rss_mb", "MB"},
}

// perLayer are printed by a traced run (-trace 1). A layer that does
// not run on a workload reports 0 there.
var perLayer = []metricDef{
	// Demoted from the issue's end-to-end list: defined on some
	// workloads only, 0 by design, or too unsteady on this box to carry
	// a bound (README.md "Deviations").
	{"lat_p99_us", "us"},
	{"fail_ratio", "ratio"},
	{"slo_rate_ops_s", "1/s"},
	{"retained_bytes_per_new_key", "B"},
	{"hit_ratio", "ratio"},
	{"bytes_per_entry", "B"},
	{"allocs_per_op", "count"},
	{"speedup_vs_mutexmap", "ratio"},

	{"core.find_ns", "ns"},
	{"core.upsert_ns", "ns"},
	{"core.fullkeys_find_ns", "ns"},
	{"core.fullkeys_upsert_ns", "ns"},
	{"core.insert_p999_us", "us"},
	{"core.pause_max_ms", "ms"},
	{"core.migrations", "count"},
	{"core.mig_cells_copied", "count"},
	{"core.mig_wall_ms", "ms"},
	{"core.mig_assist_count", "count"},
	{"core.mig_assist_p99_us", "us"},
	{"core.copy_ratio", "ratio"},
	{"core.ops_per_s_t1", "1/s"},

	{"facade.word_find_ns", "ns"},
	{"facade.word_upsert_ns", "ns"},
	{"facade.generic_handle_load_ns", "ns"},
	{"facade.generic_handle_store_ns", "ns"},
	{"facade.generic_session_load_ns", "ns"},
	{"facade.generic_session_store_ns", "ns"},
	{"facade.generic_map_load_ns", "ns"},
	{"facade.generic_map_store_ns", "ns"},
	{"facade.word_find_self_ns", "ns"},
	{"facade.word_upsert_self_ns", "ns"},
	{"facade.generic_handle_load_self_ns", "ns"},
	{"facade.generic_handle_store_self_ns", "ns"},
	{"facade.generic_session_load_self_ns", "ns"},
	{"facade.generic_session_store_self_ns", "ns"},
	{"facade.generic_map_load_self_ns", "ns"},
	{"facade.generic_map_store_self_ns", "ns"},
	{"facade.store_allocs", "count"},
	{"facade.pool_borrows_per_op", "count"},

	{"cache.get_ns", "ns"},
	{"cache.set_ns", "ns"},
	{"cache.set_allocs", "count"},
	{"cache.self_get_ns", "ns"},
	{"cache.self_set_ns", "ns"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.expired", "count"},
	{"cache.evicted", "count"},
	{"cache.sweep_visited", "count"},
	{"cache.sweep_removed", "count"},
	{"cache.sweep_useful_ratio", "ratio"},

	{"server.cpu_us_per_op", "us"},
	{"server.exec_get_mean_ns", "ns"},
	{"server.exec_set_mean_ns", "ns"},
	{"server.exec_get_p99_us", "us"},
	{"server.out_queue_depth_p99", "count"},
	{"server.ops", "count"},
	{"server.protocol_errs", "count"},
	{"server.slow_ops", "count"},
	{"server.self_rtt_us", "us"},

	{"client.rtt_d1_us", "us"},
	{"client.stub_rtt_us", "us"},
	{"client.stub_pipelined_ns_per_op", "ns"},
	{"client.p999_us", "us"},
	{"client.open_p99_us_r1", "us"},
	{"client.open_p99_us_r3", "us"},

	{"obs.counter_add_ns", "ns"},
	{"obs.hist_observe_ns", "ns"},
	{"obs.trace_emit_ns", "ns"},
	{"obs.snapshot_us", "us"},
	{"obs.stats_rtt_us", "us"},

	{"go.gc_cycles", "count"},
	{"go.gc_pause_p99_us", "us"},
	{"go.sched_latency_p99_us", "us"},
	{"go.heap_live_mb", "MB"},

	{"baselines.mutexmap_ops_per_s_t1", "1/s"},
	{"baselines.mutexmap_ops_per_s_t2", "1/s"},
	{"baselines.shardedmap_ops_per_s_t1", "1/s"},
	{"baselines.shardedmap_ops_per_s_t2", "1/s"},
	{"baselines.syncmap_ops_per_s_t1", "1/s"},
	{"baselines.syncmap_ops_per_s_t2", "1/s"},

	{"loadgen.lag_p99_us", "us"},
	{"loadgen.cpu_us_per_op", "us"},
	{"loadgen.trace_overhead_ratio", "ratio"},
}
