package main

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; the smoke test fails when the two drift apart.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system would see. All are defined,
// and never zero, on every workload. error_share — failed feeds, failed
// session operations and results missing, extra or misordered against the
// oracle, over everything attempted — is zero on every correct run, so it is
// reported through the result line's attempted/failed/correct fields instead
// of as a bounded metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"input_tps", "1/s", "higher", 0.15},
	{"cpu_s_per_minput", "s", "lower", 0.15},
	{"allocs_per_input", "count", "lower", 0.05},
	{"result_latency_p50_ms", "ms", "lower", 0.25},
	{"result_latency_p95_ms", "ms", "lower", 0.25},
	{"comparisons_per_input", "count", "lower", 0.03},
	{"state_tuples_avg", "tuples", "lower", 0.03},
	{"live_heap_mb", "MiB", "lower", 0.25},
}

// perLayer are the metrics of single layers, measured from the benchmark's
// own files. A metric that does not apply to a workload (shard.* on a
// sequential plan, barrier timings without session operations) reads 0
// there. README.md maps each to the end-to-end metric and workload it should
// move.
var perLayer = []metricDef{
	// Set-up path.
	{name: "sliceql.parse_ms", unit: "ms", better: "lower"},
	{name: "optimizer.compile_ms", unit: "ms", better: "lower"},
	{name: "plan.slices", unit: "count", better: "lower"},
	{name: "driver.generate_s", unit: "s", better: "lower"},
	{name: "engine.warmup_s", unit: "s", better: "lower"},
	// Sequential hot path (traced pass).
	{name: "engine.feed_busy_s", unit: "s", better: "lower"},
	{name: "engine.finish_tail_s", unit: "s", better: "lower"},
	{name: "engine.sched_self_s", unit: "s", better: "lower"},
	{name: "engine.sched_self_share", unit: "share", better: "lower"},
	{name: "engine.steps_per_input", unit: "count", better: "lower"},
	{name: "engine.idle_step_share", unit: "share", better: "lower"},
	{name: "operator.join.busy_s", unit: "s", better: "lower"},
	{name: "operator.join.busy_share", unit: "share", better: "lower"},
	{name: "operator.join.probe_cmp", unit: "count", better: "lower"},
	{name: "operator.join.purge_cmp", unit: "count", better: "lower"},
	{name: "operator.union.busy_s", unit: "s", better: "lower"},
	{name: "operator.union.busy_share", unit: "share", better: "lower"},
	{name: "operator.union.cmp", unit: "count", better: "lower"},
	{name: "operator.filter.busy_s", unit: "s", better: "lower"},
	{name: "operator.filter.busy_share", unit: "share", better: "lower"},
	{name: "operator.filter.cmp", unit: "count", better: "lower"},
	{name: "operator.split.busy_s", unit: "s", better: "lower"},
	{name: "operator.split.busy_share", unit: "share", better: "lower"},
	{name: "operator.sink.busy_s", unit: "s", better: "lower"},
	{name: "operator.sink.busy_share", unit: "share", better: "lower"},
	{name: "operator.results_per_input", unit: "count", better: "lower"},
	{name: "driver.sink_callback_s", unit: "s", better: "lower"},
	{name: "driver.sink_callback_share", unit: "share", better: "lower"},
	{name: "driver.self_share", unit: "share", better: "lower"},
	// Sharded path (traced pass).
	{name: "shard.feed_busy_s", unit: "s", better: "lower"},
	{name: "shard.feed_slow_calls", unit: "count", better: "lower"},
	{name: "shard.feed_slow_s", unit: "s", better: "lower"},
	{name: "shard.replica.join_busy_s", unit: "s", better: "lower"},
	{name: "shard.replica.union_busy_s", unit: "s", better: "lower"},
	{name: "shard.replica.busy_imbalance", unit: "ratio", better: "lower"},
	{name: "shard.replica.idle_share", unit: "share", better: "lower"},
	{name: "shard.replica_cmp_imbalance", unit: "ratio", better: "lower"},
	{name: "shard.residual_cpu_s", unit: "s", better: "lower"},
	{name: "shard.finish_tail_s", unit: "s", better: "lower"},
	{name: "shard.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "shard.checkpoint_max_ms", unit: "ms", better: "lower"},
	{name: "shard.checkpoint_bytes", unit: "B", better: "lower"},
	{name: "shard.ckpt_encode_ms", unit: "ms", better: "lower"},
	{name: "shard.ckpt_decode_ms", unit: "ms", better: "lower"},
	{name: "shard.attach_ms", unit: "ms", better: "lower"},
	{name: "shard.attach_max_ms", unit: "ms", better: "lower"},
	{name: "shard.detach_ms", unit: "ms", better: "lower"},
	{name: "shard.detach_max_ms", unit: "ms", better: "lower"},
	{name: "shard.migrate_ms", unit: "ms", better: "lower"},
	{name: "shard.migrate_max_ms", unit: "ms", better: "lower"},
	{name: "shard.barrier_shadow_share", unit: "share", better: "lower"},
	// Process (saturation pass) and the benchmark's own instruments.
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "share", better: "lower"},
	{name: "runtime.bytes_per_input", unit: "B", better: "lower"},
	{name: "driver.lateness_p99_ms", unit: "ms", better: "lower"},
	{name: "driver.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "driver.latency_samples", unit: "count", better: "higher"},
	{name: "driver.trace_overhead_share", unit: "share", better: "lower"},
	{name: "driver.trace_spans", unit: "count", better: "higher"},
	{name: "driver.oracle_s", unit: "s", better: "lower"},
	// Kernel probes: the structures under the hot paths, in isolation.
	{name: "stream.state_scan_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "stream.state_insert_pop_ns", unit: "ns", better: "lower"},
	{name: "stream.queue_push_pop_ns", unit: "ns", better: "lower"},
	{name: "stream.batcher_ns_per_item", unit: "ns", better: "lower"},
	{name: "operator.join_step_ns_per_cmp", unit: "ns", better: "lower"},
	{name: "operator.union_ns_per_item", unit: "ns", better: "lower"},
	{name: "shard.partition_ns_per_key", unit: "ns", better: "lower"},
	{name: "shard.range_owner_ns_per_key", unit: "ns", better: "lower"},
	{name: "plan.ckpt_encode_mb_s", unit: "MB/s", better: "higher"},
	{name: "plan.ckpt_decode_mb_s", unit: "MB/s", better: "higher"},
}

// busyShares are the per-layer shares that partition the traced wall: on
// every workload they sum to 1.
var busyShares = []string{
	"operator.join.busy_share", "operator.union.busy_share", "operator.filter.busy_share",
	"operator.split.busy_share", "operator.sink.busy_share",
	"driver.sink_callback_share", "engine.sched_self_share", "driver.self_share",
	"shard.replica.idle_share",
}
