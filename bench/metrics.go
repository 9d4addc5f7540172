package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// lists the same names, units and directions; the self-test keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// notInstrumented is the value of a per-layer metric on a plane that
// has no instrument for it (the float32 planes and the public Session
// take no obs.Tracer). No real measurement here is negative.
const notInstrumented = -1

var endToEnd = []metricDef{
	{"rounds_per_s", "rounds/s", "higher", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"cpu_ms_per_round", "ms", "lower", 0.25},
	{"allocs_per_round", "count", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"uplink_bytes_per_round", "bytes", "lower", 0.01},
	{"downlink_bytes_per_round", "bytes", "lower", 0.01},
	{"final_accuracy", "fraction", "higher", 0.12},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "assign.build_ms", unit: "ms", better: "lower"},
	{name: "distort.worstcase_ms", unit: "ms", better: "lower"},
	{name: "distort.cmax", unit: "count", better: "lower"},
	{name: "distort.epsilon", unit: "fraction", better: "lower"},
	{name: "data.batch_us_per_round", unit: "us", better: "lower"},
	{name: "model.grad_ns_per_sample", unit: "ns", better: "lower"},
	{name: "model.grad_ms_per_round", unit: "ms", better: "lower"},
	{name: "vote.ns_per_file", unit: "ns", better: "lower"},
	{name: "vote.gbps", unit: "GB/s", better: "higher"},
	{name: "vote.ms_per_round", unit: "ms", better: "lower"},
	{name: "aggregate.ns_per_coord", unit: "ns", better: "lower"},
	{name: "aggregate.ms_per_round", unit: "ms", better: "lower"},
	{name: "linalg.median_ns_per_col", unit: "ns", better: "lower"},
	{name: "linalg.mean_gbps", unit: "GB/s", better: "higher"},
	{name: "linalg.axpy_gbps", unit: "GB/s", better: "higher"},
	{name: "trainer.step_ns_per_coord", unit: "ns", better: "lower"},
	{name: "wire.uplink_enc_gbps", unit: "GB/s", better: "higher"},
	{name: "wire.uplink_dec_gbps", unit: "GB/s", better: "higher"},
	{name: "wire.uplink_ratio", unit: "ratio", better: "lower"},
	{name: "wire.params_enc_gbps", unit: "GB/s", better: "higher"},
	{name: "wire.params_dec_gbps", unit: "GB/s", better: "higher"},
	{name: "wire.params_ratio", unit: "ratio", better: "lower"},
	{name: "wire.codec_ms_per_round", unit: "ms", better: "lower"},
	{name: "transport.read_syscalls_per_round", unit: "count", better: "lower"},
	{name: "transport.write_syscalls_per_round", unit: "count", better: "lower"},
	{name: "transport.conn_send_us_per_frame", unit: "us", better: "lower"},
	{name: "transport.conn_recv_us_per_frame", unit: "us", better: "lower"},
	{name: "transport.conn_gbps", unit: "GB/s", better: "higher"},
	{name: "transport.join_ms", unit: "ms", better: "lower"},
	{name: "transport.evictions", unit: "count", better: "lower"},
	{name: "transport.stale_frames", unit: "count", better: "lower"},
	{name: "cluster.round_ms_p95", unit: "ms", better: "lower"},
	{name: "cluster.phase_prep_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.phase_broadcast_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.phase_collect_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.phase_vote_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.phase_aggregate_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.compute_ms_per_round", unit: "ms", better: "lower"},
	{name: "cluster.glue_ms_per_round", unit: "ms", better: "lower"},
	{name: "cluster.replay_coverage", unit: "ratio", better: "higher"},
	{name: "cluster.alloc_kb_per_round", unit: "KiB", better: "lower"},
	{name: "cluster.gc_pause_ms_per_round", unit: "ms", better: "lower"},
	{name: "obs.trace_overhead_ratio", unit: "ratio", better: "lower"},
}

// tracerPhaseNames are the phases only the shipped obs.Tracer reports.
var tracerPhaseNames = []string{"prep", "broadcast", "collect", "vote", "aggregate"}
