package main

// metricDef is one metric of the benchmark's contract. BENCHMARK.json at
// the repository root lists the same names, units and directions;
// bench_test.go holds the two together.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // end-to-end only: the share by which it may worsen
}

// endToEnd are the metrics a user of the middle tier sees. Every workload
// reports every one, so each is defined per workload:
//
//	throughput_per_s      ingest_*: frames confirmed stored per second;
//	                      live_query, fleet_scan: ops answered correctly
//	                      per second (the offered rate, unless the server
//	                      falls behind)
//	op_ms_p50             latency of the workload's primary op:
//	                      ingest_*: batch send → ack (closed loop, window 4);
//	                      live_query: approximate COUNT, from intended time;
//	                      fleet_scan: exact query over class cyberglove
//	                      (fan-out 96), from intended time
//	server_cpu_us_per_op  server CPU per 256-frame batch, per timeline op,
//	                      per fleet query
//
// Every bound is the contract's ceiling of 25 %: ten runs of the same code
// on this two-core sandbox spread by 5 to 17 % of their median (README).
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"throughput_per_s", "1/s", true, 0.25},
	{"op_ms_p50", "ms", false, 0.25},
	{"server_cpu_us_per_op", "us", false, 0.25},
	{"server_rss_peak_mb", "MiB", false, 0.25},
}

// perLayer are the metrics of single layers: replayed call sites, the
// server's own counters (scrape), and the client-side class latencies the
// end-to-end slots cannot all carry.
var perLayer = []metricDef{
	{"transport.tcp_rtt_us_per_batch", "us", false, 0},
	{"transport.ws_rtt_us_per_batch", "us", false, 0},
	{"wire.encode_batch_us", "us", false, 0},
	{"wire.decode_batch_us", "us", false, 0},
	{"wire.decode_query_us", "us", false, 0},
	{"wire.encode_result_us", "us", false, 0},
	{"wire.bytes_per_frame", "B", false, 0},
	{"stream.handoff_us_per_batch", "us", false, 0},
	{"journal.append_us_per_batch", "us", false, 0},
	{"journal.snapshot_ms", "ms", false, 0},
	{"journal.recover_ms", "ms", false, 0},
	{"journal.wal_bytes_per_frame_byte", "ratio", false, 0},
	{"journal.fsyncs_per_batch", "count", false, 0},
	{"core.append_us_per_batch", "us", false, 0},
	{"core.append_tracked_us_per_batch", "us", false, 0},
	{"core.seal_cold_ms", "ms", false, 0},
	{"core.seal_incr_us", "us", false, 0},
	{"core.exact_scan_us", "us", false, 0},
	{"core.seal_incremental_ratio", "ratio", true, 0},
	{"propolyne.plan_compile_us", "us", false, 0},
	{"propolyne.plan_lookup_hit_us", "us", false, 0},
	{"propolyne.dot_us", "us", false, 0},
	{"propolyne.progressive_us", "us", false, 0},
	{"propolyne.plan_hit_ratio", "ratio", true, 0},
	{"wavelet.transform_nd_ms", "ms", false, 0},
	{"fleet.match_us", "us", false, 0},
	{"fleet.eval_session_exact_us", "us", false, 0},
	{"fleet.eval_session_approx_us", "us", false, 0},
	{"fleet.merge_us", "us", false, 0},
	{"fleet.evaluate_ms", "ms", false, 0},
	{"fleet.pool_speedup", "x", true, 0},
	{"server.decode_us_mean", "us", false, 0},
	{"server.queue_wait_us_mean", "us", false, 0},
	{"server.append_us_mean", "us", false, 0},
	{"server.idle_cpu_ms_per_session_s", "ms/s", false, 0},
	{"server.unattributed_cpu_pct", "%", false, 0},
	{"client.sched_lag_ms_p95", "ms", false, 0},
	{"client.cpu_share_pct", "%", false, 0},
	{"client.build_s", "s", false, 0},
	{"client.op_ms_p95", "ms", false, 0},
	{"client.ingest_frames_per_s", "1/s", true, 0},
	{"client.server_cpu_us_per_kframe", "us", false, 0},
	{"client.server_cpu_s", "s", false, 0},
	{"client.recover_s", "s", false, 0},
	{"client.ingest_visible_ms_p50", "ms", false, 0},
	{"client.ingest_visible_ms_p95", "ms", false, 0},
	{"client.query_exact_ms_p50", "ms", false, 0},
	{"client.query_approx_ms_p50", "ms", false, 0},
	{"client.query_approx_ms_p95", "ms", false, 0},
	{"client.query_approx_ms_p99", "ms", false, 0},
	{"client.query_prog_ms_p50", "ms", false, 0},
	{"client.fleet_exact_ms_p50", "ms", false, 0},
	{"client.fleet_approx_ms_p50", "ms", false, 0},
	{"client.fleet_ms_p95", "ms", false, 0},
	{"client.fleet_ms_p99", "ms", false, 0},
}

// workloads, in the order a full run executes them, with the one-line
// reason each exists.
var workloads = []struct{ name, why string }{
	{"ingest_mem", "closed-loop glove ingest into a memory-only server: transport, wire decode, session queue, stream hand-off and LiveStore append do all the work; guard for query-side and durability changes"},
	{"ingest_durable", "the same ingest with -data-dir: WAL encode, write, fsync and snapshots now dominate, so the pair isolates the journal; ends with kill -9 and a verified recovery"},
	{"live_query", "open-loop appends beside exact, approximate and progressive queries on one LiveStore: incremental seal, plan cache and dot dominate; exact queries are the in-workload control"},
	{"fleet_scan", "open-loop fleet queries over 128 connected idle sessions: fleet match, scatter and merge and the per-session scan do the work, with no ingest and no seal after warm-up"},
}
