package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (bench_test.go checks that it does) and adds the
// direction and, for end-to-end metrics, the regression bound.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports for its workload.
// "op" is the workload's unit of work: a scenario (paper-sweep), a training
// step (cluster-*), or an open-loop request (daemon-mix, whose ops_per_s is
// the closed-loop capacity instead).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p95", "ms"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the metrics every traced run reports. Times and counts are
// means per traced operation. Metrics of a layer a workload does not reach
// (the server on paper-sweep, say) read 0; those are never times.
var perLayer = []metricDef{
	{"hwsim.collect_ms", "ms"},
	{"tracecache.hit_ratio", "ratio"},
	{"perfmodel.fit_ms", "ms"},
	{"network.topology_ms", "ms"},
	{"extrapolator.build_ms", "ms"},
	{"extrapolator.tasks", "count"},
	{"sim.engine_ms", "ms"},
	{"sim.digest_ms", "ms"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.queue_high_water", "count"},
	{"handlers.self_ms", "ms"},
	{"task.tasks_done", "count"},
	{"network.solve_ms", "ms"},
	{"network.solves", "count"},
	{"network.flows_per_solve", "count"},
	{"timeline.union_ms", "ms"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"server.admit_share", "ratio"},
	{"server.queue_share", "ratio"},
	{"server.run_share", "ratio"},
	{"server.fetch_share", "ratio"},
	{"server.queue_share_p99", "ratio"},
	{"server.coalesce_ratio", "ratio"},
	{"server.rejected", "count"},
	{"telemetry.overhead_ratio.simulate", "ratio"},
	{"telemetry.overhead_ratio.serve", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}
