package main

// metric names one reported value and its unit. The two tables below
// are the benchmark's contract: BENCHMARK.json at the repository root
// declares exactly these names and units (TestMetricTablesMatchManifest
// keeps the two in step).
type metric struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run reports. Each is defined on
// every workload and is never zero there. An "operation" is one sort,
// one pipeline job or one gateway ticket.
var endToEnd = []metric{
	{"setup_s", "s"},            // host: rig builds, input generation, tenant registration
	{"host_s", "s"},             // host: the simulated runs, checks excluded
	{"peak_rss_mb", "MB"},       // host: peak resident memory of the process
	{"virtual_s", "vs"},         // simulated: summed job makespans (gateway: first arrival to last completion)
	{"usd", "USD"},              // simulated: summed bill (gateway: the session's closing bill)
	{"sojourn_p50_vs", "vs"},    // simulated: median operation latency from its due time
	{"sojourn_tail_vs", "vs"},   // simulated: highest percentile with >=10 samples beyond it
	{"goodput_per_vs", "1/vs"},  // simulated: operations done within the workload's limit per virtual s
	{"accepted_ratio", "ratio"}, // simulated: 1 - (rate + queue rejections + shed) / submitted
}

// perLayer are the metrics a traced run reports: counts and virtual
// times read off each layer's public accessors, host times of the
// benchmark's own calls into a layer, and each module's share of the
// CPU profile. A layer a workload does not exercise reports 0.
var perLayer = []metric{
	{"des.events", "count"},
	{"des.events_per_host_s", "1/s"},
	{"des.run_host_s", "s"},
	{"des.cpu_share", "ratio"},
	{"des.link_cpu_share", "ratio"},

	{"objectstore.class_a_ops", "count"},
	{"objectstore.class_b_ops", "count"},
	{"objectstore.throttled", "count"},
	{"objectstore.bytes_in", "B"},
	{"objectstore.bytes_out", "B"},
	{"objectstore.cpu_share", "ratio"},

	{"faas.activations", "count"},
	{"faas.cold", "count"},
	{"faas.failed", "count"},
	{"faas.gb_s", "GB-s"},
	{"faas.handler_p50_vs", "vs"},
	{"faas.handler_tail_vs", "vs"},
	{"faas.cpu_share", "ratio"},

	{"shuffle.sample_vs", "vs"},
	{"shuffle.phase1_vs", "vs"},
	{"shuffle.phase2_vs", "vs"},
	{"shuffle.sort_vs.w8", "vs"},
	{"shuffle.sort_vs.w64", "vs"},
	{"shuffle.sort_vs.w256", "vs"},
	{"shuffle.model_err_pct", "%"},
	{"shuffle.cpu_share", "ratio"},

	{"bed.cpu_share", "ratio"},
	{"methcomp.ratio", "x"},
	{"methcomp.decompress_host_s", "s"},
	{"methcomp.cpu_share", "ratio"},
	{"genomics.cpu_share", "ratio"},

	{"core.stage_vs.sort", "vs"},
	{"core.stage_vs.encode", "vs"},
	{"core.stage_vs.decode", "vs"},
	{"core.stage_vs.verify", "vs"},
	{"core.stage_vs.work", "vs"},
	{"core.stage_usd.sort", "USD"},
	{"core.stage_usd.encode", "USD"},
	{"core.stage_usd.decode", "USD"},
	{"core.stage_usd.verify", "USD"},
	{"core.stage_usd.work", "USD"},
	{"core.cpu_share", "ratio"},

	{"autoplan.plan_host_s", "s"},
	{"autoplan.pred_err_pct", "%"},
	{"autoplan.cpu_share", "ratio"},

	{"vm.usd", "USD"},
	{"vm.billed_s", "vs"},
	{"vm.cpu_share", "ratio"},
	{"memcache.usd", "USD"},
	{"memcache.ops", "count"},
	{"memcache.cpu_share", "ratio"},

	{"gateway.register_host_s", "s"},
	{"gateway.submit_host_us_p50", "us"},
	{"gateway.submit_host_us_tail", "us"},
	{"gateway.rounds", "count"},
	{"gateway.starved", "count"},
	{"gateway.rejected_rate", "count"},
	{"gateway.rejected_queue", "count"},
	{"gateway.shed", "count"},
	{"gateway.queued_p50_vs", "vs"},
	{"gateway.queued_tail_vs", "vs"},
	{"gateway.generator_lag_vs", "vs"},
	{"gateway.cpu_share", "ratio"},

	{"session.run_p50_vs", "vs"},
	{"session.standing_usd", "USD"},
	{"session.cpu_share", "ratio"},

	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.malloc_cpu_share", "ratio"},
	{"runtime.sched_cpu_share", "ratio"},
	{"other.cpu_share", "ratio"},

	{"model.table1_err_serverless_pct", "%"},
	{"model.table1_err_vm_pct", "%"},

	{"trace.host_s", "s"},
	{"trace.untraced_host_s", "s"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}
