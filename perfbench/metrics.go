package main

// The metric catalogue. BENCHMARK.json lists the same names and units;
// TestCatalogueMatchesBenchmarkJSON keeps the two in step.

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. failed_ratio is printed with them in the human-readable
// block but is not a JSON metric: it is 0 on a correct system, and the
// result line carries it as failed/attempted.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, printed by every traced run.
// A layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.complete_ms", "ms"},
	{"serve.rss_mb_per_100_jobs", "MB"},
	{"wire.decode_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"wire.report_kb", "kB"},
	{"ddl.parse_us", "us"},
	{"dbprog.parse_us", "us"},
	{"dbprog.format_us", "us"},
	{"fingerprint.program_us", "us"},
	{"fingerprint.pair_us", "us"},
	{"plancache.pair_ms", "ms"},
	{"plancache.pair_hit_ratio", "ratio"},
	{"plancache.memo_hit_ratio", "ratio"},
	{"plancache.evictions_per_job", "count"},
	{"xform.build_pair_ms", "ms"},
	{"xform.classify_ms", "ms"},
	{"analyzer.analyze_us", "us"},
	{"convert.convert_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"xform.migrate_ms", "ms"},
	{"xform.migrate_krec_per_s", "krec/s"},
	{"xform.shards", "count"},
	{"netstore.bulk_records", "count"},
	{"netstore.load_krec_per_s", "krec/s"},
	{"netstore.clone_ms", "ms"},
	{"netstore.index_probe_ratio", "ratio"},
	{"equiv.check_ms", "ms"},
	{"equiv.equal_ratio", "ratio"},
	{"core.residual_ms", "ms"},
	{"core.allocs_per_job", "count"},
	{"core.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}
