package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names with the same units and directions (the tests hold the two
// together); README.md says what each one means.

// endToEndUnits names every end-to-end metric. Every workload reports
// all of them, measured with tracing off.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"op_p50_ms":       "ms",
	"op_p95_ms":       "ms",
	"op_geomean_ms":   "ms",
	"alloc_mb_per_op": "MB",
	"mallocs_per_op":  "count",
}

// layerMetric is one per-layer metric: measured on a traced run, never
// bounded.
type layerMetric struct {
	name, unit string
	higher     bool // better when higher
}

// perLayer lists the per-layer metrics, layer by layer.
var perLayer = []layerMetric{
	// Front end and passes: stage spans of the stage-by-stage compile.
	{"lexer.tokens_per_s", "1/s", true},
	{"parser.busy_ms", "ms", false},
	{"parser.src_kb_per_s", "kB/s", true},
	{"sema.busy_ms", "ms", false},
	{"irbuild.busy_ms", "ms", false},
	{"irbuild.ir_instrs", "count", false},
	{"constfold.busy_ms", "ms", false},
	{"constfold.folded", "count", true},
	{"doall.busy_ms", "ms", false},
	{"doall.loops_parallelized", "count", true},
	{"commmgmt.busy_ms", "ms", false},
	{"commmgmt.maps_inserted", "count", false},
	{"gluekernel.busy_ms", "ms", false},
	{"gluekernel.outlined", "count", true},
	{"allocapromo.busy_ms", "ms", false},
	{"allocapromo.promoted", "count", true},
	{"mappromo.busy_ms", "ms", false},
	{"mappromo.promotions", "count", true},
	{"overlap.busy_ms", "ms", false},
	{"overlap.sites", "count", true},
	{"core.compile_scale_exponent", "ratio", false},
	{"core.ir_instrs_final", "count", false},
	// Interpreter.
	{"interp.new_us", "us", false},
	{"interp.tiny_run_us", "us", false},
	{"interp.cpu_root.mops_per_s", "Mops/s", true},
	{"interp.kernel.mops_per_s", "Mops/s", true},
	{"interp.sim_ops", "count", false},
	{"interp.launches", "count", false},
	{"interp.launch_us", "us", false},
	{"interp.self_share_pct", "%", false},
	// Runtime library and the tree under it.
	{"runtime.map_calls", "count", false},
	{"runtime.unmap_calls", "count", false},
	{"runtime.release_calls", "count", false},
	{"runtime.maparray_calls", "count", false},
	{"runtime.map_copy_us", "us", false},
	{"runtime.map_resident_us", "us", false},
	{"runtime.unmap_dirty_us", "us", false},
	{"runtime.unmap_epoch_skip_us", "us", false},
	{"runtime.maparray_us", "us", false},
	{"runtime.lookup_ns", "ns", false},
	{"runtime.epoch_skip_ratio", "ratio", true},
	{"runtime.residency_skip_ratio", "ratio", true},
	{"runtime.evictions", "count", false},
	{"runtime.retries", "count", false},
	{"runtime.est_busy_ms", "ms", false},
	{"rbtree.greatest_lte_ns", "ns", false},
	{"rbtree.put_delete_ns", "ns", false},
	// Machine.
	{"machine.new_us", "us", false},
	{"machine.copies", "count", false},
	{"machine.copied_mb", "MB", false},
	{"machine.copy_htod_gbps", "GB/s", true},
	{"machine.copy_dtoh_gbps", "GB/s", true},
	{"machine.copy_async_htod_gbps", "GB/s", true},
	{"machine.copy_async_dtoh_gbps", "GB/s", true},
	{"machine.alloc_device_us", "us", false},
	{"machine.load_store_ns", "ns", false},
	{"machine.est_busy_ms", "ms", false},
	// Observers and the trace consumers.
	{"observer.tracer.overhead_pct", "%", false},
	{"observer.profile.overhead_pct", "%", false},
	{"observer.metrics.overhead_pct", "%", false},
	{"observer.remarks.overhead_pct", "%", false},
	{"observer.racecheck.overhead_pct", "%", false},
	{"observer.runlog.overhead_pct", "%", false},
	{"trace.merge_us", "us", false},
	{"trace.write_chrome_ms", "ms", false},
	{"critpath.analyze_ms", "ms", false},
	{"runlog.append_ms", "ms", false},
	// Server.
	{"server.decode_us", "us", false},
	{"server.submit_warm_us", "us", false},
	{"server.http_overhead_us", "us", false},
	{"server.encode_us", "us", false},
	{"server.cache_hit_ratio", "ratio", true},
	{"server.queue_p95_us", "us", false},
	{"server.shed", "count", false},
	{"server.req_p99_ms", "ms", false},
	{"server.tiny_warm.p50_ms", "ms", false},
	{"server.small_warm.p50_ms", "ms", false},
	{"server.tiny_cold.p50_ms", "ms", false},
	{"server.small_cold.p50_ms", "ms", false},
	// Host and harness.
	{"host.peak_rss_mb", "MB", false},
	{"host.gc_cpu_pct", "%", false},
	{"host.gc_cycles", "count", false},
	{"host.calibration_ms", "ms", false},
	{"host.tracing_overhead_pct", "%", false},
}

func perLayerUnits() map[string]string {
	units := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	return units
}
