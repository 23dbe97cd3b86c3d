package main

// perLayerMetrics are what a traced run prints, every one on every
// workload; a layer the workload does not pass through reads 0. The
// README maps each to the end-to-end metric it should move.
var perLayerMetrics = []metricDef{
	// write path (write-ckpt)
	{"core.write_ms", "ms"},
	{"core.rank_skew_ms", "ms"},
	{"agg.meta_exchange_ms", "ms"},
	{"agg.particle_exchange_ms", "ms"},
	{"agg.exchange_mb_per_op", "MB"},
	{"lod.reorder_ms", "ms"},
	{"format.file_io_ms", "ms"},
	{"format.meta_io_ms", "ms"},
	{"format.stored_mb_per_op", "MB"},
	// local reads (read-local; the read accounting also serve-gateway)
	{"reader.open_ms", "ms"},
	{"reader.query_box_ms", "ms"},
	{"reader.files_opened_per_op", "count"},
	{"reader.bytes_read_per_op", "B"},
	{"reader.read_amplification", "ratio"},
	{"reader.file_cache_hit_ratio", "ratio"},
	{"reader.file_cache_evictions_per_op", "count"},
	{"reader.progressive_level_ms", "ms"},
	{"query.knn_ms", "ms"},
	{"query.knn_particles_read_per_result", "count"},
	// serving tier (serve-gateway)
	{"server.dial_ms", "ms"},
	{"server.client_box_ms", "ms"},
	{"server.client_knn_ms", "ms"},
	{"server.queue_wait_ms_per_req", "ms"},
	{"server.service_ms_per_req", "ms"},
	{"server.block_cache_hit_ratio", "ratio"},
	{"server.decoded_cache_hit_ratio", "ratio"},
	{"server.disk_mb_per_op", "MB"},
	{"server.files_opened_per_req", "count"},
	{"server.errors", "count"},
	{"server.overloaded", "count"},
	{"server.wire_bytes_per_user_byte", "ratio"},
	{"gateway.front_wire_bytes_per_user_byte", "ratio"},
	{"gateway.fanout_per_req", "count"},
	{"gateway.partial_ratio", "ratio"},
	{"gateway.shard_errors", "count"},
	{"gateway.breaker_skips", "count"},
	// static analysis (lint-module)
	{"analysis.load_ms", "ms"},
	{"analysis.run_ms", "ms"},
	{"analysis.collorder_ms", "ms"},
	{"analysis.bufhandoff_ms", "ms"},
	{"analysis.errdrop_ms", "ms"},
	{"analysis.tagclash_ms", "ms"},
	{"analysis.wiresym_ms", "ms"},
	{"analysis.collabort_ms", "ms"},
	{"analysis.lockorder_ms", "ms"},
	{"analysis.wiretaint_ms", "ms"},
	{"analysis.goleak_ms", "ms"},
	{"analysis.racegate_ms", "ms"},
	{"analysis.packages", "count"},
	{"analysis.findings", "count"},
	// process-wide (every workload)
	{"runtime.alloc_bytes_per_user_byte", "ratio"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	// what tracing itself costs: traced minus untraced window
	{"trace.overhead_lat_p50_pct", "%"},
	{"trace.overhead_ops_per_s_pct", "%"},
}
