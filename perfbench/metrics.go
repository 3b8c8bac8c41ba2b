package main

// metricDef describes one reported metric. The end-to-end metrics are the
// ones every workload reports from its untraced run; the per-layer metrics
// come from the traced run. A per-layer metric whose layer is not on a
// workload's path (the sketch tier on spill-read, say) is reported as 0
// there; applies lists where it is measured.
type metricDef struct {
	name    string
	unit    string
	better  string // "higher" or "lower"
	e2e     bool
	applies []string // workloads that measure it; nil means all
}

const (
	wResident = "resident-read"
	wSpill    = "spill-read"
)

// residentOnly marks the metrics of the sketch tier and of the served
// section, which only the resident-read workload runs.
var residentOnly = []string{wResident}

// metricDefs is the single list of metric names, units and directions;
// BENCHMARK.json mirrors it (the self-test checks that they agree).
var metricDefs = []metricDef{
	// End-to-end.
	{name: "setup_s", unit: "s", better: "lower", e2e: true},
	{name: "knn_qps", unit: "1/s", better: "higher", e2e: true},
	{name: "knn_p50_ms", unit: "ms", better: "lower", e2e: true},
	{name: "knn_p95_ms", unit: "ms", better: "lower", e2e: true},
	{name: "range_qps", unit: "1/s", better: "higher", e2e: true},
	{name: "contains_qps", unit: "1/s", better: "higher", e2e: true},
	{name: "heap_bytes_per_set", unit: "B", better: "lower", e2e: true},

	// End-to-end figures that ride with the per-layer ones, from the traced
	// run's untraced phase. The p99 tails swing between runs with host
	// interference and with when a collection lands (kNN by 14-21% on
	// resident-read, containment by up to 30% on spill-read), too much for
	// a regression bound; knn_p95_ms is the bounded tail. The approx tier
	// and the served section run on one workload only, and every workload
	// reports every end-to-end metric.
	{name: "knn_p99_ms", unit: "ms", better: "lower"},
	{name: "range_p99_ms", unit: "ms", better: "lower"},
	{name: "contains_p99_ms", unit: "ms", better: "lower"},
	{name: "approx_knn_qps", unit: "1/s", better: "higher", applies: residentOnly},
	{name: "approx_recall", unit: "frac", better: "higher", applies: residentOnly},
	{name: "write_ops_s", unit: "1/s", better: "higher", applies: residentOnly},
	{name: "write_p99_ms", unit: "ms", better: "lower", applies: residentOnly},
	{name: "disk_bytes_per_set", unit: "B", better: "lower", applies: residentOnly},
	{name: "error_frac", unit: "frac", better: "lower"},

	// bitset
	{name: "bitset.xorcount_slab_ns_per_row", unit: "ns", better: "lower"},
	{name: "bitset.flat_knn_qps", unit: "1/s", better: "higher"},
	// core
	{name: "core.tree_over_flat_knn", unit: "ratio", better: "higher"},
	{name: "core.knn_us_p50", unit: "us", better: "lower"},
	{name: "core.range_us_p50", unit: "us", better: "lower"},
	{name: "core.nodes_per_query", unit: "count", better: "lower"},
	{name: "core.leaf_visits_per_query", unit: "count", better: "lower"},
	{name: "core.compared_frac", unit: "frac", better: "lower"},
	{name: "core.pruned_per_query", unit: "count", better: "higher"},
	{name: "core.node_cache_hit_rate", unit: "frac", better: "higher"},
	{name: "core.node_cache_misses_per_query", unit: "count", better: "lower"},
	{name: "core.tree_nodes", unit: "count", better: "lower"},
	{name: "core.tree_over_cache_nodes", unit: "ratio", better: "lower"},
	// sgtree facade
	{name: "sgtree.self_us_p50", unit: "us", better: "lower"},
	{name: "signature.encode_us_p50", unit: "us", better: "lower"},
	// signature
	{name: "signature.decode_ns_per_sig", unit: "ns", better: "lower"},
	// storage
	{name: "storage.pool_hit_rate", unit: "frac", better: "higher"},
	{name: "storage.pool_misses_per_query", unit: "count", better: "lower"},
	{name: "storage.pager_reads_per_query", unit: "count", better: "lower"},
	{name: "storage.pager_read_us_per_query", unit: "us", better: "lower"},
	{name: "storage.wal_bytes_per_user_byte", unit: "ratio", better: "lower", applies: residentOnly},
	{name: "storage.wal_commits_per_write", unit: "count", better: "lower", applies: residentOnly},
	{name: "storage.sync_ms_p50", unit: "ms", better: "lower", applies: residentOnly},
	{name: "storage.sync_ms_p99", unit: "ms", better: "lower", applies: residentOnly},
	// sketch
	{name: "sketch.rebuild_ms", unit: "ms", better: "lower", applies: residentOnly},
	{name: "sketch.footprint_bytes_per_set", unit: "B", better: "lower", applies: residentOnly},
	{name: "sketch.route_compared_per_query", unit: "count", better: "lower", applies: residentOnly},
	// sharding and server
	{name: "sharded.fanout_us_p50", unit: "us", better: "lower", applies: residentOnly},
	{name: "sharded.shard_skew", unit: "ratio", better: "lower", applies: residentOnly},
	{name: "server.handler_ms_p50", unit: "ms", better: "lower", applies: residentOnly},
	{name: "server.transport_ms_p50", unit: "ms", better: "lower", applies: residentOnly},
	// runtime
	{name: "runtime.alloc_bytes_per_query", unit: "B", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower"},
	// the benchmark itself
	{name: "bench.generator_lag_ms_p99", unit: "ms", better: "lower", applies: residentOnly},
	{name: "bench.tracing_overhead_frac", unit: "frac", better: "lower"},
	{name: "bench.untraced_knn_qps", unit: "1/s", better: "higher"},
	{name: "bench.traced_knn_qps", unit: "1/s", better: "higher"},
}

func (m metricDef) appliesTo(workload string) bool {
	if m.applies == nil {
		return true
	}
	for _, w := range m.applies {
		if w == workload {
			return true
		}
	}
	return false
}
