//! The names this benchmark reports: workloads, gated end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root states the same
//! lists for the driver; a test keeps the two in step.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the base value by which the metric may get worse.
    pub bound: f64,
}

/// All three are lower-is-better. Each bound is at least three times the
/// widest spread seen over ten seeds on the shared 2-vCPU sandbox, whose speed
/// drifts by 5–10 % over minutes (README, "Why the gate is the floor").
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "query_ms_floor",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_live_mb",
        unit: "MB",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

pub const WORKLOADS: [&str; 8] = [
    "fd.lineitem",
    "dc.lineitem",
    "unified.customer",
    "termval.dblp",
    "relational.lineitem",
    "ingest.lineitem_csv",
    "smallq.mix",
    "incr.customer",
];

/// `(name, unit, better)`; every workload reports every one, 0 where the
/// workload never enters the layer.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("lang.parse_us", "us", "lower"),
    ("calculus.desugar_us", "us", "lower"),
    ("calculus.normalize_us", "us", "lower"),
    ("algebra.lower_share_us", "us", "lower"),
    ("engine.cold_minus_warm_ms", "ms", "lower"),
    ("engine.execute_ms", "ms", "lower"),
    ("engine.register_ms", "ms", "lower"),
    ("physical.node_self_ms.top1", "ms", "lower"),
    ("physical.node_self_ms.top2", "ms", "lower"),
    ("physical.node_self_ms.top3", "ms", "lower"),
    ("physical.node_self_ms.top4", "ms", "lower"),
    ("physical.node_self_ms.top5", "ms", "lower"),
    ("physical.pairs_enumerated", "count", "lower"),
    ("physical.pairs_kept", "count", "higher"),
    ("physical.pair_yield", "ratio", "higher"),
    ("physical.vectorized_rows", "count", "higher"),
    ("physical.interpreted_exprs", "count", "lower"),
    ("physical.unattributed_pct", "%", "lower"),
    ("exec.records_shuffled", "count", "lower"),
    ("exec.comparisons", "count", "lower"),
    ("exec.parallel_speedup", "ratio", "higher"),
    ("exec.w2_spread", "ratio", "lower"),
    ("formats.csv_read_ms", "ms", "lower"),
    ("formats.csv_mb_per_s", "MB/s", "higher"),
    ("formats.colbin_read_ms", "ms", "lower"),
    ("text.ld_ns_per_pair", "ns", "lower"),
    ("cluster.block_ms", "ms", "lower"),
    ("cluster.candidates", "count", "lower"),
    ("incr.install_ms", "ms", "lower"),
    ("incr.append_ms", "ms", "lower"),
    ("incr.refresh_ms", "ms", "lower"),
    ("incr.fallbacks", "count", "lower"),
    ("alloc.count_per_query", "count", "lower"),
    ("alloc.mb_per_query", "MB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.disagree_pct", "%", "lower"),
    ("trace.accounted_pct", "%", "higher"),
    ("trace.samples", "count", "higher"),
];

/// Counts that must repeat exactly between two runs on the same inputs.
pub const EXACT_COUNTS: [&str; 5] = [
    "exec.records_shuffled",
    "exec.comparisons",
    "physical.pairs_enumerated",
    "physical.pairs_kept",
    "cluster.candidates",
];
