//! Session-wide metrics: what every query in a [`CleanDb`] session cost,
//! aggregated across runs.
//!
//! A [`CleaningReport`] describes one query; the [`MetricsRegistry`]
//! answers the questions that only make sense across many — latency
//! percentiles, cache hit ratios, cumulative shuffle volume, violations by
//! operator kind. The session feeds it after each batch run (and
//! incremental sessions feed refresh latencies in), and
//! [`MetricsRegistry::snapshot_json`] exports the whole thing for
//! dashboards or the bench harness.
//!
//! Latency percentiles are read from a bounded sample buffer (a
//! deterministic every-other-sample decimation once full, so early *and*
//! late queries stay represented), sorted once per read.
//!
//! [`CleanDb`]: super::CleanDb
//! [`CleaningReport`]: super::CleaningReport

use std::collections::BTreeMap;
use std::time::Duration;

use cleanm_trace::json;

use super::repair::{AppliedRepairs, RepairSection};
use super::report::CleaningReport;

/// Bounded latency samples with percentile reads.
#[derive(Debug, Clone, Default)]
pub struct LatencyTrack {
    /// Retained samples, nanoseconds.
    samples: Vec<u64>,
    /// Total observations (including ones decimated out of `samples`).
    observed: u64,
    /// Keep every `2^decimations`-th observation once the buffer fills.
    decimations: u32,
}

/// Retained-sample cap per latency track. Past it, the track halves itself
/// (keeping every other sample) and then retains every other incoming
/// observation — bounded memory, full-session coverage.
const LATENCY_SAMPLE_CAP: usize = 4096;

impl LatencyTrack {
    /// Record one latency observation.
    pub fn observe(&mut self, d: Duration) {
        self.observed += 1;
        if self.decimations > 0 && !self.observed.is_multiple_of(1 << self.decimations) {
            return;
        }
        self.samples.push(d.as_nanos() as u64);
        if self.samples.len() >= LATENCY_SAMPLE_CAP {
            let mut i = 0;
            self.samples.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.decimations += 1;
        }
    }

    /// Total observations recorded (not just retained samples).
    pub fn count(&self) -> u64 {
        self.observed
    }

    /// `(p50, p90, p99)` of the retained samples (nearest rank), or
    /// `None` before any observation.
    pub fn percentiles(&self) -> Option<(Duration, Duration, Duration)> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let last = sorted.len().checked_sub(1)?;
        let at = |q: f64| Duration::from_nanos(sorted[(q * last as f64).round() as usize]);
        Some((at(0.5), at(0.9), at(0.99)))
    }

    fn json(&self) -> String {
        let ms = |d: Duration| json::num(d.as_secs_f64() * 1e3);
        let [p50, p90, p99] = match self.percentiles() {
            Some((p50, p90, p99)) => [p50, p90, p99].map(ms),
            None => [(); 3].map(|_| json::num(f64::NAN)),
        };
        json::object([
            ("count", self.observed.to_string()),
            ("p50_ms", p50),
            ("p90_ms", p90),
            ("p99_ms", p99),
        ])
    }
}

/// Aggregated session metrics across every query a [`CleanDb`] ran.
///
/// [`CleanDb`]: super::CleanDb
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// End-to-end batch query latencies.
    query_latency: LatencyTrack,
    /// Incremental refresh latencies (fed by incremental sessions).
    refresh_latency: LatencyTrack,
    /// Session plan-cache hits observed through reports.
    plan_cache_hits: u64,
    /// Session plan-cache misses observed through reports.
    plan_cache_misses: u64,
    /// Records physically moved between partitions, all queries.
    records_shuffled: u64,
    /// Pairwise similarity comparisons, all queries.
    comparisons: u64,
    /// Violating entities found, by operator kind (`"Fd"`, `"Dedup"`, …).
    violations_by_op: BTreeMap<&'static str, u64>,
    /// Plan-node expressions compiled to programs, cumulative.
    compiled_exprs: u64,
    /// `Select` passes fused into consumers, cumulative.
    fused_selects: u64,
    /// Rows processed by columnar kernels instead of row-at-a-time
    /// evaluation, cumulative.
    rows_vectorized: u64,
    /// Repair-planning latencies (one observation per planned
    /// [`RepairSection`]).
    repair_latency: LatencyTrack,
    /// Fixes proposed per rule label (`"fd"`, `"dedup:most_frequent"`, …),
    /// cumulative across planned sections.
    fixes_by_rule: BTreeMap<String, u64>,
    /// Violating groups/cells no repair family could fix, cumulative.
    unrepaired: u64,
    /// Cells actually rewritten by [`CleanDb::apply_repairs`], cumulative.
    ///
    /// [`CleanDb::apply_repairs`]: super::CleanDb::apply_repairs
    fixes_applied: u64,
    /// Fixes skipped as stale at application time, cumulative.
    fixes_stale: u64,
    /// Rows deleted by applied DEDUP merges, cumulative.
    repair_rows_dropped: u64,
    /// Failed runs by error kind (`"cancelled"`, `"deadline_exceeded"`,
    /// `"budget_exceeded"`, `"partition_panic"`, `"fault_injected"`, …),
    /// fed from [`CleaningReport::failure`].
    ///
    /// [`CleaningReport::failure`]: super::CleaningReport::failure
    failures_by_kind: BTreeMap<String, u64>,
    /// Panicked partition tasks re-run by the pool, all queries.
    partition_retries: u64,
    /// Partition/driver panics caught and isolated, all queries.
    partition_panics: u64,
    /// Deterministic fault-injection arms fired, all queries (chaos runs
    /// only; 0 in production).
    faults_injected: u64,
}

impl MetricsRegistry {
    /// Fold one batch query's report in, with `violations`: per op of the
    /// report, its kind's name ([`OpKind::name`]) and how many distinct
    /// row ids its output holds. The session calls this after every `run`.
    ///
    /// [`OpKind::name`]: crate::OpKind::name
    pub fn record_query(&mut self, report: &CleaningReport, violations: &[(&'static str, u64)]) {
        self.query_latency.observe(report.total);
        if report.plan_cache.hit {
            self.plan_cache_hits += 1;
        } else {
            self.plan_cache_misses += 1;
        }
        self.records_shuffled += report.metrics.records_shuffled;
        self.comparisons += report.metrics.comparisons;
        self.partition_retries += report.metrics.partition_retries;
        self.partition_panics += report.metrics.partition_panics;
        self.faults_injected += report.metrics.faults_injected;
        if let Some(fail) = &report.failure {
            *self.failures_by_kind.entry(fail.kind.clone()).or_insert(0) += 1;
        }
        self.compiled_exprs += report.exprs.compiled as u64;
        self.fused_selects += report.exprs.fused_selects as u64;
        self.rows_vectorized += report.exprs.vectorized_rows;
        for &(op, n) in violations {
            *self.violations_by_op.entry(op).or_insert(0) += n;
        }
    }

    /// Record one incremental refresh latency (standing-query
    /// re-validation after an append).
    pub fn record_refresh(&mut self, wall: Duration) {
        self.refresh_latency.observe(wall);
    }

    /// Fold one planned repair section in: per-rule fix counts, the
    /// unrepaired tally, and the planning latency.
    pub fn record_repair_plan(&mut self, section: &RepairSection) {
        self.repair_latency.observe(section.duration);
        for (rule, n) in section.by_rule() {
            *self.fixes_by_rule.entry(rule.to_string()).or_insert(0) += n as u64;
        }
        self.unrepaired += section.unrepaired as u64;
    }

    /// Fold one [`CleanDb::apply_repairs`] outcome in.
    ///
    /// [`CleanDb::apply_repairs`]: super::CleanDb::apply_repairs
    pub fn record_repair_applied(&mut self, applied: &AppliedRepairs) {
        self.fixes_applied += applied.cells_changed() as u64;
        self.fixes_stale += applied.stale() as u64;
        self.repair_rows_dropped += applied.rows_dropped() as u64;
    }

    /// Repair-planning latency distribution.
    pub fn repair_latency(&self) -> &LatencyTrack {
        &self.repair_latency
    }

    /// Fixes proposed per rule label, cumulative across planned sections.
    pub fn fixes_by_rule(&self) -> &BTreeMap<String, u64> {
        &self.fixes_by_rule
    }

    /// `(applied, stale, rows_dropped)` cumulative application counters.
    pub fn repair_applied_counts(&self) -> (u64, u64, u64) {
        (
            self.fixes_applied,
            self.fixes_stale,
            self.repair_rows_dropped,
        )
    }

    /// Batch-query latency distribution.
    pub fn query_latency(&self) -> &LatencyTrack {
        &self.query_latency
    }

    /// Incremental-refresh latency distribution.
    pub fn refresh_latency(&self) -> &LatencyTrack {
        &self.refresh_latency
    }

    /// Plan-cache hit ratio over the session, or `None` before any query.
    pub fn plan_cache_hit_ratio(&self) -> Option<f64> {
        ratio(self.plan_cache_hits, self.plan_cache_misses)
    }

    /// Records physically moved between partitions, all queries.
    pub fn records_shuffled(&self) -> u64 {
        self.records_shuffled
    }

    /// Violating entities found per operator kind.
    pub fn violations_by_op(&self) -> &BTreeMap<&'static str, u64> {
        &self.violations_by_op
    }

    /// Failed runs by error kind, cumulative over the session.
    pub fn failures_by_kind(&self) -> &BTreeMap<String, u64> {
        &self.failures_by_kind
    }

    /// `(retries, panics, faults_injected)` fault-tolerance counters,
    /// cumulative over the session.
    pub fn fault_counts(&self) -> (u64, u64, u64) {
        (
            self.partition_retries,
            self.partition_panics,
            self.faults_injected,
        )
    }

    /// Machine-readable snapshot of everything the registry tracks. A
    /// ratio with nothing observed yet is `null`.
    pub fn snapshot_json(&self) -> String {
        let hit_ratio = self.plan_cache_hit_ratio().unwrap_or(f64::NAN);
        json::object([
            ("query_latency", self.query_latency.json()),
            ("refresh_latency", self.refresh_latency.json()),
            (
                "plan_cache",
                json::object([
                    ("hits", self.plan_cache_hits.to_string()),
                    ("misses", self.plan_cache_misses.to_string()),
                    ("hit_ratio", json::num(hit_ratio)),
                ]),
            ),
            ("records_shuffled", self.records_shuffled.to_string()),
            ("comparisons", self.comparisons.to_string()),
            (
                "exprs",
                json::object([
                    ("compiled", self.compiled_exprs.to_string()),
                    ("fused_selects", self.fused_selects.to_string()),
                    ("rows_vectorized", self.rows_vectorized.to_string()),
                ]),
            ),
            ("violations_by_op", json::map(&self.violations_by_op)),
            (
                "faults",
                json::object([
                    ("partition_retries", self.partition_retries.to_string()),
                    ("partition_panics", self.partition_panics.to_string()),
                    ("faults_injected", self.faults_injected.to_string()),
                    ("failures_by_kind", json::map(&self.failures_by_kind)),
                ]),
            ),
            (
                "repairs",
                json::object([
                    ("plan_latency", self.repair_latency.json()),
                    ("applied", self.fixes_applied.to_string()),
                    ("stale", self.fixes_stale.to_string()),
                    ("rows_dropped", self.repair_rows_dropped.to_string()),
                    ("unrepaired", self.unrepaired.to_string()),
                    ("fixes_by_rule", json::map(&self.fixes_by_rule)),
                ]),
            ),
        ])
    }

    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        let fmt_track = |name: &str, t: &LatencyTrack| match t.percentiles() {
            Some((p50, p90, p99)) => format!(
                "  {name}: {} observed, p50 {:.3}ms, p90 {:.3}ms, p99 {:.3}ms\n",
                t.count(),
                p50.as_secs_f64() * 1e3,
                p90.as_secs_f64() * 1e3,
                p99.as_secs_f64() * 1e3
            ),
            None => format!("  {name}: none\n"),
        };
        let fmt_ratio = |r: Option<f64>| match r {
            Some(r) => format!("{:.0}%", r * 100.0),
            None => "n/a".to_string(),
        };
        let mut out = String::from("session metrics:\n");
        out.push_str(&fmt_track("queries", &self.query_latency));
        out.push_str(&fmt_track("refreshes", &self.refresh_latency));
        out.push_str(&format!(
            "  plan cache: {} hits / {} misses ({})\n",
            self.plan_cache_hits,
            self.plan_cache_misses,
            fmt_ratio(self.plan_cache_hit_ratio()),
        ));
        out.push_str(&format!(
            "  shuffled {} records, {} comparisons; exprs {} compiled, {} fused; \
             {} rows vectorized\n",
            self.records_shuffled,
            self.comparisons,
            self.compiled_exprs,
            self.fused_selects,
            self.rows_vectorized
        ));
        for (op, n) in &self.violations_by_op {
            out.push_str(&format!("  violations[{op}]: {n}\n"));
        }
        if self.partition_retries + self.partition_panics + self.faults_injected > 0
            || !self.failures_by_kind.is_empty()
        {
            out.push_str(&format!(
                "  faults: {} retries, {} panics isolated, {} injected\n",
                self.partition_retries, self.partition_panics, self.faults_injected
            ));
            for (k, n) in &self.failures_by_kind {
                out.push_str(&format!("  failures[{k}]: {n}\n"));
            }
        }
        if self.repair_latency.count() > 0 || self.fixes_applied > 0 {
            out.push_str(&fmt_track("repair plans", &self.repair_latency));
            out.push_str(&format!(
                "  repairs: {} applied, {} stale, {} rows dropped, {} unrepaired\n",
                self.fixes_applied, self.fixes_stale, self.repair_rows_dropped, self.unrepaired
            ));
            for (rule, n) in &self.fixes_by_rule {
                out.push_str(&format!("  fixes[{rule}]: {n}\n"));
            }
        }
        out
    }
}

fn ratio(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    (total > 0).then(|| hits as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_track_percentiles_are_ordered() {
        let mut t = LatencyTrack::default();
        for ms in 1..=100u64 {
            t.observe(Duration::from_millis(ms));
        }
        let (p50, p90, p99) = t.percentiles().unwrap();
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p50 >= Duration::from_millis(30) && p50 <= Duration::from_millis(70));
        assert_eq!(t.count(), 100);
    }

    #[test]
    fn latency_track_stays_bounded_under_decimation() {
        let mut t = LatencyTrack::default();
        for i in 0..20_000u64 {
            t.observe(Duration::from_micros(i));
        }
        assert_eq!(t.count(), 20_000);
        assert!(t.samples.len() < LATENCY_SAMPLE_CAP);
        // Early and late observations both survive decimation.
        assert!(t.samples.iter().any(|&n| n < 1_000_000));
        assert!(t.samples.iter().any(|&n| n > 15_000_000_000 / 1000));
        let (p50, _, p99) = t.percentiles().unwrap();
        assert!(p50 < p99);
    }

    #[test]
    fn empty_registry_snapshot_is_well_formed() {
        let r = MetricsRegistry::default();
        let js = r.snapshot_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"hit_ratio\": null"));
        assert!(r.plan_cache_hit_ratio().is_none());
        assert!(r.query_latency().percentiles().is_none());
        assert!(r.summary().contains("queries: none"));
    }

    #[test]
    fn repair_counters_accumulate() {
        use super::super::repair::{AppliedTable, Fix};
        use cleanm_values::Value;
        let fix = |rule: &str| Fix {
            table: "t".into(),
            column: "c".into(),
            row_id: 0,
            original: Value::Int(0),
            repaired: Value::Int(1),
            confidence: 0.9,
            rule: rule.into(),
        };
        let mut r = MetricsRegistry::default();
        r.record_repair_plan(&RepairSection {
            fixes: vec![fix("fd"), fix("fd"), fix("dc:relax")],
            dropped_rows: Vec::new(),
            unrepaired: 1,
            duration: Duration::from_millis(3),
        });
        r.record_repair_applied(&AppliedRepairs {
            tables: vec![AppliedTable {
                table: "t".into(),
                cells_changed: 2,
                rows_dropped: 1,
                stale: 1,
                rows_after: 9,
            }],
        });
        assert_eq!(r.fixes_by_rule().get("fd"), Some(&2));
        assert_eq!(r.repair_applied_counts(), (2, 1, 1));
        assert_eq!(r.repair_latency().count(), 1);
        let js = r.snapshot_json();
        assert!(js.contains("\"repairs\""));
        assert!(js.contains("\"fd\": 2"));
        assert!(r
            .summary()
            .contains("repairs: 2 applied, 1 stale, 1 rows dropped, 1 unrepaired"));
    }

    #[test]
    fn refresh_latencies_track_separately() {
        let mut r = MetricsRegistry::default();
        r.record_refresh(Duration::from_millis(2));
        r.record_refresh(Duration::from_millis(4));
        assert_eq!(r.refresh_latency().count(), 2);
        assert_eq!(r.query_latency().count(), 0);
        assert!(r
            .snapshot_json()
            .contains("\"refresh_latency\": {\"count\": 2"));
    }
}
