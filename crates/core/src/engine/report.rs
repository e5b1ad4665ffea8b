//! Query results: what a cleaning run found and what it cost.

use std::time::Duration;

use cleanm_exec::MetricsSnapshot;
use cleanm_values::Value;

use crate::algebra::RewriteStats;
use crate::calculus::desugar::OpKind;
use crate::calculus::NormalizeStats;
use crate::engine::output::Output;
use crate::engine::repair::RepairSection;
use cleanm_trace::json;

use crate::physical::{PlanDecision, QueryProfile};

/// One operator's output.
#[derive(Debug, Clone)]
pub struct OpResult {
    pub label: String,
    pub kind: OpKind,
    /// Raw reduced output (groups for FD, pairs for DEDUP and DC, (term,
    /// repair) records for CLUSTER BY, projected rows for SELECT), read as
    /// a `&[Value]`. A pair route keeps row-index pairs and builds their
    /// records only when they are first read; the session reads the
    /// violating ids ([`Output::rowids`]) without them.
    pub output: Output,
    pub duration: Duration,
}

/// A suggested repair from term validation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Repair {
    pub term: String,
    pub suggestion: String,
}

/// Plan-cache accounting for one run. Scoping is mixed by design and each
/// field says which it is: `hit` describes **this query alone**, while
/// `hits`/`misses` are **session-cumulative** counters (they include this
/// run and every run before it in the same `CleanDb` session — two reports
/// from one session overlap in these fields).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Per-query: this run skipped planning (and, on the text fast path,
    /// parsing).
    pub hit: bool,
    /// Session-cumulative: cache hits so far, including this run.
    pub hits: u64,
    /// Session-cumulative: cache misses so far, including this run.
    pub misses: u64,
}

/// How the executor evaluated this run's plan-node expressions: the
/// compilation and operator-fusion outcomes.
///
/// All counters are **per-query**: a fresh executor counts from zero each
/// run, so summing reports sums disjoint work (session-cumulative totals
/// live in the session's metrics registry instead).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExprStats {
    /// Plan-node expressions lowered to slot-resolved [`Program`]s and run
    /// by the flat register machine.
    ///
    /// [`Program`]: crate::calculus::Program
    pub compiled: usize,
    /// Always 0 — an expression that does not compile fails the query.
    /// Kept only because `benchmark/src/layers.rs` reads it.
    pub interpreted: usize,
    /// `Select` nodes fused into their downstream operator: their filter
    /// ran inside the consumer's partition sweep and the filtered
    /// intermediate collection was never materialized.
    pub fused_selects: usize,
    /// Rows processed by columnar kernels (whole-column sweeps over typed
    /// batches) instead of row-at-a-time program evaluation.
    pub vectorized_rows: u64,
}

/// How an incremental refresh produced this report (absent on batch runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalInfo {
    /// Newly ingested rows this refresh validated.
    pub delta_rows: usize,
    /// Operators revalidated purely from retained state (delta-vs-delta
    /// plus delta-vs-history; old rows were not rescanned).
    pub incremental_ops: usize,
    /// Operators whose state could not be maintained and fell back to a
    /// full re-run.
    pub fallback_ops: usize,
}

/// How a failed run ended: the typed error plus how far execution got
/// before it. Attached to [`CleaningReport::failure`] by
/// [`CleanDb::run_with_limits`], which reports resource-limit and fault
/// outcomes as data instead of tearing the report away with an `Err`.
///
/// [`CleanDb::run_with_limits`]: super::CleanDb::run_with_limits
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureInfo {
    /// Stable machine-readable classification of the error
    /// ([`ExecError::kind`]: `"cancelled"`, `"deadline_exceeded"`,
    /// `"budget_exceeded"`, `"partition_panic"`, `"fault_injected"`, …).
    ///
    /// [`ExecError::kind`]: cleanm_exec::ExecError::kind
    pub kind: String,
    /// The runtime error that ended the query, rendered for humans.
    pub error: String,
    /// True for cancellation / deadline / work-budget failures (external
    /// control), false for panics, injected faults, and data errors. The
    /// CLI maps this to its resource-limit exit code.
    pub resource_limit: bool,
    /// Label of the cleaning operator that failed (`None` when the failure
    /// hit before the first operator started).
    pub failed_op: Option<String>,
    /// Cleaning operators that completed before the failure; their
    /// [`OpResult`]s are present in [`CleaningReport::ops`].
    pub ops_completed: usize,
    /// Last exec-layer stage that finished (partial progress at stage
    /// granularity — finer than `ops_completed`).
    pub last_stage: Option<String>,
    /// Rows entering exec-layer stages before the failure (partial
    /// progress at row granularity).
    pub rows_processed: u64,
    /// Panicked partition tasks the pool re-ran before this outcome.
    pub partition_retries: u64,
    /// Partition/driver panics caught (isolated) during the run.
    pub partition_panics: u64,
    /// Deterministic fault-injection arms that fired during the run.
    pub faults_injected: u64,
}

/// The result of running one CleanM query.
#[derive(Debug, Clone)]
pub struct CleaningReport {
    /// Which engine profile executed the query.
    pub profile: String,
    pub ops: Vec<OpResult>,
    /// Distinct row ids participating in at least one violation — the
    /// outer-join combination of §4.4 ("entities that contain at least one
    /// violation").
    pub violating_ids: Vec<i64>,
    /// Term-validation repair candidates (all similar dictionary entries;
    /// use [`crate::quality::select_best_repairs`] to pick one per term).
    pub repairs: Vec<Repair>,
    pub normalize_stats: NormalizeStats,
    pub rewrite_stats: RewriteStats,
    pub total: Duration,
    pub metrics: MetricsSnapshot,
    /// EXPLAIN text of the executed (possibly shared) plans.
    pub plan_text: String,
    /// Physical-strategy decision per Nest/ThetaJoin node, in execution
    /// order — the strategy that ran, with `"fixed profile"` as the reason
    /// unless the profile's strategy could not run.
    pub decisions: Vec<PlanDecision>,
    /// Expression-evaluation accounting: compiled plan-node expressions,
    /// the `Select` nodes fused into their consumers, vectorized rows.
    pub exprs: ExprStats,
    /// Plan-cache accounting (hit/miss for this run + session counters).
    pub plan_cache: PlanCacheStats,
    /// Present when an incremental session produced this report from
    /// retained operator state rather than a full pass.
    pub incremental: Option<IncrementalInfo>,
    /// Cell-level repair plan for this run's violations: per-fix records
    /// plus summary counters. `None` on plain detection runs; filled by
    /// `cleanm-repair`'s engine (which runs the query, plans fixes from the
    /// op output, and attaches the section here).
    pub repair: Option<RepairSection>,
    /// Per-operator execution profiles (EXPLAIN ANALYZE trees), one per
    /// cleaning operator in plan order. Empty unless the session ran with
    /// tracing enabled ([`CleanDb::set_tracing`]) or via
    /// [`CleanDb::explain`].
    ///
    /// [`CleanDb::set_tracing`]: super::CleanDb::set_tracing
    /// [`CleanDb::explain`]: super::CleanDb::explain
    pub profiles: Vec<QueryProfile>,
    /// Present when the run failed under [`CleanDb::run_with_limits`]: the
    /// typed error plus partial progress (completed ops stay in
    /// [`CleaningReport::ops`]). `None` on successful runs — and always
    /// `None` from [`CleanDb::run`], which surfaces failures as `Err`.
    ///
    /// [`CleanDb::run`]: super::CleanDb::run
    /// [`CleanDb::run_with_limits`]: super::CleanDb::run_with_limits
    pub failure: Option<FailureInfo>,
}

impl CleaningReport {
    /// Number of distinct violating entities.
    pub fn violations(&self) -> usize {
        self.violating_ids.len()
    }

    /// Output rows of the op with the given label.
    pub fn op_output(&self, label: &str) -> Option<&[Value]> {
        self.ops
            .iter()
            .find(|o| o.label == label)
            .map(|o| &*o.output)
    }

    /// The EXPLAIN ANALYZE rendering of this run's execution: one tree per
    /// cleaning operator with per-node rows, timings, shuffle volume, and
    /// compiled/fused flags. Empty string unless the run was traced (see
    /// [`CleaningReport::profiles`]).
    pub fn profile_tree(&self) -> String {
        let mut out: String = self.profiles.iter().map(QueryProfile::render).collect();
        // A repaired run's EXPLAIN ANALYZE shows the repair plan alongside
        // the operator trees.
        if let Some(rep) = &self.repair {
            if !out.is_empty() {
                out.push_str(&rep.render());
            }
        }
        out
    }

    /// The profiles as one JSON array (machine-readable EXPLAIN ANALYZE).
    pub fn profiles_json(&self) -> String {
        json::array(self.profiles.iter().map(QueryProfile::to_json))
    }

    /// Human-readable summary (used by examples and the repro harness).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "[{}] {} operator(s), {} violating entities, {} repair candidates in {:?}\n",
            self.profile,
            self.ops.len(),
            self.violations(),
            self.repairs.len(),
            self.total,
        );
        for op in &self.ops {
            out.push_str(&format!(
                "  {}: {} output rows in {:?}\n",
                op.label,
                op.output.len(),
                op.duration
            ));
        }
        out.push_str(&format!(
            "  optimizer: {} normalization rewrites, {} shared nodes; \
             shuffled {} records, {} comparisons\n",
            self.normalize_stats.total(),
            self.rewrite_stats.total_shared(),
            self.metrics.records_shuffled,
            self.metrics.comparisons,
        ));
        for d in &self.decisions {
            out.push_str(&format!("  strategy: {d}\n"));
        }
        // Incremental refreshes run their own per-batch programs and do
        // not fill these counters in — print only when they carry data.
        if self.exprs != ExprStats::default() {
            out.push_str(&format!(
                "  exprs (this query): {} compiled, {} select(s) fused downstream\n",
                self.exprs.compiled, self.exprs.fused_selects
            ));
            if self.exprs.vectorized_rows > 0 {
                out.push_str(&format!(
                    "  vectorized: {} rows through columnar kernels\n",
                    self.exprs.vectorized_rows
                ));
            }
        }
        // `hit` is per-query; the counters are session-cumulative — label
        // both so two reports from one session are not misread as disjoint.
        if self.plan_cache.hits + self.plan_cache.misses > 0 {
            out.push_str(&format!(
                "  plan cache: {} this query (session-cumulative: {} hits / {} misses)\n",
                if self.plan_cache.hit { "hit" } else { "miss" },
                self.plan_cache.hits,
                self.plan_cache.misses
            ));
        }
        if let Some(inc) = &self.incremental {
            out.push_str(&format!(
                "  incremental: {} delta rows, {} ops from state, {} fallbacks\n",
                inc.delta_rows, inc.incremental_ops, inc.fallback_ops
            ));
        }
        if let Some(rep) = &self.repair {
            for line in rep.render().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        if let Some(fail) = &self.failure {
            out.push_str(&format!(
                "  FAILED ({}): {}\n",
                if fail.resource_limit {
                    "resource limit"
                } else {
                    "fault"
                },
                fail.error
            ));
            out.push_str(&format!(
                "  partial progress: {} op(s) completed, {} rows processed, last stage {}\n",
                fail.ops_completed,
                fail.rows_processed,
                fail.last_stage.as_deref().unwrap_or("<none>"),
            ));
            if fail.partition_retries + fail.partition_panics + fail.faults_injected > 0 {
                out.push_str(&format!(
                    "  fault handling: {} retries, {} panics isolated, {} faults injected\n",
                    fail.partition_retries, fail.partition_panics, fail.faults_injected
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_the_essentials() {
        let report = CleaningReport {
            profile: "CleanDB".into(),
            ops: vec![OpResult {
                label: "FD#0".into(),
                kind: OpKind::Fd,
                output: vec![Value::Int(1)].into(),
                duration: Duration::from_millis(5),
            }],
            violating_ids: vec![3, 7],
            repairs: vec![],
            normalize_stats: NormalizeStats::default(),
            rewrite_stats: RewriteStats::default(),
            total: Duration::from_millis(9),
            metrics: MetricsSnapshot::default(),
            plan_text: String::new(),
            decisions: vec![PlanDecision {
                operator: "nest",
                node: "d.address".into(),
                strategy: "LocalAggregate".into(),
                reason: "fixed profile".into(),
            }],
            exprs: ExprStats {
                compiled: 3,
                interpreted: 0,
                fused_selects: 1,
                vectorized_rows: 0,
            },
            plan_cache: PlanCacheStats {
                hit: false,
                hits: 2,
                misses: 3,
            },
            incremental: None,
            repair: None,
            profiles: Vec::new(),
            failure: None,
        };
        let s = report.summary();
        assert!(s.contains("3 compiled"));
        assert!(s.contains("1 select(s) fused"));
        assert!(s.contains("LocalAggregate"));
        assert!(s.contains("CleanDB"));
        assert!(s.contains("2 violating entities"));
        assert!(s.contains("FD#0"));
        // Scoping is spelled out: per-query outcome vs session counters.
        assert!(s.contains("exprs (this query)"));
        assert!(s.contains("miss this query (session-cumulative: 2 hits / 3 misses)"));
        assert_eq!(report.violations(), 2);
        assert!(report.op_output("FD#0").is_some());
        assert!(report.op_output("nope").is_none());
        // Untraced runs carry no profiles and render empty.
        assert!(report.profile_tree().is_empty());
        assert_eq!(report.profiles_json(), "[]");

        // A failed run renders its outcome and partial progress.
        let mut failed = report.clone();
        failed.failure = Some(FailureInfo {
            kind: "cancelled".into(),
            error: "query cancelled while running map".into(),
            resource_limit: true,
            failed_op: Some("FD#1".into()),
            ops_completed: 1,
            last_stage: Some("map".into()),
            rows_processed: 42,
            partition_retries: 1,
            partition_panics: 1,
            faults_injected: 0,
        });
        let s = failed.summary();
        assert!(s.contains("FAILED (resource limit): query cancelled"));
        assert!(s.contains("1 op(s) completed, 42 rows processed, last stage map"));
        assert!(s.contains("1 retries, 1 panics isolated"));
    }
}
