//! The repair engine: run detection, turn every op's violations into
//! confidence-scored fixes, and attach the section to the report.

use std::sync::Arc;
use std::time::Instant;

use cleanm_core::engine::{CleanDb, CleaningReport, EngineError, RepairSection};
use cleanm_core::lang::{parse_query, CleanOp};

use crate::merge::MergePolicy;
use crate::{dc, dedup, fd, termval};

/// Knobs governing how fixes are derived.
#[derive(Debug, Clone, Default)]
pub struct RepairConfig {
    /// Per-column merge functions for DEDUP cluster collapsing (defaults
    /// to [`MergePolicy::keep_canonical`], the only policy that guarantees
    /// zero violations on re-run).
    pub merge: MergePolicy,
}

/// Plans repairs from detection output. One engine serves any number of
/// sessions and queries; all state lives in the config.
#[derive(Debug, Clone, Default)]
pub struct RepairEngine {
    /// The engine's configuration.
    pub config: RepairConfig,
}

impl RepairEngine {
    /// An engine with the given configuration.
    pub fn new(config: RepairConfig) -> Self {
        RepairEngine { config }
    }

    /// Run a CleanM query and plan repairs for every operator's
    /// violations. The returned report carries the section in
    /// [`CleaningReport::repair`] (sorted by `(table, row_id, column)`),
    /// rendered by `summary()` and EXPLAIN ANALYZE; counters land in the
    /// session's metrics registry. Apply with
    /// [`CleanDb::apply_repairs`].
    pub fn run(&self, db: &mut CleanDb, sql: &str) -> Result<CleaningReport, EngineError> {
        let mut report = db.run(sql)?;
        let section = self.plan_for_report(db, sql, &report)?;
        db.record_repair_plan(&section);
        report.repair = Some(section);
        Ok(report)
    }

    /// Plan fixes for an already-run query's report. Every op is read
    /// from its clause in `sql` — the `i`-th clause is the `i`-th op of
    /// the report — over the statement's primary table: an FD rewrites
    /// the columns its right-hand side names, a CLUSTER BY the column its
    /// term names, a DEDUP merges its pairs' rows, and a DC relaxes the
    /// cells its atoms read. No plan is consulted, so the section does not
    /// depend on the plan cache.
    pub fn plan_for_report(
        &self,
        db: &CleanDb,
        sql: &str,
        report: &CleaningReport,
    ) -> Result<RepairSection, EngineError> {
        let started = Instant::now();
        let ctx = Arc::clone(db.context());
        let _span = ctx.tracer().span("repair");
        let mut section = RepairSection::default();
        let query = parse_query(sql)?;
        for (clause, op) in query.clean_ops.iter().zip(&report.ops) {
            let output = op.output.as_slice();
            if output.is_empty() {
                continue;
            }
            // A cleaning clause reads the statement's primary table.
            let table = query.from[0].name.as_str();
            match clause {
                CleanOp::Fd { rhs, .. } => {
                    let rows = db.table_rows(table).unwrap_or_default();
                    section.merge(fd::plan(table, rhs, output, &rows));
                }
                CleanOp::Dedup { .. } => {
                    section.merge(dedup::plan(table, output, &self.config.merge));
                }
                CleanOp::ClusterBy { term, metric, .. } => {
                    let Some(rows) = db.table_rows(table) else {
                        section.unrepaired += output.len();
                        continue;
                    };
                    section.merge(termval::plan(table, term, output, &rows, *metric));
                }
                CleanOp::Dc { .. } => section.merge(dc::plan(db, &query, clause, output)?),
            }
        }
        section.sort();
        section.duration = started.elapsed();
        ctx.tracer().event(
            "repair_planned",
            format!(
                "{} fix(es), {} drop(s), {} unrepaired",
                section.fixes.len(),
                section.dropped_rows.len(),
                section.unrepaired
            ),
        );
        Ok(section)
    }
}
