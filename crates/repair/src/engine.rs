//! The repair engine: run detection, turn every op's violations into
//! confidence-scored fixes, and attach the section to the report.

use std::sync::Arc;
use std::time::Instant;

use cleanm_core::calculus::desugar::OpKind;
use cleanm_core::engine::{CleanDb, CleaningReport, EngineError, RepairSection};
use cleanm_core::lang::parse_query;
use cleanm_core::ops::{FdPlanShape, TermvalPlanShape};
use cleanm_text::Metric;

use crate::merge::MergePolicy;
use crate::{dc, dedup, fd, termval};

/// Knobs governing how fixes are derived.
#[derive(Debug, Clone, Default)]
pub struct RepairConfig {
    /// Per-column merge functions for DEDUP cluster collapsing (defaults
    /// to [`MergePolicy::keep_canonical`], the only policy that guarantees
    /// zero violations on re-run).
    pub merge: MergePolicy,
    /// Similarity metric scoring CLUSTER BY suggestion confidence.
    pub term_metric: Metric,
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

    /// Plan fixes for an already-run query's report. The operator shapes
    /// come from [`CleanDb::plan`]: the run's cached plan, or the same
    /// query planned again if the cache has evicted it since. A DC op's
    /// constraint comes from its clause in `sql` (the `i`-th clause is the
    /// `i`-th op).
    pub fn plan_for_report(
        &self,
        db: &mut CleanDb,
        sql: &str,
        report: &CleaningReport,
    ) -> Result<RepairSection, EngineError> {
        let started = Instant::now();
        let ctx = Arc::clone(db.context());
        let _span = ctx.tracer().span("repair");
        let mut section = RepairSection::default();
        let entry = db.plan(sql)?;
        let query = parse_query(sql)?;
        for (i, op) in entry.ops().iter().enumerate() {
            let output = report.op_output(&op.label).unwrap_or(&[]);
            if output.is_empty() {
                continue;
            }
            let plan = &entry.plans()[i];
            match op.kind {
                OpKind::Fd => match FdPlanShape::from_plan(plan) {
                    Some(shape) => {
                        let rows = db.table_rows(&shape.table).unwrap_or_default();
                        section.merge(fd::plan(&shape, output, &rows));
                    }
                    None => section.unrepaired += output.len(),
                },
                OpKind::Dedup => match plan.scanned_tables().as_slice() {
                    [table] => section.merge(dedup::plan(table, output, &self.config.merge)),
                    _ => section.unrepaired += output.len(),
                },
                OpKind::TermValidation => match TermvalPlanShape::from_plan(plan) {
                    Some(shape) => {
                        let Some(rows) = db.table_rows(&shape.data.table) else {
                            section.unrepaired += output.len();
                            continue;
                        };
                        section.merge(termval::plan(
                            &shape,
                            output,
                            &rows,
                            self.config.term_metric,
                        ));
                    }
                    None => section.unrepaired += output.len(),
                },
                OpKind::Dc => {
                    section.merge(dc::plan(db, &query, &query.clean_ops[i], output)?);
                }
                // Projections have nothing to repair.
                OpKind::Select => {}
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
