//! Standing denial constraints: delta-driven re-validation of an
//! [`InequalityDc`] using retained **join-key domain indexes**.
//!
//! The batch DC is a theta self-join: every refresh would re-enumerate the
//! (pruned) `|T|²` matrix. The standing form keeps both sides indexed by
//! the numeric join key, sorted:
//!
//! * the full table as the join's right side;
//! * the σ-filtered rows (the filters lowering pushed below the join) as
//!   its left side.
//!
//! Sides, filters and keys are read off the rule's cached plan. A delta
//! batch Δ then only enumerates `σ(Δ) × (H ∪ Δ)` and `σ(H) × Δ`
//! — disjoint by the left side, so every new violating pair is counted
//! exactly once — and under a `LeftLessThanRight` hint each probe binary-
//! searches its candidate range in the sorted index instead of scanning.

use std::cmp::Ordering;
use std::time::Instant;

use cleanm_core::algebra::{Alg, HintKind, ThetaHint};
use cleanm_core::calculus::desugar::ROWID_FIELD;
use cleanm_core::calculus::{eval::truthy, BinOp, CalcExpr, EvalCtx};
use cleanm_core::engine::EngineError;
use cleanm_core::ops::{DcOutcome, InequalityDc};
use cleanm_core::physical::RowExpr;
use cleanm_core::CleanDb;
use cleanm_values::Value;

use crate::session::Cursor;

/// Retained state for one installed denial constraint.
pub struct StandingDc {
    filter_rx: Option<RowExpr>,
    pred_rx: RowExpr,
    lkey_rx: RowExpr,
    rkey_rx: RowExpr,
    prunable: bool,
    /// Every row as the right side, sorted by join key.
    right_index: Vec<(f64, Value)>,
    /// σ-filtered rows as the left side, sorted by join key.
    left_index: Vec<(f64, Value)>,
    violations: usize,
    comparisons: u64,
    pub(crate) cursor: Cursor,
    pub(crate) table: String,
}

impl StandingDc {
    /// Build the state from the table's current rows plus the batch
    /// baseline violation count.
    pub(crate) fn install(
        dc: &InequalityDc,
        db: &mut CleanDb,
    ) -> Result<(StandingDc, DcOutcome), EngineError> {
        let baseline = dc.run(db)?;
        let DcOutcome::Completed { violations, .. } = baseline else {
            return Err(EngineError::Exec(cleanm_exec::ExecError::Other(
                "cannot install a DC whose baseline exceeds the work budget".to_string(),
            )));
        };
        // Index by the sides, filters and hint the lowering derived from
        // the predicate (the baseline run left the plan in the cache).
        let entry = db.plan(&dc.to_sql())?;
        let Some(((_, left_var, left_filters), (_, right_var, right_filters), pred, hint)) =
            entry.plans().first().and_then(|plan| theta_sides(plan))
        else {
            return Err(EngineError::Exec(cleanm_exec::ExecError::Other(format!(
                "`{}` does not plan as a theta join; install it as a standing query",
                dc.pred
            ))));
        };
        // Only the left index is kept filtered; the right side's filters
        // are checked with the pair predicate.
        let and = |all, p| CalcExpr::bin(BinOp::And, all, p);
        let filter = left_filters.into_iter().reduce(and);
        let pair_pred = right_filters.into_iter().fold(pred.clone(), and);
        let ctx = EvalCtx::new();
        // One-name scopes, and every row handed to these programs below is
        // `slice::from_ref(row)` — one slot — so a layout mismatch cannot
        // arise here; the errors `passes_filter` / `pair_violates` /
        // `key_of` swallow are value errors (a null or mistyped field).
        let left = vec![left_var];
        let right = vec![right_var];
        let pair = vec![left[0].clone(), right[0].clone()];
        let stored = db.table(&dc.table).expect("the baseline ran over it");
        let cursor = Cursor {
            lineage: stored.created(),
            batches_seen: stored.batches().len(),
        };
        let batches: Vec<_> = stored.batches().to_vec();
        let compile = |expr: &CalcExpr, scope: &[String]| {
            RowExpr::compile(expr, scope, &ctx)
                .map_err(|e| EngineError::Exec(cleanm_exec::ExecError::Value(e.to_string())))
        };
        let mut state = StandingDc {
            filter_rx: filter.map(|f| compile(&f, &left)).transpose()?,
            pred_rx: compile(&pair_pred, &pair)?,
            lkey_rx: compile(&hint.left_key, &left)?,
            rkey_rx: compile(&hint.right_key, &right)?,
            prunable: matches!(hint.kind, HintKind::LeftLessThanRight),
            right_index: Vec::new(),
            left_index: Vec::new(),
            violations,
            comparisons: 0,
            cursor,
            table: dc.table.clone(),
        };
        for batch in &batches {
            state.index(batch, &ctx);
        }
        state.sort_indexes();
        Ok((state, baseline))
    }

    /// Add rows to both key indexes, unsorted (no comparisons). Callers
    /// must [`StandingDc::sort_indexes`] before probing — appending then
    /// sorting once is O(n log n) where per-row sorted insertion would be
    /// O(n²) over an install.
    fn index(&mut self, rows: &[Value], ctx: &EvalCtx) {
        for row in rows {
            let rk = key_of(&self.rkey_rx, row, ctx);
            if rk.is_nan() {
                self.prunable = false;
            }
            self.right_index.push((rk, row.clone()));
            if self.passes_filter(row, ctx) {
                let lk = key_of(&self.lkey_rx, row, ctx);
                if lk.is_nan() {
                    self.prunable = false;
                }
                self.left_index.push((lk, row.clone()));
            }
        }
    }

    /// Restore the sorted-by-key invariant after [`StandingDc::index`].
    fn sort_indexes(&mut self) {
        self.right_index.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.left_index.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    fn passes_filter(&self, row: &Value, ctx: &EvalCtx) -> bool {
        let Some(f) = &self.filter_rx else {
            return true;
        };
        f.eval_env(std::slice::from_ref(row), ctx)
            .map(|v| truthy(&v))
            .unwrap_or(false)
    }

    fn pair_violates(&mut self, t1: &Value, t2: &Value, ctx: &EvalCtx) -> bool {
        self.comparisons += 1;
        self.pred_rx
            .eval_pair(std::slice::from_ref(t1), std::slice::from_ref(t2), ctx)
            .map(|v| truthy(&v))
            .unwrap_or(false)
    }

    /// The accumulated violation count.
    pub fn violations(&self) -> usize {
        self.violations
    }

    /// Re-validate after appends: count the new violating pairs involving
    /// at least one delta row, add them to the running total.
    pub(crate) fn refresh(&mut self, delta: &[Value]) -> DcOutcome {
        let start = Instant::now();
        let ctx = EvalCtx::new();
        // Index the delta first: the right index then holds H ∪ Δ, so
        // Δ-vs-Δ pairs fall out of pass (1) below.
        self.index(delta, &ctx);
        self.sort_indexes();

        // (1) σ(Δ) × (H ∪ Δ): each filtered delta row probes the full
        // right index.
        let mut new_pairs = 0usize;
        for row in delta {
            if !self.passes_filter(row, &ctx) {
                continue;
            }
            let lk = key_of(&self.lkey_rx, row, &ctx);
            for i in self.right_candidates(lk) {
                let t2 = self.right_index[i].1.clone();
                if self.pair_violates(row, &t2, &ctx) {
                    new_pairs += 1;
                }
            }
        }
        // (2) σ(H) × Δ: each delta row as t2 probes the *historic* left
        // index (delta-left pairs were already counted in (1)).
        let delta_set: std::collections::HashSet<i64> = delta
            .iter()
            .filter_map(|r| r.field(ROWID_FIELD).ok().and_then(|v| v.as_int().ok()))
            .collect();
        for row in delta {
            let rk = key_of(&self.rkey_rx, row, &ctx);
            for i in self.left_candidates(rk) {
                let t1 = self.left_index[i].1.clone();
                let t1_id = t1.field(ROWID_FIELD).ok().and_then(|v| v.as_int().ok());
                if t1_id.map(|id| delta_set.contains(&id)).unwrap_or(false) {
                    continue; // a delta row: pair already counted in (1)
                }
                if self.pair_violates(&t1, row, &ctx) {
                    new_pairs += 1;
                }
            }
        }
        self.violations += new_pairs;
        DcOutcome::Completed {
            violations: self.violations,
            duration: start.elapsed(),
            comparisons: self.comparisons,
        }
    }

    /// Candidate `t2` indices for a left key under the hint: with
    /// `LeftLessThanRight`, only keys strictly greater can satisfy the
    /// predicate; otherwise the whole index.
    fn right_candidates(&self, lk: f64) -> std::ops::Range<usize> {
        if !self.prunable || lk.is_nan() {
            return 0..self.right_index.len();
        }
        let start = self
            .right_index
            .partition_point(|(k, _)| k.total_cmp(&lk) != Ordering::Greater);
        start..self.right_index.len()
    }

    /// Candidate `t1` indices for a right key: with `LeftLessThanRight`,
    /// only keys strictly smaller.
    fn left_candidates(&self, rk: f64) -> std::ops::Range<usize> {
        if !self.prunable || rk.is_nan() {
            return 0..self.left_index.len();
        }
        let end = self
            .left_index
            .partition_point(|(k, _)| k.total_cmp(&rk) == Ordering::Less);
        0..end
    }
}

/// A theta side: its table, row variable and filters.
type Side = (String, String, Vec<CalcExpr>);

/// The sides, pair predicate and hint of a plan that reduces a theta join of
/// two filtered scans — what a DC without equality conjuncts lowers to.
fn theta_sides(plan: &Alg) -> Option<(Side, Side, &CalcExpr, &ThetaHint)> {
    let Alg::Reduce { input, .. } = plan else {
        return None;
    };
    let Alg::ThetaJoin {
        left,
        right,
        pred,
        hint,
    } = &**input
    else {
        return None;
    };
    Some((
        left.scan_with_filters()?,
        right.scan_with_filters()?,
        pred,
        hint,
    ))
}

fn key_of(rx: &RowExpr, row: &Value, ctx: &EvalCtx) -> f64 {
    rx.eval_env(std::slice::from_ref(row), ctx)
        .ok()
        .and_then(|v| v.as_float().ok())
        .unwrap_or(f64::NAN)
}
