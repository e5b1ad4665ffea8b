//! Standing denial constraints: the retained state of a `DC(...)` clause
//! whose plan reduces a theta join of two filtered scans, kept as sorted
//! **join-key indexes**.
//!
//! The batch DC is a theta self-join: every refresh would re-enumerate the
//! (pruned) `|T|²` matrix. The standing form keeps each side's rows that
//! pass its filters indexed by the side's numeric join key, sorted. Sides,
//! filters, predicate, hint and the `Reduce` head are all read off the op's
//! plan. A delta batch Δ then only enumerates `σ(Δ) × (H ∪ Δ)` and
//! `σ(H) × Δ` — disjoint by the left side, so every new violating pair is
//! emitted exactly once — and under a `LeftLessThanRight` hint each probe
//! binary-searches its candidate range in the sorted index instead of
//! scanning. A DC with an equality conjunct plans as a blocked pair sweep
//! instead and falls back to a full re-run.

use std::cmp::Ordering;

use cleanm_core::algebra::{Alg, HintKind, ThetaHint};
use cleanm_core::calculus::{CalcExpr, EvalCtx};
use cleanm_core::physical::RowExpr;
use cleanm_values::{Result, Value};

use crate::state::{emit, PairPreds, RowPipeline};

/// A side's rows that pass its filters, each under its join key.
type Index = Vec<(f64, Value)>;

pub(crate) struct DcState {
    left: RowPipeline,
    right: RowPipeline,
    pred: PairPreds,
    /// The plan's `Reduce` head over the join's `[left, right]` layout.
    head_rx: RowExpr,
    lkey_rx: RowExpr,
    rkey_rx: RowExpr,
    prunable: bool,
    left_index: Index,
    right_index: Index,
    outputs: Vec<Value>,
}

impl DcState {
    /// The state of a DC op, and the table it reads; `None` unless its plan
    /// reduces a theta join of two filtered scans.
    pub(crate) fn from_plan(plan: &Alg, ctx: &EvalCtx) -> Result<Option<(DcState, String)>> {
        let Alg::Reduce { head, .. } = plan else {
            return Ok(None);
        };
        let Some(((table, left_var, left_filters), (_, right_var, right_filters), pred, hint)) =
            theta_sides(plan)
        else {
            return Ok(None);
        };
        let pair = [left_var.clone(), right_var.clone()];
        let state = DcState {
            left: RowPipeline::new(&left_var, &left_filters, ctx)?,
            right: RowPipeline::new(&right_var, &right_filters, ctx)?,
            pred: PairPreds::new(&left_var, &right_var, std::slice::from_ref(pred), ctx)?,
            head_rx: RowExpr::compile(head, &pair, ctx)?,
            lkey_rx: RowExpr::compile(&hint.left_key, &pair[..1], ctx)?,
            rkey_rx: RowExpr::compile(&hint.right_key, &pair[1..], ctx)?,
            prunable: matches!(hint.kind, HintKind::LeftLessThanRight),
            left_index: Vec::new(),
            right_index: Vec::new(),
            outputs: Vec::new(),
        };
        Ok(Some((state, table)))
    }

    /// Seed the accumulated pair output from a batch run.
    pub(crate) fn seed_outputs(&mut self, outputs: Vec<Value>) {
        self.outputs = outputs;
    }

    /// Index rows on both sides without pair tests — the install path for
    /// history rows whose pairs came from the batch run.
    pub(crate) fn index_only(&mut self, rows: &[Value], ctx: &EvalCtx) -> Result<()> {
        let lefts = keyed(&self.left, &self.lkey_rx, rows, ctx, &mut self.prunable)?;
        let rights = keyed(&self.right, &self.rkey_rx, rows, ctx, &mut self.prunable)?;
        extend_sorted(&mut self.left_index, lefts);
        extend_sorted(&mut self.right_index, rights);
        Ok(())
    }

    /// Emit the new violating pairs a delta batch brings, each through the
    /// plan's head, noting the `__rowid`s each holds in `ids`; returns the
    /// pair tests run. Evaluation errors propagate (see
    /// `RowPipeline::passes`).
    pub(crate) fn absorb(
        &mut self,
        delta: &[Value],
        ctx: &EvalCtx,
        ids: &mut Vec<i64>,
    ) -> Result<u64> {
        let lefts = keyed(&self.left, &self.lkey_rx, delta, ctx, &mut self.prunable)?;
        let rights = keyed(&self.right, &self.rkey_rx, delta, ctx, &mut self.prunable)?;
        // The right index takes the delta first, so Δ-vs-Δ pairs fall out
        // of (1); the left index holds history only until after (2).
        extend_sorted(&mut self.right_index, rights.iter().cloned());
        let (pred, head_rx, outputs) = (&self.pred, &self.head_rx, &mut self.outputs);
        let mut tests = 0u64;
        let mut test = |t1: &Value, t2: &Value| -> Result<()> {
            tests += 1;
            if pred.passes(t1, t2, ctx)? {
                let (l, r) = (std::slice::from_ref(t1), std::slice::from_ref(t2));
                emit(outputs, ids, head_rx.eval_pair(l, r, ctx)?);
            }
            Ok(())
        };
        // (1) σ(Δ) × (H ∪ Δ).
        for (lk, t1) in &lefts {
            let range = candidates(&self.right_index, self.prunable, *lk, Ordering::Greater);
            for (_, t2) in &self.right_index[range] {
                test(t1, t2)?;
            }
        }
        // (2) σ(H) × Δ.
        for (rk, t2) in &rights {
            let range = candidates(&self.left_index, self.prunable, *rk, Ordering::Less);
            for (_, t1) in &self.left_index[range] {
                test(t1, t2)?;
            }
        }
        extend_sorted(&mut self.left_index, lefts);
        Ok(tests)
    }

    pub(crate) fn output(&self) -> Vec<Value> {
        self.outputs.clone()
    }
}

/// The rows passing one side's filters, under that side's join key. A key
/// that is not a number (NaN, a string, an error — the batch join's pruning
/// reads those specially) turns pruning off for good.
fn keyed(
    filters: &RowPipeline,
    key_rx: &RowExpr,
    rows: &[Value],
    ctx: &EvalCtx,
    prunable: &mut bool,
) -> Result<Index> {
    let mut out = Vec::new();
    for row in rows {
        if !filters.passes(row, ctx)? {
            continue;
        }
        let key = (key_rx.eval_env(std::slice::from_ref(row), ctx).ok())
            .and_then(|v| v.as_float().ok())
            .unwrap_or(f64::NAN);
        *prunable &= !key.is_nan();
        out.push((key, row.clone()));
    }
    Ok(out)
}

/// Append rows to an index and restore its sorted-by-key order — one sort
/// per batch, where per-row sorted insertion would be quadratic.
fn extend_sorted(index: &mut Index, rows: impl IntoIterator<Item = (f64, Value)>) {
    index.extend(rows);
    index.sort_by(|a, b| a.0.total_cmp(&b.0));
}

/// The index range a probe under `key` must test: with `LeftLessThanRight`
/// only entries whose key compares as `wanted` to the probe's can satisfy
/// the predicate (`Greater` for a left row probing the right index, `Less`
/// for a right row probing the left); otherwise the whole index.
fn candidates(index: &Index, prunable: bool, key: f64, wanted: Ordering) -> std::ops::Range<usize> {
    if !prunable || key.is_nan() {
        return 0..index.len();
    }
    match wanted {
        Ordering::Greater => index.partition_point(|(k, _)| k.total_cmp(&key).is_le())..index.len(),
        _ => 0..index.partition_point(|(k, _)| k.total_cmp(&key).is_lt()),
    }
}

/// A theta side: its table, row variable and filters.
type ThetaSide = (String, String, Vec<CalcExpr>);

/// The sides, pair predicate and hint of a plan that reduces a theta join of
/// two filtered scans — what a DC without equality conjuncts lowers to.
fn theta_sides(plan: &Alg) -> Option<(ThetaSide, ThetaSide, &CalcExpr, &ThetaHint)> {
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
