//! The **Pairs** rule, for two plans with two sides to pair:
//!
//! * the pair pipeline [`Alg::pair_pipeline`] matches for the batch sweep,
//!   `X` being one `Nest` over a filtered scan (DEDUP, a DC with an equality
//!   conjunct: both sides share its block index) or a block `Join` of two
//!   (CLUSTER BY: one block index per side);
//! * `Reduce ← ThetaJoin` of two filtered scans (a DC without an equality):
//!   each side sorted by the join hint's key, so under `LeftLessThanRight`
//!   a probe binary-searches its candidate range.
//!
//! Either way a delta Δ adds exactly the pairs σ(H) × Δ ∪ σ(Δ) × (H ∪ Δ),
//! disjoint by the left member; the product rule is written once
//! ([`Pairs::absorb`]) and every pair goes through the plan's `Reduce` head.

use std::cmp::Ordering;
use std::slice::from_ref;
use std::sync::Arc;

use cleanm_core::algebra::{Alg, HintKind};
use cleanm_core::calculus::subst::free_vars;
use cleanm_core::calculus::{CalcExpr, EvalCtx, MonoidKind};
use cleanm_core::engine::collect_rowids;
use cleanm_core::physical::RowExpr;
use cleanm_values::{FxHashMap, Result, Value};

use crate::state::{all_hold, block_keys, eval, Filtered, Rows};

pub(crate) struct Pairs {
    left: Side,
    /// `None`: both unnests walk the same path, and `left` is both sides.
    right: Option<Side>,
    /// The pair predicates, innermost first, and the plan's `Reduce` head,
    /// over the pair `(a, b)`.
    preds: Vec<RowExpr>,
    head: RowExpr,
    /// A theta join counts its pair tests as comparisons; the batch pair
    /// sweep counts its similarity calls, which the evaluation context
    /// ticks on its own.
    counts_tests: bool,
    pub(crate) outputs: Vec<Value>,
}

/// One side of the pairs: which rows it keeps, and its index of them.
struct Side {
    source: Filtered,
    key: RowExpr,
    /// What a kept row contributes to a pair: the Nest's item, or the row.
    member: RowExpr,
    index: Index,
}

enum Index {
    /// Members by block key.
    Blocks(FxHashMap<Value, Vec<Value>>),
    /// Members sorted by the hint's numeric key. `prunable` holds while the
    /// hint is `LeftLessThanRight` and every key read as a number.
    Sorted {
        prunable: bool,
        entries: Vec<(f64, Value)>,
    },
}

impl Pairs {
    /// The rule for `Reduce[monoid]{head}` over `input`, if it fits.
    pub(crate) fn of(
        input: &Arc<Alg>,
        monoid: &MonoidKind,
        head: &CalcExpr,
        ctx: &EvalCtx,
    ) -> Result<Option<Pairs>> {
        if !matches!(monoid, MonoidKind::Bag | MonoidKind::List) {
            return Ok(None);
        }
        let (left, right, vars, preds, counts_tests) = if let Alg::ThetaJoin {
            left,
            right,
            pred,
            hint,
        } = &**input
        {
            let (Some(l), Some(r)) = (Filtered::of(left, ctx)?, Filtered::of(right, ctx)?) else {
                return Ok(None);
            };
            let prunable = hint.kind == HintKind::LeftLessThanRight;
            let vars = [l.var().to_string(), r.var().to_string()];
            let side = |source: Filtered, key: &CalcExpr| -> Result<Side> {
                Ok(Side {
                    key: source.compile(key, ctx)?,
                    member: source.compile(&CalcExpr::var(source.var()), ctx)?,
                    index: Index::Sorted {
                        prunable,
                        entries: Vec::new(),
                    },
                    source,
                })
            };
            let (left, right) = (side(l, &hint.left_key)?, side(r, &hint.right_key)?);
            (left, Some(right), vars, vec![pred], true)
        } else {
            let Some(shape) = input.pair_pipeline(|_| false) else {
                return Ok(None);
            };
            // The predicates and the head may read the pair, not the block.
            let vars = [shape.var_a.to_string(), shape.var_b.to_string()];
            let reads_block = |e: &CalcExpr| free_vars(e).iter().any(|v| !vars.contains(v));
            if shape.preds.iter().copied().chain([head]).any(reads_block) {
                return Ok(None);
            }
            let sides = match &**shape.input {
                Alg::Join {
                    left,
                    right,
                    left_key,
                    right_key,
                } => Side::nest(left, shape.path_a, Some(left_key), ctx)?
                    .zip(Side::nest(right, shape.path_b, Some(right_key), ctx)?)
                    .map(|(left, right)| (left, Some(right))),
                _ if shape.path_a == shape.path_b => {
                    Side::nest(shape.input, shape.path_a, None, ctx)?.map(|side| (side, None))
                }
                _ => None,
            };
            let Some((left, right)) = sides else {
                return Ok(None);
            };
            (left, right, vars, shape.preds, false)
        };
        let preds = preds.iter().map(|p| RowExpr::compile(p, &vars, ctx));
        Ok(Some(Pairs {
            left,
            right,
            preds: preds.collect::<Result<_>>()?,
            head: RowExpr::compile(head, &vars, ctx)?,
            counts_tests,
            outputs: Vec::new(),
        }))
    }

    /// Index both sides' rows without pair tests — the install path: the
    /// pairs among them came from the batch run, whose `baseline` output
    /// this state takes.
    pub(crate) fn index(&mut self, rows: &Rows, ctx: &EvalCtx, baseline: &[Value]) -> Result<()> {
        for side in std::iter::once(&mut self.left).chain(&mut self.right) {
            let entries = side.entries(rows, ctx)?;
            side.index.extend(&entries);
        }
        self.outputs = baseline.to_vec();
        Ok(())
    }

    /// The product rule: the pairs a delta adds are σ(H) × Δ — each new
    /// right member probes the left history — and σ(Δ) × (H ∪ Δ) — each
    /// new left member probes the right side once it holds the delta. A
    /// pair that passes goes through the plan's head, and the `__rowid`s it
    /// holds go to `ids`. Returns the pair tests to count as comparisons.
    /// Evaluation errors propagate (see [`Filtered::rows`]).
    pub(crate) fn absorb(
        &mut self,
        deltas: &Rows,
        ctx: &EvalCtx,
        ids: &mut Vec<i64>,
    ) -> Result<u64> {
        let Pairs {
            left,
            right,
            preds,
            head,
            counts_tests,
            outputs,
        } = self;
        let new_left = left.entries(deltas, ctx)?;
        let right_entries = right.as_ref().map(|side| side.entries(deltas, ctx));
        let new_right = right_entries.transpose()?;
        let new_right = new_right.as_ref().unwrap_or(&new_left);
        let mut tests = 0u64;
        let mut test = |a: &Value, b: &Value| -> Result<()> {
            tests += 1;
            let (a, b) = (from_ref(a), from_ref(b));
            if all_hold(preds, |p| p.eval_pair(a, b, ctx))? {
                let pair = head.eval_pair(a, b, ctx)?;
                collect_rowids(&pair, ids);
                outputs.push(pair);
            }
            Ok(())
        };
        for (key, b) in new_right {
            left.index.probe(key, Ordering::Less, |a| test(a, b))?;
        }
        let right_index = match right {
            Some(side) => &mut side.index,
            None => &mut left.index,
        };
        right_index.extend(new_right);
        for (key, a) in &new_left {
            right_index.probe(key, Ordering::Greater, |b| test(a, b))?;
        }
        if right.is_some() {
            left.index.extend(&new_left);
        }
        Ok(if *counts_tests { tests } else { 0 })
    }
}

impl Side {
    /// The side an unnest of `path` reads from `nest`: a `Nest` over a
    /// filtered scan whose group's partition `path` walks — and, under a
    /// block join, whose group's key `join_key` reads.
    fn nest(
        nest: &Alg,
        path: &CalcExpr,
        join_key: Option<&CalcExpr>,
        ctx: &EvalCtx,
    ) -> Result<Option<Side>> {
        let Alg::Nest {
            input,
            key,
            item,
            group_var,
            ..
        } = nest
        else {
            return Ok(None);
        };
        let group = CalcExpr::var(group_var);
        let over_group = *path == CalcExpr::proj(group.clone(), "partition")
            && join_key.is_none_or(|k| *k == CalcExpr::proj(group, "key"));
        let Some(source) = Filtered::of(input, ctx)?.filter(|_| over_group) else {
            return Ok(None);
        };
        Ok(Some(Side {
            key: source.compile(key, ctx)?,
            member: source.compile(item, ctx)?,
            index: Index::Blocks(FxHashMap::default()),
            source,
        }))
    }

    /// The `(key, member)` entries of this side's rows in `rows`. A hint
    /// key that fails to evaluate only turns pruning off, as in the batch
    /// theta join; a block key that fails fails the run, as the Nest does.
    fn entries(&self, rows: &Rows, ctx: &EvalCtx) -> Result<Vec<(Value, Value)>> {
        let sorted = matches!(self.index, Index::Sorted { .. });
        let rows = self.source.rows(rows, ctx)?.into_iter();
        rows.map(|row| {
            let key = match eval(&self.key, row, ctx) {
                Err(_) if sorted => Value::Null,
                key => key?,
            };
            Ok((key, eval(&self.member, row, ctx)?))
        })
        .collect()
    }
}

impl Index {
    fn extend(&mut self, new: &[(Value, Value)]) {
        match self {
            Index::Blocks(blocks) => {
                for (key, member) in new {
                    for k in block_keys(key) {
                        blocks.entry(k.clone()).or_default().push(member.clone());
                    }
                }
            }
            Index::Sorted { prunable, entries } => {
                for (key, member) in new {
                    let key = number(key);
                    *prunable &= !key.is_nan();
                    entries.push((key, member.clone()));
                }
                // One sort per batch: sorted insertion row by row would be
                // quadratic.
                entries.sort_by(|a, b| a.0.total_cmp(&b.0));
            }
        }
    }

    /// Run `f` on every member a probe under `key` from the other side may
    /// pair with: the members of its blocks; or, sorted and prunable, those
    /// whose key compares to the probe's as `wanted` — `Greater` for a left
    /// member probing the right side, `Less` for a right member probing the
    /// left — and otherwise all of them.
    fn probe(
        &self,
        key: &Value,
        wanted: Ordering,
        mut f: impl FnMut(&Value) -> Result<()>,
    ) -> Result<()> {
        match self {
            Index::Blocks(blocks) => {
                for k in block_keys(key) {
                    for member in blocks.get(k).into_iter().flatten() {
                        f(member)?;
                    }
                }
            }
            Index::Sorted { prunable, entries } => {
                let key = number(key);
                let range = if !prunable || key.is_nan() {
                    0..entries.len()
                } else if wanted == Ordering::Greater {
                    entries.partition_point(|(k, _)| k.total_cmp(&key).is_le())..entries.len()
                } else {
                    0..entries.partition_point(|(k, _)| k.total_cmp(&key).is_lt())
                };
                for (_, member) in &entries[range] {
                    f(member)?;
                }
            }
        }
        Ok(())
    }
}

/// A hint key as the index sorts it: NaN when it is not a number (a
/// string, NULL, a failed evaluation), which turns pruning off.
fn number(key: &Value) -> f64 {
    key.as_float().unwrap_or(f64::NAN)
}
