//! The **Groups** rule: a grouped `Reduce ← Select* ← Nest ← Select* ←
//! Scan` whose consumer the batch executor's group fold recognizes
//! ([`recognize_group_fold`]) — an FD, or a `GROUP BY … HAVING`.
//!
//! A group is a fold, so its state is the fold's: per key the slot
//! accumulators the batch fold keeps ([`AggSlot::fold`]; a `count_distinct`
//! only tested as `> k` stays capped at `k + 1` values, sound under appends
//! as the count only grows), plus the members when the output keeps whole
//! groups (FD). A delta folds into its keys, and only the keys it touched
//! are finished through the shape's group predicates and head. The outputs
//! of passing groups live in their own key map, so no refresh walks every
//! group.

use std::sync::Arc;

use cleanm_core::algebra::Alg;
use cleanm_core::calculus::{CalcExpr, EvalCtx, MonoidKind};
use cleanm_core::engine::collect_rowids;
use cleanm_core::physical::{recognize_group_fold, AggSlot, RowExpr, SlotAcc};
use cleanm_values::{FxHashMap, Result, Value};

use crate::state::{all_hold, block_keys, eval, Filtered, Rows};

pub(crate) struct Groups {
    source: Filtered,
    key: RowExpr,
    /// Each aggregate slot with its member program, composed down to the
    /// scanned row.
    slots: Vec<(AggSlot, RowExpr)>,
    /// The member the Nest makes of a row, kept only when the output keeps
    /// whole groups.
    member: Option<RowExpr>,
    /// The group predicates and the head, over the finish scope: the key,
    /// then one finished value per slot. No head: the output is the group.
    preds: Vec<RowExpr>,
    head: Option<RowExpr>,
    /// `DISTINCT` (the set monoid): the output is sorted and distinct.
    distinct: bool,
    groups: FxHashMap<Value, Group>,
    /// The output of every group that passes, by key.
    outputs: FxHashMap<Value, Value>,
}

struct Group {
    accs: Vec<SlotAcc>,
    members: Vec<Value>,
}

impl Groups {
    /// The rule for `Reduce[monoid]{head}` over `input`, if it fits.
    pub(crate) fn of(
        input: &Arc<Alg>,
        monoid: &MonoidKind,
        head: &CalcExpr,
        ctx: &EvalCtx,
    ) -> Result<Option<Groups>> {
        if !matches!(monoid, MonoidKind::Bag | MonoidKind::Set) {
            return Ok(None);
        }
        let Some((input, key, item, group_var, preds)) = input.group_pipeline(|_| false) else {
            return Ok(None);
        };
        let Some(shape) = recognize_group_fold(group_var, item, head, &preds) else {
            return Ok(None);
        };
        let Some(source) = Filtered::of(input, ctx)? else {
            return Ok(None);
        };
        let finish = |e: &CalcExpr| RowExpr::compile(e, &shape.scope, ctx);
        let slot = |s: &AggSlot| Ok((s.clone(), source.compile(&s.row_expr, ctx)?));
        Ok(Some(Groups {
            key: source.compile(key, ctx)?,
            slots: shape.slots.iter().map(slot).collect::<Result<_>>()?,
            member: (shape.keeps_groups())
                .then(|| source.compile(item, ctx))
                .transpose()?,
            preds: shape.preds.iter().map(finish).collect::<Result<_>>()?,
            head: shape.head.as_ref().map(finish).transpose()?,
            distinct: *monoid == MonoidKind::Set,
            groups: FxHashMap::default(),
            outputs: FxHashMap::default(),
            source,
        }))
    }

    /// Fold rows into their groups — a list-valued key assigns a row to
    /// every listed group, as the Nest does — then finish each touched
    /// group: one that passes has its output rebuilt, its `__rowid`s noted
    /// in `ids`; one that does not leaves the output.
    pub(crate) fn absorb(&mut self, rows: &Rows, ctx: &EvalCtx, ids: &mut Vec<i64>) -> Result<()> {
        let mut touched = Vec::new();
        for row in self.source.rows(rows, ctx)? {
            let key = eval(&self.key, row, ctx)?;
            let member = self.member.as_ref().map(|m| eval(m, row, ctx));
            let member = member.transpose()?;
            let values = self.slots.iter().map(|(_, rx)| eval(rx, row, ctx));
            let values = values.collect::<Result<Vec<_>>>()?;
            for k in block_keys(&key) {
                let group = self.groups.entry(k.clone()).or_insert_with(|| Group {
                    accs: self.slots.iter().map(|(s, _)| s.zero()).collect(),
                    members: Vec::new(),
                });
                for ((slot, _), (acc, v)) in
                    self.slots.iter().zip(group.accs.iter_mut().zip(&values))
                {
                    slot.fold(acc, v.clone())?;
                }
                group.members.extend(member.clone());
                touched.push(k.clone());
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let mut env = Vec::with_capacity(1 + self.slots.len());
        for k in touched {
            let group = &self.groups[&k];
            env.clear();
            env.push(k.clone());
            let finished = self.slots.iter().zip(&group.accs);
            env.extend(finished.map(|((slot, _), acc)| slot.finish(acc)));
            if !all_hold(&self.preds, |p| p.eval_env(&env, ctx))? {
                self.outputs.remove(&k);
                continue;
            }
            let output = match &self.head {
                Some(head) => head.eval_env(&env, ctx)?,
                None => Value::record([
                    ("key", k.clone()),
                    ("partition", Value::list(group.members.iter().cloned())),
                ]),
            };
            collect_rowids(&output, ids);
            self.outputs.insert(k, output);
        }
        Ok(())
    }

    /// The passing groups' outputs.
    pub(crate) fn output(&self) -> Vec<Value> {
        let mut out: Vec<Value> = self.outputs.values().cloned().collect();
        if self.distinct {
            out.sort();
            out.dedup();
        }
        out
    }
}
