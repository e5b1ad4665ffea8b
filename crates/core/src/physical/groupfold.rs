//! The columnar fold of a grouped `Reduce`: when everything above a `Nest`
//! consumes the group variable only through monoid reductions and the Nest
//! reads a stored table by column, the executor skips `(key, Vec<member>)`
//! materialization entirely and folds the table's key and member columns
//! straight into per-group accumulators (the streaming grouped aggregation
//! of the paper's monoid framing — a group *is* a fold). Where the shape
//! does not match or the columns do not lower, the `Nest` materializes its
//! groups and the compiled `Reduce` consumes them: a grouped `Reduce` has
//! those two routes and no other.
//!
//! Two recognized consumer families:
//!
//! * **Grouped aggregates** ([`AggFoldShape`]) — the Reduce head (and any
//!   HAVING-style Selects between Reduce and Nest) reference the group
//!   only via `g.key` and aggregate comprehensions over `g.partition`
//!   (`Sum/Prod/Min/Max/Any/All`, `count_distinct(bag{…})`,
//!   `avg(bag{…})`). The whole consumer becomes a fused group fold: one
//!   *key* column program and one composed *item* column program per
//!   aggregate slot, per-group accumulator folds per chunk, a mergeable
//!   partial per chunk, and a *finish* program that rebuilds the head over
//!   the accumulated slot values.
//! * **Group filters** ([`AggFoldShape`] with [`AggFoldShape::keeps_groups`])
//!   — the head is the group variable itself (the FD shape: violating
//!   groups are the output) while the predicates are all aggregate-foldable.
//!   Phase one folds only the tiny accumulators (for FD's
//!   `count_distinct(…) > 1`, at most two witness rows per group) and
//!   decides which groups pass; phase two gathers only those groups'
//!   members by row index — non-violating rows never move.
//!
//! DEDUP's pairwise comparison and CLUSTER BY genuinely consume members
//! (`Unnest` over `g.partition`), so their plans never match. Every fold
//! runs inside the one grouping pass of `physical/blocks.rs`
//! ([`group_pass`](super::blocks::group_pass)): a lone fold is that pass
//! over its own filtered scan with itself as the one consumer; when an FD
//! shares its `Nest` with them (or with another fold), the `Nest` groups
//! once as grouped blocks and every fold consumer's slots fold in that same
//! pass.

use std::sync::Arc;

use cleanm_values::{Column, ColumnBatch, ColumnBuilder, FxHashSet, NullMask, Value};

use crate::calculus::eval::merge_values;
use crate::calculus::subst::{free_vars, substitute};
use crate::calculus::{CalcExpr, Comprehension, Func, MonoidKind, Program, Qual};

use super::blocks::ChunkIds;
use super::execute::RowEval;
use super::kernel::ColumnProgram;
use super::scan::ColumnScan;

/// The variable the group key is bound to in finish-program scope.
pub(crate) const KEY_SLOT_VAR: &str = "__gkey";

/// The finish-scope variable of aggregate slot `i`.
pub(crate) fn agg_slot_var(i: usize) -> String {
    format!("__agg{i}")
}

/// What one aggregate slot accumulates.
#[derive(Debug, Clone, PartialEq)]
pub enum AggKind {
    /// A primitive-monoid fold (`Sum{h(x) | x ← g.partition}` …).
    Monoid(MonoidKind),
    /// `count_distinct(bag{h(x) | x ← g.partition})`: the distinct set of
    /// head values, finished to its size. `cap` bounds the set when every
    /// consumer only tests `count > k` (the FD shape): beyond `cap`
    /// distinct values the verdict cannot change, so the accumulator stays
    /// O(1) per group.
    CountDistinct { cap: Option<usize> },
    /// `avg(bag{h(x) | x ← g.partition})`: running (sum, non-null count),
    /// finished to `sum / n` (NULL for an empty/all-null group) — the
    /// reference [`Func::Avg`] semantics.
    Avg,
}

/// One aggregate reduction a grouped consumer performs per group.
#[derive(Debug, Clone)]
pub struct AggSlot {
    pub kind: AggKind,
    /// The aggregate's member-head expression with the member variable
    /// substituted by the Nest's item expression — i.e. composed down to
    /// the *producer's* row scope, so folding evaluates one compiled
    /// program per row with no member environment in between.
    pub row_expr: CalcExpr,
}

/// A grouped consumer recognized as fully foldable.
#[derive(Debug, Clone)]
pub struct AggFoldShape {
    /// The aggregate slots, in discovery order.
    pub slots: Vec<AggSlot>,
    /// Group-level predicates (Selects between Reduce and Nest), rewritten
    /// over the finish scope, in evaluation order.
    pub preds: Vec<CalcExpr>,
    /// The Reduce head rewritten over the finish scope; `None` when the
    /// head is the group variable itself (the output keeps whole groups).
    pub head: Option<CalcExpr>,
    /// Finish-program scope: `__gkey` then one `__agg{i}` per slot.
    pub scope: Vec<String>,
}

impl AggFoldShape {
    /// Does the output keep the `{key, partition}` groups themselves
    /// (two-phase execution: fold first, materialize only passing keys)?
    pub fn keeps_groups(&self) -> bool {
        self.head.is_none()
    }
}

/// Try to recognize the consumer side of a grouped plan: the Reduce `head`
/// plus the `preds` of any Selects between Reduce and Nest, all over
/// `group_var`, with group members produced by the Nest's `item`
/// expression binding `member uses` through comprehension variables.
///
/// Returns `None` when any use of the group variable falls outside the
/// foldable forms — the caller keeps the materialized path.
pub fn recognize(
    group_var: &str,
    item: &CalcExpr,
    head: &CalcExpr,
    preds: &[&CalcExpr],
) -> Option<AggFoldShape> {
    let mut rw = Rewriter {
        group_var,
        item,
        slots: Vec::new(),
    };
    let head = match head {
        // The FD family: the head is the group itself; only the
        // predicates must fold.
        CalcExpr::Var(v) if v == group_var => None,
        other => Some(rw.rewrite(other)?),
    };
    let preds: Vec<CalcExpr> = preds.iter().map(|p| rw.rewrite(p)).collect::<Option<_>>()?;
    if head.is_none() && rw.slots.is_empty() {
        // A bare `Reduce{g | g ← Nest}` with no group predicate has
        // nothing to fold — the materialized path is already minimal.
        return None;
    }
    let mut slots = rw.slots;
    apply_distinct_caps(&mut slots, head.as_ref(), &preds);
    let mut scope = vec![KEY_SLOT_VAR.to_string()];
    scope.extend((0..slots.len()).map(agg_slot_var));
    Some(AggFoldShape {
        slots,
        preds,
        head,
        scope,
    })
}

struct Rewriter<'a> {
    group_var: &'a str,
    item: &'a CalcExpr,
    slots: Vec<AggSlot>,
}

impl Rewriter<'_> {
    /// Rewrite `e` over the finish scope, extracting aggregate slots.
    /// `None` when the group variable is used outside a foldable form.
    fn rewrite(&mut self, e: &CalcExpr) -> Option<CalcExpr> {
        // Aggregate forms first: they swallow the `g.partition` reference.
        if let Some((kind, member_var, member_head)) = self.match_aggregate(e) {
            let row_expr = compose_member(&member_head, &member_var, self.item)?;
            // Identical aggregates share one slot (e.g. `sum(x)/count(*)`
            // next to `HAVING count(*) > 1`).
            let slot = AggSlot { kind, row_expr };
            let idx = match self
                .slots
                .iter()
                .position(|s| s.kind == slot.kind && s.row_expr == slot.row_expr)
            {
                Some(i) => i,
                None => {
                    self.slots.push(slot);
                    self.slots.len() - 1
                }
            };
            return Some(CalcExpr::Var(agg_slot_var(idx)));
        }
        match e {
            CalcExpr::Proj(base, field)
                if field == "key" && matches!(&**base, CalcExpr::Var(v) if v == self.group_var) =>
            {
                Some(CalcExpr::var(KEY_SLOT_VAR))
            }
            // Any other reach into the group (bare `g`, `g.partition`
            // outside an aggregate) is not foldable.
            _ if mentions_var(e, self.group_var) => match e {
                CalcExpr::Record(fields) => Some(CalcExpr::Record(
                    fields
                        .iter()
                        .map(|(n, f)| Some((n.clone(), self.rewrite(f)?)))
                        .collect::<Option<_>>()?,
                )),
                CalcExpr::Proj(base, f) => {
                    Some(CalcExpr::Proj(Box::new(self.rewrite(base)?), f.clone()))
                }
                CalcExpr::BinOp(op, l, r) => Some(CalcExpr::BinOp(
                    *op,
                    Box::new(self.rewrite(l)?),
                    Box::new(self.rewrite(r)?),
                )),
                CalcExpr::Not(x) => Some(CalcExpr::Not(Box::new(self.rewrite(x)?))),
                CalcExpr::If(c, t, f) => Some(CalcExpr::If(
                    Box::new(self.rewrite(c)?),
                    Box::new(self.rewrite(t)?),
                    Box::new(self.rewrite(f)?),
                )),
                CalcExpr::Call(func, args) => Some(CalcExpr::Call(
                    func.clone(),
                    args.iter()
                        .map(|a| self.rewrite(a))
                        .collect::<Option<_>>()?,
                )),
                // Vars (= bare g), comprehensions, merges, exists over the
                // group: give up.
                _ => None,
            },
            // Group-free subtrees pass through untouched.
            _ => Some(e.clone()),
        }
    }

    /// Match one aggregate form over `g.partition`, returning the slot
    /// kind, the member variable, and the member-head expression.
    fn match_aggregate(&self, e: &CalcExpr) -> Option<(AggKind, String, CalcExpr)> {
        match e {
            CalcExpr::Comp(c) => {
                let (var, head) = self.partition_comp(c)?;
                match c.monoid {
                    MonoidKind::Sum
                    | MonoidKind::Prod
                    | MonoidKind::Min
                    | MonoidKind::Max
                    | MonoidKind::Any
                    | MonoidKind::All => Some((AggKind::Monoid(c.monoid.clone()), var, head)),
                    _ => None,
                }
            }
            CalcExpr::Call(Func::CountDistinct, args) => {
                let [CalcExpr::Comp(c)] = args.as_slice() else {
                    return None;
                };
                if c.monoid != MonoidKind::Bag {
                    return None;
                }
                let (var, head) = self.partition_comp(c)?;
                Some((AggKind::CountDistinct { cap: None }, var, head))
            }
            CalcExpr::Call(Func::Avg, args) => {
                let [CalcExpr::Comp(c)] = args.as_slice() else {
                    return None;
                };
                if c.monoid != MonoidKind::Bag {
                    return None;
                }
                let (var, head) = self.partition_comp(c)?;
                Some((AggKind::Avg, var, head))
            }
            _ => None,
        }
    }

    /// A comprehension whose single qualifier generates over
    /// `g.partition`, with a member head referencing only the member
    /// variable — the shape `⊕{h(x) | x ← g.partition}`.
    fn partition_comp(&self, c: &Comprehension) -> Option<(String, CalcExpr)> {
        let [Qual::Gen(var, source)] = c.quals.as_slice() else {
            return None;
        };
        let CalcExpr::Proj(base, field) = source else {
            return None;
        };
        if field != "partition" || !matches!(&**base, CalcExpr::Var(v) if v == self.group_var) {
            return None;
        }
        let head = (*c.head).clone();
        let mut frees = free_vars(&head);
        frees.remove(var);
        if !frees.is_empty() {
            return None; // head reaches outside the member (e.g. back to g)
        }
        Some((var.clone(), head))
    }
}

/// Compose a member-head expression down to the producer's row scope by
/// substituting the Nest's item expression for the member variable.
fn compose_member(head: &CalcExpr, member_var: &str, item: &CalcExpr) -> Option<CalcExpr> {
    Some(substitute(head, member_var, item))
}

fn mentions_var(e: &CalcExpr, var: &str) -> bool {
    free_vars(e).contains(var)
}

/// Bound the distinct sets of `count_distinct` slots whose value is only
/// ever compared as `count > k` (with constant integer `k`): past `k + 1`
/// distinct values the comparison cannot change, so the accumulator need
/// not grow further. This is what keeps the FD fold O(1) per group —
/// `count_distinct(rhs) > 1` caps the set at two values.
fn apply_distinct_caps(slots: &mut [AggSlot], head: Option<&CalcExpr>, preds: &[CalcExpr]) {
    for (i, slot) in slots.iter_mut().enumerate() {
        let AggKind::CountDistinct { cap } = &mut slot.kind else {
            continue;
        };
        let var = agg_slot_var(i);
        let mut max_k: Option<i64> = Some(-1);
        let mut scan = |e: &CalcExpr| scan_uses(e, &var, &mut max_k);
        if let Some(h) = head {
            scan(h);
        }
        for p in preds {
            scan(p);
        }
        if let Some(k) = max_k {
            if (0..=64).contains(&k) {
                *cap = Some(k as usize + 1);
            }
        }
    }
}

/// Walk `e` looking at every use of `var`: a use inside
/// `var > Const(Int(k))` raises the running bound, any other use clears it
/// (the exact count is observable, so no cap is sound).
fn scan_uses(e: &CalcExpr, var: &str, max_k: &mut Option<i64>) {
    if let CalcExpr::BinOp(crate::calculus::BinOp::Gt, l, r) = e {
        if let (CalcExpr::Var(v), CalcExpr::Const(Value::Int(k))) = (&**l, &**r) {
            if v == var {
                if let Some(m) = max_k {
                    *m = (*m).max(*k);
                }
                return;
            }
        }
    }
    if let CalcExpr::Var(v) = e {
        if v == var {
            *max_k = None; // observed outside the capped comparison
            return;
        }
    }
    e.for_each_child(&mut |child| scan_uses(child, var, max_k));
}

// ---------------------------------------------------------------------
// Accumulators
// ---------------------------------------------------------------------

/// The running state of one aggregate slot over boxed values: the batch
/// fold's generic path, and the incremental engine's per-group state.
#[derive(Debug, Clone)]
pub enum SlotAcc {
    /// A primitive monoid value (starts at the monoid's zero).
    Monoid(Value),
    /// Distinct head values, optionally capped (see
    /// [`AggKind::CountDistinct`]).
    Distinct(FxHashSet<Value>),
    /// Running sum and non-null count for `avg`.
    Avg { sum: f64, n: u64 },
}

impl AggSlot {
    /// The slot's fold identity.
    pub fn zero(&self) -> SlotAcc {
        match &self.kind {
            AggKind::Monoid(m) => SlotAcc::Monoid(m.zero()),
            AggKind::CountDistinct { .. } => SlotAcc::Distinct(FxHashSet::default()),
            AggKind::Avg => SlotAcc::Avg { sum: 0.0, n: 0 },
        }
    }

    /// Absorb one member's head value.
    pub fn fold(&self, acc: &mut SlotAcc, v: Value) -> cleanm_values::Result<()> {
        match (&self.kind, acc) {
            (AggKind::Monoid(m), SlotAcc::Monoid(a)) => {
                *a = merge_values(m, std::mem::take(a), v)?;
            }
            (AggKind::CountDistinct { cap }, SlotAcc::Distinct(set)) => {
                if cap.is_none_or(|c| set.len() < c) {
                    set.insert(v);
                }
            }
            (AggKind::Avg, SlotAcc::Avg { sum, n }) => {
                if !v.is_null() {
                    *sum += v.as_float()?;
                    *n += 1;
                }
            }
            _ => unreachable!("slot/accumulator kinds diverged"),
        }
        Ok(())
    }

    /// Merge another partial into `acc` (both produced by this slot).
    pub fn merge(&self, acc: &mut SlotAcc, other: SlotAcc) -> cleanm_values::Result<()> {
        match (&self.kind, acc, other) {
            (AggKind::Monoid(m), SlotAcc::Monoid(a), SlotAcc::Monoid(b)) => {
                *a = merge_values(m, std::mem::take(a), b)?;
            }
            (AggKind::CountDistinct { cap }, SlotAcc::Distinct(set), SlotAcc::Distinct(other)) => {
                for v in other {
                    if cap.is_none_or(|c| set.len() < c) {
                        set.insert(v);
                    } else {
                        break;
                    }
                }
            }
            (AggKind::Avg, SlotAcc::Avg { sum, n }, SlotAcc::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            _ => unreachable!("slot/accumulator kinds diverged"),
        }
        Ok(())
    }

    /// Finish the accumulator into the value the rewritten consumer sees.
    pub fn finish(&self, acc: &SlotAcc) -> Value {
        match acc {
            SlotAcc::Monoid(v) => v.clone(),
            SlotAcc::Distinct(set) => Value::Int(set.len() as i64),
            SlotAcc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The columnar route
// ---------------------------------------------------------------------

/// A group fold lowered onto the columns of a stored table: the fused
/// `WHERE` chain below the Nest is the scan's filter, and the grouping key
/// and every slot's member expression are [`ColumnProgram`]s over its
/// block, so a chunk of rows folds as *hash key cells → dense group ids →
/// fold each slot's accumulators by id* without building a key record, a
/// value vector or a row environment per row — in the grouping pass
/// ([`group_pass`](super::blocks::group_pass)). Lowered once per execution;
/// `None` from [`ColumnarFold::lower`] leaves the `Nest` to materialize its
/// groups.
pub(crate) struct ColumnarFold {
    /// The table the fold reads, filtered by the fused `WHERE` chain.
    pub(super) scan: ColumnScan,
    pub(super) key: ColumnProgram,
    /// Each aggregate slot with its member expression and its empty
    /// accumulators (which kind is decided once, at lowering).
    pub(super) slots: Vec<FoldSlot>,
}

/// One aggregate slot of a lowered fold.
pub(super) struct FoldSlot {
    slot: AggSlot,
    member: ColumnProgram,
    pub(super) empty: SlotAccs,
}

/// The accumulators of one slot, flat and indexed by group id. Numeric
/// slots are typed — no boxed value per row or per group — and merge as
/// vector operations through the merge's group remap.
#[derive(Clone)]
pub(crate) enum SlotAccs {
    /// A capped `count_distinct` (the FD test): per group at most `cap`
    /// *witness rows* whose member values are pairwise distinct, compared
    /// cell to cell — no set, no boxed value. Group `g`'s `n[g]` witnesses
    /// sit at `rows[g * cap..]`.
    Witnesses {
        cap: usize,
        n: Vec<u8>,
        rows: Vec<u32>,
    },
    /// `Sum` over integer cells (`count(*)` sums the constant 1): wrapping
    /// `i64` sums from the monoid's zero, as `eval_binop` adds two `Int`s.
    IntSum(Vec<i64>),
    /// `Sum` over float cells, or `avg` over numeric ones: per group the
    /// `f64` sum of the non-NULL cells, added in row order from `0.0`
    /// (integer cells widened `i as f64`), and how many there were. A sum
    /// over none finishes to the monoid's zero `Int(0)`, an average to
    /// NULL.
    FloatSum { avg: bool, acc: Vec<(f64, u64)> },
    /// `Min` / `Max` over integer cells, NULL until the first non-NULL
    /// cell.
    IntExtreme { max: bool, acc: Vec<Option<i64>> },
    /// `Min` / `Max` over float cells, compared by [`Value`]'s canonical
    /// float order ([`Value::float_key`]: NaN above every number, −0.0
    /// equal to 0.0).
    FloatExtreme { max: bool, acc: Vec<Option<f64>> },
    /// Every other slot, through [`AggSlot`]'s own fold / merge / finish
    /// over boxed values: `Prod`, `Any` and `All`; `Sum`, `Min`, `Max` and
    /// `avg` over string or boolean cells, a NULL constant or a
    /// record-valued member (a `Sum` over strings fails the query, as on
    /// the row path); and a `count_distinct` that is uncapped or capped
    /// above 255.
    Values(Vec<SlotAcc>),
}

impl SlotAccs {
    /// The empty accumulators for `slot` folding the cells of `member`.
    fn new(slot: &AggSlot, member: &ColumnProgram) -> SlotAccs {
        let numbers = member.numbers();
        let int = numbers.is_some_and(|n| n.is_int());
        match (&slot.kind, numbers) {
            (AggKind::CountDistinct { cap: Some(cap) }, _) if *cap <= u8::MAX as usize => {
                SlotAccs::Witnesses {
                    cap: *cap,
                    n: Vec::new(),
                    rows: Vec::new(),
                }
            }
            (AggKind::Monoid(MonoidKind::Sum), Some(_)) if int => SlotAccs::IntSum(Vec::new()),
            (AggKind::Monoid(MonoidKind::Sum), Some(_)) => SlotAccs::FloatSum {
                avg: false,
                acc: Vec::new(),
            },
            (AggKind::Avg, Some(_)) => SlotAccs::FloatSum {
                avg: true,
                acc: Vec::new(),
            },
            (AggKind::Monoid(m @ (MonoidKind::Min | MonoidKind::Max)), Some(_)) => {
                let max = *m == MonoidKind::Max;
                if int {
                    SlotAccs::IntExtreme {
                        max,
                        acc: Vec::new(),
                    }
                } else {
                    SlotAccs::FloatExtreme {
                        max,
                        acc: Vec::new(),
                    }
                }
            }
            _ => SlotAccs::Values(Vec::new()),
        }
    }

    /// Fold the slot's member value at each row of `sel` into the
    /// accumulator of that row's group (`gids`, parallel to `sel`), after
    /// extending the accumulators to `groups` groups.
    pub(super) fn fold(
        &mut self,
        fs: &FoldSlot,
        groups: usize,
        sel: &[u32],
        gids: &[u32],
        ev: &RowEval,
    ) {
        let cols = &fs.member;
        let numbers = || cols.numbers().expect("a typed slot reads numeric cells");
        match self {
            SlotAccs::Witnesses { cap, n, rows } => {
                n.resize(groups, 0);
                rows.resize(groups * *cap, 0);
                for (&row, &g) in sel.iter().zip(gids) {
                    witness(*cap, n, rows, cols, g as usize, row);
                }
            }
            SlotAccs::IntSum(acc) => {
                acc.resize(groups, 0);
                numbers().each_int(sel, gids, |g, v| acc[g] = acc[g].wrapping_add(v));
            }
            SlotAccs::FloatSum { acc, .. } => {
                acc.resize(groups, (0.0, 0));
                numbers().each_float(sel, gids, |g, v| {
                    acc[g].0 += v;
                    acc[g].1 += 1;
                });
            }
            SlotAccs::IntExtreme { max, acc } => {
                acc.resize(groups, None);
                numbers().each_int(sel, gids, |g, v| offer(*max, &mut acc[g], v, |x| x));
            }
            SlotAccs::FloatExtreme { max, acc } => {
                acc.resize(groups, None);
                numbers().each_float(sel, gids, |g, v| {
                    offer(*max, &mut acc[g], v, Value::float_key)
                });
            }
            SlotAccs::Values(accs) => {
                let slot = &fs.slot;
                accs.resize_with(groups, || slot.zero());
                for (&row, &g) in sel.iter().zip(gids) {
                    if let Err(e) = slot.fold(&mut accs[g as usize], cols.value(row)) {
                        ev.record(e);
                    }
                }
            }
        }
    }

    /// Merge another chunk's accumulators in: its group `g` is this
    /// side's `remap[g]`, a group this side has not seen moves over as is
    /// (new groups arrive in id order, so they are pushed).
    pub(super) fn merge(&mut self, fs: &FoldSlot, other: SlotAccs, remap: &[u32], ev: &RowEval) {
        match (self, other) {
            (
                SlotAccs::Witnesses { cap, n, rows },
                SlotAccs::Witnesses {
                    n: on, rows: orows, ..
                },
            ) => {
                for (block, (&held, &g)) in orows.chunks(*cap).zip(on.iter().zip(remap)) {
                    if g as usize == n.len() {
                        n.push(held);
                        rows.extend_from_slice(block);
                    } else {
                        for &at in &block[..held as usize] {
                            witness(*cap, n, rows, &fs.member, g as usize, at);
                        }
                    }
                }
            }
            (SlotAccs::IntSum(acc), SlotAccs::IntSum(other)) => {
                merge_by(acc, other, remap, |a, b| *a = a.wrapping_add(b));
            }
            (SlotAccs::FloatSum { acc, .. }, SlotAccs::FloatSum { acc: other, .. }) => {
                merge_by(acc, other, remap, |a, (sum, n)| {
                    a.0 += sum;
                    a.1 += n;
                });
            }
            (SlotAccs::IntExtreme { max, acc }, SlotAccs::IntExtreme { acc: other, .. }) => {
                merge_by(acc, other, remap, |a, b| {
                    if let Some(b) = b {
                        offer(*max, a, b, |x| x);
                    }
                });
            }
            (SlotAccs::FloatExtreme { max, acc }, SlotAccs::FloatExtreme { acc: other, .. }) => {
                merge_by(acc, other, remap, |a, b| {
                    if let Some(b) = b {
                        offer(*max, a, b, Value::float_key);
                    }
                });
            }
            (SlotAccs::Values(accs), SlotAccs::Values(other)) => {
                merge_by(accs, other, remap, |a, b| {
                    if let Err(e) = fs.slot.merge(a, b) {
                        ev.record(e);
                    }
                });
            }
            _ => unreachable!("accumulator layouts of one slot diverged"),
        }
    }

    /// Every group's finished slot value, in group-id order, as one
    /// column: exactly the values [`AggSlot::finish`] gives.
    fn finish(self, slot: &AggSlot) -> Column {
        match self {
            SlotAccs::Witnesses { n, .. } => Column::Int {
                data: n.into_iter().map(i64::from).collect(),
                nulls: None,
            },
            SlotAccs::IntSum(data) => Column::Int { data, nulls: None },
            SlotAccs::FloatSum { avg: true, acc } => {
                let avg = acc
                    .into_iter()
                    .map(|(sum, n)| (n > 0).then(|| sum / n as f64));
                let (data, nulls) = nullable(avg);
                Column::Float { data, nulls }
            }
            SlotAccs::FloatSum { avg: false, acc } => {
                if acc.iter().all(|&(_, n)| n > 0) {
                    let data = acc.into_iter().map(|(sum, _)| sum).collect();
                    Column::Float { data, nulls: None }
                } else {
                    // A group with no non-NULL cell sums to `Int(0)`.
                    let sums = acc.into_iter().map(|(sum, n)| match n {
                        0 => Value::Int(0),
                        _ => Value::Float(sum),
                    });
                    column_of(sums)
                }
            }
            SlotAccs::IntExtreme { acc, .. } => {
                let (data, nulls) = nullable(acc.into_iter());
                Column::Int { data, nulls }
            }
            SlotAccs::FloatExtreme { acc, .. } => {
                let (data, nulls) = nullable(acc.into_iter());
                Column::Float { data, nulls }
            }
            SlotAccs::Values(accs) => column_of(accs.iter().map(|a| slot.finish(a))),
        }
    }
}

/// Offer `x` to a running `Min` (`max` false) or `Max`: it replaces the
/// held value only when strictly smaller (larger) by `key` — ties keep the
/// earlier cell, as `merge_values` keeps its left side.
#[inline]
fn offer<T: Copy, K: Ord>(max: bool, held: &mut Option<T>, x: T, key: impl Fn(T) -> K) {
    let replace = match *held {
        None => true,
        Some(h) if max => key(x) > key(h),
        Some(h) => key(x) < key(h),
    };
    if replace {
        *held = Some(x);
    }
}

/// Merge `theirs` into `mine` through `remap`: a group new to `mine` is
/// pushed (new groups arrive in id order), a known one combined by `add`.
fn merge_by<T>(mine: &mut Vec<T>, theirs: Vec<T>, remap: &[u32], mut add: impl FnMut(&mut T, T)) {
    for (v, &g) in theirs.into_iter().zip(remap) {
        match mine.get_mut(g as usize) {
            Some(acc) => add(acc, v),
            None => mine.push(v),
        }
    }
}

/// Typed cells with a NULL mask (`None` when no cell is NULL).
fn nullable<T: Default>(
    cells: impl ExactSizeIterator<Item = Option<T>>,
) -> (Vec<T>, Option<NullMask>) {
    let len = cells.len();
    let mut nulls: Option<NullMask> = None;
    let data = cells
        .enumerate()
        .map(|(i, c)| {
            c.unwrap_or_else(|| {
                nulls.get_or_insert_with(|| NullMask::new(len)).set_null(i);
                T::default()
            })
        })
        .collect();
    (data, nulls)
}

/// Boxed values as one column, typed when they share a type.
fn column_of(values: impl Iterator<Item = Value>) -> Column {
    let mut out = ColumnBuilder::new();
    values.for_each(|v| out.push(v));
    out.finish()
}

/// Offer row `at` as a witness of group `g`: kept when the group holds
/// fewer than `cap` and none of them has `at`'s member value.
#[inline]
fn witness(cap: usize, n: &mut [u8], rows: &mut [u32], cols: &ColumnProgram, g: usize, at: u32) {
    let held = n[g] as usize;
    if held < cap && !rows[g * cap..][..held].iter().any(|&w| cols.same(w, at)) {
        rows[g * cap + held] = at;
        n[g] += 1;
    }
}

/// Every chunk merged: the table's groups with their finished slot values.
pub(crate) struct FoldedGroups {
    /// Each group's representative row, in group-id order.
    pub reps: Vec<u32>,
    /// Slot `s`'s value for group `g` is `finished[s].value(g)`.
    pub finished: Vec<Column>,
    /// A lone group-keeping fold's chunks, in chunk order, to gather the
    /// passing groups' members from (empty otherwise).
    pub chunks: Vec<ChunkIds>,
}

impl ColumnarFold {
    /// Lower a recognized fold onto `scan`: the key and every slot's
    /// member program against its block, and each slot's accumulator kind
    /// from its aggregate and its member's cells. `None` when any program
    /// does not lower.
    pub fn lower(
        scan: ColumnScan,
        key: &Program,
        slots: &[AggSlot],
        slot_programs: &[&Program],
    ) -> Option<ColumnarFold> {
        let block = scan.block();
        let lower_slot = |(slot, p): (&AggSlot, &&Program)| {
            let member = ColumnProgram::lower(p, block)?;
            Some(FoldSlot {
                empty: SlotAccs::new(slot, &member),
                slot: slot.clone(),
                member,
            })
        };
        Some(ColumnarFold {
            key: ColumnProgram::lower(key, block)?,
            slots: slots
                .iter()
                .zip(slot_programs)
                .map(lower_slot)
                .collect::<Option<_>>()?,
            scan,
        })
    }

    /// Every slot's accumulators, finished into one column each.
    pub(super) fn finish(&self, accs: Vec<SlotAccs>) -> Vec<Column> {
        let finished = accs.into_iter().zip(&self.slots);
        finished.map(|(a, fs)| a.finish(&fs.slot)).collect()
    }

    /// Every slot's empty accumulators.
    pub(super) fn new_accs(&self) -> Vec<SlotAccs> {
        self.slots.iter().map(|fs| fs.empty.clone()).collect()
    }

    /// Group `g`'s key value, built from its representative row.
    pub fn key_value(&self, reps: &[u32], g: u32) -> Value {
        self.key.value(reps[g as usize])
    }

    /// The finished slots as one batch with a row per group, each column
    /// named by its finish-scope variable (`__agg{i}`), led by the key's
    /// column `__gkey` when `with_key`: what the finish step's kernels
    /// read ([`ColumnProgram::lower_slots`]).
    pub fn finish_batch(&self, reps: &[u32], finished: Vec<Column>, with_key: bool) -> ColumnBatch {
        let key = with_key.then(|| {
            let keys = reps.iter().map(|&rep| self.key.value(rep));
            (Arc::from(KEY_SLOT_VAR), column_of(keys))
        });
        let slots =
            (finished.into_iter().enumerate()).map(|(i, c)| (Arc::from(agg_slot_var(i)), c));
        let (names, cols) = key.into_iter().chain(slots).unzip();
        ColumnBatch::from_columns(names, cols).expect("one cell per group in every column")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculus::BinOp;

    fn partition_comp(m: MonoidKind, head: CalcExpr) -> CalcExpr {
        CalcExpr::comp(
            m,
            head,
            vec![Qual::Gen(
                "x0".into(),
                CalcExpr::proj(CalcExpr::var("g"), "partition"),
            )],
        )
    }

    fn fd_pred() -> CalcExpr {
        CalcExpr::bin(
            BinOp::Gt,
            CalcExpr::call(
                Func::CountDistinct,
                vec![partition_comp(
                    MonoidKind::Bag,
                    CalcExpr::proj(CalcExpr::var("x0"), "nationkey"),
                )],
            ),
            CalcExpr::int(1),
        )
    }

    #[test]
    fn fd_consumer_recognized_with_capped_distinct() {
        let pred = fd_pred();
        let shape =
            recognize("g", &CalcExpr::var("d"), &CalcExpr::var("g"), &[&pred]).expect("FD folds");
        assert!(shape.keeps_groups());
        assert_eq!(shape.slots.len(), 1);
        assert_eq!(
            shape.slots[0].kind,
            AggKind::CountDistinct { cap: Some(2) },
            "count_distinct > 1 needs at most two witnesses"
        );
        // The member head composed down to the scan variable.
        assert_eq!(
            shape.slots[0].row_expr,
            CalcExpr::proj(CalcExpr::var("d"), "nationkey")
        );
    }

    #[test]
    fn group_by_aggregate_head_recognized() {
        // SELECT g.key, count(*), avg(x.acctbal) … shapes.
        let head = CalcExpr::Record(vec![
            ("addr".into(), CalcExpr::proj(CalcExpr::var("g"), "key")),
            (
                "n".into(),
                partition_comp(MonoidKind::Sum, CalcExpr::int(1)),
            ),
            (
                "bal".into(),
                CalcExpr::call(
                    Func::Avg,
                    vec![partition_comp(
                        MonoidKind::Bag,
                        CalcExpr::proj(CalcExpr::var("x0"), "acctbal"),
                    )],
                ),
            ),
        ]);
        let shape = recognize("g", &CalcExpr::var("d"), &head, &[]).expect("aggregate head folds");
        assert!(!shape.keeps_groups());
        assert_eq!(shape.slots.len(), 2);
        assert_eq!(shape.scope, vec!["__gkey", "__agg0", "__agg1"]);
        let rewritten = shape.head.unwrap();
        let CalcExpr::Record(fields) = rewritten else {
            panic!("head stays a record");
        };
        assert_eq!(fields[0].1, CalcExpr::var(KEY_SLOT_VAR));
        assert_eq!(fields[1].1, CalcExpr::var("__agg0"));
    }

    #[test]
    fn identical_aggregates_share_a_slot() {
        let count = partition_comp(MonoidKind::Sum, CalcExpr::int(1));
        let head = CalcExpr::Record(vec![("n".into(), count.clone())]);
        let having = CalcExpr::bin(BinOp::Gt, count, CalcExpr::int(1));
        let shape = recognize("g", &CalcExpr::var("d"), &head, &[&having]).unwrap();
        assert_eq!(shape.slots.len(), 1, "count(*) appears once");
        // Observed in the head too: the cap must stay off.
        assert_eq!(shape.slots[0].kind, AggKind::Monoid(MonoidKind::Sum));
    }

    #[test]
    fn member_reaching_consumers_are_rejected() {
        // DEDUP-style: the head carries the group itself inside a record.
        let head = CalcExpr::Record(vec![("g".into(), CalcExpr::var("g"))]);
        assert!(recognize("g", &CalcExpr::var("d"), &head, &[]).is_none());
        // A predicate over the raw partition list.
        let pred = CalcExpr::call(
            Func::Count,
            vec![CalcExpr::proj(CalcExpr::var("g"), "partition")],
        );
        assert!(recognize("g", &CalcExpr::var("d"), &CalcExpr::var("g"), &[&pred]).is_none());
    }

    #[test]
    fn numeric_slots_get_typed_accumulators() {
        use crate::calculus::EvalCtx;
        let rows: Vec<Value> = (0..4i64)
            .map(|i| {
                Value::record([
                    ("i", Value::Int(i)),
                    ("f", Value::Float(i as f64)),
                    ("s", Value::str("x")),
                ])
            })
            .collect();
        let block = Arc::new(ColumnBatch::from_rows(&rows).unwrap());
        let accs = |kind: AggKind, row_expr: CalcExpr| {
            let program = Program::compile(&row_expr, &["d".to_string()], &EvalCtx::new());
            let member = ColumnProgram::lower(&program.unwrap(), &block).unwrap();
            SlotAccs::new(&AggSlot { kind, row_expr }, &member)
        };
        let col = |f: &str| CalcExpr::proj(CalcExpr::var("d"), f);
        let m = AggKind::Monoid;
        use MonoidKind::{All, Max, Min, Prod, Sum};
        assert!(matches!(
            accs(m(Sum), CalcExpr::int(1)),
            SlotAccs::IntSum(_)
        ));
        assert!(matches!(accs(m(Sum), col("i")), SlotAccs::IntSum(_)));
        assert!(matches!(
            accs(m(Sum), col("f")),
            SlotAccs::FloatSum { avg: false, .. }
        ));
        assert!(matches!(
            accs(AggKind::Avg, col("i")),
            SlotAccs::FloatSum { avg: true, .. }
        ));
        assert!(matches!(
            accs(m(Min), col("i")),
            SlotAccs::IntExtreme { max: false, .. }
        ));
        assert!(matches!(
            accs(m(Max), col("f")),
            SlotAccs::FloatExtreme { max: true, .. }
        ));
        // What stays generic: strings, `prod`, `all`, an uncapped distinct.
        for (kind, e) in [
            (m(Sum), col("s")),
            (m(Max), col("s")),
            (AggKind::Avg, col("s")),
            (m(Prod), col("i")),
            (m(All), col("i")),
            (AggKind::CountDistinct { cap: None }, col("i")),
        ] {
            assert!(matches!(accs(kind, e), SlotAccs::Values(_)));
        }
    }

    #[test]
    fn distinct_cap_cleared_when_count_is_observable() {
        // The exact distinct count is projected out: no cap is sound.
        let head = CalcExpr::Record(vec![(
            "d".into(),
            CalcExpr::call(
                Func::CountDistinct,
                vec![partition_comp(
                    MonoidKind::Bag,
                    CalcExpr::proj(CalcExpr::var("x0"), "nationkey"),
                )],
            ),
        )]);
        let shape = recognize("g", &CalcExpr::var("d"), &head, &[]).unwrap();
        assert_eq!(shape.slots[0].kind, AggKind::CountDistinct { cap: None });
    }
}
