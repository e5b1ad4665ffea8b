//! Retained per-operator state for standing queries.
//!
//! CleanM makes every cleaning operator a comprehension over a commutative
//! monoid, so how an operator's output grows under an append follows from
//! its plan. [`OpState::install`] reads that off the plan with one
//! structural walk, which picks one of three rules, each built from a
//! recognizer the batch executor itself runs:
//!
//! * **Groups** ([`crate::groups`]) — FD and `GROUP BY … HAVING`: per key
//!   the batch group fold's slot accumulators; a delta folds into its keys
//!   and only those are finished.
//! * **Pairs** ([`crate::pairs`]) — DEDUP, DC and CLUSTER BY: two indexed
//!   sides and one product rule for the pairs a delta adds.
//! * **Map** — `Reduce[Bag|Set|List] ← Select* ← Scan`: the projected rows,
//!   kept sorted and distinct under `DISTINCT`.
//!
//! Each absorb reports the `__rowid`s of the output records it adds or
//! replaces, so the session maintains a query's violating ids without
//! walking retained output. Expressions are compiled once per install
//! against the query plan's evaluation context ([`RowExpr`]), so keys,
//! predicates and heads match the batch run bit for bit. A plan no rule
//! matches, and an op blocking by k-means over centers sampled from the
//! catalog, become [`OpState::Fallback`] and re-run in full on every
//! refresh (counted in the report).

use std::collections::HashMap;

use cleanm_core::algebra::Alg;
use cleanm_core::calculus::FilterAlgo::KMeans;
use cleanm_core::calculus::{eval::truthy, CalcExpr, EvalCtx, MonoidKind};
use cleanm_core::physical::RowExpr;
use cleanm_values::{Result, Value};

use crate::groups::Groups;
use crate::pairs::Pairs;

/// Rows by table: the batches one refresh appended, or at install the
/// tables' whole contents.
pub(crate) type Rows = HashMap<String, Vec<Value>>;

/// A filtered scan, `Select* ← Scan table var`, compiled over its row.
pub(crate) struct Filtered {
    table: String,
    /// The one-slot scope of the scan's row variable.
    scope: Vec<String>,
    filters: Vec<RowExpr>,
}

impl Filtered {
    /// Compile `plan` if it is a filtered scan ([`Alg::scan_with_filters`]).
    pub(crate) fn of(plan: &Alg, ctx: &EvalCtx) -> Result<Option<Filtered>> {
        let Some((table, var, filters)) = plan.scan_with_filters() else {
            return Ok(None);
        };
        let scope = vec![var];
        let filters = filters.iter().map(|f| RowExpr::compile(f, &scope, ctx));
        Ok(Some(Filtered {
            table,
            filters: filters.collect::<Result<_>>()?,
            scope,
        }))
    }

    /// The scan's row variable.
    pub(crate) fn var(&self) -> &str {
        &self.scope[0]
    }

    /// Compile an expression over the scan's row.
    pub(crate) fn compile(&self, expr: &CalcExpr, ctx: &EvalCtx) -> Result<RowExpr> {
        RowExpr::compile(expr, &self.scope, ctx)
    }

    /// The rows of this scan's table in `rows` that pass every filter.
    /// Evaluation errors propagate: the batch executor fails the whole run
    /// on a predicate error, and the session matches that by rebuilding
    /// through a full run, which reports the same error.
    pub(crate) fn rows<'r>(&self, rows: &'r Rows, ctx: &EvalCtx) -> Result<Vec<&'r Value>> {
        let rows = rows.get(&self.table).into_iter().flatten();
        let kept =
            rows.map(|row| Ok(all_hold(&self.filters, |f| eval(f, row, ctx))?.then_some(row)));
        kept.filter_map(Result::transpose).collect()
    }
}

/// Evaluate a program compiled over one row.
pub(crate) fn eval(rx: &RowExpr, row: &Value, ctx: &EvalCtx) -> Result<Value> {
    rx.eval_env(std::slice::from_ref(row), ctx)
}

/// Do all predicates hold, in order? The first that fails short-circuits
/// the rest, as stacked `Select`s do.
pub(crate) fn all_hold(
    preds: &[RowExpr],
    mut eval: impl FnMut(&RowExpr) -> Result<Value>,
) -> Result<bool> {
    for p in preds {
        if !truthy(&eval(p)?) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The blocks a key assigns its row to: a list key lists several
/// (multi-key blockers), a scalar is one.
pub(crate) fn block_keys(key: &Value) -> &[Value] {
    match key {
        Value::List(keys) => keys,
        scalar => std::slice::from_ref(scalar),
    }
}

/// Merge `new` into `set`, which is sorted and holds no duplicates, and
/// keep it so. Costs the size of `new` when nothing in it is new; else one
/// pass over `set`, where the two sorted runs merge.
pub(crate) fn merge_sorted<T: Ord>(set: &mut Vec<T>, mut new: Vec<T>) {
    new.retain(|x| set.binary_search(x).is_err());
    if new.is_empty() {
        return;
    }
    new.sort_unstable();
    new.dedup();
    set.append(&mut new);
    // Two sorted runs: the stable sort merges them in one pass.
    set.sort();
}

/// The **Map** rule: the projected rows of a filtered scan.
pub(crate) struct Map {
    source: Filtered,
    head: RowExpr,
    /// `DISTINCT` (the set monoid): the rows are kept sorted and distinct.
    distinct: bool,
    outputs: Vec<Value>,
}

impl Map {
    fn of(input: &Alg, monoid: &MonoidKind, head: &CalcExpr, ctx: &EvalCtx) -> Result<Option<Map>> {
        if !matches!(monoid, MonoidKind::Bag | MonoidKind::Set | MonoidKind::List) {
            return Ok(None);
        }
        let Some(source) = Filtered::of(input, ctx)? else {
            return Ok(None);
        };
        Ok(Some(Map {
            head: source.compile(head, ctx)?,
            distinct: *monoid == MonoidKind::Set,
            outputs: Vec::new(),
            source,
        }))
    }

    fn absorb(&mut self, rows: &Rows, ctx: &EvalCtx) -> Result<()> {
        let rows = self.source.rows(rows, ctx)?.into_iter();
        let projected = rows.map(|row| eval(&self.head, row, ctx));
        let projected = projected.collect::<Result<_>>()?;
        match self.distinct {
            true => merge_sorted(&mut self.outputs, projected),
            false => self.outputs.extend(projected),
        }
        Ok(())
    }
}

/// The retained state of one standing-query operator. Variants are boxed:
/// each holds several compiled programs and indexes, and a standing query
/// owns one `OpState` per operator for its whole lifetime.
pub(crate) enum OpState {
    Groups(Box<Groups>),
    Pairs(Box<Pairs>),
    Map(Box<Map>),
    /// No rule fits: the op re-runs in full on every refresh.
    Fallback,
}

impl OpState {
    /// Pick the op's rule by one walk of its plan, compile it and build its
    /// state over `history()`, the current contents of the tables the plan
    /// scans. Pair and map state take the install run's output, `baseline`,
    /// as theirs (under `DISTINCT` it is sorted and distinct); groups fold
    /// history and finish it.
    pub(crate) fn install(
        plan: &Alg,
        ctx: &EvalCtx,
        corpus_sampled: bool,
        baseline: &[Value],
        history: impl FnOnce() -> Rows,
    ) -> Result<OpState> {
        // K-means centers sampled from the catalog re-sample whenever it
        // changes, so blocks kept across appends would drift from the blocks
        // a fresh run draws: such an op keeps no state.
        let kmeans =
            |n: &&Alg| matches!(n, Alg::Nest { algo, .. } if matches!(algo, KMeans { .. }));
        let Alg::Reduce {
            input,
            monoid,
            head,
        } = plan
        else {
            return Ok(OpState::Fallback);
        };
        if corpus_sampled && plan.nodes().iter().any(kmeans) {
            return Ok(OpState::Fallback);
        }
        Ok(if let Some(mut map) = Map::of(input, monoid, head, ctx)? {
            map.outputs = baseline.to_vec();
            OpState::Map(Box::new(map))
        } else if let Some(mut groups) = Groups::of(input, monoid, head, ctx)? {
            groups.absorb(&history(), ctx, &mut Vec::new())?;
            OpState::Groups(Box::new(groups))
        } else if let Some(mut pairs) = Pairs::of(input, monoid, head, ctx)? {
            pairs.index(&history(), ctx, baseline)?;
            OpState::Pairs(Box::new(pairs))
        } else {
            OpState::Fallback
        })
    }

    /// Feed the per-table delta batches of one refresh. The `__rowid`s of
    /// every output record the deltas add or replace go to `ids`. Returns
    /// the pair tests to count as comparisons (the evaluation context
    /// counts the similarity calls).
    pub(crate) fn absorb(
        &mut self,
        deltas: &Rows,
        ctx: &EvalCtx,
        ids: &mut Vec<i64>,
    ) -> Result<u64> {
        match self {
            OpState::Groups(s) => s.absorb(deltas, ctx, ids).map(|()| 0),
            OpState::Pairs(s) => s.absorb(deltas, ctx, ids),
            OpState::Map(s) => s.absorb(deltas, ctx).map(|()| 0),
            OpState::Fallback => Ok(0),
        }
    }

    /// The op's current full output (identical to a from-scratch run).
    pub(crate) fn output(&self) -> Vec<Value> {
        match self {
            OpState::Groups(s) => s.output(),
            OpState::Pairs(s) => s.outputs.clone(),
            OpState::Map(s) => s.outputs.clone(),
            OpState::Fallback => Vec::new(),
        }
    }
}
