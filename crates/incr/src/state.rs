//! Retained per-operator state for standing queries.
//!
//! Each supported operator keeps exactly the index a delta batch needs to
//! be validated **delta-vs-delta and delta-vs-history** without rescanning
//! old rows:
//!
//! * FD — a grouping-key map holding each group's members and its distinct
//!   right-hand-side values, plus the `{key, partition}` record of every
//!   violating group, rebuilt only when a delta touches the group;
//! * DEDUP — a blocking-key index of row members; a new row is compared
//!   only against the members of its own blocks;
//! * CLUSTER BY — the dictionary side indexed by blocking key once; each
//!   appended term probes the matching dictionary blocks;
//! * DC — each theta side's filtered rows sorted by join key
//!   ([`crate::dc`]);
//! * SELECT — accumulated projected output (plus the filters to run on
//!   delta rows), kept sorted and deduplicated under `DISTINCT`.
//!
//! Each absorb reports the `__rowid`s of the output records it adds or
//! replaces, so the session maintains a query's violating ids without
//! walking retained output, and `output` is a clone of what is kept.
//!
//! Expressions are compiled once per install against the query plan's
//! evaluation context ([`RowExpr`]), so blocking keys and similarity
//! semantics match the batch run bit-for-bit. Anything whose plan does not
//! match a maintainable shape becomes [`OpState::Fallback`] and re-runs in
//! full on every refresh (counted in the report).

use std::collections::BTreeMap;

use cleanm_core::calculus::{eval::truthy, EvalCtx, MonoidKind};
use cleanm_core::engine::collect_rowids;
use cleanm_core::ops::{DedupPlanShape, FdPlanShape, TermvalPlanShape};
use cleanm_core::physical::RowExpr;
use cleanm_values::{FxHashSet, Result, Value};

use crate::dc::DcState;

/// One compiled predicate/expression pipeline over a single row variable
/// (the row itself is the one-slot environment).
pub(crate) struct RowPipeline {
    filters: Vec<RowExpr>,
}

impl RowPipeline {
    pub(crate) fn new(
        var: &str,
        filters: &[cleanm_core::calculus::CalcExpr],
        ctx: &EvalCtx,
    ) -> Result<Self> {
        let scope = vec![var.to_string()];
        let filters = filters.iter().map(|f| RowExpr::compile(f, &scope, ctx));
        Ok(RowPipeline {
            filters: filters.collect::<Result<_>>()?,
        })
    }

    /// Does `row` pass every filter? Evaluation errors propagate — the
    /// batch executor fails the whole run on a predicate error, and the
    /// incremental session must match that (it rebuilds via a full run,
    /// which then reports the same error).
    pub(crate) fn passes(&self, row: &Value, ctx: &EvalCtx) -> Result<bool> {
        for f in &self.filters {
            if !truthy(&f.eval_env(std::slice::from_ref(row), ctx)?) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn eval(&self, rx: &RowExpr, row: &Value, ctx: &EvalCtx) -> Result<Value> {
        rx.eval_env(std::slice::from_ref(row), ctx)
    }
}

/// Compiled pair predicates over `(left_var, right_var)`, evaluated
/// innermost-first so the cheap row-id ordering check short-circuits the
/// similarity call.
pub(crate) struct PairPreds {
    preds: Vec<RowExpr>,
}

impl PairPreds {
    pub(crate) fn new(
        left_var: &str,
        right_var: &str,
        preds: &[cleanm_core::calculus::CalcExpr],
        ctx: &EvalCtx,
    ) -> Result<Self> {
        let scope = vec![left_var.to_string(), right_var.to_string()];
        let preds = preds.iter().map(|p| RowExpr::compile(p, &scope, ctx));
        Ok(PairPreds {
            preds: preds.collect::<Result<_>>()?,
        })
    }

    /// Do the pair predicates all hold? Errors propagate (see
    /// [`RowPipeline::passes`]).
    pub(crate) fn passes(&self, left: &Value, right: &Value, ctx: &EvalCtx) -> Result<bool> {
        let (l, r) = (std::slice::from_ref(left), std::slice::from_ref(right));
        for p in &self.preds {
            if !truthy(&p.eval_pair(l, r, ctx)?) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// A blocking key evaluates to a scalar (one block) or a list (multi-key
/// blockers assign the row to every listed block).
fn key_values(key: Value) -> Vec<Value> {
    match key {
        Value::List(keys) => keys.to_vec(),
        scalar => vec![scalar],
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

/// Keep an output record, noting the `__rowid`s it holds in `ids`.
pub(crate) fn emit(outputs: &mut Vec<Value>, ids: &mut Vec<i64>, record: Value) {
    collect_rowids(&record, ids);
    outputs.push(record);
}

// ---------------------------------------------------------------------
// FD
// ---------------------------------------------------------------------

struct FdGroup {
    members: Vec<Value>,
    /// Distinct right-hand-side values, over the engine's seeded fast
    /// hasher — the same accumulator the batch executor's group-fold path
    /// keeps (uncapped here: appends must be able to push a clean group
    /// over the violation threshold later).
    rhs_distinct: FxHashSet<Value>,
}

pub(crate) struct FdState {
    pipeline: RowPipeline,
    key_rx: RowExpr,
    rhs_rx: RowExpr,
    groups: BTreeMap<Value, FdGroup>,
    /// The `{key, partition}` record of every violating group, rebuilt
    /// only when a delta touches the group.
    violators: BTreeMap<Value, Value>,
}

impl FdState {
    pub(crate) fn new(shape: &FdPlanShape, ctx: &EvalCtx) -> Result<FdState> {
        let scan_scope = vec![shape.scan_var.clone()];
        let member_scope = vec![shape.member_var.clone()];
        Ok(FdState {
            pipeline: RowPipeline::new(&shape.scan_var, &shape.filters, ctx)?,
            key_rx: RowExpr::compile(&shape.key, &scan_scope, ctx)?,
            rhs_rx: RowExpr::compile(&shape.rhs, &member_scope, ctx)?,
            groups: BTreeMap::new(),
            violators: BTreeMap::new(),
        })
    }

    /// Add rows to their groups, then rebuild the record of each touched
    /// group that violates, noting its members' `__rowid`s in `ids`. A
    /// group only gains members and right-hand sides, so a violator stays
    /// one.
    pub(crate) fn absorb(
        &mut self,
        rows: &[Value],
        ctx: &EvalCtx,
        ids: &mut Vec<i64>,
    ) -> Result<()> {
        let mut touched = Vec::new();
        for row in rows {
            if !self.pipeline.passes(row, ctx)? {
                continue;
            }
            let key = self.pipeline.eval(&self.key_rx, row, ctx)?;
            let rhs = self.pipeline.eval(&self.rhs_rx, row, ctx)?;
            for k in key_values(key) {
                let group = self.groups.entry(k.clone()).or_insert_with(|| FdGroup {
                    members: Vec::new(),
                    rhs_distinct: FxHashSet::default(),
                });
                group.members.push(row.clone());
                group.rhs_distinct.insert(rhs.clone());
                touched.push(k);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for k in touched {
            let group = &self.groups[&k];
            if group.rhs_distinct.len() > 1 {
                let record = Value::record([
                    ("key", k.clone()),
                    ("partition", Value::list(group.members.iter().cloned())),
                ]);
                collect_rowids(&record, ids);
                self.violators.insert(k, record);
            }
        }
        Ok(())
    }

    /// Current operator output: the violating groups as `{key, partition}`
    /// records in key order (the batch FD plan's reduced output).
    pub(crate) fn output(&self) -> Vec<Value> {
        self.violators.values().cloned().collect()
    }
}

// ---------------------------------------------------------------------
// DEDUP
// ---------------------------------------------------------------------

pub(crate) struct DedupState {
    pipeline: RowPipeline,
    key_rx: RowExpr,
    pair: PairPreds,
    blocks: BTreeMap<Value, Vec<Value>>,
    outputs: Vec<Value>,
}

impl DedupState {
    pub(crate) fn new(shape: &DedupPlanShape, ctx: &EvalCtx) -> Result<DedupState> {
        let scan_scope = vec![shape.scan_var.clone()];
        Ok(DedupState {
            pipeline: RowPipeline::new(&shape.scan_var, &shape.filters, ctx)?,
            key_rx: RowExpr::compile(&shape.key, &scan_scope, ctx)?,
            pair: PairPreds::new(
                &shape.pair_vars.0,
                &shape.pair_vars.1,
                &shape.pair_preds,
                ctx,
            )?,
            blocks: BTreeMap::new(),
            outputs: Vec::new(),
        })
    }

    /// Seed the accumulated pair output from a batch run (history pairs
    /// were already found; indexing history must not re-compare them).
    pub(crate) fn seed_outputs(&mut self, outputs: Vec<Value>) {
        self.outputs = outputs;
    }

    /// Index rows into their blocks **without** pair comparisons — the
    /// install path for history rows whose pairs came from the batch run.
    pub(crate) fn index_only(&mut self, rows: &[Value], ctx: &EvalCtx) -> Result<()> {
        for row in rows {
            if !self.pipeline.passes(row, ctx)? {
                continue;
            }
            let key = self.pipeline.eval(&self.key_rx, row, ctx)?;
            for k in key_values(key) {
                self.blocks.entry(k).or_default().push(row.clone());
            }
        }
        Ok(())
    }

    /// Validate delta rows: each new row is compared against the existing
    /// members of its blocks (history + earlier delta rows), both pair
    /// orders, exactly like the batch pair enumeration within a group. The
    /// `__rowid`s of each new pair go to `ids`.
    pub(crate) fn absorb(
        &mut self,
        rows: &[Value],
        ctx: &EvalCtx,
        ids: &mut Vec<i64>,
    ) -> Result<()> {
        for row in rows {
            if !self.pipeline.passes(row, ctx)? {
                continue;
            }
            let key = self.pipeline.eval(&self.key_rx, row, ctx)?;
            for k in key_values(key) {
                let members = self.blocks.entry(k).or_default();
                for existing in members.iter() {
                    if self.pair.passes(existing, row, ctx)? {
                        let pair = [("left", existing.clone()), ("right", row.clone())];
                        emit(&mut self.outputs, ids, Value::record(pair));
                    }
                    if self.pair.passes(row, existing, ctx)? {
                        let pair = [("left", row.clone()), ("right", existing.clone())];
                        emit(&mut self.outputs, ids, Value::record(pair));
                    }
                }
                members.push(row.clone());
            }
        }
        Ok(())
    }

    pub(crate) fn output(&self) -> Vec<Value> {
        self.outputs.clone()
    }
}

// ---------------------------------------------------------------------
// CLUSTER BY (term validation)
// ---------------------------------------------------------------------

pub(crate) struct TermvalState {
    data_pipeline: RowPipeline,
    data_key_rx: RowExpr,
    data_item_rx: RowExpr,
    dict_pipeline: RowPipeline,
    dict_key_rx: RowExpr,
    dict_item_rx: RowExpr,
    pair: PairPreds,
    /// Blocked data terms (needed when dictionary rows arrive later).
    data_blocks: BTreeMap<Value, Vec<Value>>,
    /// Blocked dictionary terms.
    dict_blocks: BTreeMap<Value, Vec<Value>>,
    outputs: Vec<Value>,
}

impl TermvalState {
    pub(crate) fn new(shape: &TermvalPlanShape, ctx: &EvalCtx) -> Result<TermvalState> {
        let data_scope = vec![shape.data.scan_var.clone()];
        let dict_scope = vec![shape.dict.scan_var.clone()];
        Ok(TermvalState {
            data_pipeline: RowPipeline::new(&shape.data.scan_var, &shape.data.filters, ctx)?,
            data_key_rx: RowExpr::compile(&shape.data.key, &data_scope, ctx)?,
            data_item_rx: RowExpr::compile(&shape.data.item, &data_scope, ctx)?,
            dict_pipeline: RowPipeline::new(&shape.dict.scan_var, &shape.dict.filters, ctx)?,
            dict_key_rx: RowExpr::compile(&shape.dict.key, &dict_scope, ctx)?,
            dict_item_rx: RowExpr::compile(&shape.dict.item, &dict_scope, ctx)?,
            pair: PairPreds::new(
                &shape.pair_vars.0,
                &shape.pair_vars.1,
                &shape.pair_preds,
                ctx,
            )?,
            data_blocks: BTreeMap::new(),
            dict_blocks: BTreeMap::new(),
            outputs: Vec::new(),
        })
    }

    pub(crate) fn seed_outputs(&mut self, outputs: Vec<Value>) {
        self.outputs = outputs;
    }

    /// One side's `(blocking keys, term)` for a row, or `None` if filtered.
    #[allow(clippy::type_complexity)]
    fn keyed_term(
        pipeline: &RowPipeline,
        key_rx: &RowExpr,
        item_rx: &RowExpr,
        row: &Value,
        ctx: &EvalCtx,
    ) -> Result<Option<(Vec<Value>, Value)>> {
        if !pipeline.passes(row, ctx)? {
            return Ok(None);
        }
        let key = pipeline.eval(key_rx, row, ctx)?;
        let term = pipeline.eval(item_rx, row, ctx)?;
        Ok(Some((key_values(key), term)))
    }

    /// Index both sides without any pair comparisons — the install path
    /// (history pairs come from the batch run whose outputs seed us).
    pub(crate) fn index_only(
        &mut self,
        data_rows: &[Value],
        dict_rows: &[Value],
        ctx: &EvalCtx,
    ) -> Result<()> {
        for row in data_rows {
            if let Some((keys, term)) = Self::keyed_term(
                &self.data_pipeline,
                &self.data_key_rx,
                &self.data_item_rx,
                row,
                ctx,
            )? {
                for k in keys {
                    self.data_blocks.entry(k).or_default().push(term.clone());
                }
            }
        }
        for row in dict_rows {
            if let Some((keys, term)) = Self::keyed_term(
                &self.dict_pipeline,
                &self.dict_key_rx,
                &self.dict_item_rx,
                row,
                ctx,
            )? {
                for k in keys {
                    self.dict_blocks.entry(k).or_default().push(term.clone());
                }
            }
        }
        Ok(())
    }

    /// Validate appended data terms against the dictionary index, then
    /// index them (dictionary rows arriving later will see them). The
    /// `__rowid`s a new `{term, repair}` record holds, if any, go to `ids`.
    pub(crate) fn absorb_data(
        &mut self,
        rows: &[Value],
        ctx: &EvalCtx,
        ids: &mut Vec<i64>,
    ) -> Result<()> {
        for row in rows {
            let Some((keys, term)) = Self::keyed_term(
                &self.data_pipeline,
                &self.data_key_rx,
                &self.data_item_rx,
                row,
                ctx,
            )?
            else {
                continue;
            };
            for k in keys {
                if let Some(entries) = self.dict_blocks.get(&k) {
                    for dict_term in entries {
                        if self.pair.passes(&term, dict_term, ctx)? {
                            let fix = [("term", term.clone()), ("repair", dict_term.clone())];
                            emit(&mut self.outputs, ids, Value::record(fix));
                        }
                    }
                }
                self.data_blocks.entry(k).or_default().push(term.clone());
            }
        }
        Ok(())
    }

    /// Validate appended dictionary entries against **all** indexed data
    /// terms, then index them. Call after [`TermvalState::absorb_data`] in
    /// a refresh so a same-refresh (data, dict) pair is counted exactly
    /// once (here, where the data side is already indexed).
    pub(crate) fn absorb_dict(
        &mut self,
        rows: &[Value],
        ctx: &EvalCtx,
        ids: &mut Vec<i64>,
    ) -> Result<()> {
        for row in rows {
            let Some((keys, dict_term)) = Self::keyed_term(
                &self.dict_pipeline,
                &self.dict_key_rx,
                &self.dict_item_rx,
                row,
                ctx,
            )?
            else {
                continue;
            };
            for k in keys {
                if let Some(terms) = self.data_blocks.get(&k) {
                    for term in terms {
                        if self.pair.passes(term, &dict_term, ctx)? {
                            let fix = [("term", term.clone()), ("repair", dict_term.clone())];
                            emit(&mut self.outputs, ids, Value::record(fix));
                        }
                    }
                }
                self.dict_blocks
                    .entry(k)
                    .or_default()
                    .push(dict_term.clone());
            }
        }
        Ok(())
    }

    pub(crate) fn output(&self) -> Vec<Value> {
        self.outputs.clone()
    }
}

// ---------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------

pub(crate) struct SelectState {
    pipeline: RowPipeline,
    head_rx: RowExpr,
    monoid: MonoidKind,
    /// The projected rows; under `DISTINCT` (the set monoid) kept sorted
    /// and deduplicated as they arrive.
    outputs: Vec<Value>,
}

impl SelectState {
    /// Match a plain select plan (`Reduce` over filtered scan) directly —
    /// there is no ops-module shape for it, the form is trivial.
    pub(crate) fn from_plan(
        plan: &cleanm_core::algebra::Alg,
        ctx: &EvalCtx,
    ) -> Result<Option<SelectState>> {
        use cleanm_core::algebra::Alg;
        let Alg::Reduce {
            input,
            monoid,
            head,
        } = plan
        else {
            return Ok(None);
        };
        if !matches!(monoid, MonoidKind::Bag | MonoidKind::Set | MonoidKind::List) {
            return Ok(None);
        }
        let mut filters = Vec::new();
        let mut node = &**input;
        loop {
            match node {
                Alg::Select { input, pred } => {
                    filters.push(pred.clone());
                    node = input;
                }
                Alg::Scan { var, .. } => {
                    let scope = vec![var.clone()];
                    return Ok(Some(SelectState {
                        pipeline: RowPipeline::new(var, &filters, ctx)?,
                        head_rx: RowExpr::compile(head, &scope, ctx)?,
                        monoid: monoid.clone(),
                        outputs: Vec::new(),
                    }));
                }
                _ => return Ok(None),
            }
        }
    }

    pub(crate) fn seed_outputs(&mut self, outputs: Vec<Value>) {
        self.outputs = Vec::new();
        self.add(outputs);
    }

    pub(crate) fn absorb(&mut self, rows: &[Value], ctx: &EvalCtx) -> Result<()> {
        let mut projected = Vec::new();
        for row in rows {
            if !self.pipeline.passes(row, ctx)? {
                continue;
            }
            projected.push(self.pipeline.eval(&self.head_rx, row, ctx)?);
        }
        self.add(projected);
        Ok(())
    }

    fn add(&mut self, projected: Vec<Value>) {
        match self.monoid {
            MonoidKind::Set => merge_sorted(&mut self.outputs, projected),
            _ => self.outputs.extend(projected),
        }
    }

    pub(crate) fn output(&self) -> Vec<Value> {
        self.outputs.clone()
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// The retained state of one standing-query operator. Variants are boxed:
/// each holds several compiled programs and indexes, and a standing query
/// owns one `OpState` per operator for its whole lifetime.
pub(crate) enum OpState {
    Fd(Box<FdState>),
    Dedup(Box<DedupState>),
    Termval(Box<TermvalState>),
    Dc(Box<DcState>),
    Select(Box<SelectState>),
    /// Shape not maintainable: the op re-runs in full on every refresh.
    Fallback,
}

impl OpState {
    pub(crate) fn is_fallback(&self) -> bool {
        matches!(self, OpState::Fallback)
    }

    /// Feed the per-table delta batches of one refresh. `tables` is the
    /// op's dependency list in shape order (base table first; CLUSTER BY
    /// adds the dictionary second — its data side absorbs before the
    /// dictionary side so same-refresh pairs are counted exactly once).
    /// The `__rowid`s of every output record the deltas add or replace go
    /// to `ids` (a SELECT's rows are not violations and add none). Returns
    /// the DC pair tests run (the eval context counts the similarity calls
    /// of the other ops).
    pub(crate) fn absorb_deltas(
        &mut self,
        tables: &[String],
        deltas: &std::collections::HashMap<String, Vec<Value>>,
        ctx: &EvalCtx,
        ids: &mut Vec<i64>,
    ) -> Result<u64> {
        let delta_of = |i: usize| -> &[Value] {
            tables
                .get(i)
                .and_then(|t| deltas.get(t))
                .map(|r| r.as_slice())
                .unwrap_or(&[])
        };
        match self {
            OpState::Fd(s) => s.absorb(delta_of(0), ctx, ids)?,
            OpState::Dedup(s) => s.absorb(delta_of(0), ctx, ids)?,
            OpState::Termval(s) => {
                s.absorb_data(delta_of(0), ctx, ids)?;
                s.absorb_dict(delta_of(1), ctx, ids)?
            }
            OpState::Dc(s) => return s.absorb(delta_of(0), ctx, ids),
            OpState::Select(s) => s.absorb(delta_of(0), ctx)?,
            OpState::Fallback => {}
        }
        Ok(0)
    }

    /// The op's current full output (identical to a from-scratch run).
    pub(crate) fn output(&self) -> Vec<Value> {
        match self {
            OpState::Fd(s) => s.output(),
            OpState::Dedup(s) => s.output(),
            OpState::Termval(s) => s.output(),
            OpState::Dc(s) => s.output(),
            OpState::Select(s) => s.output(),
            OpState::Fallback => Vec::new(),
        }
    }
}
