//! The incremental session: standing queries over an append-aware
//! [`CleanDb`].
//!
//! [`IncrementalSession::install`] runs a CleanM query once, takes its
//! plan from [`CleanDb::plan`], recognizes each operator's shape, and
//! builds the per-operator state of [`crate::state`]. From then
//! on, [`IncrementalSession::refresh`] validates only the rows appended
//! since the last refresh — delta-vs-delta and delta-vs-history — and
//! assembles a [`CleaningReport`] whose violations and repairs are
//! identical to a from-scratch run over the concatenated data. Operators
//! whose state cannot be maintained (unrecognized shapes, a re-registered
//! table, a changed dictionary) fall back to a full re-run, counted in
//! `report.incremental`.
//!
//! A refresh costs the delta and the violation count, not the retained
//! output. Each standing query keeps its violating `__rowid`s as one
//! sorted set, seeded from the install run's outputs; every absorb reports
//! the ids of the output records it adds or replaces, and the set takes
//! them in (under appends it only grows). The report's `violating_ids` is
//! that set, merged with the ids of any fallback op's freshly re-run
//! output; no refresh walks a maintained op's whole output. The tracer
//! splits each `refresh` span into `absorb` (delta work) and `assemble`
//! (report work).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cleanm_core::algebra::Alg;
use cleanm_core::calculus::desugar::OpKind;
use cleanm_core::engine::{
    collect_repairs, collect_rowids, EngineError, IncrementalInfo, OpResult, PlanCacheStats,
    PlannedQuery,
};
use cleanm_core::ops::{DedupPlanShape, FdPlanShape, TermvalPlanShape};
use cleanm_core::{CleanDb, CleaningReport};
use cleanm_values::{Table, Value};

use crate::dc::DcState;
use crate::state::{merge_sorted, DedupState, FdState, OpState, SelectState, TermvalState};

/// Handle to an installed standing query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryId(usize);

/// Where a standing query stands relative to a table's batch list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cursor {
    /// `StoredTable::created` of the lineage the state was built on.
    lineage: u64,
    /// Batches already absorbed.
    batches_seen: usize,
}

struct InstalledOp {
    label: String,
    kind: OpKind,
    /// Tables whose deltas this op absorbs, in shape order (base table
    /// first, CLUSTER BY's dictionary second); a fallback's are the tables
    /// its plan scans.
    tables: Vec<String>,
    state: OpState,
}

struct Standing {
    sql: String,
    entry: Arc<PlannedQuery>,
    /// Set when a delta failed to absorb: retained state is half-updated,
    /// so the next refresh reinstalls instead of absorbing again.
    poisoned: bool,
    ops: Vec<InstalledOp>,
    /// The `__rowid`s in the outputs of the maintainable cleaning ops,
    /// sorted and distinct: seeded from the install run's outputs, then
    /// grown by the records each absorb adds (under appends an output only
    /// grows, so the set only grows).
    violating: Vec<i64>,
    /// Every table the query depends on (base tables + dictionary sides).
    cursors: HashMap<String, Cursor>,
    dict_gen: u64,
}

/// An append-driven cleaning service wrapping a [`CleanDb`].
///
/// # Example
///
/// ```
/// use cleanm_core::{CleanDb, EngineProfile};
/// use cleanm_incr::IncrementalSession;
/// use cleanm_values::{DataType, Row, Schema, Table, Value};
///
/// let schema = Schema::of([("address", DataType::Str), ("nationkey", DataType::Int)]);
/// let row = |a: &str, k: i64| Row::new(vec![Value::str(a), Value::Int(k)]);
///
/// let mut session = IncrementalSession::new(CleanDb::new(EngineProfile::clean_db()));
/// session.db().register(
///     "customer",
///     Table::new(schema.clone(), vec![row("a st", 1), row("b st", 2)]),
/// );
///
/// // Install once: one full run, then per-operator state retained.
/// let (id, baseline) = session
///     .install("SELECT * FROM customer c FD(c.address, c.nationkey)")
///     .unwrap();
/// assert_eq!(baseline.violations(), 0);
///
/// // An arriving batch contradicts `a st`: the refresh validates only the
/// // delta against retained state, history is not rescanned.
/// session.append("customer", Table::new(schema, vec![row("a st", 9)])).unwrap();
/// let refreshed = session.refresh(id).unwrap();
/// assert_eq!(refreshed.violations(), 2);
/// assert_eq!(refreshed.incremental.unwrap().fallback_ops, 0);
/// ```
pub struct IncrementalSession {
    db: CleanDb,
    queries: Vec<Standing>,
}

impl IncrementalSession {
    pub fn new(db: CleanDb) -> Self {
        IncrementalSession {
            db,
            queries: Vec::new(),
        }
    }

    /// The underlying session (registration, configuration, ad-hoc runs).
    pub fn db(&mut self) -> &mut CleanDb {
        &mut self.db
    }

    /// Append a batch to a registered table (new partitions; the table's
    /// epoch bumps; standing queries pick the rows up on their next refresh).
    pub fn append(&mut self, name: &str, table: Table) -> Result<(), EngineError> {
        self.db.append(name, table)
    }

    /// Install a standing query: one full run (which caches its plan for
    /// [`CleanDb::plan`]), then per-operator state built from the
    /// current table contents. Returns the handle and the baseline report.
    pub fn install(&mut self, sql: &str) -> Result<(QueryId, CleaningReport), EngineError> {
        let report = self.db.run(sql)?;
        let standing = self.build_standing(sql, &report)?;
        self.queries.push(standing);
        Ok((QueryId(self.queries.len() - 1), report))
    }

    /// Re-validate a standing query against the rows appended since the
    /// last refresh. The report's violations/repairs equal a from-scratch
    /// run on the concatenated data; `report.incremental` records how many
    /// operators ran from retained state vs fell back.
    pub fn refresh(&mut self, id: QueryId) -> Result<CleaningReport, EngineError> {
        let started = Instant::now();
        let tracer = Arc::clone(self.db.context().tracer());
        let _refresh_span = tracer.span("refresh");
        // Each refresh reports its own runtime metrics, not a running
        // accumulation since the last batch run.
        self.db.context().metrics().reset();
        // Invalidation sweep: a re-registered table or a dictionary change
        // invalidates retained state wholesale — rebuild via a full run.
        // The specific reason becomes a tracer event so a fleet of standing
        // queries can be audited for *why* refreshes stopped being cheap.
        let rebuild_reason = {
            let q = &self.queries[id.0];
            if q.poisoned {
                Some("retained state poisoned by a failed absorb; full re-run")
            } else if q.dict_gen != self.db.dictionaries_generation() {
                Some("dictionary (re)registered; blockers stale; full re-run")
            } else if q.cursors.iter().any(|(t, cur)| match self.db.table(t) {
                Some(s) => s.created() != cur.lineage || s.batches().len() < cur.batches_seen,
                None => true,
            }) {
                Some("a table was re-registered or dropped; full re-run")
            } else {
                None
            }
        };
        if let Some(reason) = rebuild_reason {
            tracer.event("refresh_fallback", reason);
            let report = self.reinstall(id)?;
            self.db.record_refresh_latency(report.total);
            return Ok(report);
        }

        // Gather the delta batches per tracked table.
        let (deltas, new_cursors, delta_rows) = {
            let q = &self.queries[id.0];
            let mut deltas: HashMap<String, Vec<Value>> = HashMap::new();
            let mut new_cursors = q.cursors.clone();
            let mut delta_rows = 0usize;
            for (t, cur) in &q.cursors {
                let stored = self.db.table(t).expect("checked above");
                let rows: Vec<Value> = stored.batches()[cur.batches_seen..]
                    .iter()
                    .flat_map(|b| b.iter().cloned())
                    .collect();
                delta_rows += rows.len();
                new_cursors.get_mut(t).expect("tracked").batches_seen = stored.batches().len();
                deltas.insert(t.clone(), rows);
            }
            (deltas, new_cursors, delta_rows)
        };

        // Fallback ops re-run the whole query once; their outputs come from
        // that run while maintainable ops still absorb their deltas.
        let sql = self.queries[id.0].sql.clone();
        let n_fallback = self.queries[id.0]
            .ops
            .iter()
            .filter(|op| op.state.is_fallback())
            .count();
        let full_report = if n_fallback > 0 {
            tracer.event(
                "refresh_fallback",
                format!("{n_fallback} op(s) without maintainable state; one full run serves them"),
            );
            Some(self.db.run(&sql)?)
        } else {
            None
        };

        let entry = Arc::clone(&self.queries[id.0].entry);
        let eval_ctx = Arc::clone(entry.eval_ctx());
        let comparisons_before = eval_ctx.comparisons();

        let ctx = Arc::clone(self.db.context());
        let (mut incremental_ops, mut fallback_ops, mut pair_tests) = (0usize, 0usize, 0u64);
        let mut durations = Vec::new();
        let mut new_ids = Vec::new();
        // Delta absorption runs under panic isolation with a deterministic
        // fault-injection point: a panic or injected fault mid-absorb —
        // like a delta row that fails to evaluate — leaves retained state
        // half-updated, so all three recover the same way below: poison
        // the standing state and rebuild from a full run.
        let absorbed = {
            let _absorb_span = tracer.span("absorb");
            let q = &mut self.queries[id.0];
            durations.reserve(q.ops.len());
            ctx.catch_driver("incremental refresh", || {
                ctx.fault_visit(cleanm_exec::FaultSite::IncrRefresh)?;
                for op in &mut q.ops {
                    let op_start = Instant::now();
                    if op.state.is_fallback() {
                        fallback_ops += 1;
                    } else {
                        incremental_ops += 1;
                        // A delta row that fails to evaluate leaves this
                        // and earlier ops' state half-updated: rebuild
                        // from a full run, which reports the same
                        // evaluation error the batch engine would (or
                        // succeeds if only our state was stale).
                        pair_tests += op
                            .state
                            .absorb_deltas(&op.tables, &deltas, &eval_ctx, &mut new_ids)
                            .map_err(|_| {
                                cleanm_exec::ExecError::Other("delta row failed to evaluate".into())
                            })?;
                    }
                    durations.push(op_start.elapsed());
                }
                Ok(())
            })
        };
        if let Err(e) = absorbed {
            // Poison the standing state first: even if the rebuild's full
            // run errors, the next refresh reinstalls instead of absorbing
            // the same delta into half-updated state again.
            tracer.event(
                "refresh_fallback",
                format!("{e}; retained state untrustworthy; rebuilding"),
            );
            self.queries[id.0].poisoned = true;
            let report = self.reinstall(id)?;
            self.db.record_refresh_latency(report.total);
            return Ok(report);
        }

        // Assemble the report from retained state: each op's output, and
        // the maintained violating ids with those of any fallback op.
        let _assemble_span = tracer.span("assemble");
        let q = &mut self.queries[id.0];
        q.cursors = new_cursors;
        merge_sorted(&mut q.violating, new_ids);
        let mut violating_ids = q.violating.clone();
        let mut fallback_ids = Vec::new();
        let ops: Vec<OpResult> = (q.ops.iter().zip(durations))
            .map(|(op, duration)| {
                let output = if op.state.is_fallback() {
                    let output = (full_report.as_ref())
                        .and_then(|r| r.op_output(&op.label))
                        .map(|o| o.to_vec())
                        .unwrap_or_default();
                    if op.kind != OpKind::Select {
                        output
                            .iter()
                            .for_each(|v| collect_rowids(v, &mut fallback_ids));
                    }
                    output
                } else {
                    op.state.output()
                };
                OpResult {
                    label: op.label.clone(),
                    kind: op.kind,
                    output,
                    duration,
                }
            })
            .collect();
        merge_sorted(&mut violating_ids, fallback_ids);

        self.db
            .context()
            .metrics()
            .add_comparisons(eval_ctx.comparisons() - comparisons_before + pair_tests);
        let repairs = collect_repairs(&ops);
        let (hits, misses) = self.db.plan_cache_counters();
        let report = CleaningReport {
            profile: self.db.profile().name.clone(),
            ops,
            violating_ids,
            repairs,
            normalize_stats: Default::default(),
            rewrite_stats: Default::default(),
            total: started.elapsed(),
            metrics: self.db.context().metrics().snapshot(),
            plan_text: entry.plan_text().to_string(),
            decisions: Vec::new(),
            // Expression accounting is not maintained on the incremental
            // path (its per-batch programs live outside the executor);
            // summary() omits the line when the counters are empty.
            exprs: Default::default(),
            plan_cache: PlanCacheStats {
                hit: false,
                hits,
                misses,
            },
            incremental: Some(IncrementalInfo {
                delta_rows,
                incremental_ops,
                fallback_ops,
            }),
            repair: None,
            // The incremental path drives exec datasets directly rather
            // than through the plan executor, so no per-node tree exists;
            // refresh cost shows up in the registry's refresh latencies
            // and in the tracer's `refresh` span instead, split into its
            // `absorb` (delta work) and `assemble` (report work) children.
            profiles: Vec::new(),
            // Refresh failures either fall back to a full run (above) or
            // propagate as `Err`; a refresh report is always a success.
            failure: None,
        };
        self.db.record_refresh_latency(report.total);
        Ok(report)
    }

    /// Full rebuild of a standing query: one batch run, fresh state. Used
    /// when retained state is invalid (replaced table, changed dictionary).
    fn reinstall(&mut self, id: QueryId) -> Result<CleaningReport, EngineError> {
        let sql = self.queries[id.0].sql.clone();
        let mut report = self.db.run(&sql)?;
        let standing = self.build_standing(&sql, &report)?;
        let fallback_ops = report.ops.len();
        self.queries[id.0] = standing;
        report.incremental = Some(IncrementalInfo {
            delta_rows: 0,
            incremental_ops: 0,
            fallback_ops,
        });
        Ok(report)
    }

    /// Recognize the plan shapes of a just-run query and build retained
    /// state from the tables' current contents (indexes only — pair work
    /// already happened in the batch run whose outputs seed the state).
    fn build_standing(
        &mut self,
        sql: &str,
        report: &CleaningReport,
    ) -> Result<Standing, EngineError> {
        let entry = self.db.plan(sql)?;
        let eval_ctx = Arc::clone(entry.eval_ctx());
        let corpus_sampled = entry.corpus_sampled();
        let mut ops = Vec::new();
        let mut violating = Vec::new();
        let mut cursors: HashMap<String, Cursor> = HashMap::new();
        for (plan, dop) in entry.plans().iter().zip(entry.ops()) {
            let baseline = report.op_output(&dop.label).unwrap_or_default();
            let (state, tables) =
                self.build_state(plan, dop.kind, &eval_ctx, baseline.to_vec(), corpus_sampled)?;
            if !state.is_fallback() && dop.kind != OpKind::Select {
                baseline
                    .iter()
                    .for_each(|v| collect_rowids(v, &mut violating));
            }
            for t in &tables {
                if let Some(stored) = self.db.table(t) {
                    cursors.insert(
                        t.clone(),
                        Cursor {
                            lineage: stored.created(),
                            batches_seen: stored.batches().len(),
                        },
                    );
                }
            }
            ops.push(InstalledOp {
                label: dop.label.clone(),
                kind: dop.kind,
                tables,
                state,
            });
        }
        violating.sort_unstable();
        violating.dedup();
        Ok(Standing {
            sql: sql.to_string(),
            entry,
            poisoned: false,
            ops,
            violating,
            cursors,
            dict_gen: self.db.dictionaries_generation(),
        })
    }

    /// Build one operator's state; returns the tables it depends on (the
    /// op's base table first). `corpus_sampled` marks plans whose k-means
    /// centers came from a catalog sample: those blockers re-sample on any
    /// catalog change, so k-means ops cannot keep state and fall back.
    fn build_state(
        &self,
        plan: &Alg,
        kind: OpKind,
        eval_ctx: &cleanm_core::calculus::EvalCtx,
        baseline_output: Vec<Value>,
        corpus_sampled: bool,
    ) -> Result<(OpState, Vec<String>), EngineError> {
        use cleanm_core::calculus::FilterAlgo;
        let exec_err = |e: cleanm_values::Error| {
            EngineError::Exec(cleanm_exec::ExecError::Value(e.to_string()))
        };
        let all_rows = |table: &str| -> Vec<Value> {
            self.db
                .table(table)
                .map(|s| s.iter_rows().cloned().collect())
                .unwrap_or_default()
        };
        let unstable_blocker =
            |algo: &FilterAlgo| corpus_sampled && matches!(algo, FilterAlgo::KMeans { .. });
        let fallback = || Ok((OpState::Fallback, scanned_tables(plan)));
        match kind {
            OpKind::Fd => {
                let Some(shape) = FdPlanShape::from_plan(plan) else {
                    return fallback();
                };
                let mut state = FdState::new(&shape, eval_ctx).map_err(exec_err)?;
                state
                    .absorb(&all_rows(&shape.table), eval_ctx, &mut Vec::new())
                    .map_err(exec_err)?;
                Ok((OpState::Fd(Box::new(state)), vec![shape.table]))
            }
            OpKind::Dedup => {
                let Some(shape) = DedupPlanShape::from_plan(plan) else {
                    return fallback();
                };
                if unstable_blocker(&shape.algo) {
                    return fallback();
                }
                let mut state = DedupState::new(&shape, eval_ctx).map_err(exec_err)?;
                state
                    .index_only(&all_rows(&shape.table), eval_ctx)
                    .map_err(exec_err)?;
                state.seed_outputs(baseline_output);
                Ok((OpState::Dedup(Box::new(state)), vec![shape.table]))
            }
            OpKind::TermValidation => {
                let Some(shape) = TermvalPlanShape::from_plan(plan) else {
                    return fallback();
                };
                if unstable_blocker(&shape.algo) {
                    return fallback();
                }
                let mut state = TermvalState::new(&shape, eval_ctx).map_err(exec_err)?;
                state
                    .index_only(
                        &all_rows(&shape.data.table),
                        &all_rows(&shape.dict.table),
                        eval_ctx,
                    )
                    .map_err(exec_err)?;
                state.seed_outputs(baseline_output);
                Ok((
                    OpState::Termval(Box::new(state)),
                    vec![shape.data.table.clone(), shape.dict.table.clone()],
                ))
            }
            // A DC with an equality conjunct plans as a blocked pair sweep,
            // not a theta join: it keeps no state.
            OpKind::Dc => {
                let Some((mut state, table)) =
                    DcState::from_plan(plan, eval_ctx).map_err(exec_err)?
                else {
                    return fallback();
                };
                state
                    .index_only(&all_rows(&table), eval_ctx)
                    .map_err(exec_err)?;
                state.seed_outputs(baseline_output);
                Ok((OpState::Dc(Box::new(state)), vec![table]))
            }
            OpKind::Select => {
                let Some(mut state) = SelectState::from_plan(plan, eval_ctx).map_err(exec_err)?
                else {
                    return fallback();
                };
                state.seed_outputs(baseline_output);
                Ok((OpState::Select(Box::new(state)), scanned_tables(plan)))
            }
        }
    }
}

/// Every base table a plan scans, once each, in plan order.
fn scanned_tables(plan: &Alg) -> Vec<String> {
    fn walk(plan: &Alg, out: &mut Vec<String>) {
        match plan {
            Alg::Scan { table, .. } => {
                if !out.contains(table) {
                    out.push(table.clone());
                }
            }
            Alg::Select { input, .. }
            | Alg::Reduce { input, .. }
            | Alg::Unnest { input, .. }
            | Alg::Nest { input, .. } => walk(input, out),
            Alg::Join { left, right, .. } | Alg::ThetaJoin { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}
