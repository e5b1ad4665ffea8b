//! The incremental session: standing queries over an append-aware
//! [`CleanDb`].
//!
//! [`IncrementalSession::install`] runs a CleanM query once, takes its
//! plan from [`CleanDb::plan`], and reads each operator's state off its
//! plan ([`crate::state`]). From then on, [`IncrementalSession::refresh`]
//! validates only the rows appended since the last refresh — delta-vs-delta
//! and delta-vs-history — and assembles a [`CleaningReport`] identical to a
//! from-scratch run over the concatenated data. A query with an operator
//! that keeps no state, a re-registered table, a changed dictionary or a
//! failed absorb re-runs in full and rebuilds, counted in
//! `report.incremental`.
//!
//! A refresh costs the delta and the violation count, not the retained
//! output: the violating `__rowid`s are one sorted set the absorbs grow.
//! The tracer splits each `refresh` span into `absorb` (delta work) and
//! `assemble` (report work).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cleanm_core::calculus::desugar::OpKind;
use cleanm_core::engine::{
    collect_repairs, EngineError, IncrementalInfo, OpResult, PlanCacheStats, PlannedQuery,
};
use cleanm_core::{CleanDb, CleaningReport};
use cleanm_values::{Table, Value};

use crate::state::{merge_sorted, OpState, Rows};

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

struct Standing {
    sql: String,
    entry: Arc<PlannedQuery>,
    /// Set when a delta failed to absorb: retained state is half-updated,
    /// so the next refresh reinstalls instead of absorbing again.
    poisoned: bool,
    /// Each op's state, in the order of `entry.ops()`.
    states: Vec<OpState>,
    /// The `__rowid`s in the outputs of the cleaning ops, sorted and
    /// distinct: seeded from the install run's `violating_ids`, then grown
    /// by the records each absorb adds (under appends an output only grows,
    /// so the set only grows).
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
    /// last refresh. The report's outputs, violations and repairs equal a
    /// from-scratch run on the concatenated data; `report.incremental`
    /// records how many operators ran from retained state vs fell back.
    pub fn refresh(&mut self, id: QueryId) -> Result<CleaningReport, EngineError> {
        let started = Instant::now();
        let tracer = Arc::clone(self.db.context().tracer());
        let _refresh_span = tracer.span("refresh");
        // Each refresh reports its own runtime metrics, not a running
        // accumulation since the last batch run.
        self.db.context().metrics().reset();
        // A rebuild's reason becomes a tracer event, so a fleet of standing
        // queries can be audited for *why* refreshes stopped being cheap.
        let q = &self.queries[id.0];
        let rebuild_reason = if q.poisoned {
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
        };
        if let Some(reason) = rebuild_reason {
            tracer.event("refresh_fallback", reason);
            return self.reinstall(id, 0);
        }

        // Gather the delta batches per tracked table.
        let (mut deltas, mut delta_rows) = (Rows::new(), 0);
        for (t, cur) in &mut self.queries[id.0].cursors {
            let batches = self.db.table(t).expect("checked above").batches();
            let rows: Vec<Value> = (batches[cur.batches_seen..].iter())
                .flat_map(|b| b.iter().cloned())
                .collect();
            delta_rows += rows.len();
            cur.batches_seen = batches.len();
            deltas.insert(t.clone(), rows);
        }
        // An op without maintainable state re-runs the whole query, which
        // rebuilds every op's state.
        let q = &mut self.queries[id.0];
        let fallback_ops = (q.states.iter())
            .filter(|s| matches!(s, OpState::Fallback))
            .count();
        if fallback_ops > 0 {
            let reason = format!("{fallback_ops} op(s) without maintainable state; full re-run");
            tracer.event("refresh_fallback", reason);
            return self.reinstall(id, delta_rows);
        }

        let eval_ctx = Arc::clone(q.entry.eval_ctx());
        let comparisons_before = eval_ctx.comparisons();
        let ctx = Arc::clone(self.db.context());
        let mut pair_tests = 0;
        let mut durations = Vec::with_capacity(q.states.len());
        let mut new_ids = Vec::new();
        // A panic, an injected fault or a delta row that fails to evaluate
        // leaves retained state half-updated: all three poison it and
        // rebuild from a full run, which reports the error the batch engine
        // would (or succeeds if only our state was stale).
        let absorbed = {
            let _absorb_span = tracer.span("absorb");
            ctx.catch_driver("incremental refresh", || {
                ctx.fault_visit(cleanm_exec::FaultSite::IncrRefresh)?;
                for (state, op) in q.states.iter_mut().zip(q.entry.ops()) {
                    let op_start = Instant::now();
                    // A SELECT's rows are not violations.
                    let mut discarded = Vec::new();
                    let select = op.kind == OpKind::Select;
                    let ids = if select { &mut discarded } else { &mut new_ids };
                    pair_tests += (state.absorb(&deltas, &eval_ctx, ids)).map_err(|_| {
                        cleanm_exec::ExecError::Other("delta row failed to evaluate".into())
                    })?;
                    durations.push(op_start.elapsed());
                }
                Ok(())
            })
        };
        if let Err(e) = absorbed {
            // Poison the standing state first: even if the rebuild's full
            // run errors, the next refresh reinstalls instead of absorbing
            // the same delta into half-updated state again.
            let reason = format!("{e}; retained state untrustworthy; rebuilding");
            tracer.event("refresh_fallback", reason);
            self.queries[id.0].poisoned = true;
            return self.reinstall(id, 0);
        }

        // Assemble the report from retained state.
        let _assemble_span = tracer.span("assemble");
        merge_sorted(&mut q.violating, new_ids);
        let ops: Vec<OpResult> = (q.states.iter().zip(q.entry.ops()).zip(durations))
            .map(|((state, op), duration)| OpResult {
                label: op.label.clone(),
                kind: op.kind,
                output: state.output().into(),
                duration,
            })
            .collect();
        self.db
            .context()
            .metrics()
            .add_comparisons(eval_ctx.comparisons() - comparisons_before + pair_tests);
        let repairs = collect_repairs(&ops);
        let (hits, misses) = self.db.plan_cache_counters();
        let report = CleaningReport {
            profile: self.db.profile().name.clone(),
            incremental: Some(IncrementalInfo {
                delta_rows,
                incremental_ops: ops.len(),
                fallback_ops: 0,
            }),
            ops,
            violating_ids: q.violating.clone(),
            repairs,
            normalize_stats: Default::default(),
            rewrite_stats: Default::default(),
            total: started.elapsed(),
            metrics: self.db.context().metrics().snapshot(),
            plan_text: q.entry.plan_text().to_string(),
            // The incremental path runs no plan executor: no decisions,
            // expression counters or per-node profiles (the tracer's
            // `refresh` span splits the cost into `absorb` and `assemble`).
            decisions: Vec::new(),
            exprs: Default::default(),
            plan_cache: PlanCacheStats {
                hit: false,
                hits,
                misses,
            },
            repair: None,
            profiles: Vec::new(),
            // A failed refresh rebuilds (above) or returns `Err`.
            failure: None,
        };
        self.db.record_refresh_latency(report.total);
        Ok(report)
    }

    /// Full rebuild of a standing query: one batch run, fresh state. Used
    /// when retained state is invalid (replaced table, changed dictionary,
    /// failed absorb) or an op keeps none. `delta_rows` are the rows the run
    /// takes in since the last refresh, where that is known.
    fn reinstall(&mut self, id: QueryId, delta_rows: usize) -> Result<CleaningReport, EngineError> {
        let sql = self.queries[id.0].sql.clone();
        let mut report = self.db.run(&sql)?;
        self.queries[id.0] = self.build_standing(&sql, &report)?;
        report.incremental = Some(IncrementalInfo {
            delta_rows,
            incremental_ops: 0,
            fallback_ops: report.ops.len(),
        });
        self.db.record_refresh_latency(report.total);
        Ok(report)
    }

    /// Build a just-run query's retained state from the tables' current
    /// contents and the run's outputs.
    fn build_standing(
        &mut self,
        sql: &str,
        report: &CleaningReport,
    ) -> Result<Standing, EngineError> {
        let entry = self.db.plan(sql)?;
        let eval_ctx = Arc::clone(entry.eval_ctx());
        let corpus_sampled = entry.corpus_sampled();
        let mut states = Vec::new();
        let mut cursors: HashMap<String, Cursor> = HashMap::new();
        for (plan, dop) in entry.plans().iter().zip(entry.ops()) {
            let baseline = report.op_output(&dop.label).unwrap_or_default();
            let tables = plan.scanned_tables();
            let history = || {
                let rows = |t: &String| self.db.table(t).map(|s| s.iter_rows().cloned().collect());
                (tables.iter())
                    .map(|t| (t.clone(), rows(t).unwrap_or_default()))
                    .collect()
            };
            let state = OpState::install(plan, &eval_ctx, corpus_sampled, baseline, history)
                .map_err(|e| EngineError::Exec(cleanm_exec::ExecError::Value(e.to_string())))?;
            for (t, stored) in tables.iter().filter_map(|t| Some((t, self.db.table(t)?))) {
                let (lineage, batches_seen) = (stored.created(), stored.batches().len());
                cursors.insert(
                    t.clone(),
                    Cursor {
                        lineage,
                        batches_seen,
                    },
                );
            }
            states.push(state);
        }
        Ok(Standing {
            sql: sql.to_string(),
            entry,
            poisoned: false,
            states,
            violating: report.violating_ids.clone(),
            cursors,
            dict_gen: self.db.dictionaries_generation(),
        })
    }
}
