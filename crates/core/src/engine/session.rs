//! The CleanDb session: register/append tables, run CleanM queries.
//!
//! Beyond the batch pipeline (parse → desugar → normalize → lower → execute)
//! the session maintains two cross-run structures:
//!
//! * an **append-aware catalog** ([`StoredTable`]): `append` adds row
//!   batches as new partitions instead of replacing the table, and bumps
//!   the table's epoch;
//! * a **plan cache** keyed by the query text (under the session's profile
//!   and seed) and guarded by the epochs of every table the plan
//!   touches: an exact repeat over unchanged tables skips parsing,
//!   lowering, sharing rewrites and blocker preparation, with hits/misses
//!   surfaced in the [`CleaningReport`]. [`CleanDb::plan`] hands the same
//!   entries to incremental and repair consumers; row programs compile per
//!   run.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use cleanm_exec::{ExecContext, ExecError};
use cleanm_values::{intern, intern_all, Column, ColumnBatch, Row, Table, Value};

use crate::algebra::{lower_op_with, rewrite_shared, Alg, RewriteStats};
use crate::calculus::desugar::{desugar_query, DesugaredOp, OpKind, ROWID_FIELD};
use crate::calculus::{normalize, CalcExpr, EvalCtx, Func, NormalizeStats};
use crate::lang::parse_query;
use crate::physical::{EngineProfile, Executor, QueryProfile};

use super::output::distinct_ids;
use super::registry::MetricsRegistry;
use super::report::{CleaningReport, ExprStats, OpResult, PlanCacheStats, Repair};
use super::storage::StoredTable;

/// Engine-level errors.
#[derive(Debug)]
pub enum EngineError {
    /// Parsing / desugaring / lowering failed.
    Plan(cleanm_values::Error),
    /// Execution failed (including work-budget exhaustion).
    Exec(ExecError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Plan(e) => write!(f, "planning error: {e}"),
            EngineError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<cleanm_values::Error> for EngineError {
    fn from(e: cleanm_values::Error) -> Self {
        EngineError::Plan(e)
    }
}
impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        EngineError::Exec(e)
    }
}

/// A fully planned query, cached across runs by its text: the normalized
/// operator comprehensions, their (possibly shared) algebra plans, and the
/// prepared evaluation context (blockers). [`CleanDb::plan`] is the only
/// way to get one; the executor compiles its row programs on every run.
pub struct PlannedQuery {
    ops: Vec<DesugaredOp>,
    plans: Vec<Arc<Alg>>,
    plan_text: String,
    normalize_stats: NormalizeStats,
    rewrite_stats: RewriteStats,
    eval_ctx: Arc<EvalCtx>,
    /// Epoch guard: every table (and dictionary) whose state the plan was
    /// built against, with its epoch at plan time (`None` = absent then).
    guard: Vec<(String, Option<u64>)>,
    dict_gen: u64,
    /// Set when the plan's k-means blockers were seeded from a *sampled*
    /// corpus (no dictionary registered): the corpus drew from every table
    /// in the catalog, so the entry is only valid while the whole catalog
    /// is at this epoch counter.
    sampled_corpus_epoch: Option<u64>,
}

impl PlannedQuery {
    pub fn ops(&self) -> &[DesugaredOp] {
        &self.ops
    }

    pub fn plans(&self) -> &[Arc<Alg>] {
        &self.plans
    }

    pub fn plan_text(&self) -> &str {
        &self.plan_text
    }

    /// The evaluation context (tables/blockers) the plans were compiled
    /// against — incremental consumers compile their own delta programs
    /// against the same context so blocking keys match the batch run.
    pub fn eval_ctx(&self) -> &Arc<EvalCtx> {
        &self.eval_ctx
    }

    /// Dictionary generation this plan's blockers were built against.
    pub fn dict_gen(&self) -> u64 {
        self.dict_gen
    }

    /// Were this plan's k-means centers sampled from the catalog (no
    /// dictionary registered at plan time)? Such blockers change whenever
    /// the catalog does, so incremental state built on them cannot survive
    /// appends.
    pub fn corpus_sampled(&self) -> bool {
        self.sampled_corpus_epoch.is_some()
    }
}

/// Bounded plan cache: query text (under the session's profile and seed)
/// → planned query, cleared wholesale at [`PLAN_CACHE_CAP`] entries.
/// `hits` / `misses` count [`CleanDb::run`]'s lookups only.
#[derive(Default)]
struct PlanCache {
    entries: HashMap<String, Arc<PlannedQuery>>,
    hits: u64,
    misses: u64,
}

const PLAN_CACHE_CAP: usize = 128;

/// A CleanDB session: a catalog of registered tables plus the engine
/// profile and runtime context queries execute under.
///
/// # Example
///
/// ```
/// use cleanm_core::{CleanDb, EngineProfile};
/// use cleanm_values::{DataType, Row, Schema, Table, Value};
///
/// let schema = Schema::of([("address", DataType::Str), ("nationkey", DataType::Int)]);
/// let rows = vec![
///     Row::new(vec![Value::str("a st"), Value::Int(1)]),
///     Row::new(vec![Value::str("a st"), Value::Int(2)]),
///     Row::new(vec![Value::str("b st"), Value::Int(3)]),
/// ];
/// let mut db = CleanDb::new(EngineProfile::clean_db());
/// db.register("customer", Table::new(schema, rows));
///
/// // One FD check: address → nationkey. The two `a st` rows disagree.
/// let report = db.run("SELECT * FROM customer c FD(c.address, c.nationkey)").unwrap();
/// assert_eq!(report.violations(), 2);
/// ```
pub struct CleanDb {
    ctx: Arc<ExecContext>,
    profile: EngineProfile,
    tables: HashMap<String, StoredTable>,
    /// Dictionary tables (registered via [`CleanDb::register_dictionary`]):
    /// their terms also serve as the k-means center corpus, as in §8.1.
    /// Name-ordered, so the corpus does not depend on hash order.
    dictionaries: BTreeMap<String, Arc<Vec<String>>>,
    seed: u64,
    /// Session-global epoch counter: every catalog mutation takes the next
    /// value, so epochs never repeat across re-registrations.
    epoch_counter: u64,
    /// Bumped on dictionary registration (dictionaries feed blocker corpora
    /// even when a query does not reference them by name).
    dict_gen: u64,
    plan_cache: PlanCache,
    /// Session-wide aggregates across queries (latency percentiles, cache
    /// hit ratios, shuffle totals) — fed after every run.
    registry: MetricsRegistry,
    /// When set (inside [`CleanDb::run_with_limits`]), runtime failures
    /// become a [`FailureInfo`]-bearing report instead of an `Err`.
    ///
    /// [`FailureInfo`]: super::report::FailureInfo
    capture_failures: bool,
}

/// Per-run resource limits for [`CleanDb::run_with_limits`]. `None` fields
/// leave the corresponding limit unarmed; the session restores the
/// context's unarmed state after the run either way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunLimits {
    /// Wall-clock deadline for the run; past it, cooperative check points
    /// fail with [`ExecError::DeadlineExceeded`].
    pub timeout: Option<std::time::Duration>,
    /// Work budget in units (≈ one pairwise comparison each); plans
    /// needing more fail with [`ExecError::BudgetExceeded`] — the paper's
    /// "unable to terminate" outcome.
    pub max_work: Option<u64>,
    /// How many times the pool re-runs a panicked partition task before
    /// failing the query (default 0: fail on first panic).
    pub max_retries: Option<u32>,
}

impl CleanDb {
    /// A session on a local context sized to the machine.
    pub fn new(profile: EngineProfile) -> Self {
        CleanDb::with_context(profile, ExecContext::local())
    }

    /// A session on an explicit runtime context (worker/partition counts,
    /// work budget).
    pub fn with_context(profile: EngineProfile, ctx: Arc<ExecContext>) -> Self {
        CleanDb {
            ctx,
            profile,
            tables: HashMap::new(),
            dictionaries: BTreeMap::new(),
            seed: 42,
            epoch_counter: 0,
            dict_gen: 0,
            plan_cache: PlanCache::default(),
            registry: MetricsRegistry::default(),
            capture_failures: false,
        }
    }

    /// A handle that cancels whatever query is (or will be) running on
    /// this session's context, from any thread. Cancellation is sticky;
    /// [`CleanDb::run_with_limits`] clears it after each run so the
    /// session stays reusable.
    pub fn cancel_handle(&self) -> cleanm_exec::CancelToken {
        self.ctx.cancel_token()
    }

    /// Turn end-to-end tracing on or off for this session. On, every run
    /// records layer spans (parse → normalize → plan → execute) into the
    /// context's [`Tracer`](cleanm_trace::Tracer) and attaches per-operator
    /// [`QueryProfile`] trees to its report ([`CleaningReport::profiles`],
    /// rendered by [`CleaningReport::profile_tree`]). Off (the default),
    /// the only cost left on the query path is one atomic load per
    /// instrumented site.
    pub fn set_tracing(&mut self, on: bool) {
        self.ctx.tracer().set_enabled(on);
    }

    /// Is tracing currently enabled for this session?
    pub fn tracing(&self) -> bool {
        self.ctx.tracer().is_enabled()
    }

    /// The session-wide metrics registry: latency percentiles, cache hit
    /// ratios, shuffle totals, and violation counts aggregated across every
    /// query this session ran.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Record an incremental-refresh latency into the session registry
    /// (called by incremental sessions that wrap this one).
    pub fn record_refresh_latency(&mut self, wall: std::time::Duration) {
        self.registry.record_refresh(wall);
    }

    /// Run a query with tracing forced on and return its EXPLAIN
    /// ANALYZE-style rendering: one profile tree per cleaning operator with
    /// measured rows, timings, shuffle volume, imbalance, and
    /// compiled/fused flags per node. The session's tracing flag is
    /// restored afterwards; the query's results land in the plan cache and
    /// registry exactly as a normal [`CleanDb::run`] would.
    pub fn explain(&mut self, sql: &str) -> Result<String, EngineError> {
        let was = self.tracing();
        self.set_tracing(true);
        let result = self.run(sql);
        self.set_tracing(was);
        Ok(result?.profile_tree())
    }

    /// Seed for randomized blockers (k-means center sampling).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    pub fn context(&self) -> &Arc<ExecContext> {
        &self.ctx
    }

    /// Generation counter for dictionary registrations: blocker corpora
    /// come from dictionaries, so cached plans (and incremental state built
    /// on them) are only valid while this stays put.
    pub fn dictionaries_generation(&self) -> u64 {
        self.dict_gen
    }

    /// Session-cumulative plan-cache counters `(hits, misses)`.
    pub fn plan_cache_counters(&self) -> (u64, u64) {
        (self.plan_cache.hits, self.plan_cache.misses)
    }

    fn next_epoch(&mut self) -> u64 {
        self.epoch_counter += 1;
        self.epoch_counter
    }

    /// Register a relational table. Rows become structs carrying a hidden
    /// `__rowid` identity used for pair enumeration and violation
    /// reporting; field names are interned so a million-row registration
    /// shares one allocation per column name.
    pub fn register(&mut self, name: &str, table: Table) {
        let rows = rows_to_structs(&table, 0);
        self.register_values(name, rows);
    }

    /// Register a table directly from a typed [`ColumnBatch`] — the
    /// column-first ingest path (`cleanm_formats::colbin::decode_columnar`,
    /// `cleanm_formats::csv::read_str_columnar`). The batch, extended with
    /// the `__rowid` column, pre-seeds the table's pivot so
    /// vectorized scans skip the row→column pivot entirely; row structs for
    /// the row-at-a-time operators are materialized from the same columns,
    /// so both views are cell-identical.
    pub fn register_columnar(&mut self, name: &str, batch: ColumnBatch) {
        let mut names: Vec<Arc<str>> = Vec::with_capacity(batch.names().len() + 1);
        names.push(intern(ROWID_FIELD));
        names.extend(batch.names().iter().cloned());
        let mut cols: Vec<Column> = Vec::with_capacity(names.len());
        cols.push(Column::Int {
            data: (0..batch.len() as i64).collect(),
            nulls: None,
        });
        cols.extend(batch.columns().iter().cloned());
        let stored = ColumnBatch::from_columns(names, cols)
            .expect("__rowid column has the batch's row count");
        let rows: Vec<Value> = (0..stored.len()).map(|i| stored.row(i)).collect();
        self.register_values(name, rows);
        if let Some(t) = self.tables.get(name) {
            t.set_columnar(Arc::new(stored));
        }
    }

    /// Register rows that are already structs (must contain `__rowid`).
    pub fn register_values(&mut self, name: &str, rows: Vec<Value>) {
        let epoch = self.next_epoch();
        self.tables
            .insert(name.to_string(), StoredTable::new(rows, epoch));
    }

    /// Append a batch of rows to a registered table as **new partitions**:
    /// history batches are untouched and the table's epoch is bumped. Row
    /// ids continue from the current row count.
    ///
    /// The batch must carry the table's columns: one whose columns differ
    /// from the stored rows' is a [`EngineError::Plan`] naming the missing
    /// and extra columns, and leaves the table as it was; one with the same
    /// columns in another order is stored in the table's order, so the
    /// table still reads by column. An empty table takes any columns.
    pub fn append(&mut self, name: &str, table: Table) -> Result<(), EngineError> {
        let stored = self.tables.get(name).ok_or_else(|| unknown_table(name))?;
        let start = stored.len() as i64;
        let table = match stored.iter_rows().next().map(Value::as_struct) {
            Some(Ok(layout)) => in_layout(name, layout, table)?,
            _ => table,
        };
        let rows = rows_to_structs(&table, start);
        self.append_values(name, rows)
    }

    /// [`CleanDb::append`] for rows that are already structs (must contain
    /// `__rowid`; ids must continue the table's sequence for pair
    /// enumeration to stay symmetric-free).
    pub fn append_values(&mut self, name: &str, rows: Vec<Value>) -> Result<(), EngineError> {
        let epoch = self.next_epoch();
        let stored = self
            .tables
            .get_mut(name)
            .ok_or_else(|| unknown_table(name))?;
        stored.append(rows, epoch);
        Ok(())
    }

    /// Register a dictionary for term validation: a single-column table
    /// exposing each entry under `term`.
    pub fn register_dictionary(&mut self, name: &str, terms: Vec<String>) {
        let rowid_name = intern(ROWID_FIELD);
        let term_name = intern("term");
        let rows: Vec<Value> = terms
            .iter()
            .enumerate()
            .map(|(i, t)| {
                Value::Struct(
                    vec![
                        (Arc::clone(&rowid_name), Value::Int(i as i64)),
                        (Arc::clone(&term_name), Value::str(t)),
                    ]
                    .into(),
                )
            })
            .collect();
        self.register_values(name, rows);
        self.dictionaries.insert(name.to_string(), Arc::new(terms));
        self.dict_gen += 1;
    }

    /// Apply a repair plan: rewrite the fixed cells, delete the rows a
    /// DEDUP merge collapsed away, and re-register each touched table **in
    /// place** through the columnar [`CleanDb::register_columnar`] path
    /// (rows that no longer share a uniform columnar layout fall back to
    /// the row path). Re-registration bumps the table's lineage, so
    /// standing queries in `cleanm-incr` notice on their next refresh and
    /// re-validate the repaired table from scratch — a correctly repaired
    /// table re-cleans with zero violations.
    ///
    /// Application is guarded per cell: a fix whose `original` no longer
    /// matches the live value (the table changed between detection and
    /// application) is counted as stale and skipped, never clobbered. Row
    /// ids are reassigned sequentially after drops, restoring the
    /// `__rowid == index` invariant.
    ///
    /// Application is **all-or-nothing across tables**: every table's
    /// repaired row set is staged first, and the catalog is only mutated
    /// once all of them built successfully. A failure mid-plan (a fault
    /// injected during batch rebuild, a malformed fix) leaves every table
    /// exactly as it was.
    pub fn apply_repairs(
        &mut self,
        section: &super::repair::RepairSection,
    ) -> Result<super::repair::AppliedRepairs, EngineError> {
        let ctx = Arc::clone(&self.ctx);
        let _span = ctx.tracer().span("apply_repairs");
        // Group the plan by table; BTreeMap keeps the outcome table-ordered.
        let mut by_table: BTreeMap<&str, (Vec<&super::repair::Fix>, HashSet<i64>)> =
            BTreeMap::new();
        for f in &section.fixes {
            by_table.entry(f.table.as_str()).or_default().0.push(f);
        }
        for (t, id) in &section.dropped_rows {
            by_table.entry(t.as_str()).or_default().1.insert(*id);
        }
        // Stage phase: build every table's repaired row set without
        // touching the catalog. Either registration path below is
        // infallible, so a staged plan always commits in full.
        enum Staged {
            Columnar(ColumnBatch),
            Rows(Vec<Value>),
        }
        let mut out = super::repair::AppliedRepairs::default();
        let mut staged: Vec<(String, Staged)> = Vec::new();
        for (table, (fixes, drops)) in by_table {
            let stored = self.tables.get(table).ok_or_else(|| unknown_table(table))?;
            let mut rows: Vec<Value> = stored.merged_rows().as_ref().clone();
            let mut cells_changed = 0usize;
            let mut stale = 0usize;
            for fix in fixes {
                // `__rowid == index` for registered tables; a fix pointing
                // past the end (row deleted by an earlier application) is
                // stale, not an error.
                let Some(row) = usize::try_from(fix.row_id).ok().and_then(|i| rows.get(i)) else {
                    stale += 1;
                    continue;
                };
                match row.field(&fix.column) {
                    Ok(live) if *live == fix.original => {
                        let patched = row.with_field(&fix.column, fix.repaired.clone())?;
                        rows[fix.row_id as usize] = patched;
                        cells_changed += 1;
                    }
                    _ => stale += 1,
                }
            }
            let before = rows.len();
            if !drops.is_empty() {
                rows.retain(|r| {
                    r.field(ROWID_FIELD)
                        .ok()
                        .and_then(|v| v.as_int().ok())
                        .is_none_or(|id| !drops.contains(&id))
                });
            }
            let rows_dropped = before - rows.len();
            // Re-register through the columnar path: strip the stale row
            // ids (register_columnar re-derives them sequentially) and
            // rebuild the typed batch so vectorized scans see the repaired
            // cells without a row→column pivot.
            let stripped: Result<Vec<Value>, _> =
                rows.iter().map(|r| r.without_field(ROWID_FIELD)).collect();
            let stripped = stripped?;
            let rows_after = stripped.len();
            let reg = ctx.catch_driver("repair batch rebuild", || {
                ctx.fault_visit(cleanm_exec::FaultSite::Columnarize)?;
                match ColumnBatch::from_rows(&stripped) {
                    Some(batch) => Ok(Staged::Columnar(batch)),
                    None => {
                        // Non-uniform layouts (mixed schemas within one
                        // table) cannot columnarize; re-id the rows and
                        // take the row path instead.
                        let rowid_name = intern(ROWID_FIELD);
                        let reided: Result<Vec<Value>, cleanm_values::Error> = stripped
                            .iter()
                            .enumerate()
                            .map(|(i, r)| {
                                let mut fields =
                                    vec![(Arc::clone(&rowid_name), Value::Int(i as i64))];
                                fields.extend(r.as_struct()?.iter().cloned());
                                Ok(Value::Struct(fields.into()))
                            })
                            .collect();
                        Ok(Staged::Rows(reided.map_err(|e| {
                            cleanm_exec::ExecError::Value(e.to_string())
                        })?))
                    }
                }
            })?;
            staged.push((table.to_string(), reg));
            ctx.tracer().event(
                "table_repaired",
                format!(
                    "{table}: {cells_changed} cell(s) changed, {rows_dropped} row(s) dropped, \
                     {stale} stale"
                ),
            );
            out.tables.push(super::repair::AppliedTable {
                table: table.to_string(),
                cells_changed,
                rows_dropped,
                stale,
                rows_after,
            });
        }
        // Commit phase: every table staged — mutate the catalog.
        for (table, reg) in staged {
            match reg {
                Staged::Columnar(batch) => self.register_columnar(&table, batch),
                Staged::Rows(rows) => self.register_values(&table, rows),
            }
        }
        self.registry.record_repair_applied(&out);
        Ok(out)
    }

    /// Fold a planned repair section into the session registry (per-rule
    /// fix counts, planning latency). Called by the repair engine in
    /// `cleanm-repair` after planning; application counters are recorded
    /// by [`CleanDb::apply_repairs`] itself.
    pub fn record_repair_plan(&mut self, section: &super::repair::RepairSection) {
        self.registry.record_repair_plan(section);
    }

    /// The stored table (batches + epochs), if registered.
    pub fn table(&self, name: &str) -> Option<&StoredTable> {
        self.tables.get(name)
    }

    /// All rows of a table as one contiguous shared vector (concatenated
    /// lazily after appends).
    pub fn table_rows(&self, name: &str) -> Option<Arc<Vec<Value>>> {
        self.tables.get(name).map(|t| t.merged_rows())
    }

    /// Parse and execute a CleanM query. An exact textual repeat whose
    /// tables are at the same epochs skips parsing and planning entirely
    /// (plan-cache fast path).
    pub fn run(&mut self, sql: &str) -> Result<CleaningReport, EngineError> {
        let (entry, hit) = self.lookup_or_plan(sql)?;
        if hit {
            self.ctx
                .tracer()
                .event("plan_cache_text_hit", "parse + plan skipped");
        }
        self.execute_planned(&entry, hit)
    }

    /// Run a query under per-run resource limits, reporting runtime
    /// failures as **data** instead of an error: cancellation, an expired
    /// deadline, an exhausted work budget, an isolated panic, or an
    /// injected fault all yield `Ok(report)` with
    /// [`CleaningReport::failure`] filled in — the completed operators,
    /// partial-progress counters, and metrics survive. Only planning
    /// errors (bad SQL, unknown tables) still return `Err`.
    ///
    /// The limits are armed for this run only: the deadline, budget, and
    /// retry bound are restored (and any sticky cancellation cleared)
    /// before returning, so the session — and its worker pool — stay
    /// reusable. A `max_work` limit overrides a context-level budget for
    /// the duration of the run.
    pub fn run_with_limits(
        &mut self,
        sql: &str,
        limits: RunLimits,
    ) -> Result<CleaningReport, EngineError> {
        if let Some(t) = limits.timeout {
            self.ctx.set_deadline(t);
        }
        if let Some(w) = limits.max_work {
            self.ctx.limit_budget(w);
        }
        if let Some(r) = limits.max_retries {
            self.ctx.set_retry_max(r);
        }
        self.capture_failures = true;
        let result = self.run(sql);
        self.capture_failures = false;
        // Disarm everything the run armed — including a sticky external
        // cancellation — so the next query runs clean.
        if limits.timeout.is_some() {
            self.ctx.clear_deadline();
        }
        if limits.max_work.is_some() {
            self.ctx.unlimit_budget();
        }
        if limits.max_retries.is_some() {
            self.ctx.set_retry_max(0);
        }
        self.ctx.reset_cancel();
        result
    }

    /// The planned query for `sql`: the cached entry while it is still
    /// valid, else a fresh plan, cached under the query text. This is how
    /// the incremental engine reads a query's operators, plans and
    /// evaluation context (the repair engine reads each operator from its
    /// clause instead). The plan-cache counters count runs, so `plan` does
    /// not move them.
    pub fn plan(&mut self, sql: &str) -> Result<Arc<PlannedQuery>, EngineError> {
        self.lookup_or_plan(sql).map(|(entry, _)| entry)
    }

    fn text_key(&self, sql: &str) -> String {
        format!("{}\u{1f}{}\u{1f}{sql}", self.profile.name, self.seed)
    }

    /// Is a cached plan still safe to run? Every table it was planned
    /// against must be at the same epoch (appends and re-registrations both
    /// move epochs), no dictionary may have been (re)registered since
    /// (dictionaries feed blocker corpora), and a plan whose k-means
    /// corpus was *sampled from the catalog* requires the whole catalog
    /// untouched.
    fn entry_valid(&self, entry: &PlannedQuery) -> bool {
        entry.dict_gen == self.dict_gen
            && entry
                .sampled_corpus_epoch
                .map(|e| e == self.epoch_counter)
                .unwrap_or(true)
            && entry
                .guard
                .iter()
                .all(|(t, e)| self.tables.get(t).map(StoredTable::epoch) == *e)
    }

    /// `sql`'s valid cached entry (`true`), or a fresh plan now cached in
    /// place of any stale one (`false`).
    fn lookup_or_plan(&mut self, sql: &str) -> Result<(Arc<PlannedQuery>, bool), EngineError> {
        let key = self.text_key(sql);
        if let Some(entry) = self.plan_cache.entries.get(&key) {
            if self.entry_valid(entry) {
                return Ok((Arc::clone(entry), true));
            }
        }
        let entry = Arc::new(self.plan_fresh(sql)?);
        if self.plan_cache.entries.len() >= PLAN_CACHE_CAP {
            self.plan_cache.entries.clear();
        }
        self.plan_cache.entries.insert(key, Arc::clone(&entry));
        Ok((entry, false))
    }

    /// Levels 1–2: parse, desugar, normalize, then lower and share.
    fn plan_fresh(&self, sql: &str) -> Result<PlannedQuery, EngineError> {
        let t = Instant::now();
        let query = parse_query(sql)?;
        self.ctx.tracer().record_complete("parse", t.elapsed());

        // Level 1a: Monoid Rewriter (desugar).
        let t = Instant::now();
        let dq = desugar_query(&query, self.seed)?;
        self.ctx.tracer().record_complete("desugar", t.elapsed());

        // Level 1b: Monoid Optimizer (normalization).
        let t = Instant::now();
        let mut normalize_stats = NormalizeStats::default();
        let mut normalized: Vec<DesugaredOp> = Vec::with_capacity(dq.ops.len());
        for op in &dq.ops {
            let (comp, stats) = normalize(&op.comp);
            normalize_stats.beta_reductions += stats.beta_reductions;
            normalize_stats.generators_flattened += stats.generators_flattened;
            normalize_stats.ifs_split += stats.ifs_split;
            normalize_stats.exists_unnested += stats.exists_unnested;
            normalize_stats.filters_pushed += stats.filters_pushed;
            normalize_stats.simplifications += stats.simplifications;
            normalized.push(DesugaredOp {
                label: op.label.clone(),
                comp,
                kind: op.kind,
            });
        }

        self.ctx.tracer().record_complete("normalize", t.elapsed());

        // Level 2: lowering + sharing rewrite. A unified planner pushes
        // single-table filters below the theta joins and runs common
        // sub-plans once; an operator-at-a-time one plans each operator
        // as its system would run it alone.
        let t = Instant::now();
        let unified = self.profile.planner.unified();
        let mut plans: Vec<Arc<Alg>> = Vec::with_capacity(normalized.len());
        for op in &normalized {
            plans.push(lower_op_with(&op.comp, unified)?);
        }
        let (plans, rewrite_stats) = if unified {
            rewrite_shared(&plans)
        } else {
            (plans, RewriteStats::default())
        };
        let plan_text: String = plans
            .iter()
            .zip(&normalized)
            .map(|(p, op)| format!("-- {}\n{}", op.label, p.explain()))
            .collect();

        let mut guard_names = referenced_tables(&normalized);
        guard_names.extend(self.dictionaries.keys().cloned());
        let mut guard: Vec<(String, Option<u64>)> = guard_names
            .into_iter()
            .map(|t| {
                let e = self.tables.get(&t).map(StoredTable::epoch);
                (t, e)
            })
            .collect();
        guard.sort();

        // K-means blockers with no registered dictionary sample their
        // center corpus from the whole catalog: such plans depend on every
        // table, not just the referenced ones.
        let sampled_corpus_epoch = (self.dictionaries.is_empty()
            && normalized.iter().any(uses_kmeans_blocker))
        .then_some(self.epoch_counter);

        let eval_ctx = self.build_eval_ctx(&normalized);
        let entry = PlannedQuery {
            ops: normalized,
            plans,
            plan_text,
            normalize_stats,
            rewrite_stats,
            eval_ctx,
            guard,
            dict_gen: self.dict_gen,
            sampled_corpus_epoch,
        };
        self.ctx.tracer().record_complete("plan", t.elapsed());
        Ok(entry)
    }

    /// Level 3: physical execution of a planned query.
    fn execute_planned(
        &mut self,
        entry: &Arc<PlannedQuery>,
        hit: bool,
    ) -> Result<CleaningReport, EngineError> {
        let started = Instant::now();
        self.ctx.metrics().reset();
        if hit {
            self.plan_cache.hits += 1;
        } else {
            self.plan_cache.misses += 1;
        }

        // Cached entries accumulate comparison counts across runs; charge
        // only this run's delta into the metrics.
        let comparisons_before = entry.eval_ctx.comparisons();
        let traced = self.ctx.tracer().is_enabled();

        let mut executor = Executor::new(
            Arc::clone(&self.ctx),
            self.profile.clone(),
            &self.tables,
            Arc::clone(&entry.eval_ctx),
        );
        executor.register_plans(&entry.plans);
        executor.set_profiling(traced);
        let mut ops: Vec<OpResult> = Vec::with_capacity(entry.plans.len());
        let mut profiles: Vec<QueryProfile> =
            Vec::with_capacity(if traced { entry.plans.len() } else { 0 });
        let exec_span = self.ctx.tracer().span("execute");
        // First runtime error stops the loop; completed ops stay in `ops`
        // as partial progress for the failure report.
        let mut failure: Option<(Option<String>, ExecError)> = None;
        for (plan, op) in entry.plans.iter().zip(&entry.ops) {
            let op_start = Instant::now();
            let output = match executor.run_reduce(plan) {
                Ok(output) => output,
                Err(e) => {
                    self.ctx
                        .tracer()
                        .event("query_failed", format!("{}: {e}", op.label));
                    failure = Some((Some(op.label.clone()), e));
                    break;
                }
            };
            if traced {
                if let Some(root) = executor.take_profile_root() {
                    profiles.push(QueryProfile {
                        op: op.label.clone(),
                        root,
                    });
                }
            }
            ops.push(OpResult {
                label: op.label.clone(),
                kind: op.kind,
                output,
                duration: op_start.elapsed(),
            });
        }
        drop(exec_span);
        let decisions = executor.decisions.clone();
        let exprs = ExprStats {
            compiled: executor.compiled_exprs,
            interpreted: 0,
            fused_selects: executor.fused_selects,
            vectorized_rows: executor.vectorized_rows,
        };
        self.ctx
            .metrics()
            .add_comparisons(entry.eval_ctx.comparisons() - comparisons_before);

        // Each op's distinct row ids, read once — off the rows a pair route
        // kept, or the ids a route handed over, without building records —
        // for the combination and the registry both.
        let op_ids: Vec<Vec<i64>> = ops.iter().map(|op| op.output.rowids()).collect();
        let counts: Vec<(&'static str, u64)> = (ops.iter().zip(&op_ids))
            .map(|(op, ids)| (op.kind.name(), ids.len() as u64))
            .collect();
        // Combine per-operator violations (§4.4 outer-join semantics). A
        // runtime error here (cancellation racing the combine) becomes the
        // run's failure too.
        let violating_ids = if failure.is_none() {
            match self.combine_violations(&ops, &op_ids) {
                Ok(ids) => ids,
                Err(EngineError::Exec(e)) => {
                    failure = Some((None, e));
                    Vec::new()
                }
                Err(e) => return Err(e),
            }
        } else {
            Vec::new()
        };
        let repairs = collect_repairs(&ops);

        let metrics = self.ctx.metrics().snapshot();
        let failure_info = failure
            .as_ref()
            .map(|(label, e)| super::report::FailureInfo {
                kind: e.kind().to_string(),
                error: e.to_string(),
                resource_limit: e.is_resource_limit(),
                failed_op: label.clone(),
                ops_completed: ops.len(),
                last_stage: metrics.stages.last().map(|s| s.operator.to_string()),
                rows_processed: metrics.stages.iter().map(|s| s.records_in).sum(),
                partition_retries: metrics.partition_retries,
                partition_panics: metrics.partition_panics,
                faults_injected: metrics.faults_injected,
            });

        let report = CleaningReport {
            profile: self.profile.name.clone(),
            ops,
            violating_ids,
            repairs,
            normalize_stats: entry.normalize_stats.clone(),
            rewrite_stats: entry.rewrite_stats.clone(),
            total: started.elapsed(),
            metrics,
            plan_text: entry.plan_text.clone(),
            decisions,
            exprs,
            plan_cache: PlanCacheStats {
                hit,
                hits: self.plan_cache.hits,
                misses: self.plan_cache.misses,
            },
            incremental: None,
            repair: None,
            profiles,
            failure: failure_info,
        };
        self.registry.record_query(&report, &counts);
        if let Some((_, e)) = failure {
            // `run` keeps its `Err` contract; `run_with_limits` asks for
            // the failure as report data instead.
            if !self.capture_failures {
                return Err(EngineError::Exec(e));
            }
        }
        Ok(report)
    }

    /// Build the evaluation context: tables (for any residual reference
    /// evaluation) plus prepared blockers. K-means centers come from a
    /// registered dictionary when available (the first by name), falling
    /// back to the blocking attribute's own values (§8.1 obtains centers
    /// "from the dictionary").
    fn build_eval_ctx(&self, ops: &[DesugaredOp]) -> Arc<EvalCtx> {
        let mut ctx = EvalCtx::new();
        let corpus: Vec<String> = match self.dictionaries.values().next() {
            Some(terms) => terms.to_vec(),
            None => self.sample_string_corpus(2_000),
        };
        for op in ops {
            ctx.prepare_blockers(&op.comp, &corpus);
        }
        Arc::new(ctx)
    }

    /// Fallback k-means corpus: sampled string values from the catalog,
    /// walked in table-name order so the centers do not depend on hash
    /// order.
    fn sample_string_corpus(&self, limit: usize) -> Vec<String> {
        let mut out = Vec::new();
        let by_name: BTreeMap<&String, &StoredTable> = self.tables.iter().collect();
        for stored in by_name.into_values() {
            let step = (stored.len() / 512).max(1);
            for row in stored.iter_rows().step_by(step) {
                if let Ok(fields) = row.as_struct() {
                    for (name, v) in fields {
                        if name.as_ref() != ROWID_FIELD {
                            if let Value::Str(s) = v {
                                out.push(s.to_string());
                                if out.len() >= limit {
                                    return out;
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Union the per-operator violating row ids, `op_ids` holding each
    /// op's distinct ids. Under a unified planner (and for one cleaning
    /// operator) this is a local merge of those lists; an
    /// operator-at-a-time one (Spark SQL-like) must recombine through a
    /// distributed full outer join — the extra cost §8.2 observes.
    fn combine_violations(
        &self,
        ops: &[OpResult],
        op_ids: &[Vec<i64>],
    ) -> Result<Vec<i64>, EngineError> {
        let cleaning: Vec<&Vec<i64>> = (ops.iter().zip(op_ids))
            .filter(|(op, _)| !matches!(op.kind, OpKind::Select))
            .map(|(_, ids)| ids)
            .collect();
        let Some((first, rest)) = cleaning.split_first() else {
            return Ok(Vec::new());
        };
        let ids: Vec<i64> = if self.profile.planner.unified() || rest.is_empty() {
            cleaning
                .iter()
                .flat_map(|ids| ids.iter().copied())
                .collect()
        } else {
            // Distributed recombination via chained full outer joins.
            use cleanm_exec::Dataset;
            let keyed = |ids: &[i64]| -> Dataset<(i64, bool)> {
                Dataset::from_vec(&self.ctx, ids.iter().map(|&id| (id, true)).collect())
            };
            let mut acc = keyed(first);
            for ids in rest {
                acc = acc
                    .full_outer_join(keyed(ids))?
                    .map(|(id, _, _)| (id, true))?;
            }
            acc.collect().into_iter().map(|(id, _)| id).collect()
        };
        Ok(distinct_ids(ids))
    }
}

/// Build the engine's row structs (hidden `__rowid` + schema columns) for a
/// table, ids starting at `start_id`. Field names are interned once per
/// call, so each row clones shared pointers instead of allocating names.
fn rows_to_structs(table: &Table, start_id: i64) -> Vec<Value> {
    let mut names: Vec<Arc<str>> = Vec::with_capacity(table.schema.len() + 1);
    names.push(intern(ROWID_FIELD));
    names.extend(intern_all(
        table.schema.fields().iter().map(|f| f.name.as_str()),
    ));
    table
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            // An exact-size chain collects straight into the shared slice:
            // one allocation per row, not a `Vec` and then its copy.
            let id = (Arc::clone(&names[0]), Value::Int(start_id + i as i64));
            let cells = names[1..].iter().zip(row.values());
            let fields = std::iter::once(id).chain(cells.map(|(n, v)| (Arc::clone(n), v.clone())));
            Value::Struct(fields.collect())
        })
        .collect()
}

/// `table` with its columns in the order of `layout`, a stored row of the
/// table `name` (`__rowid` aside); an error naming the difference when
/// the two hold different columns.
fn in_layout(name: &str, layout: &[(Arc<str>, Value)], table: Table) -> Result<Table, EngineError> {
    let registered: Vec<&str> = (layout.iter())
        .map(|(n, _)| n.as_ref())
        .filter(|n| *n != ROWID_FIELD)
        .collect();
    let given: Vec<&str> = table
        .schema
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    if given == registered {
        return Ok(table);
    }
    let absent = |from: &[&str], of: &[&str]| -> Vec<String> {
        (from.iter().filter(|c| !of.contains(c)))
            .map(|c| format!("`{c}`"))
            .collect()
    };
    let (missing, extra) = (absent(&registered, &given), absent(&given, &registered));
    if !missing.is_empty() || !extra.is_empty() {
        return Err(EngineError::Plan(cleanm_values::Error::Invalid(format!(
            "cannot append to `{name}`: the batch's columns differ from the table's \
             (missing: [{}], extra: [{}])",
            missing.join(", "),
            extra.join(", ")
        ))));
    }
    let order: Vec<usize> = (registered.iter())
        .map(|c| given.iter().position(|g| g == c).expect("same columns"))
        .collect();
    let fields = order.iter().map(|&i| table.schema.fields()[i].clone());
    let schema = cleanm_values::Schema::new(fields.collect()).map_err(EngineError::Plan)?;
    let rows = (table.rows.iter())
        .map(|row| {
            Row::new(
                order
                    .iter()
                    .filter_map(|&i| row.values().get(i).cloned())
                    .collect(),
            )
        })
        .collect();
    Ok(Table::new(schema, rows))
}

fn unknown_table(name: &str) -> EngineError {
    EngineError::Plan(cleanm_values::Error::Invalid(format!(
        "cannot append to unknown table `{name}`"
    )))
}

/// Every base table a set of desugared operators reads.
fn referenced_tables(ops: &[DesugaredOp]) -> HashSet<String> {
    fn walk(e: &CalcExpr, out: &mut HashSet<String>) {
        if let CalcExpr::TableRef(t) = e {
            out.insert(t.clone());
        }
        e.for_each_child(&mut |child| walk(child, out));
    }
    let mut set = HashSet::new();
    for op in ops {
        walk(&op.comp, &mut set);
    }
    set
}

/// Extract (term, repair) pairs from term-validation outputs.
pub fn collect_repairs(ops: &[OpResult]) -> Vec<Repair> {
    let mut out = Vec::new();
    for op in ops {
        if op.kind != OpKind::TermValidation {
            continue;
        }
        for v in &op.output {
            if let (Ok(term), Ok(repair)) = (v.field("term"), v.field("repair")) {
                out.push(Repair {
                    term: term.to_text(),
                    suggestion: repair.to_text(),
                });
            }
        }
    }
    out
}

/// Does an op block via k-means (the one blocker whose behavior depends on
/// the center corpus)?
fn uses_kmeans_blocker(op: &DesugaredOp) -> bool {
    use crate::calculus::FilterAlgo;
    op.comp.any_node(&mut |e| {
        matches!(
            e,
            CalcExpr::Call(Func::BlockKeys(FilterAlgo::KMeans { .. }), _)
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanm_values::{DataType, Row, Schema};

    fn customer_table() -> Table {
        let schema = Schema::of([
            ("name", DataType::Str),
            ("address", DataType::Str),
            ("nationkey", DataType::Int),
            ("phone", DataType::Str),
        ]);
        let rows = vec![
            Row::new(vec![
                Value::str("anderson"),
                Value::str("a st"),
                Value::Int(1),
                Value::str("101-111"),
            ]),
            Row::new(vec![
                Value::str("andersen"),
                Value::str("a st"),
                Value::Int(2), // FD violation on nationkey
                Value::str("102-222"),
            ]),
            Row::new(vec![
                Value::str("zhang"),
                Value::str("b st"),
                Value::Int(3),
                Value::str("103-333"),
            ]),
        ];
        Table::new(schema, rows)
    }

    fn extra_rows() -> Table {
        let schema = Schema::of([
            ("name", DataType::Str),
            ("address", DataType::Str),
            ("nationkey", DataType::Int),
            ("phone", DataType::Str),
        ]);
        Table::new(
            schema,
            vec![Row::new(vec![
                Value::str("miller"),
                Value::str("b st"),
                Value::Int(9), // makes `b st` violate too
                Value::str("104-444"),
            ])],
        )
    }

    #[test]
    fn end_to_end_fd_query() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("customer", customer_table());
        let report = db
            .run("SELECT * FROM customer c FD(c.address, c.nationkey)")
            .unwrap();
        assert_eq!(report.ops.len(), 1);
        assert_eq!(report.violations(), 2, "both `a st` rows violate");
        assert_eq!(report.violating_ids, vec![0, 1]);
        assert!(report.plan_text.contains("Nest"));
    }

    #[test]
    fn end_to_end_unified_query_all_profiles() {
        for profile in [
            EngineProfile::clean_db(),
            EngineProfile::spark_sql_like(),
            EngineProfile::big_dansing_like(),
        ] {
            let mut db = CleanDb::new(profile.clone());
            db.register("customer", customer_table());
            let report = db
                .run(
                    "SELECT * FROM customer c \
                     FD(c.address, c.nationkey) \
                     DEDUP(exact, LD, 0.7, c.address, c.name)",
                )
                .unwrap();
            assert_eq!(report.ops.len(), 2, "{}", profile.name);
            // FD flags rows 0,1; dedup also pairs (0,1): union = {0,1}.
            assert_eq!(report.violating_ids, vec![0, 1], "{}", profile.name);
            if profile.planner.unified() {
                assert_eq!(report.rewrite_stats.shared_nests, 1);
            } else {
                assert_eq!(report.rewrite_stats.total_shared(), 0);
            }
        }
    }

    #[test]
    fn end_to_end_term_validation() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("customer", customer_table());
        db.register_dictionary(
            "dict",
            vec!["anderson".into(), "zhang".into(), "miller".into()],
        );
        let report = db
            .run(
                "SELECT * FROM customer c, dict d \
                 CLUSTER BY(token_filtering(2), LD, 0.75, c.name)",
            )
            .unwrap();
        // andersen -> anderson should be among the repairs.
        assert!(report
            .repairs
            .iter()
            .any(|r| r.term == "andersen" && r.suggestion == "anderson"));
    }

    #[test]
    fn plain_select_works() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("customer", customer_table());
        let report = db
            .run("SELECT c.name AS n FROM customer c WHERE c.nationkey = 1")
            .unwrap();
        assert_eq!(report.ops[0].output.len(), 1);
        assert_eq!(report.violations(), 0);
    }

    #[test]
    fn unknown_table_is_execution_error() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        let err = db.run("SELECT * FROM nope n FD(n.a, n.b)").unwrap_err();
        assert!(matches!(err, EngineError::Exec(_)), "{err}");
    }

    #[test]
    fn decisions_cite_the_fixed_profile() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("customer", customer_table());
        let report = db
            .run("SELECT * FROM customer c FD(c.address, c.nationkey)")
            .unwrap();
        assert!(!report.decisions.is_empty());
        assert!(report.decisions.iter().all(|d| d.reason == "fixed profile"));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut db = CleanDb::new(EngineProfile::clean_db());
            db.register("customer", customer_table());
            db.run("SELECT * FROM customer c FD(c.address, prefix(c.phone))")
                .unwrap()
                .violating_ids
        };
        assert_eq!(run(), run());
    }

    /// Sixty distinct lower-case names, varied by `salt`.
    fn name_table(salt: usize) -> Table {
        let syllables = [
            "an", "der", "son", "zha", "ng", "mil", "ler", "ko", "va", "ski",
        ];
        let rows = (0..60)
            .map(|i: usize| {
                let j = i * 7 + salt * 13;
                let name = format!(
                    "{}{}{}",
                    syllables[j % 10],
                    syllables[(j / 10) % 10],
                    syllables[(i + salt) % 10]
                );
                Row::new(vec![Value::str(name)])
            })
            .collect();
        Table::new(Schema::of([("name", DataType::Str)]), rows)
    }

    /// K-means centers come from a corpus walked in name order, so fresh
    /// sessions agree whatever order their maps iterate in: with no
    /// dictionary the corpus samples every table, with several it is the
    /// first dictionary's terms.
    #[test]
    fn kmeans_blocking_is_deterministic_across_sessions() {
        let run = |dictionaries: bool| {
            let mut db = CleanDb::new(EngineProfile::clean_db());
            for (salt, name) in ["a", "b", "c"].into_iter().enumerate() {
                db.register(name, name_table(salt));
            }
            let sql = if dictionaries {
                for (salt, name) in ["d1", "d2"].into_iter().enumerate() {
                    let terms = name_table(salt + 5).rows;
                    let terms = terms.iter().map(|r| r.values()[0].to_text()).collect();
                    db.register_dictionary(name, terms);
                }
                "SELECT * FROM a x, d1 d CLUSTER BY(kmeans(4), LD, 0.6, x.name)"
            } else {
                "SELECT * FROM a x DEDUP(kmeans(4), LD, 0.6, x.name)"
            };
            let report = db.run(sql).unwrap();
            (report.violating_ids, report.ops[0].output.clone())
        };
        for dictionaries in [false, true] {
            let first = run(dictionaries);
            assert!(!first.1.is_empty(), "dictionaries: {dictionaries}");
            for _ in 0..16 {
                assert_eq!(run(dictionaries), first, "dictionaries: {dictionaries}");
            }
        }
    }

    #[test]
    fn append_extends_table_and_continues_rowids() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("customer", customer_table());
        let epoch_before = db.table("customer").unwrap().epoch();
        db.append("customer", extra_rows()).unwrap();
        let stored = db.table("customer").unwrap();
        assert_eq!(stored.batches().len(), 2);
        assert_eq!(stored.len(), 4);
        assert!(stored.epoch() > epoch_before);
        let last = stored.batches()[1][0].field(ROWID_FIELD).unwrap();
        assert_eq!(last, &Value::Int(3), "row ids continue the sequence");
        // The appended row makes `b st` an FD violation as well.
        let report = db
            .run("SELECT * FROM customer c FD(c.address, c.nationkey)")
            .unwrap();
        assert_eq!(report.violating_ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn append_to_unknown_table_is_plan_error() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        assert!(matches!(
            db.append("nope", customer_table()),
            Err(EngineError::Plan(_))
        ));
    }

    /// `extra_rows` with only the columns `keep`, in that order.
    fn extra_rows_as(keep: &[&'static str]) -> Table {
        let full = extra_rows();
        let index = |c: &str| full.schema.index_of(c).unwrap();
        let schema = Schema::of(
            keep.iter()
                .map(|&c| (c, full.schema.fields()[index(c)].dtype.clone())),
        );
        let rows = (full.rows.iter())
            .map(|r| Row::new(keep.iter().map(|c| r.values()[index(c)].clone()).collect()))
            .collect();
        Table::new(schema, rows)
    }

    /// Appending `batch` fails naming `named`, and leaves the table whole.
    fn assert_append_refused(batch: Table, named: &str) {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("customer", customer_table());
        let epoch = db.table("customer").unwrap().epoch();
        let err = db.append("customer", batch).unwrap_err();
        assert!(matches!(err, EngineError::Plan(_)), "{err}");
        assert!(err.to_string().contains(named), "{err}");
        let stored = db.table("customer").unwrap();
        assert_eq!((stored.len(), stored.epoch()), (3, epoch));
        let report = db
            .run("SELECT * FROM customer c FD(c.address, c.nationkey)")
            .unwrap();
        assert_eq!(report.violating_ids, vec![0, 1]);
    }

    #[test]
    fn append_missing_a_column_is_refused() {
        assert_append_refused(extra_rows_as(&["name", "address", "phone"]), "`nationkey`");
    }

    #[test]
    fn append_with_an_extra_column_is_refused() {
        let full = extra_rows();
        let mut fields = full.schema.fields().to_vec();
        fields.push(cleanm_values::Field::new("acctbal", DataType::Float));
        let rows = (full.rows.iter())
            .map(|r| Row::new([r.values(), &[Value::Float(1.5)]].concat()))
            .collect();
        let batch = Table::new(Schema::new(fields).unwrap(), rows);
        assert_append_refused(batch, "`acctbal`");
    }

    #[test]
    fn append_in_another_column_order_is_stored_in_the_tables() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("customer", customer_table());
        let batch = extra_rows_as(&["phone", "nationkey", "name", "address"]);
        db.append("customer", batch).unwrap();
        let stored = db.table("customer").unwrap();
        let names = |row: &Value| -> Vec<String> {
            (row.as_struct().unwrap().iter())
                .map(|(n, _)| n.to_string())
                .collect()
        };
        assert_eq!(
            names(&stored.batches()[1][0]),
            names(&stored.batches()[0][0])
        );
        assert_eq!(
            stored.batches()[1][0].field("nationkey").unwrap(),
            &Value::Int(9)
        );
        assert!(stored.columns(&["address", "nationkey"]).is_some());
        let report = db
            .run("SELECT * FROM customer c FD(c.address, c.nationkey)")
            .unwrap();
        assert_eq!(report.violating_ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn append_to_an_empty_table_takes_any_columns() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register_values("customer", Vec::new());
        db.append("customer", extra_rows_as(&["name", "address"]))
            .unwrap();
        assert_eq!(db.table("customer").unwrap().len(), 1);
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_invalidates_on_epoch_change() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("customer", customer_table());
        let sql = "SELECT * FROM customer c FD(c.address, c.nationkey)";
        let first = db.run(sql).unwrap();
        assert!(!first.plan_cache.hit);
        assert_eq!(first.plan_cache.misses, 1);
        let second = db.run(sql).unwrap();
        assert!(second.plan_cache.hit, "identical text must hit");
        assert_eq!(second.plan_cache.hits, 1);
        assert_eq!(second.violating_ids, first.violating_ids);
        // The cache is keyed by text: a textually different query with the
        // same calculus is planned afresh, with the same result.
        let third = db
            .run("SELECT  *  FROM customer c FD(c.address, c.nationkey)")
            .unwrap();
        assert!(!third.plan_cache.hit, "only identical text hits");
        assert_eq!(third.violating_ids, first.violating_ids);
        // An append moves the epoch: the cached plan is stale.
        db.append("customer", extra_rows()).unwrap();
        let fourth = db.run(sql).unwrap();
        assert!(!fourth.plan_cache.hit, "epoch change must invalidate");
        assert_eq!(fourth.violating_ids, vec![0, 1, 2, 3]);
        // ... and the re-planned entry serves subsequent repeats again.
        let fifth = db.run(sql).unwrap();
        assert!(fifth.plan_cache.hit);
        assert_eq!(fifth.violating_ids, fourth.violating_ids);
    }

    #[test]
    fn plan_serves_before_a_run_and_replans_after_an_append() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("customer", customer_table());
        let sql = "SELECT * FROM customer c FD(c.address, c.nationkey)";
        let planned = db.plan(sql).unwrap();
        assert_eq!(planned.ops().len(), 1);
        assert_eq!(planned.plans().len(), 1);
        assert_eq!(db.plan_cache_counters(), (0, 0), "`plan` counts no run");
        // The run reuses the entry `plan` cached.
        assert!(db.run(sql).unwrap().plan_cache.hit);
        assert!(Arc::ptr_eq(&planned, &db.plan(sql).unwrap()));
        // An append moves the epoch: `plan` re-plans instead of serving
        // the stale entry.
        db.append("customer", extra_rows()).unwrap();
        let replanned = db.plan(sql).unwrap();
        assert!(!Arc::ptr_eq(&planned, &replanned));
        assert!(db.run(sql).unwrap().plan_cache.hit);
        assert!(matches!(
            db.plan("SELECT * FROM"),
            Err(EngineError::Plan(_))
        ));
    }

    #[test]
    fn field_names_are_interned_across_rows_and_batches() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("customer", customer_table());
        db.append("customer", extra_rows()).unwrap();
        let stored = db.table("customer").unwrap();
        let first = stored.batches()[0][0].as_struct().unwrap();
        let appended = stored.batches()[1][0].as_struct().unwrap();
        for ((n0, _), (n1, _)) in first.iter().zip(appended.iter()) {
            assert!(Arc::ptr_eq(n0, n1), "field `{n0}` not shared");
        }
    }
}
