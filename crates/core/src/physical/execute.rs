//! The physical executor: algebra plans → `cleanm-exec` operators (Table 2).
//!
//! | Algebra node | Runtime operator (per profile) |
//! |---|---|
//! | `Scan`      | partitioned load (or columnar kernel sweep under a fused `Select`) |
//! | `Select`    | `filter_partitions`, or fused into its consumer's sweep |
//! | `Unnest`    | `filter_transform` (fan-out) |
//! | `Reduce` over two independent `Unnest`s | the fused block-pair sweep (`physical/pairs.rs`): `map_partitions` over the block rows, pairs kept as indices |
//! | `Nest`      | `filter_transform` (pair emission) → `group_by_key(shuffle, …)` → `map` |
//! | `Nest`+`Reduce` over monoid reductions | the columnar fold when the Nest reads a scan whose key and slots lower under `LocalAggregate` (`physical/groupfold.rs`): chunk folds → merge → finish; else the `Nest` above, then `Reduce` |
//! | `Nest` read by pair sweeps, or shared by folds and pair sweeps | grouped blocks (`physical/blocks.rs`) when it reads a scan whose key lowers under `LocalAggregate`: one grouping pass, group ids for the folds, row ranges for the sweeps — keyed blocks for a `BlockKeys(algo)(e)` key, grouped by `e` with the keys run once per distinct value; else the `Nest` above |
//! | `Join` of two keyed `Nest`s on their keys under a pair sweep (CLUSTER BY) | the sweep matches their block ids; no join runs |
//! | `Join`      | `filter_transform` (keying) → `join_hash` |
//! | `ThetaJoin` | M-Bucket \| min-max blocks \| cartesian+filter, one join over row indices (`physical/theta.rs`): each side read by column when both are filtered scans that lower, by row otherwise; a `Reduce` reads the pairs by index |
//! | `Reduce`    | `filter_transform` (the compiled head, the fused `Select` chain as its filter) → merged under the monoid |
//!
//! `shuffle` is the profile's [`NestStrategy`] — the one grouping driver
//! takes it as is. A `Nest`'s groups take one of three carriers, decided
//! from the registered plans by its consumers and its input: the columnar
//! fold (its one consumer folds), grouped or keyed blocks (it is read by
//! pair sweeps or shared, every consumer a fold or a pair sweep), or
//! materialized groups.
//!
//! The three column routes — the vectorized `Select`, the columnar group
//! fold and each side of a theta join — read a stored table the same way:
//! one column scan (`physical/scan.rs`) over the pivot of all its rows,
//! its `Select` chain lowered once into the scan's kernel and swept in the
//! partition layout of the row path (`lower_on_columns`). None of them
//! sees the table's append batches.
//!
//! Rows travel as [`RowEnv`] — the values of the variable environment of
//! the comprehension the plan was lowered from, positioned by
//! [`env_layout`]; names never travel. The executor memoizes the
//! materialized result of every plan node the session's sharing rewrite
//! gave more than one consumer, which turns the §5 DAG sharing into actual
//! single execution. Time is measured once, per plan node, when profiling
//! is on ([`ProfileNode`]); Figure 3's grouping / similarity split is a
//! rollup of that tree ([`PhaseSplit`](super::PhaseSplit)).
//!
//! The profile's [`Planner`](super::Planner) level is read where a path is
//! chosen and nowhere else: `fusible_chain` (fuse a `Select` chain into its
//! consumer?), `run_reduce_inner` (fold groups by column?) and
//! `columnar_source` (sweep a scan by column?).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use cleanm_cluster::KeyIds;
use cleanm_exec::{
    produce_partials, produce_partitions, Dataset, ExecContext, ExecError, ExecResult, FaultSite,
};
use cleanm_values::{Column, Value};

use crate::algebra::plan::{Alg, PairShape};
use crate::calculus::eval::{merge_values, truthy, EvalCtx};
use crate::calculus::subst::free_vars;
use crate::calculus::{CalcExpr, FilterAlgo, Func, MonoidKind, Program};
use crate::engine::output::Output;
use crate::engine::storage::StoredTable;

use super::blocks::{group_pass, ChunkIds, Collects, GroupedBlocks, KeyedBy, Pass};
use super::groupfold::{self, AggFoldShape, ColumnarFold, FoldedGroups, KEY_SLOT_VAR};
use super::kernel::{ColumnProgram, PredKernel};
use super::pairs::{BlockPairs, Emitted, PairSweep, SweepInput};
use super::profile::{nest_stage_label, EngineProfile, NestStrategy};
use super::program::{env_layout, RowEnv, RowExpr};
use super::qprofile::{clip, ProfileNode};
use super::scan::{chunk_ranges, ColumnScan};

/// One recorded physical-strategy decision, attributable to a plan node —
/// how the planner explains itself in reports and benches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDecision {
    /// Which operator family the decision was for (`"nest"` / `"theta"`).
    pub operator: &'static str,
    /// Short rendering of the node (grouping key or join predicate).
    pub node: String,
    /// The strategy chosen, e.g. `"LocalAggregate"`.
    pub strategy: String,
    /// Why: `"fixed profile"`, or why the profile's strategy could not run.
    pub reason: String,
}

impl std::fmt::Display for PlanDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} -> {} ({})",
            self.operator, self.node, self.strategy, self.reason
        )
    }
}

/// Executes algebra plans against a table catalog.
pub struct Executor<'a> {
    pub(super) ctx: Arc<ExecContext>,
    pub(super) profile: EngineProfile,
    tables: &'a HashMap<String, StoredTable>,
    pub(super) eval: RowEval,
    cache: HashMap<usize, Dataset<RowEnv>>,
    /// Plan nodes referenced more than once across the registered plans —
    /// the only ones worth materializing into the cache (caching a node
    /// with a single consumer would deep-copy its dataset for nothing).
    shared_nodes: HashSet<usize>,
    /// The `Nest`s that run as grouped blocks (`physical/blocks.rs`), by
    /// node, each with the fields of the scanned rows its consumers read
    /// and its fold consumers (their `Reduce` roots, with their shapes) —
    /// decided from the registered plans ([`Executor::register_plans`]).
    grouped: HashMap<usize, (Vec<String>, Vec<FoldConsumer>)>,
    /// Each grouped `Nest`'s blocks once grouped, `None` when its table
    /// or key did not lower onto columns (it then materializes).
    blocks: HashMap<usize, Option<Arc<GroupedBlocks>>>,
    /// The fold consumers of grouped `Nest`s that folded in their `Nest`'s
    /// grouping pass, by `Reduce` root.
    shared_folds: HashMap<usize, Arc<LoweredFold>>,
    /// Shared scans that only grouped `Nest`s read: they read by column
    /// ([`Executor::columnar_source`]).
    block_scans: HashSet<usize>,
    /// The ids of block keys that do not pack into a `u64`, shared by the
    /// keyed `Nest`s so that CLUSTER BY's two sides compare ids; made by
    /// the first.
    long_keys: Option<Arc<Mutex<KeyIds>>>,
    /// Strategy decisions made while executing, in plan order.
    pub decisions: Vec<PlanDecision>,
    /// Plan-node expressions compiled to slot-resolved programs.
    pub compiled_exprs: usize,
    /// `Select` nodes whose standalone filter pass was fused into a
    /// downstream operator (or into a collapsed filter chain): their
    /// intermediate filtered collections were never materialized.
    pub fused_selects: usize,
    /// Rows processed by columnar kernels instead of row-at-a-time
    /// evaluation (whole-column predicate sweeps over typed batches).
    pub vectorized_rows: u64,
    /// Input-row count for the profile node being closed, set by paths
    /// that consume a table directly (the vectorized scan+filter has no
    /// `Scan` child to sum rows from). Taken by `end_node`.
    pub(super) override_rows_in: Option<u64>,
    /// When set, every executed plan node is wrapped in a profiling frame
    /// and assembled into a [`ProfileNode`] tree (EXPLAIN ANALYZE).
    pub(super) profiling: bool,
    /// Stack of child collectors: the top entry receives nodes whose parent
    /// frame is still open; the bottom entry collects completed plan roots.
    prof_children: Vec<Vec<ProfileNode>>,
    /// Set by the columnar fold once it runs, so the `run_reduce`
    /// profiling wrapper can label its root `GroupFold`
    /// (fold-into-accumulators) rather than `Reduce`
    /// (materialize-then-reduce). Holds the grouping key rendering.
    last_fold_key: Option<String>,
}

/// What every operator sweep evaluates row expressions with: the plan's
/// evaluation context plus the query's error sink, cloned into the worker
/// closures. An evaluation error — a width-mismatched row included — is
/// recorded and drops the row (or substitutes a placeholder), exactly as a
/// standalone `Select` pass does; the first recorded error fails the query
/// once the sweep completes ([`Executor::check_errors`]).
#[derive(Clone)]
pub(super) struct RowEval {
    pub(super) ctx: Arc<EvalCtx>,
    errors: Arc<Mutex<Vec<String>>>,
}

impl RowEval {
    pub(super) fn record(&self, error: impl ToString) {
        self.errors.lock().push(error.to_string());
    }

    /// Evaluate `rx` over one row; `None` after recording an error.
    pub(super) fn eval(&self, rx: &RowExpr, env: &RowEnv) -> Option<Value> {
        rx.eval_env(env, &self.ctx).map_err(|e| self.record(e)).ok()
    }

    /// Does one predicate hold on `env`? An error counts as a rejection.
    fn holds(&self, rx: &RowExpr, env: &RowEnv) -> bool {
        self.eval(rx, env).is_some_and(|v| truthy(&v))
    }

    /// [`RowEval::eval`] over a concatenated `(left, right)` row pair —
    /// no merged row is built.
    #[inline]
    pub(super) fn eval_pair(&self, rx: &RowExpr, left: &[Value], right: &[Value]) -> Option<Value> {
        let v = rx.eval_pair(left, right, &self.ctx);
        v.map_err(|e| self.record(e)).ok()
    }

    /// [`RowEval::holds`] over a concatenated `(left, right)` row pair.
    #[inline]
    pub(super) fn holds_pair(&self, rx: &RowExpr, left: &[Value], right: &[Value]) -> bool {
        self.eval_pair(rx, left, right).is_some_and(|v| truthy(&v))
    }

    /// Does `env` pass a fused predicate chain (conjoined into one program
    /// by [`Executor::peel_input`], `None` = no filter)? The
    /// conjunction's short-circuit preserves chain order — an error a
    /// downstream filter would never have reached stays unreached.
    pub(super) fn passes(&self, pred_rx: &Option<Arc<RowExpr>>, env: &RowEnv) -> bool {
        pred_rx.as_ref().is_none_or(|rx| self.holds(rx, env))
    }
}

/// Per-node profiling bookkeeping captured at node entry; resolved into a
/// [`ProfileNode`] at exit by diffing against the executor's counters.
pub(super) struct ProfFrame {
    start: Instant,
    stage_lo: usize,
    decision_lo: usize,
    compiled_lo: usize,
    fused_lo: usize,
    vectorized_lo: u64,
}

impl<'a> Executor<'a> {
    pub fn new(
        ctx: Arc<ExecContext>,
        profile: EngineProfile,
        tables: &'a HashMap<String, StoredTable>,
        eval_ctx: Arc<EvalCtx>,
    ) -> Self {
        Executor {
            ctx,
            profile,
            tables,
            eval: RowEval {
                ctx: eval_ctx,
                errors: Arc::new(Mutex::new(Vec::new())),
            },
            cache: HashMap::new(),
            shared_nodes: HashSet::new(),
            grouped: HashMap::new(),
            blocks: HashMap::new(),
            shared_folds: HashMap::new(),
            block_scans: HashSet::new(),
            long_keys: None,
            decisions: Vec::new(),
            compiled_exprs: 0,
            fused_selects: 0,
            vectorized_rows: 0,
            override_rows_in: None,
            profiling: false,
            prof_children: Vec::new(),
            last_fold_key: None,
        }
    }

    /// Turn per-node profiling on or off. When on, each `run_reduce` call
    /// leaves a completed [`ProfileNode`] tree retrievable via
    /// [`Executor::take_profile_root`]. Off by default: the disabled cost
    /// is a single branch per plan node.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
        self.prof_children.clear();
        if on {
            self.prof_children.push(Vec::new());
        }
    }

    /// Take the profile tree of the most recently completed `run_reduce`
    /// call. `None` when profiling is off or no plan completed since the
    /// last take.
    pub fn take_profile_root(&mut self) -> Option<ProfileNode> {
        self.prof_children.first_mut().and_then(Vec::pop)
    }

    /// Open a profiling frame: snapshot every counter the node's execution
    /// will advance, and push a collector for its children.
    pub(super) fn begin_node(&mut self) -> ProfFrame {
        self.prof_children.push(Vec::new());
        ProfFrame {
            start: Instant::now(),
            stage_lo: self.ctx.metrics().stage_count(),
            decision_lo: self.decisions.len(),
            compiled_lo: self.compiled_exprs,
            fused_lo: self.fused_selects,
            vectorized_lo: self.vectorized_rows,
        }
    }

    /// Close a profiling frame into a [`ProfileNode`] and hand it to the
    /// parent frame. Attribution works by delta ranges: everything recorded
    /// between entry and exit belongs to this subtree, and whatever the
    /// children's own ranges claim is subtracted to leave this node's share.
    pub(super) fn end_node(
        &mut self,
        frame: ProfFrame,
        op: String,
        detail: String,
        rows_out: u64,
        mut flags: Vec<String>,
    ) {
        let children = self.prof_children.pop().expect("unbalanced profile frame");
        let stage_hi = self.ctx.metrics().stage_count();
        let decision_hi = self.decisions.len();
        let claimed =
            |i: usize, ranges: &[(usize, usize)]| ranges.iter().any(|&(a, b)| i >= a && i < b);

        let mut node = ProfileNode {
            op,
            detail,
            rows_out,
            wall_ns: frame.start.elapsed().as_nanos() as u64,
            stage_range: (frame.stage_lo, stage_hi),
            decision_range: (frame.decision_lo, decision_hi),
            ..ProfileNode::default()
        };

        // Exec stages in this subtree's range not claimed by a child
        // subtree ran for this node: fold in their shuffle volume, busy
        // time, and balance.
        let child_stages: Vec<_> = children.iter().map(|c| c.stage_range).collect();
        let reports = self.ctx.metrics().stages_since(frame.stage_lo);
        for i in frame.stage_lo..stage_hi {
            if claimed(i, &child_stages) {
                continue;
            }
            let Some(r) = reports.get(i - frame.stage_lo) else {
                continue;
            };
            node.busy_ns += r.worker_busy_ns.iter().sum::<u64>();
            node.shuffled += r.records_shuffled;
            node.max_imbalance = node.max_imbalance.max(r.imbalance());
            node.idle_fraction = node.idle_fraction.max(r.idle_fraction());
            node.stage_ops.push(r.operator.to_string());
        }

        let child_decisions: Vec<_> = children.iter().map(|c| c.decision_range).collect();
        for i in frame.decision_lo..decision_hi {
            if claimed(i, &child_decisions) {
                continue;
            }
            let d = &self.decisions[i];
            node.strategies
                .push(format!("{} ({})", d.strategy, d.reason));
        }

        // Expression counters: the subtree delta minus what the children's
        // subtrees already account for is this node's own contribution.
        let mut compiled = self.compiled_exprs - frame.compiled_lo;
        let mut fused = self.fused_selects - frame.fused_lo;
        let mut vectorized = self.vectorized_rows - frame.vectorized_lo;
        for c in &children {
            let (cc, cf) = c.subtree_exprs();
            compiled = compiled.saturating_sub(cc);
            fused = fused.saturating_sub(cf);
            vectorized = vectorized.saturating_sub(c.subtree_vectorized());
        }
        node.compiled_exprs = compiled;
        node.fused_selects = fused;
        node.vectorized_rows = vectorized;
        if vectorized > 0 {
            node.flags.push("vectorized".to_string());
        }

        node.rows_in = if let Some(rows_in) = self.override_rows_in.take() {
            rows_in
        } else if children.is_empty() {
            rows_out
        } else {
            children.iter().map(|c| c.rows_out).sum()
        };
        node.flags.append(&mut flags);
        node.children = children;
        self.prof_children
            .last_mut()
            .expect("profiling root collector")
            .push(node);
    }

    /// Discard an open frame after an execution error, keeping the frame
    /// stack balanced for the next plan.
    pub(super) fn abort_node(&mut self) {
        self.prof_children.pop();
    }

    /// Run `f` inside a profiling frame when profiling is on, and hand the
    /// open frame back with its result for the caller to close; an error
    /// discards the frame.
    pub(super) fn in_frame<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> ExecResult<T>,
    ) -> ExecResult<(T, Option<ProfFrame>)> {
        let frame = self.profiling.then(|| self.begin_node());
        let out = f(self);
        if out.is_err() && frame.is_some() {
            self.abort_node();
        }
        Ok((out?, frame))
    }

    /// Is `node` a plan node with more than one consumer among the
    /// registered plans? Its result is materialized once and memoized for
    /// all of them. Whether plans share nodes at all was the session's
    /// decision when it planned; the executor only observes it.
    pub(super) fn is_shared(&self, node: &Arc<Alg>) -> bool {
        self.shared_nodes.contains(&(Arc::as_ptr(node) as usize))
    }

    /// The first half of every fused consumer (Reduce, the pair sweep, the
    /// group fold, Select, Unnest, Nest, each Join side): peel the chain of
    /// fusible `Select` nodes off `input` and compile it — followed by
    /// `own`, a consuming `Select`'s own predicate — as the filter of the
    /// consumer's sweep, so the filtered intermediate collection is never
    /// materialized. The chain conjoins in evaluation order, innermost
    /// first ([`conjoin`]), and `Select` never changes the environment
    /// layout, so it compiles against the producer's. A `Select` stays its
    /// own pass when the planner runs operator-at-a-time, or when the node
    /// is shared — a shared result must stay materialized once for all its
    /// consumers. [`Executor::run_input`] is the second half.
    fn peel_input<'p>(
        &mut self,
        input: &'p Arc<Alg>,
        own: Option<&'p CalcExpr>,
    ) -> ExecResult<FusedInput<'p>> {
        let (source, mut preds) = self.fusible_chain(input);
        self.fused_selects += preds.len();
        preds.extend(own);
        let scope = env_layout(source);
        let pred_rx = match conjoin(&preds) {
            Some(chain) => Some(self.row_expr(&chain, &scope)?),
            None => None,
        };
        Ok(FusedInput {
            source,
            scope,
            preds,
            pred_rx,
        })
    }

    /// The producer beneath `input`'s chain of fusible `Select`s, and the
    /// chain's predicates in evaluation order (innermost first): empty
    /// under an operator-at-a-time planner, and stopping at a shared node.
    fn fusible_chain<'p>(&self, input: &'p Arc<Alg>) -> (&'p Arc<Alg>, Vec<&'p CalcExpr>) {
        let mut preds = Vec::new();
        let mut source = input;
        if self.profile.planner.unified() {
            while let Alg::Select { input, pred } = &**source {
                if self.is_shared(source) {
                    break;
                }
                preds.push(pred);
                source = input;
            }
        }
        preds.reverse();
        (source, preds)
    }

    /// Materialize a peeled input for its consumer's sweep. A chain over a
    /// plain scan that lowers to columnar kernels is applied right here,
    /// by column — whichever operator fused it — and `pred_rx` comes back
    /// `None`: the consumer's sweep has nothing left to test. Otherwise
    /// the producer runs row-at-a-time and the consumer filters as it goes.
    fn run_input(&mut self, fused: &mut FusedInput<'_>) -> ExecResult<Dataset<RowEnv>> {
        if let (Some((stored, var)), Some(pred_rx)) =
            (self.columnar_source(fused.source), &fused.pred_rx)
        {
            let fields = fields_of(var, fused.preds.iter().copied());
            if let Some(survivors) = self.columnar_select(stored, &fields, pred_rx.program())? {
                fused.pred_rx = None;
                return Ok(survivors);
            }
        }
        self.run(fused.source)
    }

    /// The filter of a fused consumer's sweep: does a row pass what is
    /// left of the peeled chain?
    fn sweep_filter(
        &self,
        fused: &FusedInput<'_>,
    ) -> impl Fn(&RowEnv) -> bool + Clone + Send + Sync + 'static {
        let (ev, pred_rx) = (self.eval.clone(), fused.pred_rx.clone());
        move |env| ev.passes(&pred_rx, env)
    }

    /// The stored table behind `source`, with the scan's variable, when the
    /// planner reads it by column: a `Scan` under a unified planner that no
    /// other consumer shares (a shared scan stays materialized once for all
    /// of them), or that only grouped `Nest`s read
    /// ([`Executor::plan_grouped_blocks`]). Whether the expressions over it
    /// lower to kernels and its rows pivot into typed columns is then a
    /// property of the input.
    pub(super) fn columnar_source<'p>(
        &self,
        source: &'p Arc<Alg>,
    ) -> Option<(&'a StoredTable, &'p str)> {
        let Alg::Scan { table, var } = &**source else {
            return None;
        };
        let blocks_only = self.block_scans.contains(&(Arc::as_ptr(source) as usize));
        if !self.profile.planner.unified() || (self.is_shared(source) && !blocks_only) {
            return None;
        }
        Some((self.tables.get(table.as_str())?, var))
    }

    /// The vectorized Select: when `pred` lowers into the columnar kernel
    /// of a scan of `stored` ([`Executor::lower_on_columns`]), the
    /// scan+filter runs as whole-column sweeps — no row environments are
    /// materialized for non-survivors. Survivor rows land in exactly the
    /// partitions the row path would have produced (same contiguous-chunk
    /// layout), so every downstream operator sees an identical dataset.
    /// Only `fields`, the columns the predicate reads, are pivoted. `None`
    /// (the row path runs) when the table does not read by column or the
    /// predicate does not lower.
    fn columnar_select(
        &mut self,
        stored: &StoredTable,
        fields: &[String],
        pred: &Program,
    ) -> ExecResult<Option<Dataset<RowEnv>>> {
        let Some(scan) = self.lower_on_columns(stored, fields, Some(pred), Some)? else {
            return Ok(None);
        };
        let total = scan.len();
        self.vectorized_rows += total as u64;
        if self.profiling {
            self.override_rows_in = Some(total as u64);
        }
        // Survivor rows hold the *stored* row values (cheap Arc clones,
        // the very same values the row path emits); the columns only drive
        // the predicate sweep.
        let tasks = chunk_ranges(total as u32, self.ctx.default_partitions());
        let out = produce_partitions(&self.ctx, "filter", total as u64, tasks, |range| {
            let sel = scan.sweep(range);
            sel.into_iter().map(|i| vec![scan.row(i).clone()]).collect()
        })?;
        Ok(Some(out))
    }

    /// Compile a plan-node expression against its environment layout once,
    /// counting it; per-partition evaluation then runs the flat program.
    /// An expression that does not compile — a variable outside the
    /// layout, an unknown table — fails the query here, before the node
    /// evaluates a row. Programs are compiled on every run, a cached plan's
    /// included.
    pub(super) fn row_expr(
        &mut self,
        expr: &CalcExpr,
        scope: &[String],
    ) -> ExecResult<Arc<RowExpr>> {
        let rx = self.compile(expr, scope)?;
        self.compiled_exprs += 1;
        Ok(rx)
    }

    /// [`Executor::row_expr`] without counting the expression: for a route
    /// that may still decline, and counts what it compiled once it runs.
    pub(super) fn compile(&self, expr: &CalcExpr, scope: &[String]) -> ExecResult<Arc<RowExpr>> {
        RowExpr::compile(expr, scope, &self.eval.ctx)
            .map(Arc::new)
            .map_err(|e| ExecError::Value(e.to_string()))
    }

    /// Inspect the full set of plans this executor will run and record the
    /// DAG nodes that appear more than once (directly, or via the sharing
    /// rewrite). Only those results are memoized.
    pub fn register_plans(&mut self, plans: &[Arc<Alg>]) {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        fn visit(plan: &Arc<Alg>, counts: &mut HashMap<usize, usize>) {
            let key = Arc::as_ptr(plan) as usize;
            let n = counts.entry(key).or_insert(0);
            *n += 1;
            if *n > 1 {
                return; // children already counted through the first visit
            }
            match &**plan {
                Alg::Scan { .. } => {}
                Alg::Select { input, .. }
                | Alg::Nest { input, .. }
                | Alg::Unnest { input, .. }
                | Alg::Reduce { input, .. } => visit(input, counts),
                Alg::Join { left, right, .. } | Alg::ThetaJoin { left, right, .. } => {
                    visit(left, counts);
                    visit(right, counts);
                }
            }
        }
        for plan in plans {
            visit(plan, &mut counts);
        }
        self.shared_nodes = (counts.iter())
            .filter(|(_, n)| **n > 1)
            .map(|(k, _)| *k)
            .collect();
        // Each consumer of a shared `Unnest` chain sweeps the blocks
        // beneath it itself ([`Executor::pair_shape`]): they are what is
        // shared, and run once.
        for plan in plans {
            let Alg::Reduce { input, .. } = &**plan else {
                continue;
            };
            if let Some(shape) = self.pair_shape(input) {
                let inner = reader_of(plan, shape.input);
                if self.is_shared(inner) || self.is_shared(reader_of(plan, inner)) {
                    let blocks = Arc::as_ptr(shape.input) as usize;
                    self.shared_nodes.insert(blocks);
                }
            }
        }
        self.plan_grouped_blocks(plans, &counts);
    }

    /// The `Nest`s of `plans` that run as grouped or keyed blocks
    /// (`physical/blocks.rs`), each with the fields of the scanned rows
    /// its consumers read. Under a unified planner with the
    /// local-aggregate shuffle, a `Nest` qualifies when every node that
    /// reads it belongs to a consumer [`Executor::block_consumers`]
    /// recognizes, and its input beneath the fusible `WHERE` chain is a
    /// scan — one that no other node reads, or whose every reader is a
    /// qualifying `Nest` or its chain ([`Executor::columnar_source`]).
    /// Then by its key:
    ///
    /// - a scalar key: grouped blocks, when the `Nest` is shared or has a
    ///   pair consumer (a lone fold folds its own groups) and its members
    ///   are the scan's rows;
    /// - `BlockKeys(algo)(e)`: keyed blocks, when every consumer pairs and
    ///   the members are the scan's rows or `e`;
    /// - any other key reading `BlockKeys`: none.
    ///
    /// Whether the table and the grouped program then lower onto columns
    /// is the input's to say, at the first consumer
    /// ([`Executor::grouped_blocks`]).
    fn plan_grouped_blocks(&mut self, plans: &[Arc<Alg>], counts: &HashMap<usize, usize>) {
        self.grouped.clear();
        self.block_scans.clear();
        if !self.profile.planner.unified() || self.profile.nest != NestStrategy::LocalAggregate {
            return;
        }
        // Per Nest: the node, the nodes of its consumers that read it
        // (a DEDUP and a blocked DC may read it through one shared
        // `Unnest`), whether one pairs, the roots and shapes of those that
        // fold, and what they read.
        #[derive(Default)]
        struct Consumers {
            readers: HashSet<usize>,
            pairs: bool,
            folds: Vec<FoldConsumer>,
            fields: Vec<String>,
        }
        let mut consumers: HashMap<usize, (&Arc<Alg>, Consumers)> = HashMap::new();
        let mut roots = HashSet::new();
        for plan in plans.iter().filter(|p| roots.insert(Arc::as_ptr(p))) {
            for (nest, reader, fold, fields) in self.block_consumers(plan) {
                let at = Arc::as_ptr(nest) as usize;
                let (_, entry) = consumers.entry(at).or_insert((nest, Consumers::default()));
                entry.readers.insert(Arc::as_ptr(reader) as usize);
                entry.pairs |= fold.is_none();
                entry
                    .folds
                    .extend(fold.map(|shape| (Arc::clone(plan), shape)));
                entry.fields.extend(fields);
            }
        }
        // Per qualifying Nest: its scan and the node that reads the scan.
        let mut scans: HashMap<usize, (usize, usize)> = HashMap::new();
        for (
            at,
            (
                nest,
                Consumers {
                    readers,
                    pairs,
                    folds,
                    mut fields,
                },
            ),
        ) in consumers
        {
            let Alg::Nest {
                input, key, item, ..
            } = &**nest
            else {
                continue;
            };
            let shared = counts[&at] > 1;
            if readers.len() != counts[&at] {
                continue;
            }
            let (source, chain) = self.fusible_chain(input);
            let Alg::Scan { var, .. } = &**source else {
                continue;
            };
            let rows = *item == CalcExpr::var(var);
            let qualifies = match block_keys_arg(key) {
                Some(e) => pairs && folds.is_empty() && (rows || item == e),
                None => {
                    let list_key =
                        key.any_node(&mut |e| matches!(e, CalcExpr::Call(Func::BlockKeys(_), _)));
                    (shared || pairs) && rows && !list_key
                }
            };
            if !qualifies {
                continue;
            }
            fields.extend(fields_of(var, chain.into_iter().chain([key])));
            fields.sort_unstable();
            fields.dedup();
            self.grouped.insert(at, (fields, folds));
            let scan_reader = reader_of(nest, source);
            let scan = Arc::as_ptr(source) as usize;
            scans.insert(at, (scan, Arc::as_ptr(scan_reader) as usize));
        }
        // A shared scan reads by column when every node that reads it is
        // a qualifying Nest or its chain; else those Nests materialize.
        let mut readers: HashMap<usize, HashSet<usize>> = HashMap::new();
        for &(scan, reader) in scans.values() {
            readers.entry(scan).or_default().insert(reader);
        }
        for (scan, readers) in readers {
            if counts[&scan] == 1 {
                continue;
            }
            if readers.len() == counts[&scan] {
                self.block_scans.insert(scan);
            } else {
                self.grouped.retain(|at, _| scans[at].0 != scan);
            }
        }
    }

    /// The `Nest`s a registered plan consumes as grouped or keyed blocks,
    /// each with the node that reads it, the consumer's shape when it folds
    /// (`None`: it pairs their members), and the fields of the members it
    /// reads by column: a
    /// grouped `Reduce` whose group predicates and head fold
    /// ([`groupfold::recognize`]; the `Nest` may be shared, the `Select`s
    /// above it not), a pair pipeline directly over the `Nest` that
    /// unnests its `partition` twice, or a pair pipeline over an unshared
    /// `Join` of two `Nest`s on their keys that unnests each one's
    /// `partition` (CLUSTER BY) — neither pipeline's predicates nor its
    /// head reading a group variable (the sweep never builds the group
    /// record).
    fn block_consumers<'p>(&self, plan: &'p Arc<Alg>) -> Vec<BlockConsumer<'p>> {
        let Alg::Reduce {
            input,
            monoid,
            head,
        } = &**plan
        else {
            return Vec::new();
        };
        let nest_shared =
            |node: &Arc<Alg>| self.is_shared(node) && !matches!(**node, Alg::Nest { .. });
        if let Some((_, _, item, group_var, preds)) = input.group_pipeline(nest_shared) {
            let (Some(shape), CalcExpr::Var(var)) =
                (groupfold::recognize(group_var, item, head, &preds), item)
            else {
                return Vec::new();
            };
            let fields = fields_of(var, shape.slots.iter().map(|s| &s.row_expr));
            let nest = beneath_selects(input);
            return match monoid {
                MonoidKind::Bag | MonoidKind::Set => {
                    vec![(nest, reader_of(plan, nest), Some(shape), fields)]
                }
                _ => Vec::new(),
            };
        }
        let Some(shape) = self.pair_shape(input) else {
            return Vec::new();
        };
        // A Nest's group variable `g` as `g.<field>`, when nothing the
        // sweep evaluates reads `g` itself.
        let group = |nest: &Arc<Alg>, field: &str| match &**nest {
            Alg::Nest { group_var, .. } => {
                let reads_group = (shape.preds.iter().copied().chain([head]))
                    .any(|e| free_vars(e).contains(group_var.as_str()));
                (!reads_group).then(|| CalcExpr::proj(CalcExpr::var(group_var), field))
            }
            _ => None,
        };
        let fields = |var: &str| fields_of(var, shape.preds.iter().copied());
        match &**shape.input {
            Alg::Nest { .. } => {
                let Some(partition) = group(shape.input, "partition") else {
                    return Vec::new();
                };
                if *shape.path_a != partition || *shape.path_b != partition {
                    return Vec::new();
                }
                let mut read = fields(shape.var_a);
                read.extend(fields(shape.var_b));
                let reader = reader_of(plan, shape.input);
                vec![(shape.input, reader, None, read)]
            }
            Alg::Join {
                left,
                right,
                left_key,
                right_key,
            } if !self.is_shared(shape.input) => {
                let paths = [
                    (shape.path_a, left, left_key),
                    (shape.path_b, right, right_key),
                ];
                let on_keys = paths.iter().all(|(path, nest, key)| {
                    group(nest, "partition").is_some_and(|p| **path == p)
                        && group(nest, "key").is_some_and(|k| **key == k)
                });
                if !on_keys {
                    return Vec::new();
                }
                vec![
                    (left, shape.input, None, fields(shape.var_a)),
                    (right, shape.input, None, fields(shape.var_b)),
                ]
            }
            _ => Vec::new(),
        }
    }

    /// Does `node` run as grouped or keyed blocks?
    fn is_grouped(&self, node: &Arc<Alg>) -> bool {
        self.grouped.contains_key(&(Arc::as_ptr(node) as usize))
    }

    /// How a keyed `Nest` keyed by `BlockKeys(algo)(e)` keys its values:
    /// `algo`'s prepared blocker — `None` when it is not prepared, and the
    /// `Nest` then materializes, failing as the reference evaluator does —
    /// with the query's interner of long keys.
    fn keyed_by(&mut self, key: &CalcExpr) -> Option<KeyedBy> {
        let CalcExpr::Call(Func::BlockKeys(algo), _) = key else {
            unreachable!("a keyed Nest's key is a BlockKeys call")
        };
        Some(KeyedBy {
            blocker: self.eval.ctx.prepared_blocker(algo)?,
            long: Arc::clone(self.long_keys.get_or_insert_default()),
            qgrams: match algo {
                FilterAlgo::TokenFilter { q } => Some(*q),
                _ => None,
            },
        })
    }

    /// A grouped `Nest`'s blocks, grouped at its first consumer and
    /// memoized for the rest: the scan of the fields its consumers read
    /// (`lower_on_columns`, its `WHERE` chain as the scan's kernel), its
    /// key lowered onto the block, then [`GroupedBlocks::group`], in whose
    /// pass every fold consumer that lowers onto the scan folds
    /// ([`Executor::compile_fold`]; kept in `shared_folds` for that
    /// consumer's [`Executor::try_group_fold`]). In a profile tree the
    /// first consumer shows the `Nest` flagged `group-blocks` over its
    /// `Scan` — the folds' time included — the others a `cached` leaf.
    /// `None` — memoized too, and the `Nest` materializes its groups for
    /// every consumer — when the node is not grouped, a program does not
    /// compile, or the table or the key does not lower; a declined
    /// grouping leaves no count, decision or profile node behind.
    fn grouped_blocks(&mut self, nest: &Arc<Alg>) -> ExecResult<Option<Arc<GroupedBlocks>>> {
        let at = Arc::as_ptr(nest) as usize;
        if let Some(memo) = self.blocks.get(&at).cloned() {
            if let Some(blocks) = &memo {
                self.cached_leaf(nest, blocks.len() as u64);
            }
            return Ok(memo);
        }
        let Some((fields, folds)) = self.grouped.get(&at).cloned() else {
            return Ok(None);
        };
        let Alg::Nest {
            input, key, item, ..
        } = &**nest
        else {
            unreachable!("only Nests are grouped")
        };
        let (source, preds) = self.fusible_chain(input);
        let (stored, var) = self.columnar_source(source).expect("checked when planned");
        let scope = [var.to_string()];
        // A keyed Nest groups by `BlockKeys`' argument and keys each
        // distinct value of it with the prepared blocker.
        let coded = block_keys_arg(key);
        let chain = conjoin(&preds).map(|chain| self.compile(&chain, &scope));
        let value_rx = self.compile(coded.unwrap_or(key), &scope);
        // A blocker that is not prepared declines like a program that does
        // not compile.
        let keyed_by = coded.map(|_| self.keyed_by(key));
        let (Ok(filter), Ok(value_rx), None | Some(Some(_))) =
            (chain.transpose(), value_rx, &keyed_by)
        else {
            self.blocks.insert(at, None);
            return Ok(None);
        };
        let keyed_by = keyed_by.flatten();
        let (blocks, frame) = self.in_frame(|ex| {
            let filter_program = filter.as_ref().map(|rx| rx.program());
            let (lowered, scan) = ex.in_frame(|ex| {
                ex.lower_on_columns(stored, &fields, filter_program, |scan| {
                    let value = ColumnProgram::lower(value_rx.program(), scan.block())?;
                    (coded.is_none() || value.text_exact()).then_some((scan, value))
                })
            })?;
            match (&lowered, scan) {
                (Some(_), Some(frame)) => {
                    let (op, detail) = plan_label(source);
                    ex.end_node(frame, op, detail, stored.len() as u64, Vec::new());
                }
                (None, Some(_)) => ex.abort_node(),
                _ => {}
            }
            let Some((scan, value)) = lowered else {
                return Ok(None);
            };
            ex.decide_nest(key);
            ex.compiled_exprs += 1 + usize::from(filter.is_some());
            ex.fused_selects += preds.len();
            ex.vectorized_rows += scan.len() as u64;
            let collects = Collects {
                var: var.to_string(),
                item: item.clone(),
                coded: coded.cloned(),
            };
            // Each fold consumer lowers onto the scan, unfiltered: the blocks
            // hold the rows the chain selected. One that does not reads
            // groups materialized from the blocks.
            let lower = |(plan, shape): &FoldConsumer| {
                let lower = ex.compile_fold(key, shape, var)?;
                Some((Arc::as_ptr(plan) as usize, lower(scan.unfiltered())?))
            };
            let lowered: Vec<_> = folds.iter().filter_map(lower).collect();
            let consumers: Vec<&ColumnarFold> = lowered.iter().map(|(_, l)| &l.fold).collect();
            let (blocks, accs) = GroupedBlocks::group(
                &ex.ctx, scan, value, collects, keyed_by, &consumers, &ex.eval,
            )?;
            for ((plan, mut lowered), accs) in lowered.into_iter().zip(accs) {
                lowered.finished = Some(lowered.fold.finish(accs));
                ex.shared_folds.insert(plan, Arc::new(lowered));
            }
            Ok(Some(Arc::new(blocks)))
        })?;
        match (&blocks, frame) {
            (Some(b), Some(frame)) => {
                let (op, detail) = plan_label(nest);
                let mut flags = vec!["group-blocks".to_string()];
                if self.is_shared(nest) {
                    flags.insert(0, "shared".to_string());
                }
                self.end_node(frame, op, detail, b.len() as u64, flags);
            }
            (None, Some(_)) => self.abort_node(),
            _ => {}
        }
        self.blocks.insert(at, blocks.clone());
        Ok(blocks)
    }

    /// Execute a full per-operator plan (must be a `Reduce` root) and return
    /// the reduced output collection. A fusible `Select` chain feeding the
    /// Reduce runs *inside* the head-evaluation pass, so the filtered rows
    /// are never materialized.
    ///
    /// A Bag `Reduce` of `{left: p1, right: p2}` over stored rows — a
    /// pair sweep over grouped or keyed blocks, or a theta join read by
    /// column — returns its pairs as row indices ([`Output`]).
    ///
    /// With profiling on, the whole per-operator execution becomes the
    /// root [`ProfileNode`]: `GroupFold` when the columnar fold consumed
    /// the Nest+Reduce, `Reduce[monoid]` otherwise.
    pub fn run_reduce(&mut self, plan: &Arc<Alg>) -> ExecResult<Output> {
        self.last_fold_key = None;
        let (outputs, frame) = self.in_frame(|ex| ex.run_reduce_inner(plan))?;
        if let Some(frame) = frame {
            let (op, detail, flags) = match self.last_fold_key.take() {
                Some(key) => (
                    "GroupFold".to_string(),
                    key,
                    vec!["fold-groups".to_string()],
                ),
                None => {
                    let (op, detail) = plan_label(plan);
                    (op, detail, Vec::new())
                }
            };
            self.end_node(frame, op, detail, outputs.len() as u64, flags);
        }
        Ok(outputs)
    }

    fn run_reduce_inner(&mut self, plan: &Arc<Alg>) -> ExecResult<Output> {
        // A grouped Reduce folds the table's columns where its input
        // allows; otherwise — and always under an operator-at-a-time
        // planner — its Nest materializes the groups and the Reduce below
        // consumes them.
        if self.profile.planner.unified() {
            if let Some(outputs) = self.try_group_fold(plan)? {
                return Ok(outputs);
            }
        }
        let Alg::Reduce {
            input,
            monoid,
            head,
        } = &**plan
        else {
            return Err(ExecError::Other(format!(
                "operator plan must end in Reduce, got:\n{}",
                plan.explain()
            )));
        };
        // A pair pipeline (two independent Unnests) never materializes
        // its candidate pairs, whatever the planner fuses elsewhere.
        if let Some(shape) = self.pair_shape(input) {
            return self.exec_pair_sweep(&shape, head, monoid);
        }
        // A theta join only this Reduce reads never builds its joined rows.
        if matches!(**input, Alg::ThetaJoin { .. }) && !self.is_shared(input) {
            return self.reduce_theta(input, head, monoid);
        }
        let mut fused = self.peel_input(input, None)?;
        let ds = self.run_input(&mut fused)?;
        let head_rx = self.row_expr(head, &fused.scope)?;
        let (ev, passes) = (self.eval.clone(), self.sweep_filter(&fused));
        let label = if fused.pred_rx.is_some() {
            "fused_filter_map"
        } else {
            "map_partitions"
        };
        let outputs: Vec<Value> = ds
            .filter_transform(label, passes, move |env, out: &mut Vec<Value>| {
                let v = ev.eval(&head_rx, &env);
                out.push(v.unwrap_or(Value::Null))
            })?
            .collect();
        self.check_errors()?;
        reduce_outputs(monoid, outputs)
    }

    /// The pair pipeline beneath a `Reduce` ([`Alg::pair_pipeline`]). Its
    /// `Unnest`s may be shared — the sharing rewrite shares them between a
    /// DEDUP and a blocked DC over one `Nest` — and each consumer then
    /// sweeps the blocks itself: the candidate pairs are never built.
    fn pair_shape<'p>(&self, input: &'p Arc<Alg>) -> Option<PairShape<'p>> {
        input.pair_pipeline(|node| self.is_shared(node) && !matches!(**node, Alg::Unnest { .. }))
    }

    /// Run a recognized pair pipeline as one sweep over its block rows
    /// (`physical/pairs.rs`): the `Select` chain and both `Unnest`s are
    /// consumed structurally, under every profile. Budget, cancellation
    /// and deadline are checked per block inside the sweep.
    ///
    /// In a profile tree the sweep itself is the `Reduce` root (`rows_in` =
    /// index pairs enumerated, `rows_out` = pairs kept); the two `Unnest`s
    /// show as one child flagged `fused-pairs` over the block producer.
    ///
    /// Over a grouped `Nest` ([`Executor::grouped_blocks`]) the sweep
    /// walks its blocks as row ranges, a contiguous range of groups per
    /// partition, and never builds a group record or a member list; under
    /// a Bag of `{left: p1, right: p2}` over the scan's rows it keeps each
    /// pair as its two rows' indices ([`PairSweep::keeps_pairs`]).
    fn exec_pair_sweep(
        &mut self,
        shape: &PairShape<'_>,
        head: &CalcExpr,
        monoid: &MonoidKind,
    ) -> ExecResult<Output> {
        let (input, frame) = self.in_frame(|ex| ex.pair_input(shape.input))?;
        if let Some(frame) = frame {
            let flags = vec!["fused-pairs".to_string()];
            self.end_node(frame, "Unnest".to_string(), clip(shape.detail()), 0, flags);
        }
        // The pair-level Selects are consumed structurally.
        self.fused_selects += shape.preds.len();
        let scope;
        let (rows, sweep_input) = match input {
            PairInput::Blocks(pairs) => (None, SweepInput::Blocks(pairs)),
            PairInput::Rows(ds, fused) => {
                scope = fused.scope;
                let pred = fused.pred_rx;
                (
                    Some(ds),
                    SweepInput::Rows {
                        scope: &scope,
                        pred,
                    },
                )
            }
        };
        let (ctx, ev) = (Arc::clone(&self.ctx), self.eval.clone());
        let sweep = Arc::new(PairSweep::compile(
            shape,
            head,
            *monoid == MonoidKind::Bag,
            sweep_input,
            ctx,
            ev,
            |expr, scope| self.row_expr(expr, scope),
        )?);
        let worker = Arc::clone(&sweep);
        let emitted = match rows {
            Some(ds) => ds
                .map_partitions(move |rows| worker.run_partition(rows))
                .map(|values| Emitted::Values(values.collect())),
            None => {
                sweep.admit();
                let blocks = sweep.block_pairs();
                let tasks = blocks.tasks(self.ctx.default_partitions());
                let (ctx, n) = (&self.ctx, blocks.len() as u64);
                produce_partials(
                    ctx,
                    "map_partitions",
                    n,
                    tasks,
                    |_| 0,
                    |range| worker.run_blocks(range),
                )
                .map(|parts| sweep.emitted().concat(parts))
            }
        };
        // The fused node's output is known only now: the pairs enumerated.
        if let Some(node) = self.prof_children.last_mut().and_then(|c| c.last_mut()) {
            node.rows_out = sweep.enumerated();
        }
        let emitted = emitted?;
        sweep.stopped()?;
        self.check_errors()?;
        match emitted {
            Emitted::Values(values) => reduce_outputs(monoid, values),
            Emitted::Pairs(pairs) => {
                let sides = sweep.keeps_pairs().expect("the sweep kept pairs");
                Ok(Output::index_pairs(sides.clone(), pairs))
            }
        }
    }

    /// What a pair sweep walks: a grouped `Nest`'s blocks, or the block
    /// rows `input` produces, a `Select` chain beneath the first `Unnest`
    /// the sweep's block filter.
    fn pair_input<'p>(&mut self, input: &'p Arc<Alg>) -> ExecResult<PairInput<'p>> {
        if let Some(blocks) = self.grouped_blocks(input)? {
            return Ok(PairInput::Blocks(BlockPairs::within(blocks)));
        }
        if let Alg::Join { left, right, .. } = &**input {
            if self.is_grouped(left) && self.is_grouped(right) {
                if let Some(left) = self.grouped_blocks(left)? {
                    if let Some(right) = self.grouped_blocks(right)? {
                        return Ok(PairInput::Blocks(BlockPairs::joined(left, right)));
                    }
                }
            }
        }
        let mut fused = self.peel_input(input, None)?;
        let ds = self.run_input(&mut fused)?;
        Ok(PairInput::Rows(ds, fused))
    }

    /// The columnar fold of a grouped `Reduce`: when every consumer above
    /// a `Nest` reduces the group purely through monoid reductions
    /// (grouped aggregates, FD distinct-RHS tests — see `groupfold`) and
    /// the Nest reads a table by column, the table's key and slot columns
    /// fold into per-group accumulators in the grouping pass
    /// ([`group_pass`]) and the `(key, Vec<member>)` group lists are never
    /// built: an unshared `Nest` runs that pass for this fold alone
    /// ([`Executor::lower_columnar_fold`]); a
    /// `Nest` that runs as grouped blocks folded every fold consumer in its
    /// own pass ([`Executor::grouped_blocks`]). The group-level `Select`s
    /// and the Reduce itself are consumed structurally. Returns `None` —
    /// the Nest materializes its groups and the Reduce consumes them —
    /// when the plan does not match, when the `Nest` or an intermediate
    /// `Select` is a shared DAG node (its materialized result has other
    /// consumers) and the `Nest` is not grouped, for a non-collection outer
    /// monoid, or when the fold does not lower; a declined fold leaves no
    /// count, decision or profile node behind.
    ///
    /// Semantics note: aggregate member expressions are evaluated for
    /// *every* row during the fold, so an evaluation error in an aggregate
    /// the materialized path would only have computed for groups surviving
    /// an earlier group predicate surfaces eagerly here (as with any fused
    /// evaluation, errors can only appear earlier, never differently) —
    /// over grouped blocks, at the `Nest`'s first consumer.
    fn try_group_fold(&mut self, plan: &Arc<Alg>) -> ExecResult<Option<Output>> {
        let Alg::Reduce {
            input,
            monoid,
            head,
        } = &**plan
        else {
            return Ok(None);
        };
        if !matches!(monoid, MonoidKind::Bag | MonoidKind::Set) {
            return Ok(None);
        }
        let shared = |node: &Arc<Alg>| self.is_shared(node) && !self.is_grouped(node);
        let Some((_, key, item, group_var, group_preds)) = input.group_pipeline(shared) else {
            return Ok(None);
        };
        let Some(shape) = groupfold::recognize(group_var, item, head, &group_preds) else {
            return Ok(None);
        };
        let nest = beneath_selects(input);
        let (lowered, blocks) = if self.is_grouped(nest) {
            // A grouped Nest groups first, whatever this consumer's own
            // programs do, so one grouping serves every consumer; its pass
            // folded this consumer when the consumer's programs lowered.
            let blocks = self.grouped_blocks(nest)?;
            let at = Arc::as_ptr(plan) as usize;
            (self.shared_folds.get(&at).cloned(), blocks)
        } else {
            (self.lower_columnar_fold(nest, &shape)?.map(Arc::new), None)
        };
        let Some(lowered) = lowered else {
            return Ok(None);
        };
        self.compiled_exprs += lowered.compiled;
        self.fused_selects += group_preds.len();
        self.vectorized_rows += lowered.fold.scan.len() as u64;
        if self.profiling {
            self.last_fold_key = Some(clip(format!("by {key}")));
        }
        let folded = match (&lowered.finished, &blocks) {
            (Some(finished), Some(blocks)) => FoldedGroups {
                reps: blocks.reps().to_vec(),
                finished: finished.clone(),
                chunks: Vec::new(),
            },
            // Alone, it groups by its key in its own pass: a group-keeping
            // shape's probe keeps each chunk's rows for the gather.
            _ => {
                let fold = &lowered.fold;
                let pass = if shape.keeps_groups() {
                    Pass::Probe
                } else {
                    Pass::Fold
                };
                let (scan, ev) = (&fold.scan, &self.eval);
                let (reps, chunks, mut accs, _) =
                    group_pass(&self.ctx, pass, scan, &fold.key, &[fold], ev, |_| ())?;
                let finished = fold.finish(accs.pop().expect("one consumer"));
                FoldedGroups {
                    reps,
                    finished,
                    chunks,
                }
            }
        };
        let outputs = self.finish_fold(&lowered, &shape, folded, blocks.as_deref())?;
        if *monoid == MonoidKind::Set {
            let mut outputs = outputs.into_records();
            outputs.sort();
            outputs.dedup();
            return Ok(Some(outputs.into()));
        }
        Ok(Some(outputs))
    }

    /// Read `stored` by column for one route: the scan of the columns
    /// `fields` of the whole table ([`StoredTable::columns`]) with `filter`,
    /// the route's `Select` chain, as its one kernel, handed to `lower` for
    /// the route's own programs — on the driver, so under its own panic
    /// guard, with an interrupt check and the `columnarize` /
    /// `kernel_entry` fault sites (the chaos suite's). Returns what `lower`
    /// made; `None` for an empty table, rows that do not columnarize, or
    /// when the filter or `lower` declines.
    pub(super) fn lower_on_columns<T>(
        &self,
        stored: &StoredTable,
        fields: &[String],
        filter: Option<&Program>,
        lower: impl FnOnce(ColumnScan) -> Option<T>,
    ) -> ExecResult<Option<T>> {
        self.ctx.catch_driver("storage columnarization", || {
            if stored.is_empty() {
                return Ok(None);
            }
            self.ctx.check_interrupt("columnarize")?;
            self.ctx.fault_point(FaultSite::Columnarize, 0, 0)?;
            let Some((block, rows)) = stored.columns(fields) else {
                return Ok(None);
            };
            self.ctx.fault_point(FaultSite::KernelEntry, 0, 0)?;
            Ok(ColumnScan::lower(block, rows, filter).and_then(lower))
        })
    }

    /// Try to lower a recognized group fold of an unshared `nest` onto the
    /// stored table's columns (`physical/groupfold.rs`, [`ColumnarFold`]).
    /// Decided once, here: `None` — the Nest materializes its groups —
    /// unless the Nest's input is a scan the planner reads by column
    /// ([`Executor::columnar_source`]) beneath its fusible `WHERE` chain,
    /// the Nest's decision is `LocalAggregate`, a group-keeping shape's
    /// members are the scanned rows themselves, every program compiles,
    /// the table reads by column, and the chain, the key and every slot's
    /// member program lower to kernels over typed columns. On success —
    /// and only then — the Nest's decision is recorded and the fused
    /// `Select`s are counted; with the fold come the programs that finish
    /// each group, compiled against the shape's scope.
    ///
    /// Only the columns those expressions read are pivoted, as the
    /// vectorized `Select` pivots ([`Executor::lower_on_columns`]). In a
    /// profile tree the pivot is the fold's `Scan` child.
    fn lower_columnar_fold(
        &mut self,
        nest: &Arc<Alg>,
        shape: &AggFoldShape,
    ) -> ExecResult<Option<LoweredFold>> {
        let Alg::Nest {
            input: nest_input,
            key,
            item,
            ..
        } = &**nest
        else {
            unreachable!("a group pipeline ends in a Nest")
        };
        let (source, preds) = self.fusible_chain(nest_input);
        let Some((stored, var)) = self.columnar_source(source) else {
            return Ok(None);
        };
        // The columnar fold is the map-side-combine driver.
        if self.profile.nest != NestStrategy::LocalAggregate {
            return Ok(None);
        }
        let members_are_rows = matches!(item, CalcExpr::Var(v) if v == var);
        if shape.keeps_groups() && !members_are_rows {
            return Ok(None);
        }
        let chain = conjoin(&preds).map(|chain| self.compile(&chain, &[var.to_string()]));
        let (Ok(chain), Some(lower)) = (chain.transpose(), self.compile_fold(key, shape, var))
        else {
            return Ok(None);
        };
        let read = std::iter::once(key)
            .chain(shape.slots.iter().map(|s| &s.row_expr))
            .chain(preds.iter().copied());
        let fields = fields_of(var, read);
        let filter = chain.as_ref().map(|rx| rx.program());
        let (lowered, frame) =
            self.in_frame(|ex| ex.lower_on_columns(stored, &fields, filter, lower))?;
        let Some(mut lowered) = lowered else {
            if frame.is_some() {
                self.abort_node();
            }
            return Ok(None);
        };
        if let Some(frame) = frame {
            let (op, detail) = plan_label(source);
            self.end_node(frame, op, detail, stored.len() as u64, Vec::new());
        }
        self.decide_nest(key);
        self.fused_selects += preds.len();
        lowered.compiled += usize::from(chain.is_some());
        Ok(Some(lowered))
    }

    /// Compile a recognized fold's programs, uncounted — the key and each
    /// slot's member over the scan variable `var`, the group predicates and
    /// head over the shape's scope — into what lowers the fold onto a scan
    /// ([`ColumnarFold::lower`]; `None` when a program does not lower).
    /// `None` when one does not compile: the materialized path's to report.
    fn compile_fold<'s>(
        &self,
        key: &CalcExpr,
        shape: &'s AggFoldShape,
        var: &str,
    ) -> Option<impl FnOnce(ColumnScan) -> Option<LoweredFold> + 's> {
        let scope = [var.to_string()];
        let row = |e: &CalcExpr| self.compile(e, &scope);
        let group = |e: &CalcExpr| self.compile(e, &shape.scope);
        let key = row(key).ok()?;
        let slots = shape.slots.iter().map(|s| row(&s.row_expr));
        let slots: Vec<_> = slots.collect::<ExecResult<_>>().ok()?;
        let preds = shape.preds.iter().map(group);
        let preds: Vec<_> = preds.collect::<ExecResult<_>>().ok()?;
        let head = shape.head.as_ref().map(group).transpose().ok()?;
        Some(move |scan| {
            let programs: Vec<&Program> = slots.iter().map(|rx| rx.program()).collect();
            Some(LoweredFold {
                fold: ColumnarFold::lower(scan, key.program(), &shape.slots, &programs)?,
                compiled: 1 + slots.len() + preds.len() + usize::from(head.is_some()),
                finish: (preds, head),
                finished: None,
            })
        })
    }

    /// Finish a folded fold ([`Executor::try_group_fold`]): the finished
    /// slots as one batch, a row per group ([`ColumnarFold::finish_batch`],
    /// with the key's column only when a finish program reads it): group
    /// predicates that lower run as [`PredKernel`] sweeps over it, a head
    /// of key and slot references is built from it by a
    /// [`ColumnProgram`]; what does not lower runs its compiled program
    /// once per group over a reused environment filled from the batch.
    ///
    /// Aggregate heads finish on the pool (`group_finish`). A
    /// group-keeping shape decides the passing groups, then reads their
    /// members — the stored row values in ascending row order — off the
    /// row ranges of the grouped `blocks` it folded in, or, alone, gathers
    /// them by index in one `group_fold_materialize` stage that sees the
    /// violating rows alone; with no passing group it does not run.
    fn finish_fold(
        &mut self,
        lowered: &LoweredFold,
        shape: &AggFoldShape,
        folded: FoldedGroups,
        blocks: Option<&GroupedBlocks>,
    ) -> ExecResult<Output> {
        self.check_errors()?;
        let (fold, (finish_preds, finish_head)) = (&lowered.fold, &lowered.finish);
        let ev = self.eval.clone();

        let groups = folded.reps.len() as u32;
        let reads_key = |e: &CalcExpr| free_vars(e).contains(KEY_SLOT_VAR);
        let with_key = shape.preds.iter().chain(&shape.head).any(reads_key);
        let batch = fold.finish_batch(&folded.reps, folded.finished, with_key);
        let batch = Arc::new(batch);
        let scope = &shape.scope;
        // The group predicates run as kernel sweeps over the finished
        // slots when every one lowers; otherwise per group over its row.
        let kernels: Option<Vec<PredKernel>> = (finish_preds.iter())
            .map(|rx| PredKernel::compile_slots(rx.program(), &batch, scope))
            .collect();
        // Fill group `g`'s finish row: the key (when read), then each slot.
        let fill = |g: u32, env: &mut RowEnv| {
            let skip = usize::from(!with_key);
            for (cell, col) in env[skip..].iter_mut().zip(batch.columns()) {
                *cell = col.value(g as usize);
            }
        };
        // The groups of `lo..hi` that pass every group predicate.
        let select = |(lo, hi): (u32, u32)| -> Vec<u32> {
            let mut sel: Vec<u32> = (lo..hi).collect();
            match &kernels {
                Some(kernels) => kernels.iter().for_each(|k| {
                    assert!(k.filter(&batch, &mut sel), "finish kernel bound elsewhere")
                }),
                None => {
                    let mut env: RowEnv = vec![Value::Null; scope.len()];
                    sel.retain(|&g| {
                        fill(g, &mut env);
                        finish_preds.iter().all(|rx| ev.holds(rx, &env))
                    });
                }
            }
            sel
        };

        let Some(head_rx) = finish_head else {
            // ---- Group-keeping (FD): decide, then gather by index ----
            let passing =
                (self.ctx).catch_driver("group fold decide", || Ok(select((0, groups))))?;
            self.check_errors()?;
            if passing.is_empty() {
                return Ok(Output::default());
            }
            let keyed = passing.iter().map(|&g| fold.key_value(&folded.reps, g));
            if let Some(blocks) = blocks {
                let rows = |g: u32| blocks.rows(g).iter().map(|&r| fold.scan.row(r).clone());
                let members = passing.iter().map(|&g| rows(g).collect());
                let records: Vec<Value> = keyed.zip(members).map(group_record).collect();
                return Ok(records.into());
            }
            const NONE: u32 = u32::MAX;
            let (mut out_of, mut sizes) =
                (vec![NONE; groups as usize], vec![0u32; groups as usize]);
            for (out, &g) in passing.iter().enumerate() {
                out_of[g as usize] = out as u32;
            }
            for &g in folded.chunks.iter().flat_map(|(_, codes, _)| codes) {
                sizes[g as usize] += 1;
            }
            let size = |g: &u32| sizes[*g as usize];
            let violating: u64 = passing.iter().map(|g| size(g) as u64).sum();
            // The per-chunk member lists a keyed shuffle would have moved.
            let kept = |(.., groups): &ChunkIds| {
                groups
                    .iter()
                    .filter(|&&g| out_of[g as usize] != NONE)
                    .count() as u64
            };
            let moved: u64 = folded.chunks.iter().map(kept).sum();
            let gathered = produce_partials(
                &self.ctx,
                "group_fold_materialize",
                violating,
                folded.chunks,
                |_| moved,
                |(rows, codes, _)| -> Vec<(u32, Value)> {
                    let placed = codes.iter().map(|&g| out_of[g as usize]);
                    (placed.zip(&rows))
                        .filter(|(out, _)| *out != NONE)
                        .map(|(out, &at)| (out, fold.scan.row(at).clone()))
                        .collect()
                },
            )?;
            let mut members: Vec<Vec<Value>> = passing
                .iter()
                .map(|g| Vec::with_capacity(size(g) as usize))
                .collect();
            for (out, row) in gathered.into_iter().flatten() {
                members[out as usize].push(row);
            }
            let records: Vec<Value> = keyed.zip(members).map(group_record).collect();
            return Ok(records.into());
        };

        // ---- Grouped aggregates: finish each group on the pool ----
        // A head of key and slot references is read off the batch.
        let head = ColumnProgram::lower_slots(head_rx.program(), &batch, scope);
        let outputs: Vec<Value> = produce_partitions(
            &self.ctx,
            "group_finish",
            groups as u64,
            chunk_ranges(groups, self.ctx.default_partitions()),
            |range| {
                let passing = select(range);
                if let Some(head) = &head {
                    return passing.into_iter().map(|g| head.value(g)).collect();
                }
                let mut env: RowEnv = vec![Value::Null; scope.len()];
                let mut out = Vec::with_capacity(passing.len());
                for g in passing {
                    fill(g, &mut env);
                    out.extend(ev.eval(head_rx, &env));
                }
                out
            },
        )?
        .collect();
        self.check_errors()?;
        Ok(outputs.into())
    }

    pub(super) fn check_errors(&self) -> ExecResult<()> {
        let mut errs = self.eval.errors.lock();
        if let Some(first) = errs.first() {
            let e = ExecError::Value(first.clone());
            errs.clear();
            return Err(e);
        }
        Ok(())
    }

    /// Execute a row-producing node (anything but `Reduce`): every row of
    /// the result is [`env_layout`]`(plan)` wide.
    pub(crate) fn run(&mut self, plan: &Arc<Alg>) -> ExecResult<Dataset<RowEnv>> {
        let key = Arc::as_ptr(plan) as usize;
        let memoize = self.is_shared(plan);
        if memoize {
            if let Some(cached) = self.cache.get(&key) {
                let cached = cached.clone();
                self.cached_leaf(plan, cached.count() as u64);
                return Ok(cached);
            }
        }
        let (result, frame) = self.in_frame(|ex| ex.run_uncached(plan))?;
        if let Some(frame) = frame {
            let (op, detail) = plan_label(plan);
            let mut flags = Vec::new();
            if memoize {
                flags.push("shared".to_string());
            }
            if matches!(&**plan, Alg::Nest { .. }) {
                flags.push("materialize-groups".to_string());
            }
            self.end_node(frame, op, detail, result.count() as u64, flags);
        }
        if memoize {
            self.cache.insert(key, result.clone());
        }
        Ok(result)
    }

    /// A reuse of a memoized DAG node: a zero-cost leaf in the profile
    /// tree (its compute was profiled at the first consumer, flagged
    /// `shared`).
    fn cached_leaf(&mut self, plan: &Alg, rows: u64) {
        if !self.profiling {
            return;
        }
        let (op, detail) = plan_label(plan);
        let lo = self.ctx.metrics().stage_count();
        let dlo = self.decisions.len();
        self.prof_children
            .last_mut()
            .expect("profiling root collector")
            .push(ProfileNode {
                op,
                detail,
                rows_in: rows,
                rows_out: rows,
                flags: vec!["cached".to_string()],
                stage_range: (lo, lo),
                decision_range: (dlo, dlo),
                ..ProfileNode::default()
            });
    }

    fn run_uncached(&mut self, plan: &Arc<Alg>) -> ExecResult<Dataset<RowEnv>> {
        match &**plan {
            Alg::Scan { table, .. } => {
                let stored = self
                    .tables
                    .get(table)
                    .ok_or_else(|| ExecError::Other(format!("unknown table `{table}`")))?;
                let mut envs: Vec<RowEnv> = Vec::with_capacity(stored.len());
                envs.extend(stored.iter_rows().map(|r| vec![r.clone()]));
                Ok(Dataset::from_vec(&self.ctx, envs))
            }
            Alg::Select { input, pred } => {
                // Collapse the fusible chain *below* this node into this
                // node's pass: n stacked Selects (e.g. DEDUP's similarity +
                // rowid predicates) run as one partition sweep instead of
                // n, this node's predicate last — or, directly over a
                // plain scan, as one whole-column kernel sweep.
                let mut fused = self.peel_input(input, Some(pred))?;
                let ds = self.run_input(&mut fused)?;
                if fused.pred_rx.is_none() {
                    return Ok(ds);
                }
                let passes = self.sweep_filter(&fused);
                let out = ds.filter_partitions(move |part| part.retain(&passes))?;
                self.check_errors()?;
                Ok(out)
            }
            Alg::Unnest { input, path, .. } => {
                let mut fused = self.peel_input(input, None)?;
                let ds = self.run_input(&mut fused)?;
                // A lone fan-out (or one whose path reads an outer unnest
                // variable) charges the work budget by its input size: its
                // output is not known before the paths are evaluated. Pair
                // pipelines never come here — the block sweep charges each
                // block its `|A|·|B|` before enumerating it.
                self.ctx.consume_budget("flat_map", ds.count() as u64)?;
                let path_rx = self.row_expr(path, &fused.scope)?;
                let ev = self.eval.clone();
                let label = if fused.pred_rx.is_some() {
                    "fused_filter_flat_map"
                } else {
                    "flat_map"
                };
                let out = ds.filter_transform(
                    label,
                    self.sweep_filter(&fused),
                    move |env, out: &mut Vec<RowEnv>| match ev.eval(&path_rx, &env) {
                        Some(Value::List(items)) => out.extend(items.iter().map(|item| {
                            let mut e = Vec::with_capacity(env.len() + 1);
                            e.extend_from_slice(&env);
                            e.push(item.clone());
                            e
                        })),
                        Some(Value::Null) | None => {}
                        Some(other) => ev.record(format!("unnest over non-list `{other}`")),
                    },
                )?;
                self.check_errors()?;
                Ok(out)
            }
            Alg::Nest {
                input, key, item, ..
            } => {
                // A consumer of grouped blocks whose own programs did not
                // lower reads the groups built from the blocks.
                if let Some(Some(blocks)) = self.blocks.get(&(Arc::as_ptr(plan) as usize)) {
                    return Ok(blocks.materialize(&self.ctx));
                }
                let mut fused = self.peel_input(input, None)?;
                let ds = self.run_input(&mut fused)?;
                self.exec_nest(ds, key, item, &fused)
            }
            Alg::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let mut lfused = self.peel_input(left, None)?;
                let mut rfused = self.peel_input(right, None)?;
                let lds = self.run_input(&mut lfused)?;
                let rds = self.run_input(&mut rfused)?;
                let lkey_rx = self.row_expr(left_key, &lfused.scope)?;
                let rkey_rx = self.row_expr(right_key, &rfused.scope)?;
                let keyed = |ds: Dataset<RowEnv>, key_rx: Arc<RowExpr>, fused: &FusedInput<'_>| {
                    let ev = self.eval.clone();
                    let label = if fused.pred_rx.is_none() {
                        "map_partitions"
                    } else {
                        "fused_filter_map"
                    };
                    ds.filter_transform(
                        label,
                        self.sweep_filter(fused),
                        move |env, out: &mut Vec<(Value, RowEnv)>| {
                            let k = ev.eval(&key_rx, &env);
                            out.push((k.unwrap_or(Value::Null), env));
                        },
                    )
                };
                let lk = keyed(lds, lkey_rx, &lfused)?;
                let rk = keyed(rds, rkey_rx, &rfused)?;
                self.check_errors()?;
                // A joined row: the left row's slots, then the right row's.
                lk.join_hash(rk)?.map(|(_, mut row, right)| {
                    row.extend(right);
                    row
                })
            }
            Alg::ThetaJoin { .. } => self.run_theta(plan),
            Alg::Reduce { .. } => Err(ExecError::Other(
                "nested Reduce must be consumed via run_reduce".to_string(),
            )),
        }
    }

    /// A Nest's shuffle — the profile's, as given — recorded as a plan
    /// decision.
    fn decide_nest(&mut self, key: &CalcExpr) -> NestStrategy {
        let strategy = self.profile.nest;
        let reason = "fixed profile".to_string();
        self.record_decision("nest", key.to_string(), format!("{strategy:?}"), reason);
        strategy
    }

    pub(super) fn record_decision(
        &mut self,
        operator: &'static str,
        node: String,
        strategy: String,
        reason: String,
    ) {
        self.decisions.push(PlanDecision {
            operator,
            node,
            strategy,
            reason,
        });
    }

    /// The Nest translation of Table 2, by profile strategy. What is left
    /// of `fused`'s `Select` chain filters inside the pair-emission sweep,
    /// so the filtered intermediate collection is never materialized.
    fn exec_nest(
        &mut self,
        ds: Dataset<RowEnv>,
        key: &CalcExpr,
        item: &CalcExpr,
        fused: &FusedInput<'_>,
    ) -> ExecResult<Dataset<RowEnv>> {
        let key_rx = self.row_expr(key, &fused.scope)?;
        let item_rx = self.row_expr(item, &fused.scope)?;
        let ev = self.eval.clone();
        let label = if fused.pred_rx.is_none() {
            "flat_map"
        } else {
            "fused_filter_flat_map"
        };
        // Emit (block key, item) pairs; a list key multi-assigns (token
        // filtering / k-means with delta).
        let pairs: Dataset<(Value, Value)> = ds.filter_transform(
            label,
            self.sweep_filter(fused),
            move |env, out: &mut Vec<(Value, Value)>| {
                let Some(k) = ev.eval(&key_rx, &env) else {
                    return;
                };
                let Some(it) = ev.eval(&item_rx, &env) else {
                    return;
                };
                match k {
                    Value::List(keys) => out.extend(keys.iter().map(|kk| (kk.clone(), it.clone()))),
                    scalar => out.push((scalar, it)),
                }
            },
        )?;
        self.check_errors()?;
        let strategy = self.decide_nest(key);
        // `mapPartitions`-style finishing: each group becomes the one-slot
        // row binding the Nest's group variable.
        let groups = pairs.group_by_key(strategy, nest_stage_label(strategy))?;
        groups.map(|group| vec![group_record(group)])
    }
}

/// A consumer's input, split for fusion by [`Executor::peel_input`]: the
/// producer beneath the chain of fusible `Select`s, and the chain as the
/// filter of the consumer's own sweep.
struct FusedInput<'p> {
    /// The producer beneath the peeled chain.
    source: &'p Arc<Alg>,
    /// The producer's row layout: what the chain and the consumer's
    /// expressions compile against.
    scope: Vec<String>,
    /// The chain's predicates in evaluation order, innermost first.
    preds: Vec<&'p CalcExpr>,
    /// The chain as one program. `None` when it is empty, or once
    /// [`Executor::run_input`] has applied it by column.
    pred_rx: Option<Arc<RowExpr>>,
}

/// A fold lowered onto columns ([`Executor::lower_columnar_fold`],
/// [`Executor::compile_fold`]): the fold, its finish programs, how
/// many programs it compiled (counted when it runs) and — when it folded in
/// a grouped `Nest`'s pass — its finished slots by block.
struct LoweredFold {
    fold: ColumnarFold,
    finish: Finish,
    compiled: usize,
    finished: Option<Vec<Column>>,
}

/// A consumer of a grouped `Nest` ([`Executor::block_consumers`]): the
/// `Nest`, the node that reads it, the consumer's shape when it folds
/// (`None`: it pairs the members), and the fields it reads.
type BlockConsumer<'p> = (
    &'p Arc<Alg>,
    &'p Arc<Alg>,
    Option<AggFoldShape>,
    Vec<String>,
);

/// A fold consumer of a grouped `Nest`: its `Reduce` root and its shape.
type FoldConsumer = (Arc<Alg>, AggFoldShape);

/// What a pair sweep walks ([`Executor::pair_input`]).
enum PairInput<'p> {
    Blocks(BlockPairs),
    Rows(Dataset<RowEnv>, FusedInput<'p>),
}

/// The programs that finish each group of a columnar fold, over the
/// shape's scope: the group predicates, then the head (`None` for a
/// group-keeping shape).
type Finish = (Vec<Arc<RowExpr>>, Option<Arc<RowExpr>>);

/// The fields of the scan variable `var` that `exprs` read, sorted and
/// deduplicated: the columns a column-first operator over that scan pivots.
pub(super) fn fields_of<'e>(
    var: &str,
    exprs: impl IntoIterator<Item = &'e CalcExpr>,
) -> Vec<String> {
    let read = exprs.into_iter().flat_map(columns_in);
    let mut fields: Vec<String> = read.filter(|(v, _)| v == var).map(|(_, f)| f).collect();
    fields.sort_unstable();
    fields.dedup();
    fields
}

/// Every base-column reference `var.field` inside `expr`, in reading
/// order.
fn columns_in(expr: &CalcExpr) -> Vec<(String, String)> {
    fn walk(e: &CalcExpr, out: &mut Vec<(String, String)>) {
        if let CalcExpr::Proj(inner, field) = e {
            if let CalcExpr::Var(v) = &**inner {
                out.push((v.clone(), field.clone()));
                return;
            }
        }
        e.for_each_child(&mut |child| walk(child, out));
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// Combine the head values of a `Reduce` under its monoid: collections
/// keep them (a set sorted and deduplicated), a primitive monoid folds
/// them into one value.
pub(super) fn reduce_outputs(monoid: &MonoidKind, outputs: Vec<Value>) -> ExecResult<Output> {
    Ok(Output::from(match monoid {
        MonoidKind::Bag | MonoidKind::List => outputs,
        MonoidKind::Set => {
            let mut o = outputs;
            o.sort();
            o.dedup();
            o
        }
        prim => {
            let mut acc = prim.zero();
            for v in outputs {
                acc = merge_values(prim, acc, v).map_err(|e| ExecError::Value(e.to_string()))?;
            }
            vec![acc]
        }
    }))
}

/// A materialized group as the `{key, partition}` record the group variable
/// binds.
pub(super) fn group_record((key, members): (Value, Vec<Value>)) -> Value {
    Value::record([("key", key), ("partition", Value::list(members))])
}

/// The node of `plan`'s chain of one-input nodes that reads `target`.
fn reader_of<'p>(mut plan: &'p Arc<Alg>, target: &Arc<Alg>) -> &'p Arc<Alg> {
    loop {
        let (Alg::Select { input, .. }
        | Alg::Unnest { input, .. }
        | Alg::Nest { input, .. }
        | Alg::Reduce { input, .. }) = &**plan
        else {
            unreachable!("a consumer's chain reaches its Nest")
        };
        if Arc::ptr_eq(input, target) {
            return plan;
        }
        plan = input;
    }
}

/// `e` of a keyed `Nest`'s key `BlockKeys(algo)(e)`.
fn block_keys_arg(key: &CalcExpr) -> Option<&CalcExpr> {
    match key {
        CalcExpr::Call(Func::BlockKeys(_), args) if args.len() == 1 => Some(&args[0]),
        _ => None,
    }
}

/// The node beneath a chain of `Select`s.
fn beneath_selects(mut node: &Arc<Alg>) -> &Arc<Alg> {
    while let Alg::Select { input, .. } = &**node {
        node = input;
    }
    node
}

/// Operator label and defining-expression detail of a plan node, as shown
/// in profile trees. `Select` details render the node's own predicate; a
/// collapsed chain's extra predicates show up in the node's fused count.
pub(super) fn plan_label(plan: &Alg) -> (String, String) {
    match plan {
        Alg::Scan { table, var } => ("Scan".to_string(), clip(format!("{table} as {var}"))),
        Alg::Select { pred, .. } => ("Select".to_string(), clip(pred)),
        Alg::Unnest { path, var, .. } => ("Unnest".to_string(), clip(format!("{path} as {var}"))),
        Alg::Nest { key, .. } => ("Nest".to_string(), clip(format!("by {key}"))),
        Alg::Join {
            left_key,
            right_key,
            ..
        } => (
            "Join".to_string(),
            clip(format!("{left_key} = {right_key}")),
        ),
        Alg::ThetaJoin { pred, .. } => ("ThetaJoin".to_string(), clip(pred)),
        Alg::Reduce { monoid, head, .. } => (format!("Reduce[{monoid:?}]"), clip(head)),
    }
}

/// Conjoin a peeled Select chain left-to-right in evaluation order
/// (`(p1 and p2) and p3`): `and`'s short-circuit preserves exactly the
/// stacked-Select semantics (truthiness per stage, inner errors surface,
/// outer predicates unreached once an inner one rejects). `None` when the
/// chain is empty.
pub(super) fn conjoin(preds: &[&CalcExpr]) -> Option<CalcExpr> {
    let (first, rest) = preds.split_first()?;
    Some(rest.iter().fold((*first).clone(), |acc, p| {
        CalcExpr::bin(crate::calculus::BinOp::And, acc, (*p).clone())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::lower_op;
    use crate::algebra::plan::{HintKind, ThetaHint};
    use crate::calculus::desugar::ROWID_FIELD;
    use crate::calculus::{desugar_query, BinOp};
    use crate::lang::parse_query;
    use crate::physical::{PhaseSplit, QueryProfile};

    fn row(id: i64, addr: &str, nation: i64, name: &str) -> Value {
        Value::record([
            (ROWID_FIELD, Value::Int(id)),
            ("address", Value::str(addr)),
            ("nationkey", Value::Int(nation)),
            ("name", Value::str(name)),
        ])
    }

    fn catalog() -> HashMap<String, StoredTable> {
        let mut t = HashMap::new();
        t.insert(
            "customer".to_string(),
            StoredTable::from_rows(vec![
                row(0, "a st", 1, "anderson"),
                row(1, "a st", 2, "andersen"),
                row(2, "b st", 3, "zhang"),
                row(3, "b st", 3, "zhong"),
                row(4, "c st", 4, "miller"),
            ]),
        );
        t
    }

    fn exec_sql(sql: &str, profile: EngineProfile) -> Vec<Value> {
        let q = parse_query(sql).unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        let plan = lower_op(&dq.ops[0].comp).unwrap();
        let tables = catalog();
        let mut eval_ctx = EvalCtx::new();
        eval_ctx.prepare_blockers(&dq.ops[0].comp, &[]);
        let ctx = ExecContext::new(2, 4);
        let mut executor = Executor::new(ctx, profile, &tables, Arc::new(eval_ctx));
        executor.run_reduce(&plan).unwrap().into_records()
    }

    #[test]
    fn fd_executes_identically_under_all_profiles() {
        let sql = "SELECT * FROM customer c FD(c.address, c.nationkey)";
        for profile in [
            EngineProfile::clean_db(),
            EngineProfile::spark_sql_like(),
            EngineProfile::big_dansing_like(),
        ] {
            let name = profile.name.clone();
            let out = exec_sql(sql, profile);
            assert_eq!(out.len(), 1, "{name}: only `a st` violates");
            assert_eq!(out[0].field("key").unwrap(), &Value::str("a st"));
        }
    }

    #[test]
    fn dedup_finds_similar_pair_distributed() {
        let sql = "SELECT * FROM customer c DEDUP(token_filtering(2), LD, 0.7, c.name)";
        let out = exec_sql(sql, EngineProfile::clean_db());
        // anderson/andersen are similar; pairs may appear once per shared
        // block, so dedup on the pair identity.
        let mut pair_ids: Vec<(i64, i64)> = out
            .iter()
            .map(|p| {
                (
                    p.field("left")
                        .unwrap()
                        .field(ROWID_FIELD)
                        .unwrap()
                        .as_int()
                        .unwrap(),
                    p.field("right")
                        .unwrap()
                        .field(ROWID_FIELD)
                        .unwrap()
                        .as_int()
                        .unwrap(),
                )
            })
            .collect();
        pair_ids.sort_unstable();
        pair_ids.dedup();
        assert!(pair_ids.contains(&(0, 1)), "{pair_ids:?}");
        assert!(!pair_ids.contains(&(2, 4)));
    }

    #[test]
    fn nest_strategies_agree_on_results() {
        let sql = "SELECT * FROM customer c DEDUP(exact, LD, 0.7, c.address, c.name)";
        let mut results: Vec<Vec<Value>> = Vec::new();
        for profile in [
            EngineProfile::clean_db(),
            EngineProfile::spark_sql_like(),
            EngineProfile::big_dansing_like(),
        ] {
            let mut out = exec_sql(sql, profile);
            out.sort();
            results.push(out);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn shared_plans_execute_nest_once() {
        // Two ops sharing a grouping: once the sharing rewrite ran, the
        // Nest's shuffle runs once (visible in stage reports).
        let q = parse_query(
            "SELECT * FROM customer c \
             FD(c.address, c.nationkey) \
             DEDUP(exact, LD, 0.7, c.address, c.name)",
        )
        .unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        let plans: Vec<Arc<Alg>> = dq
            .ops
            .iter()
            .map(|op| lower_op(&op.comp).unwrap())
            .collect();
        let (shared, stats) = crate::algebra::rewrite_shared(&plans);
        assert_eq!(stats.shared_nests, 1);

        let tables = catalog();
        let count_group_stages = |profile: EngineProfile, plans: &[Arc<Alg>]| {
            let ctx = ExecContext::new(2, 4);
            let mut eval_ctx = EvalCtx::new();
            for op in &dq.ops {
                eval_ctx.prepare_blockers(&op.comp, &[]);
            }
            let mut ex = Executor::new(ctx.clone(), profile, &tables, Arc::new(eval_ctx));
            ex.register_plans(plans);
            for p in plans {
                ex.run_reduce(p).unwrap();
            }
            ctx.metrics()
                .snapshot()
                .stages
                .iter()
                .filter(|s| s.operator.contains("aggregate") || s.operator.contains("group"))
                .count()
        };
        let shared_runs = count_group_stages(EngineProfile::clean_db(), &shared);
        let unshared_runs = count_group_stages(EngineProfile::spark_sql_like(), &plans);
        assert_eq!(shared_runs, 1, "CleanDB: one aggregation for both ops");
        assert_eq!(unshared_runs, 2, "SparkSQL-like: one per op");
    }

    #[test]
    fn theta_join_via_plan() {
        // Manual ThetaJoin plan: pairs (l, r) with l.nationkey < r.nationkey.
        let plan = lt_join("customer", "nationkey", pair_ids());
        let tables = catalog();
        // nation keys: 1,2,3,3,4 -> pairs with l<r: (1,*4)=4? count manually:
        // 1<2,1<3,1<3,1<4; 2<3,2<3,2<4; 3<4,3<4 = 9
        for profile in [
            EngineProfile::clean_db(),
            EngineProfile::spark_sql_like(),
            EngineProfile::big_dansing_like(),
        ] {
            let ctx = ExecContext::new(2, 4);
            let mut ex = Executor::new(ctx, profile.clone(), &tables, Arc::new(EvalCtx::new()));
            let out = ex.run_reduce(&plan).unwrap();
            assert_eq!(out.len(), 9, "{}", profile.name);
        }
    }

    #[test]
    fn shared_theta_join_runs_once_for_both_consumers() {
        // Two Reduces over one ThetaJoin node: the join runs once, its
        // sides read by row, and its joined rows serve both consumers.
        let pairs_plan = lt_join("customer", "nationkey", pair_ids());
        let Alg::Reduce { input, .. } = &*pairs_plan else {
            unreachable!("lt_join builds a Reduce")
        };
        let rights_plan = Arc::new(Alg::Reduce {
            input: Arc::clone(input),
            monoid: MonoidKind::Bag,
            head: CalcExpr::proj(CalcExpr::var("t2"), ROWID_FIELD),
        });
        let tables = catalog();
        let ctx = ExecContext::new(2, 4);
        let profile = EngineProfile::clean_db();
        let mut ex = Executor::new(ctx.clone(), profile, &tables, Arc::new(EvalCtx::new()));
        ex.register_plans(&[Arc::clone(&pairs_plan), Arc::clone(&rights_plan)]);
        let pairs = ex.run_reduce(&pairs_plan).unwrap();
        let rights = ex.run_reduce(&rights_plan).unwrap();
        assert_eq!(pairs.len(), 9);
        let r_of: Vec<Value> = pairs
            .iter()
            .map(|p| p.field("r").unwrap().clone())
            .collect();
        assert_eq!(rights, r_of, "the same joined rows, in the same order");
        let stages = ctx.metrics().snapshot().stages;
        let joins = stages.iter().filter(|s| s.operator == "mbucket_join");
        assert_eq!(joins.count(), 1);
        assert_eq!(ex.decisions.len(), 1);
        assert_eq!(ex.vectorized_rows, 0);
    }

    /// `t1.__rowid` / `t2.__rowid` as a `{l, r}` record.
    fn pair_ids() -> CalcExpr {
        let id = |v: &str| CalcExpr::proj(CalcExpr::var(v), ROWID_FIELD);
        CalcExpr::record(vec![("l", id("t1")), ("r", id("t2"))])
    }

    /// `Reduce[Bag] head` over the self-join of `table` as `t1`, `t2` on
    /// `t1.field < t2.field`, hinted `LeftLessThanRight`.
    fn lt_join(table: &str, field: &str, head: CalcExpr) -> Arc<Alg> {
        let scan = |var: &str| {
            Arc::new(Alg::Scan {
                table: table.into(),
                var: var.into(),
            })
        };
        let key = |var: &str| CalcExpr::proj(CalcExpr::var(var), field);
        Arc::new(Alg::Reduce {
            input: Arc::new(Alg::ThetaJoin {
                left: scan("t1"),
                right: scan("t2"),
                pred: CalcExpr::bin(BinOp::Lt, key("t1"), key("t2")),
                hint: ThetaHint {
                    left_key: key("t1"),
                    right_key: key("t2"),
                    kind: HintKind::LeftLessThanRight,
                },
            }),
            monoid: MonoidKind::Bag,
            head,
        })
    }

    #[test]
    fn columns_in_walks_records_and_calls() {
        let key = CalcExpr::record(vec![
            ("a", CalcExpr::proj(CalcExpr::var("c"), "address")),
            ("n", CalcExpr::proj(CalcExpr::var("c"), "nationkey")),
        ]);
        let cols = columns_in(&key);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0], ("c".to_string(), "address".to_string()));
    }

    #[test]
    fn hot_path_expressions_run_compiled() {
        // Every expression of the quickstart FD+DEDUP plan lowers to a
        // slot-resolved program.
        let q = parse_query(
            "SELECT * FROM customer c \
             FD(c.address, c.nationkey) \
             DEDUP(token_filtering(2), LD, 0.7, c.name)",
        )
        .unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        let plans: Vec<Arc<Alg>> = dq
            .ops
            .iter()
            .map(|op| lower_op(&op.comp).unwrap())
            .collect();
        let tables = catalog();
        let mut eval_ctx = EvalCtx::new();
        for op in &dq.ops {
            eval_ctx.prepare_blockers(&op.comp, &[]);
        }
        let ctx = ExecContext::new(2, 4);
        let mut ex = Executor::new(ctx, EngineProfile::clean_db(), &tables, Arc::new(eval_ctx));
        ex.register_plans(&plans);
        for p in &plans {
            ex.run_reduce(p).unwrap();
        }
        assert!(ex.compiled_exprs > 0, "compiled path must engage");
    }

    #[test]
    fn unbound_name_fails_typed_before_any_row_runs() {
        // A hand-built plan whose head reads a variable no operator binds:
        // the query fails when the head is compiled — over an empty table
        // as over a populated one, fused or operator-at-a-time.
        let plan = Arc::new(Alg::Reduce {
            input: Arc::new(Alg::Scan {
                table: "customer".into(),
                var: "c".into(),
            }),
            monoid: MonoidKind::Bag,
            head: CalcExpr::proj(CalcExpr::var("d"), "name"),
        });
        let mut empty = HashMap::new();
        empty.insert("customer".to_string(), StoredTable::from_rows(Vec::new()));
        for tables in [empty, catalog()] {
            for profile in [EngineProfile::clean_db(), EngineProfile::spark_sql_like()] {
                let ctx = ExecContext::new(2, 4);
                let mut ex = Executor::new(ctx.clone(), profile, &tables, Arc::new(EvalCtx::new()));
                let err = ex.run_reduce(&plan).unwrap_err();
                assert!(
                    matches!(&err, ExecError::Value(m) if m.contains("unbound variable `d`")),
                    "{err}"
                );
                let stages = ctx.metrics().snapshot().stages;
                assert!(
                    stages.iter().all(|s| s.operator != "map_partitions"),
                    "the head sweep must not start: {stages:?}"
                );
            }
        }
    }

    #[test]
    fn select_chains_fuse_into_consumers() {
        // FD with a WHERE lowers to Reduce ← Select ← Nest ← Select ← Scan:
        // under a fusing profile both Selects run inside their consumers'
        // passes, and the result matches the operator-at-a-time baseline.
        let sql = "SELECT * FROM customer c WHERE c.nationkey > 0 FD(c.address, c.nationkey)";
        let q = parse_query(sql).unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        let plan = lower_op(&dq.ops[0].comp).unwrap();
        let tables = catalog();
        let run_with = |profile: EngineProfile| {
            let mut eval_ctx = EvalCtx::new();
            eval_ctx.prepare_blockers(&dq.ops[0].comp, &[]);
            let ctx = ExecContext::new(2, 4);
            let mut ex = Executor::new(ctx, profile, &tables, Arc::new(eval_ctx));
            ex.register_plans(std::slice::from_ref(&plan));
            let mut out = ex.run_reduce(&plan).unwrap().into_records();
            out.sort();
            (out, ex.fused_selects)
        };
        let (fused_out, fused_count) = run_with(EngineProfile::clean_db());
        let (unfused_out, unfused_count) = run_with(EngineProfile::spark_sql_like());
        assert_eq!(fused_out, unfused_out, "fusion must not change results");
        assert_eq!(fused_count, 2, "both Selects fuse into Reduce and Nest");
        assert_eq!(unfused_count, 0, "operator-at-a-time profile fuses nothing");
    }

    #[test]
    fn fused_scalar_reduce_is_one_filter_map_sweep() {
        // Select → Reduce(Sum) with fusion: one fused_filter_map sweep
        // evaluates the head over the rows passing the filter (a predicate
        // no column kernel takes, so the rows are tested one by one), and
        // no `filter` pass runs — with the same sum as unfused, merged in
        // row order.
        let scan = Arc::new(Alg::Scan {
            table: "customer".into(),
            var: "c".into(),
        });
        let name_len = CalcExpr::call(
            crate::calculus::Func::Length,
            vec![CalcExpr::proj(CalcExpr::var("c"), "name")],
        );
        let select = Arc::new(Alg::Select {
            input: scan,
            pred: CalcExpr::bin(BinOp::Gt, name_len, CalcExpr::int(5)),
        });
        let plan = Arc::new(Alg::Reduce {
            input: select,
            monoid: MonoidKind::Sum,
            head: CalcExpr::proj(CalcExpr::var("c"), "nationkey"),
        });
        let tables = catalog();
        let mut results = Vec::new();
        for profile in [EngineProfile::clean_db(), EngineProfile::spark_sql_like()] {
            let ctx = ExecContext::new(2, 4);
            let mut ex = Executor::new(ctx.clone(), profile, &tables, Arc::new(EvalCtx::new()));
            let out = ex.run_reduce(&plan).unwrap();
            let stages = ctx.metrics().snapshot().stages;
            let ops: Vec<&str> = stages.iter().map(|s| s.operator).collect();
            if ex.fused_selects > 0 {
                assert_eq!(ops, ["fused_filter_map"]);
                assert_eq!(stages[0].records_in, 5, "the sweep reads every row");
            } else {
                assert_eq!(ops, ["filter", "map_partitions"]);
            }
            results.push(out);
        }
        // anderson, andersen and miller have names longer than five
        // letters: nationkeys 1 + 2 + 4.
        assert_eq!(results[0], vec![Value::Int(7)]);
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn string_keyed_theta_join_prunes_soundly() {
        // Theta join on a *string* key: prefix-key pruning must not drop
        // pairs, whichever strategy runs.
        let mut tables = HashMap::new();
        let rows: Vec<Value> = (0..60)
            .map(|i| row(i, "a st", 1, &format!("n{:02}", i)))
            .collect();
        tables.insert("customer".to_string(), StoredTable::from_rows(rows));
        let plan = lt_join("customer", "name", pair_ids());
        // 60 distinct names: l.name < r.name holds for 60*59/2 pairs.
        let expected = 60 * 59 / 2;
        for profile in [
            EngineProfile::clean_db(),
            EngineProfile::spark_sql_like(),
            EngineProfile::big_dansing_like(),
        ] {
            let ctx = ExecContext::new(2, 4);
            let mut ex = Executor::new(ctx, profile.clone(), &tables, Arc::new(EvalCtx::new()));
            ex.register_plans(std::slice::from_ref(&plan));
            let out = ex.run_reduce(&plan).unwrap();
            assert_eq!(out.len(), expected, "{}", profile.name);
        }
    }

    #[test]
    fn string_theta_join_survives_null_first_key() {
        // Regression: the widening must not be disabled by an
        // unrepresentative first row — here the first key value is NULL
        // while the rest are strings sharing a 6-byte prefix (all collide
        // onto one prefix key, so unwidened Lt pruning would drop every
        // block).
        let mut tables = HashMap::new();
        let mut rows = vec![Value::record([
            (ROWID_FIELD, Value::Int(0)),
            ("name", Value::Null),
        ])];
        rows.extend((1..40).map(|i| {
            Value::record([
                (ROWID_FIELD, Value::Int(i)),
                ("name", Value::str(format!("prefix{:03}", i))),
            ])
        }));
        tables.insert("customer".to_string(), StoredTable::from_rows(rows));
        let plan = lt_join(
            "customer",
            "name",
            CalcExpr::proj(CalcExpr::var("t1"), ROWID_FIELD),
        );
        // 39 distinct non-null names: 39*38/2 Lt pairs; NULL compares false.
        let expected = 39 * 38 / 2;
        for profile in [EngineProfile::big_dansing_like(), EngineProfile::clean_db()] {
            let ctx = ExecContext::new(2, 4);
            let mut ex = Executor::new(ctx, profile.clone(), &tables, Arc::new(EvalCtx::new()));
            let out = ex.run_reduce(&plan).unwrap();
            assert_eq!(out.len(), expected, "{}", profile.name);
        }
    }

    #[test]
    fn mixed_type_theta_keys_force_cartesian() {
        // Numeric and string keys have no common pruning domain (and
        // Value's cross-type order ranks every number below every string):
        // pruning strategies must be overridden to the cartesian path.
        let mut tables = HashMap::new();
        let rows: Vec<Value> = (0..30)
            .map(|i| {
                Value::record([
                    (ROWID_FIELD, Value::Int(i)),
                    (
                        "k",
                        // Large ints (above the 48-bit string-key range)
                        // first, strings only deep in the partitions — a
                        // windowed sniff would miss them.
                        if i < 15 {
                            Value::Int((1 << 50) + i)
                        } else {
                            Value::str(format!("s{:02}", i))
                        },
                    ),
                ])
            })
            .collect();
        // Reference count under Value's total order: int < string always.
        let mut expected = 0;
        for a in 0..30i64 {
            for b in 0..30i64 {
                let va = if a < 15 {
                    Value::Int((1 << 50) + a)
                } else {
                    Value::str(format!("s{:02}", a))
                };
                let vb = if b < 15 {
                    Value::Int((1 << 50) + b)
                } else {
                    Value::str(format!("s{:02}", b))
                };
                if va < vb {
                    expected += 1;
                }
            }
        }
        tables.insert("t".to_string(), StoredTable::from_rows(rows));
        let plan = lt_join("t", "k", CalcExpr::proj(CalcExpr::var("t1"), ROWID_FIELD));
        let ctx = ExecContext::new(2, 4);
        let mut ex = Executor::new(
            ctx,
            EngineProfile::big_dansing_like(),
            &tables,
            Arc::new(EvalCtx::new()),
        );
        let out = ex.run_reduce(&plan).unwrap();
        assert_eq!(out.len(), expected);
        // One decision for the node: the strategy that ran, with the
        // override — not the profile's strategy, which never did.
        let theta: Vec<_> = ex
            .decisions
            .iter()
            .filter(|d| d.operator == "theta")
            .collect();
        assert_eq!(theta.len(), 1, "{:?}", ex.decisions);
        assert_eq!(theta[0].strategy, "CartesianFilter", "{}", theta[0]);
        assert!(
            theta[0].reason.contains("mixed numeric/text")
                && theta[0].reason.contains("MinMaxBlocks"),
            "{}",
            theta[0]
        );
    }

    #[test]
    fn width_mismatched_row_is_a_typed_error() {
        // Rows two slots wide reach a Nest compiled for the one-slot layout
        // `[c]`: by name `c.address` would still resolve, so the old
        // drop-into-the-interpreter behaviour would have "worked" — the
        // mismatch must fail the query instead.
        let tables = catalog();
        let ctx = ExecContext::new(2, 4);
        let mut ex = Executor::new(
            ctx.clone(),
            EngineProfile::clean_db(),
            &tables,
            Arc::new(EvalCtx::new()),
        );
        let rows: Vec<RowEnv> = (0..8)
            .map(|i| vec![row(i, "a st", 1, "n"), Value::Int(i)])
            .collect();
        let key = CalcExpr::proj(CalcExpr::var("c"), "address");
        let scan = Arc::new(Alg::Scan {
            table: "customer".into(),
            var: "c".into(),
        });
        let input = ex.peel_input(&scan, None).unwrap();
        let err = ex
            .exec_nest(
                Dataset::from_vec(&ctx, rows),
                &key,
                &CalcExpr::var("c"),
                &input,
            )
            .unwrap_err();
        assert!(
            matches!(&err, ExecError::Value(m) if m.contains("row layout mismatch")),
            "{err}"
        );

        // The same rows as the left side of a theta join over `[t1] ++
        // [t2]`: the pair predicate must fail the query too, not quietly
        // reject every pair. Each side's scan reads rows the executor
        // already holds for it — two slots wide on the left.
        let name = |v: &str| CalcExpr::proj(CalcExpr::var(v), "name");
        let scan = |var: &str| {
            Arc::new(Alg::Scan {
                table: "customer".into(),
                var: var.into(),
            })
        };
        let (left, right) = (scan("t1"), scan("t2"));
        for (side, width) in [(&left, 2), (&right, 1)] {
            let rows: Vec<RowEnv> = (0..4)
                .map(|i| vec![row(i, "a st", 1, "n"), Value::Int(i)][..width].to_vec())
                .collect();
            let at = Arc::as_ptr(side) as usize;
            ex.shared_nodes.insert(at);
            ex.cache.insert(at, Dataset::from_vec(&ctx, rows));
        }
        let join = Alg::ThetaJoin {
            left,
            right,
            pred: CalcExpr::bin(BinOp::Le, name("t1"), name("t2")),
            hint: ThetaHint {
                left_key: name("t1"),
                right_key: name("t2"),
                kind: HintKind::LeftLessThanRight,
            },
        };
        let err = ex.run_theta(&join).unwrap_err();
        assert!(
            matches!(&err, ExecError::Value(m) if m.contains("row layout mismatch")),
            "{err}"
        );
    }

    #[test]
    fn profile_rollup_splits_grouping_from_similarity() {
        // Figure 3's split is the traced tree's self times: a GROUP BY's
        // time is in its GroupFold, a DEDUP's in its pair sweep — each
        // within the root's wall time.
        let traced = |sql: &str| {
            let q = parse_query(sql).unwrap();
            let dq = desugar_query(&q, 1).unwrap();
            let plan = lower_op(&dq.ops[0].comp).unwrap();
            let tables = catalog();
            let mut eval_ctx = EvalCtx::new();
            eval_ctx.prepare_blockers(&dq.ops[0].comp, &[]);
            let ctx = ExecContext::new(2, 4);
            let mut ex = Executor::new(ctx, EngineProfile::clean_db(), &tables, Arc::new(eval_ctx));
            ex.set_profiling(true);
            ex.run_reduce(&plan).unwrap();
            let root = ex.take_profile_root().expect("profiled");
            let wall = root.wall();
            let split = PhaseSplit::of(&[QueryProfile {
                op: sql.to_string(),
                root,
            }]);
            assert!(
                split.grouping <= wall && split.similarity <= wall,
                "{split:?}"
            );
            split
        };
        let group = traced("SELECT c.address, count(*) AS n FROM customer c GROUP BY c.address");
        assert!(group.grouping > std::time::Duration::ZERO, "{group:?}");
        let dedup = traced("SELECT * FROM customer c DEDUP(token_filtering(2), LD, 0.7, c.name)");
        assert!(dedup.similarity > std::time::Duration::ZERO, "{dedup:?}");
    }
}
