//! The fused block-pair sweep: `Reduce ← Select* ← Unnest b ← Unnest a ← X`
//! with two independent paths ([`crate::algebra::Alg::pair_pipeline`]), run
//! as one pass over the blocks of `X`.
//!
//! That is the plan shape of every pairwise cleaning operator — DEDUP and
//! blocked DC unnest the same `g.partition` twice, CLUSTER BY unnests the
//! two sides of its block join — and executing it node by node builds one
//! row per *candidate* pair only for the Reduce above to throw most of them
//! away. The sweep keeps the pairs as indices instead. A block is a row of
//! `X` whose paths give its members, or — when `X` is a `Nest` running as
//! grouped or keyed blocks (`physical/blocks.rs`), or CLUSTER BY's join of
//! two keyed `Nest`s — a pair of ranges of rows of the scans the `Nest`s
//! grouped, with `X` itself empty ([`SweepInput`]). Per block it
//!
//! 1. finds both sides' members (evaluating both paths once, over a block
//!    row) and charges the work budget `|A|·|B|` — after a
//!    cancellation/deadline check — *before* enumerating anything, so a
//!    block gone quadratic fails fast;
//! 2. evaluates the one-sided operands of the pair predicate once per block
//!    member ([`Verify::Cmp`] / [`Verify::Similar`] columns) instead of
//!    once per pair, when a member first reaches their conjunct — over
//!    grouped blocks by reading the scan's columns at the member's row
//!    where the operand lowers onto them ([`Operand`]);
//! 3. narrows, per outer member, a selection of inner indices conjunct by
//!    conjunct in `Select` order — native `i64` compares where both columns
//!    are integers (`__rowid` order tests), a prepared
//!    [`cleanm_text::Matcher`] over borrowed `&str` for similarity, the
//!    compiled program over `(X.., a, b)` slices for anything else;
//! 4. evaluates the head for the surviving pairs only.
//!
//! Over keyed blocks every member has a code, one per distinct value of
//! `BlockKeys`' argument, and two memos apply. A similarity conjunct whose
//! operands are both sides' coded programs is decided once per distinct
//! `(code_a, code_b)` pair for the whole sweep ([`Memo`]), so a pair that
//! shares several blocks is compared once and `comparisons` counts
//! distinct value pairs. A head that reads only two members that are the
//! coded values themselves (CLUSTER BY's `{term, repair}`) is built once
//! per distinct surviving pair and shared.
//!
//! Semantics are those of the stacked operators: conjuncts short-circuit in
//! `Select` order, a pair whose predicate cannot be evaluated is rejected
//! and the error recorded (an operand that fails for a member surfaces only
//! if a pair reaches its conjunct), outputs keep `(X, a, b)` order —
//! grouped and keyed blocks in first-appearance block order, so the same
//! pairs, with the same multiplicity, as over materialized groups, in
//! another block order.

use std::slice::from_ref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use cleanm_exec::{ExecContext, ExecError, ExecResult};
use cleanm_text::{Matcher, Metric};
use cleanm_values::{FxHashMap, Result, Value};

use crate::algebra::plan::PairShape;
use crate::calculus::eval::{eval_binop, truthy};
use crate::calculus::subst::{free_vars, substitute};
use crate::calculus::{BinOp, CalcExpr, Func};

use super::blocks::GroupedBlocks;
use super::execute::RowEval;
use super::kernel::ColumnProgram;
use super::program::{RowEnv, RowExpr};

/// The operator name budget and interrupt failures of the sweep carry.
const OPERATOR: &str = "pair_sweep";

/// Does the expression call a similarity function? Such a call ticks the
/// comparison counter per evaluation.
fn expr_has_similarity(e: &CalcExpr) -> bool {
    e.any_node(&mut |n| {
        matches!(
            n,
            CalcExpr::Call(Func::Similar(..) | Func::Similarity(..), _)
        )
    })
}

/// One conjunct of the pair predicate as the sweep verifies it.
enum Verify {
    /// `ea op eb`, `ea` reading the outer variable only and `eb` the inner:
    /// both sides become per-member columns.
    Cmp { op: BinOp, a: Operand, b: Operand },
    /// `Similar(metric, θ)(ea, eb)`, likewise: per-member text columns, the
    /// outer member prepared once for its whole inner loop — and, when both
    /// operands are their side's coded program, the verdicts memoized by
    /// code pair.
    Similar {
        metric: Metric,
        theta: f64,
        a: Operand,
        b: Operand,
        memo: Option<Memo>,
    },
    /// Anything else: the compiled conjunct over `(X.., a, b)`.
    Program(Arc<RowExpr>),
}

/// One side of a [`Verify::Cmp`] / [`Verify::Similar`] conjunct.
enum Operand {
    /// The compiled operand over `(X.., member)`.
    Row(Arc<RowExpr>),
    /// Over grouped blocks, the operand lowered onto the scan's columns:
    /// read at the member's row, no row evaluated.
    Column(ColumnProgram),
}

/// The verdicts of a similarity conjunct over coded operands, by
/// `(code_a, code_b)`, shared by all the sweep's tasks. Of the tasks that
/// decide an undecided pair (more than one only when they race for it),
/// the one whose verdict lands first counts the comparison, so the count is
/// the number of distinct pairs compared whatever the interleaving.
enum Memo {
    /// Two bits per code pair, row-major over `width` inner codes: bit 0
    /// decided, bit 1 the verdict.
    Dense { width: u64, words: Vec<AtomicU64> },
    /// The decided pairs.
    Sparse(Mutex<FxHashMap<(u32, u32), bool>>),
}

impl Memo {
    /// A memo over `outer × inner` code pairs for a sweep that admits at
    /// most `candidates` index pairs: dense when its bytes are no more
    /// than that, else a map, which holds at most one entry per candidate
    /// compared. Either way its size is bounded by the candidates.
    fn new(outer: usize, inner: usize, candidates: u64) -> Memo {
        let words = (outer as u64 * inner as u64).div_ceil(32);
        match words.saturating_mul(8) <= candidates {
            true => Memo::Dense {
                width: inner as u64,
                words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            },
            false => Memo::Sparse(Mutex::new(FxHashMap::default())),
        }
    }

    /// The verdict of `(a, b)`, from the memo or from `decide`, and
    /// whether this call's verdict was the first recorded (so counts a
    /// comparison).
    fn verdict(&self, a: u32, b: u32, decide: impl FnOnce() -> bool) -> (bool, bool) {
        match self {
            Memo::Dense { width, words } => {
                let at = a as u64 * width + b as u64;
                let (word, shift) = (&words[(at / 32) as usize], at % 32 * 2);
                let state = word.load(Ordering::Relaxed) >> shift;
                if state & 1 == 1 {
                    return (state & 2 == 2, false);
                }
                let verdict = decide();
                let bits = (1 | (verdict as u64) << 1) << shift;
                let before = word.fetch_or(bits, Ordering::Relaxed) >> shift;
                (verdict, before & 1 == 0)
            }
            Memo::Sparse(map) => {
                if let Some(&verdict) = map.lock().get(&(a, b)) {
                    return (verdict, false);
                }
                let verdict = decide();
                (verdict, map.lock().insert((a, b), verdict).is_none())
            }
        }
    }
}

/// The blocks a sweep over grouped `Nest`s walks: one `Nest`'s blocks,
/// each paired with itself (DEDUP, blocked DC), or the blocks of two keyed
/// `Nest`s matched by key (CLUSTER BY's block join).
pub(super) struct BlockPairs {
    a: Arc<GroupedBlocks>,
    b: Arc<GroupedBlocks>,
    /// The matched `(a, b)` block ids; `None` when `b` is `a` and each
    /// block pairs with itself.
    matched: Option<Vec<(u32, u32)>>,
}

impl BlockPairs {
    /// Each of `blocks`' blocks with itself.
    pub(super) fn within(blocks: Arc<GroupedBlocks>) -> BlockPairs {
        BlockPairs {
            a: Arc::clone(&blocks),
            b: blocks,
            matched: None,
        }
    }

    /// The blocks of `a` and `b` with equal keys.
    pub(super) fn joined(a: Arc<GroupedBlocks>, b: Arc<GroupedBlocks>) -> BlockPairs {
        let matched = Some(a.matched(&b));
        BlockPairs { a, b, matched }
    }

    /// Number of block pairs.
    pub(super) fn len(&self) -> usize {
        self.matched.as_ref().map_or(self.a.len(), Vec::len)
    }

    /// The `i`-th block pair's rows.
    fn pair(&self, i: u32) -> (&[u32], &[u32]) {
        let (ga, gb) = self.matched.as_ref().map_or((i, i), |m| m[i as usize]);
        (self.a.rows(ga), self.b.rows(gb))
    }

    /// The index pairs the `i`-th block pair holds, `|A|·|B|`.
    fn size(&self, i: u32) -> u64 {
        let (a, b) = self.pair(i);
        a.len() as u64 * b.len() as u64
    }

    /// The index pairs the sweep enumerates, `Σ |A|·|B|`.
    fn candidates(&self) -> u64 {
        (0..self.len() as u32).map(|i| self.size(i)).sum()
    }

    /// `p` contiguous ranges of block pairs holding about as many index
    /// pairs each (a block pair weighs its `|A|·|B|` and one more for
    /// itself), padded to `p` with empty ranges: first-appearance block
    /// order tends to put the large blocks of common keys together.
    pub(super) fn tasks(&self, p: usize) -> Vec<(u32, u32)> {
        let n = self.len() as u32;
        let total = self.candidates() + n as u64;
        let mut tasks = Vec::with_capacity(p);
        let (mut lo, mut seen) = (0, 0u64);
        for i in 0..n {
            seen += self.size(i) + 1;
            if tasks.len() + 1 < p && seen * p as u64 >= total * (tasks.len() as u64 + 1) {
                tasks.push((lo, i + 1));
                lo = i + 1;
            }
        }
        tasks.push((lo, n));
        tasks.resize(p.max(1), (n, n));
        tasks
    }
}

/// What a sweep walks, as [`PairSweep::compile`] takes it.
pub(super) enum SweepInput<'s> {
    /// Block rows laid out as `scope`, filtered by `pred` (a `Select`
    /// chain fused from beneath the first `Unnest`), each unnesting its
    /// members through the shape's paths.
    Rows {
        scope: &'s [String],
        pred: Option<Arc<RowExpr>>,
    },
    /// Grouped `Nest`s' blocks (`physical/blocks.rs`): each side's
    /// members are a range of rows of its scan, the paths the
    /// `partition`s, and nothing the sweep evaluates reads a group — so
    /// `X` is empty.
    Blocks(BlockPairs),
}

/// The blocks of a compiled sweep.
enum Blocks {
    /// See [`SweepInput::Rows`]; `path_b` is `None` when it is the same
    /// path as `path_a` (DEDUP, blocked DC) — evaluated once per block.
    Rows {
        pred: Option<Arc<RowExpr>>,
        path_a: Arc<RowExpr>,
        path_b: Option<Arc<RowExpr>>,
    },
    Grouped(BlockPairs),
}

/// One side of a block: a path's values, or a range of a grouped `Nest`'s
/// rows.
#[derive(Clone, Copy)]
enum Members<'m> {
    Values(&'m [Value]),
    Rows(&'m GroupedBlocks, &'m [u32]),
}

impl<'m> Members<'m> {
    fn len(self) -> usize {
        match self {
            Members::Values(values) => values.len(),
            Members::Rows(_, rows) => rows.len(),
        }
    }

    fn get(self, j: usize) -> &'m Value {
        match self {
            Members::Values(values) => &values[j],
            Members::Rows(blocks, rows) => blocks.member(rows[j]),
        }
    }

    /// Member `j`'s code: keyed blocks only.
    fn code(self, j: usize) -> u32 {
        match self {
            Members::Rows(blocks, rows) => blocks.code(rows[j]),
            Members::Values(_) => unreachable!("block rows carry no codes"),
        }
    }
}

/// The compiled sweep: shared by the workers, one [`Scratch`] each.
pub(super) struct PairSweep {
    ctx: Arc<ExecContext>,
    ev: RowEval,
    blocks: Blocks,
    verify: Vec<Verify>,
    head: Arc<RowExpr>,
    /// Is the head a function of the two members' codes alone — built
    /// once per distinct surviving pair?
    head_coded: bool,
    /// The first budget / cancellation / deadline failure: later blocks
    /// see it and stop enumerating.
    stop: OnceLock<ExecError>,
    /// Index pairs enumerated (`Σ |A|·|B|`).
    enumerated: AtomicU64,
}

impl PairSweep {
    /// Compile the shape's expressions (`compile(expr, scope)`, counted by
    /// the executor) against the layout of the block rows — none over
    /// grouped blocks, where each operand that lowers onto its side's
    /// scan's columns reads them instead.
    pub fn compile(
        shape: &PairShape<'_>,
        head: &CalcExpr,
        input: SweepInput<'_>,
        ctx: Arc<ExecContext>,
        ev: RowEval,
        mut compile: impl FnMut(&CalcExpr, &[String]) -> ExecResult<Arc<RowExpr>>,
    ) -> ExecResult<PairSweep> {
        let (scope, pairs) = match &input {
            SweepInput::Rows { scope, .. } => (*scope, None),
            SweepInput::Blocks(pairs) => (&[][..], Some(pairs)),
        };
        let with = |var: &str| [scope, &[var.to_string()]].concat();
        let (scope_a, scope_b) = (with(shape.var_a), with(shape.var_b));
        let scope_ab = [&scope_a[..], &[shape.var_b.to_string()]].concat();
        let (side_a, side_b) = (pairs.map(|p| &*p.a), pairs.map(|p| &*p.b));
        // `ea` may not read `b`, `eb` may not read `a`; a similarity call
        // inside an operand ticks the comparison counter per evaluation,
        // so such an operand stays with its pair.
        let one_sided = |ea: &CalcExpr, eb: &CalcExpr| {
            !free_vars(ea).contains(shape.var_b)
                && !free_vars(eb).contains(shape.var_a)
                && !expr_has_similarity(ea)
                && !expr_has_similarity(eb)
        };
        let mut verify = Vec::new();
        for conjunct in shape.preds.iter().flat_map(|p| p.conjuncts()) {
            let mut operands = |ea: &CalcExpr, eb: &CalcExpr| -> ExecResult<_> {
                let a = operand(ea, shape.var_a, &scope_a, side_a, &mut compile)?;
                let b = operand(eb, shape.var_b, &scope_b, side_b, &mut compile)?;
                Ok((a, b))
            };
            verify.push(match conjunct {
                CalcExpr::BinOp(op, ea, eb) if op.is_comparison() && one_sided(ea, eb) => {
                    let ((a, _), (b, _)) = operands(ea, eb)?;
                    Verify::Cmp { op: *op, a, b }
                }
                CalcExpr::Call(Func::Similar(metric, theta), args)
                    if args.len() == 2 && one_sided(&args[0], &args[1]) =>
                {
                    let ((a, coded_a), (b, coded_b)) = operands(&args[0], &args[1])?;
                    let memo = pairs.filter(|_| coded_a && coded_b).map(|p| {
                        let candidates = p.candidates().min(ctx.budget_remaining());
                        Memo::new(p.a.distinct(), p.b.distinct(), candidates)
                    });
                    Verify::Similar {
                        metric: *metric,
                        theta: *theta,
                        a,
                        b,
                        memo,
                    }
                }
                other => Verify::Program(compile(other, &scope_ab)?),
            });
        }
        let head_coded = pairs.is_some_and(|p| p.a.values() && p.b.values())
            && free_vars(head)
                .iter()
                .all(|v| *v == shape.var_a || *v == shape.var_b)
            && !expr_has_similarity(head);
        let head = compile(head, &scope_ab)?;
        let blocks = match input {
            SweepInput::Rows { scope, pred } => Blocks::Rows {
                pred,
                path_a: compile(shape.path_a, scope)?,
                path_b: match shape.path_a != shape.path_b {
                    true => Some(compile(shape.path_b, scope)?),
                    false => None,
                },
            },
            SweepInput::Blocks(pairs) => Blocks::Grouped(pairs),
        };
        Ok(PairSweep {
            ctx,
            ev,
            blocks,
            verify,
            head,
            head_coded,
            stop: OnceLock::new(),
            enumerated: AtomicU64::new(0),
        })
    }

    /// The block pairs a sweep over grouped `Nest`s walks.
    pub(super) fn block_pairs(&self) -> &BlockPairs {
        match &self.blocks {
            Blocks::Grouped(pairs) => pairs,
            Blocks::Rows { .. } => unreachable!("block rows sweep by partition"),
        }
    }

    /// Index pairs enumerated so far.
    pub fn enumerated(&self) -> u64 {
        self.enumerated.load(Ordering::Relaxed)
    }

    /// The failure that stopped the sweep, if one did.
    pub fn stopped(&self) -> ExecResult<()> {
        self.stop.get().map_or(Ok(()), |e| Err(e.clone()))
    }

    /// Sweep one partition of block rows into head values.
    pub fn run_partition(&self, rows: Vec<RowEnv>) -> Vec<Value> {
        let Blocks::Rows {
            pred,
            path_a,
            path_b,
        } = &self.blocks
        else {
            unreachable!("grouped blocks sweep by range")
        };
        self.sweep(|s, out| {
            for x in &rows {
                if self.stop.get().is_some() {
                    break;
                }
                if self.ev.passes(pred, x) {
                    self.block_row(x, path_a, path_b.as_deref(), s, out);
                }
            }
        })
    }

    /// Sweep the block pairs `lo..hi` of grouped `Nest`s into head
    /// values.
    pub fn run_blocks(&self, (lo, hi): (u32, u32)) -> Vec<Value> {
        let Blocks::Grouped(pairs) = &self.blocks else {
            unreachable!("block rows sweep by partition")
        };
        self.sweep(|s, out| {
            for i in lo..hi {
                if self.stop.get().is_some() {
                    break;
                }
                let (a, b) = pairs.pair(i);
                let (a, b) = (Members::Rows(&pairs.a, a), Members::Rows(&pairs.b, b));
                self.block(&[], a, b, s, out);
            }
        })
    }

    /// Run `each` with a fresh [`Scratch`], then publish its counters.
    fn sweep(&self, each: impl FnOnce(&mut Scratch, &mut Vec<Value>)) -> Vec<Value> {
        let mut s = Scratch {
            columns: self.verify.iter().map(|_| Default::default()).collect(),
            filled: Vec::new(),
            matchers: (self.verify.iter())
                .map(|v| match v {
                    Verify::Similar { metric, theta, .. } => Some(metric.matcher(*theta)),
                    _ => None,
                })
                .collect(),
            outer_row: Vec::new(),
            sel: Vec::new(),
            heads: FxHashMap::default(),
            enumerated: 0,
            comparisons: 0,
        };
        let mut out = Vec::new();
        each(&mut s, &mut out);
        self.enumerated.fetch_add(s.enumerated, Ordering::Relaxed);
        self.ev.ctx.add_comparisons(s.comparisons);
        out
    }

    /// A path's members for one block row; `None` (after recording what is
    /// an error) when there is nothing to unnest.
    fn members(&self, path: &RowExpr, x: &RowEnv) -> Option<Arc<[Value]>> {
        match self.ev.eval(path, x)? {
            Value::List(items) => Some(items),
            Value::Null => None,
            other => {
                self.ev.record(format!("unnest over non-list `{other}`"));
                None
            }
        }
    }

    /// One block row: unnest its members through the paths, then pair
    /// them.
    fn block_row(
        &self,
        x: &RowEnv,
        path_a: &RowExpr,
        path_b: Option<&RowExpr>,
        s: &mut Scratch,
        out: &mut Vec<Value>,
    ) {
        let Some(outer) = self.members(path_a, x) else {
            return;
        };
        if outer.is_empty() {
            return; // the second path is never evaluated without a first member
        }
        let inner = match path_b {
            None => Arc::clone(&outer),
            Some(path) => match self.members(path, x) {
                Some(inner) => inner,
                None => return,
            },
        };
        let (outer, inner) = (Members::Values(&outer), Members::Values(&inner));
        self.block(x, outer, inner, s, out);
    }

    /// Pair one block's members: charge the budget, fill the operand
    /// columns, narrow and verify per outer member, build the heads.
    fn block(
        &self,
        x: &[Value],
        outer: Members<'_>,
        inner: Members<'_>,
        s: &mut Scratch,
        out: &mut Vec<Value>,
    ) {
        let pairs = (outer.len() as u64).saturating_mul(inner.len() as u64);
        if pairs == 0 {
            return;
        }
        let admitted = (self.ctx.check_interrupt(OPERATOR))
            .and_then(|()| self.ctx.consume_budget(OPERATOR, pairs));
        if let Err(e) = admitted {
            let _ = self.stop.set(e);
            return;
        }
        s.enumerated += pairs;

        let ev = &self.ev;
        s.filled.clear();
        s.filled.resize(self.verify.len(), false);
        for i in 0..outer.len() {
            let a = outer.get(i);
            s.sel.clear();
            s.sel.extend(0..inner.len() as u32);
            // `(X.., a)`, built when a program (conjunct or head) first
            // needs it for this outer member.
            s.outer_row.clear();
            let outer_row = |row: &mut RowEnv| {
                if row.is_empty() {
                    row.extend_from_slice(x);
                    row.push(a.clone());
                }
            };
            let conjuncts = (self.verify.iter().zip(&mut s.columns))
                .zip(&mut s.matchers)
                .zip(&mut s.filled);
            for (((v, (col_a, col_b)), matcher), filled) in conjuncts {
                if s.sel.is_empty() {
                    break;
                }
                // A conjunct's operand columns are filled when a member of
                // the block first reaches it (a one-member block rejected
                // by its `__rowid` test fills no text column).
                if let (false, Verify::Cmp { a, b, .. } | Verify::Similar { a, b, .. }) =
                    (*filled, v)
                {
                    let text = matches!(v, Verify::Similar { .. });
                    col_a.fill(a, x, outer, text, ev);
                    col_b.fill(b, x, inner, text, ev);
                    *filled = true;
                }
                match v {
                    Verify::Program(rx) => {
                        outer_row(&mut s.outer_row);
                        let row = &s.outer_row;
                        s.sel
                            .retain(|&j| ev.holds_pair(rx, row, from_ref(inner.get(j as usize))));
                    }
                    Verify::Cmp { op, .. } if !col_a.ints.is_empty() && !col_b.ints.is_empty() => {
                        let l = col_a.ints[i];
                        s.sel.retain(|&j| int_cmp(*op, l, col_b.ints[j as usize]));
                    }
                    // An operand that failed for this member fails every
                    // pair that got here: one record stands for them all.
                    _ if col_a.vals[i].is_err() => {
                        ev.record(col_a.vals[i].as_ref().unwrap_err());
                        s.sel.clear();
                    }
                    Verify::Cmp { op, .. } => {
                        let l = col_a.vals[i].as_ref().expect("checked above");
                        s.sel.retain(|&j| {
                            let holds = (col_b.vals[j as usize].as_ref())
                                .map_err(|e| ev.record(e))
                                .and_then(|r| eval_binop(*op, l, r).map_err(|e| ev.record(e)));
                            holds.is_ok_and(|v| truthy(&v))
                        });
                    }
                    Verify::Similar { memo: None, .. } => {
                        let matcher = matcher.as_mut().expect("one per Similar conjunct");
                        matcher.set_pattern(text(col_a.vals[i].as_ref().expect("checked above")));
                        let comparisons = &mut s.comparisons;
                        s.sel.retain(|&j| match &col_b.vals[j as usize] {
                            Ok(r) => {
                                *comparisons += 1;
                                matcher.matches(text(r))
                            }
                            Err(e) => {
                                ev.record(e);
                                false
                            }
                        });
                    }
                    // Coded operands read columns: they cannot fail. The
                    // outer member is prepared at its first undecided pair.
                    Verify::Similar {
                        memo: Some(memo), ..
                    } => {
                        let matcher = matcher.as_mut().expect("one per Similar conjunct");
                        let pattern = text(col_a.vals[i].as_ref().expect("checked above"));
                        let (ca, mut prepared) = (outer.code(i), false);
                        let comparisons = &mut s.comparisons;
                        s.sel.retain(|&j| {
                            let (verdict, claimed) =
                                memo.verdict(ca, inner.code(j as usize), || {
                                    if !std::mem::replace(&mut prepared, true) {
                                        matcher.set_pattern(pattern);
                                    }
                                    let r = col_b.vals[j as usize].as_ref().expect("coded");
                                    matcher.matches(text(r))
                                });
                            *comparisons += claimed as u64;
                            verdict
                        });
                    }
                }
            }
            if s.sel.is_empty() {
                continue;
            }
            outer_row(&mut s.outer_row);
            let ca = self.head_coded.then(|| outer.code(i));
            for &j in &s.sel {
                let b = from_ref(inner.get(j as usize));
                let head = || {
                    let v = self.head.eval_pair(&s.outer_row, b, &ev.ctx);
                    v.map_err(|e| ev.record(e)).unwrap_or(Value::Null)
                };
                out.push(match ca {
                    Some(ca) => {
                        let at = (ca, inner.code(j as usize));
                        s.heads.entry(at).or_insert_with(head).clone()
                    }
                    None => head(),
                });
            }
        }
    }
}

/// Per-worker state of a sweep, reused from block to block.
struct Scratch {
    /// The `(outer, inner)` operand columns of each conjunct (unused for
    /// [`Verify::Program`]).
    columns: Vec<(Column, Column)>,
    /// Which conjuncts' columns hold the current block's operands.
    filled: Vec<bool>,
    /// The prepared matcher of each [`Verify::Similar`] conjunct.
    matchers: Vec<Option<Matcher>>,
    /// `(X.., a)` for the current outer member; empty until needed.
    outer_row: RowEnv,
    /// Inner indices still standing for the current outer member.
    sel: Vec<u32>,
    /// The heads built so far by code pair, when the head is coded.
    heads: FxHashMap<(u32, u32), Value>,
    enumerated: u64,
    comparisons: u64,
}

/// One operand evaluated for every member of a block side.
#[derive(Default)]
struct Column {
    vals: Vec<Result<Value>>,
    /// The same values as plain integers when every one is an `Int`
    /// (else empty): `__rowid` tests compare these.
    ints: Vec<i64>,
}

impl Column {
    /// Evaluate `operand` for each member: its program over
    /// `(X.., member)`, or its columns at the member's row. Similarity
    /// operands (`text`) are rendered to strings here, once, the way
    /// `Func::Similar` renders its arguments per call (a NULL cell as the
    /// empty string).
    fn fill(&mut self, operand: &Operand, x: &[Value], members: Members, text: bool, ev: &RowEval) {
        self.vals.clear();
        self.ints.clear();
        for i in 0..members.len() {
            let v = match (operand, members) {
                (Operand::Row(rx), _) => rx.eval_pair(x, from_ref(members.get(i)), &ev.ctx),
                (Operand::Column(columns), Members::Rows(_, rows)) => Ok(columns.value(rows[i])),
                (Operand::Column(_), Members::Values(_)) => {
                    unreachable!("column operands read grouped blocks")
                }
            };
            let v = v.map(|v| match v {
                Value::Str(_) => v,
                other if text => Value::str(other.to_text()),
                other => other,
            });
            if let (Ok(Value::Int(n)), true) = (&v, self.ints.len() == i) {
                self.ints.push(*n);
            }
            self.vals.push(v);
        }
        if self.ints.len() != members.len() {
            self.ints.clear();
        }
    }
}

/// One side's operand `e` of a [`Verify::Cmp`] / [`Verify::Similar`]
/// conjunct, `var` the side's member, and whether it is the side's coded
/// program. Over a grouped `Nest` (`side`) the operand is read on the scan
/// — the member replaced by what the `Nest` collects — and lowered onto
/// the scan's columns where it can be; otherwise it is compiled over
/// `(X.., member)`.
fn operand(
    e: &CalcExpr,
    var: &str,
    scope: &[String],
    side: Option<&GroupedBlocks>,
    compile: &mut impl FnMut(&CalcExpr, &[String]) -> ExecResult<Arc<RowExpr>>,
) -> ExecResult<(Operand, bool)> {
    let Some(side) = side else {
        return Ok((Operand::Row(compile(e, scope)?), false));
    };
    let collects = &side.collects;
    let on_scan = || substitute(e, var, &collects.item);
    // A member that is a row is the scan's row: the operand reads it as is.
    let rx = match side.values() {
        true => compile(&on_scan(), from_ref(&collects.var))?,
        false => compile(e, scope)?,
    };
    if let Some(columns) = ColumnProgram::lower(rx.program(), side.scan.block()) {
        let coded = collects
            .coded
            .as_ref()
            .is_some_and(|coded| *coded == on_scan());
        return Ok((Operand::Column(columns), coded));
    }
    let rx = match side.values() {
        true => compile(e, scope)?,
        false => rx,
    };
    Ok((Operand::Row(rx), false))
}

/// The string a text column holds.
fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => unreachable!("text columns hold strings"),
    }
}

/// `eval_binop` on two `Int`s, without the `Value`s.
fn int_cmp(op: BinOp, l: i64, r: i64) -> bool {
    match op {
        BinOp::Eq => l == r,
        BinOp::Ne => l != r,
        BinOp::Lt => l < r,
        BinOp::Le => l <= r,
        BinOp::Gt => l > r,
        BinOp::Ge => l >= r,
        _ => unreachable!("comparison op"),
    }
}
