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
//! 4. evaluates the head for the surviving pairs only — or, for a Bag of
//!    `{left: p1, right: p2}` over grouped or keyed blocks of stored rows,
//!    builds no head at all and keeps each pair as its two rows' indices
//!    into the scans ([`PairSweep::keeps_pairs`]); the report reads the
//!    ids off those rows and the records are built when first read
//!    (`engine/output.rs`).
//!
//! Keyed blocks (token filtering, k-means) are not walked block by block: a
//! pair of values sharing m blocks would be met m times. Every member has a
//! code, one per distinct value of `BlockKeys`' argument, and the sweep
//! walks *candidate code pairs* instead. Per outer code it counts, over the
//! codes of each of its blocks (the matched block, for CLUSTER BY), how
//! many blocks every inner code shares with it (ScanCount), so each inner
//! code sharing at least one block comes once, with its count c. Each
//! candidate's rows are paired and narrowed as above, a similarity conjunct
//! whose operands are both sides' coded programs decided once for the
//! candidate — after the length and q-gram count filters, which reject
//! only pairs the metric would (docs/LANGUAGE.md) — and each pair kept is
//! emitted c times: one output per shared block, as over materialized
//! groups. The budget is charged `Σ|A|·|B|` over the block pairs before
//! any task runs ([`PairSweep::admit`]), so pass or fail under a work
//! budget is the block walk's.
//!
//! Semantics are those of the stacked operators: conjuncts short-circuit in
//! `Select` order, a pair whose predicate cannot be evaluated is rejected
//! and the error recorded (an operand that fails for a member surfaces only
//! if a pair reaches its conjunct), outputs keep `(X, a, b)` order —
//! grouped blocks in first-appearance block order, keyed blocks by outer
//! code, inner code, outer row and inner row, each in first-appearance or
//! ascending order — so the same pairs, with the same multiplicity, as over
//! materialized groups, in another order.

use std::slice::from_ref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cleanm_exec::{ExecContext, ExecError, ExecResult};
use cleanm_text::{Matcher, Metric};
use cleanm_values::{Result, Value};

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

/// No block, code or pattern.
const NONE: u32 = u32::MAX;

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
    /// outer member prepared once for its whole inner loop — or, when both
    /// operands are their side's coded program (`coded`), decided once per
    /// candidate code pair.
    Similar {
        metric: Metric,
        theta: f64,
        a: Operand,
        b: Operand,
        coded: bool,
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

/// The blocks a sweep over grouped `Nest`s walks: one `Nest`'s blocks,
/// each paired with itself (DEDUP, blocked DC), or the blocks of two keyed
/// `Nest`s matched by key (CLUSTER BY's block join).
pub(super) struct BlockPairs {
    a: Arc<GroupedBlocks>,
    b: Arc<GroupedBlocks>,
    /// Per block of `a`, the block of `b` with its key ([`NONE`] when
    /// none); `None` when `b` is `a` and each block pairs with itself.
    partner: Option<Vec<u32>>,
}

impl BlockPairs {
    /// Each of `blocks`' blocks with itself.
    pub(super) fn within(blocks: Arc<GroupedBlocks>) -> BlockPairs {
        BlockPairs {
            a: Arc::clone(&blocks),
            b: blocks,
            partner: None,
        }
    }

    /// The blocks of `a` and `b` with equal keys.
    pub(super) fn joined(a: Arc<GroupedBlocks>, b: Arc<GroupedBlocks>) -> BlockPairs {
        let partner = Some(a.matched(&b));
        BlockPairs { a, b, partner }
    }

    /// Are these keyed blocks, swept by candidate code pair?
    fn keyed(&self) -> bool {
        self.a.is_keyed()
    }

    /// The block of `b` that block `ba` of `a` pairs with.
    fn partner(&self, ba: u32) -> Option<u32> {
        match &self.partner {
            None => Some(ba),
            Some(partner) => Some(partner[ba as usize]).filter(|&bb| bb != NONE),
        }
    }

    /// The block pairs, in `a`'s block order.
    fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.a.len() as u32).filter_map(|ba| Some((ba, self.partner(ba)?)))
    }

    /// Number of block pairs.
    pub(super) fn len(&self) -> usize {
        self.pairs().count()
    }

    /// The index pairs a block pair holds, `|A|·|B|`.
    fn size(&self, (ba, bb): (u32, u32)) -> u64 {
        self.a.weight(ba).saturating_mul(self.b.weight(bb))
    }

    /// `p` contiguous ranges of what a task sweeps, holding about as much
    /// work each, padded to `p` with empty ranges: of grouped blocks' block
    /// pairs, each weighing its `|A|·|B|` and one more for itself
    /// (first-appearance block order tends to put the large blocks of
    /// common keys together); of keyed blocks' outer codes, each weighing
    /// the block members its count walks, and one more.
    pub(super) fn tasks(&self, p: usize) -> Vec<(u32, u32)> {
        let weights: Vec<u64> = match self.keyed() {
            false => (0..self.a.len() as u32)
                .map(|b| self.size((b, b)) + 1)
                .collect(),
            true => (0..self.a.distinct() as u32)
                .map(|ca| {
                    let blocks = self.a.blocks_of(ca).iter();
                    let walked = blocks.filter_map(|&ba| self.partner(ba));
                    walked
                        .map(|bb| self.b.codes_in(bb).len() as u64)
                        .sum::<u64>()
                        + 1
                })
                .collect(),
        };
        let (n, total) = (weights.len() as u32, weights.iter().sum::<u64>());
        let mut tasks = Vec::with_capacity(p);
        let (mut lo, mut seen) = (0, 0u64);
        for i in 0..n {
            seen += weights[i as usize];
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

/// Is `head` exactly `{left: a, right: b}`: the record whose pairs a sweep
/// or a theta join can keep as row indices?
pub(super) fn is_pair_head(head: &CalcExpr, a: &str, b: &str) -> bool {
    let var = |e: &CalcExpr, name: &str| matches!(e, CalcExpr::Var(v) if v == name);
    match head {
        CalcExpr::Record(fields) => match &fields[..] {
            [(l, el), (r, er)] => l == "left" && r == "right" && var(el, a) && var(er, b),
            _ => false,
        },
        _ => false,
    }
}

/// What a sweep task emits: the heads of the pairs it kept, or — when the
/// sweep keeps pairs ([`PairSweep::keeps_pairs`]) — their rows' indices.
pub(super) enum Emitted {
    Values(Vec<Value>),
    Pairs(Vec<[u32; 2]>),
}

impl Emitted {
    fn len(&self) -> usize {
        match self {
            Emitted::Values(values) => values.len(),
            Emitted::Pairs(pairs) => pairs.len(),
        }
    }

    /// This emission, then each of `parts`, one sweep's tasks in order,
    /// grown once to the total.
    pub(super) fn concat(mut self, parts: Vec<Emitted>) -> Emitted {
        let more = parts.iter().map(Emitted::len).sum();
        match &mut self {
            Emitted::Values(all) => all.reserve_exact(more),
            Emitted::Pairs(all) => all.reserve_exact(more),
        }
        for part in parts {
            match (&mut self, part) {
                (Emitted::Values(all), Emitted::Values(more)) => all.extend(more),
                (Emitted::Pairs(all), Emitted::Pairs(more)) => all.extend(more),
                _ => unreachable!("a sweep's tasks emit one kind"),
            }
        }
        self
    }
}

/// One side of a block: a path's values, or rows of a grouped `Nest`.
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

    /// Member `j`'s row of the scan.
    fn row(self, j: usize) -> u32 {
        match self {
            Members::Rows(_, rows) => rows[j],
            Members::Values(_) => unreachable!("index pairs sweep grouped blocks"),
        }
    }
}

/// A candidate pair of keyed blocks' codes: an outer code, an inner code
/// sharing `shared` blocks with it, and what is decided once for all their
/// rows.
struct Candidate<'g> {
    a: &'g GroupedBlocks,
    b: &'g GroupedBlocks,
    ca: u32,
    cb: u32,
    shared: u32,
    /// The coded similarity conjunct's verdict, once a row pair reaches it.
    verdict: Option<bool>,
    /// The head, once built, when it reads only the two coded values.
    head: Option<Value>,
}

impl Candidate<'_> {
    /// Can the two values be similar at all? Under Levenshtein, `similar`
    /// means a distance of at most the matcher's own k
    /// ([`Metric::max_edits`]), so the lengths differ by at most k; and
    /// when the blocks are token filtering's q-grams and both values
    /// normalize character by character, the two share at least
    /// `max(|Q(a)|, |Q(b)|) − q·k` of them (the soundness argument is in
    /// docs/LANGUAGE.md). Other metrics admit every candidate.
    fn admits(&self, metric: Metric, theta: f64) -> bool {
        let ((la, per_char_a), (lb, per_char_b)) =
            (self.a.text_shape(self.ca), self.b.text_shape(self.cb));
        let Some(k) = metric.max_edits(theta, la, lb) else {
            return true;
        };
        if la.abs_diff(lb) > k {
            return false;
        }
        match (self.a.qgrams(), self.b.qgrams()) {
            (Some(q), Some(same)) if q == same && per_char_a && per_char_b => {
                let grams = (self.a.blocks_of(self.ca).len()).max(self.b.blocks_of(self.cb).len());
                self.shared as usize + q.saturating_mul(k) >= grams
            }
            _ => true,
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
    /// once per candidate code pair?
    head_coded: bool,
    /// The two scans' stored rows when the sweep keeps its pairs as row
    /// indices instead of building heads ([`PairSweep::keeps_pairs`]).
    keeps: Option<[Arc<Vec<Value>>; 2]>,
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
    /// scan's columns reads them instead. `bag`: the `Reduce` collects its
    /// heads into a Bag.
    pub fn compile(
        shape: &PairShape<'_>,
        head: &CalcExpr,
        bag: bool,
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
                    Verify::Similar {
                        metric: *metric,
                        theta: *theta,
                        a,
                        b,
                        coded: coded_a && coded_b,
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
        let keeps = (pairs.filter(|p| bag && !p.a.values() && !p.b.values()))
            .filter(|_| is_pair_head(head, shape.var_a, shape.var_b))
            .map(|p| [Arc::clone(p.a.scan.stored()), Arc::clone(p.b.scan.stored())]);
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
            keeps,
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

    /// Over keyed blocks, charge the work budget `|A|·|B|` for every block
    /// pair in block order — after a cancellation/deadline check — before
    /// any task runs, and count them enumerated; the first failure stops
    /// the sweep. Other sweeps charge per block as they go.
    pub(super) fn admit(&self) {
        let Blocks::Grouped(pairs) = &self.blocks else {
            return;
        };
        if !pairs.keyed() {
            return;
        }
        let mut admitted = 0u64;
        let charged = self.ctx.check_interrupt(OPERATOR).and_then(|()| {
            pairs.pairs().try_for_each(|pair| {
                let size = pairs.size(pair);
                self.ctx.consume_budget(OPERATOR, size)?;
                admitted += size;
                Ok(())
            })
        });
        self.enumerated.fetch_add(admitted, Ordering::Relaxed);
        if let Err(e) = charged {
            let _ = self.stop.set(e);
        }
    }

    /// The stored rows of the two scans whose row indices the sweep keeps
    /// for each pair, when the `Reduce` is a Bag of `{left: p1, right: p2}`
    /// over grouped or keyed blocks whose members are the scans' rows:
    /// tasks emit [`Emitted::Pairs`] then, and no head is built. `None`:
    /// tasks emit head values.
    pub(super) fn keeps_pairs(&self) -> Option<&[Arc<Vec<Value>>; 2]> {
        self.keeps.as_ref()
    }

    /// Nothing yet, of the kind this sweep's tasks emit.
    pub(super) fn emitted(&self) -> Emitted {
        match self.keeps {
            Some(_) => Emitted::Pairs(Vec::new()),
            None => Emitted::Values(Vec::new()),
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
        let emitted = self.sweep(|s, out| {
            for x in &rows {
                if self.stop.get().is_some() {
                    break;
                }
                if self.ev.passes(pred, x) {
                    self.block_row(x, path_a, path_b.as_deref(), s, out);
                }
            }
        });
        let Emitted::Values(values) = emitted else {
            unreachable!("a sweep over block rows builds its heads")
        };
        values
    }

    /// Sweep the range `lo..hi` of [`BlockPairs::tasks`] into head values
    /// or index pairs: grouped blocks' block pairs, or keyed blocks' outer
    /// codes.
    pub fn run_blocks(&self, (lo, hi): (u32, u32)) -> Emitted {
        let Blocks::Grouped(pairs) = &self.blocks else {
            unreachable!("block rows sweep by partition")
        };
        if pairs.keyed() {
            return self.run_codes(pairs, (lo, hi));
        }
        self.sweep(|s, out| {
            for b in lo..hi {
                if self.stop.get().is_some() {
                    break;
                }
                let rows = Members::Rows(&pairs.a, pairs.a.rows(b));
                self.block(&[], rows, rows, s, out);
            }
        })
    }

    /// Sweep the outer codes `lo..hi` of keyed blocks: per outer code, the
    /// inner codes sharing a block with it and how many (ScanCount over
    /// the codes of its blocks, or of their matched blocks), then each
    /// candidate in inner-code order.
    fn run_codes(&self, pairs: &BlockPairs, (lo, hi): (u32, u32)) -> Emitted {
        let (a, b) = (&*pairs.a, &*pairs.b);
        self.sweep(|s, out| {
            if lo == hi || self.stop.get().is_some() {
                return;
            }
            // Every operand column up front, over the task's outer rows and
            // all inner rows, in code order: the candidates revisit them.
            let base = a.span(lo).0;
            let outer_rows = &a.by_code()[base as usize..a.span(hi - 1).1 as usize];
            let (outer, inner) = (Members::Rows(a, outer_rows), Members::Rows(b, b.by_code()));
            for (v, c) in self.verify.iter().zip(&mut s.conjuncts) {
                if let Verify::Cmp { a, b, .. } | Verify::Similar { a, b, .. } = v {
                    let text = matches!(v, Verify::Similar { .. });
                    c.columns.0.fill(a, &[], outer, text, &self.ev);
                    c.columns.1.fill(b, &[], inner, text, &self.ev);
                }
                c.filled = true;
            }
            // When every conjunct before the coded similarity compares
            // integer columns — nothing there can fail — a candidate that
            // conjunct rejects yields nothing and records nothing: one the
            // filters reject is skipped whole, and once the test fails the
            // candidate's other rows are.
            let settled = self
                .verify
                .iter()
                .zip(&s.conjuncts)
                .find_map(|(v, c)| match v {
                    Verify::Similar {
                        metric,
                        theta,
                        coded: true,
                        ..
                    } => Some(Some((*metric, *theta))),
                    Verify::Cmp { .. }
                        if !c.columns.0.ints.is_empty() && !c.columns.1.ints.is_empty() =>
                    {
                        None
                    }
                    _ => Some(None),
                });
            let settled = settled.flatten();
            let (mut shared, mut touched) = (vec![0u32; b.distinct()], Vec::new());
            for ca in lo..hi {
                if let Err(e) = self.ctx.check_interrupt(OPERATOR) {
                    let _ = self.stop.set(e);
                }
                if self.stop.get().is_some() {
                    break;
                }
                for bb in a.blocks_of(ca).iter().filter_map(|&ba| pairs.partner(ba)) {
                    for &cb in b.codes_in(bb) {
                        if shared[cb as usize] == 0 {
                            touched.push(cb);
                        }
                        shared[cb as usize] += 1;
                    }
                }
                touched.sort_unstable();
                for &cb in &touched {
                    let mut candidate = Candidate {
                        a,
                        b,
                        ca,
                        cb,
                        shared: std::mem::take(&mut shared[cb as usize]),
                        verdict: None,
                        head: None,
                    };
                    if settled.is_some_and(|(metric, theta)| !candidate.admits(metric, theta)) {
                        continue;
                    }
                    let ((olo, ohi), (ilo, ihi)) = (a.span(ca), b.span(cb));
                    for i in (olo - base)..(ohi - base) {
                        if settled.is_some() && candidate.verdict == Some(false) {
                            break;
                        }
                        s.sel.clear();
                        s.sel.extend(ilo..ihi);
                        self.narrow(s, &[], i as usize, outer, inner, Some(&mut candidate));
                        let times = candidate.shared;
                        let head = self.head_coded.then_some(&mut candidate.head);
                        self.emit(s, &[], (outer, i as usize), inner, times, head, out);
                    }
                }
                touched.clear();
            }
        })
    }

    /// Run `each` with a fresh [`Scratch`], then publish its counters.
    fn sweep(&self, each: impl FnOnce(&mut Scratch, &mut Emitted)) -> Emitted {
        let mut s = Scratch {
            conjuncts: (self.verify.iter())
                .map(|v| Conjunct {
                    columns: Default::default(),
                    filled: false,
                    matcher: match v {
                        Verify::Similar { metric, theta, .. } => Some(metric.matcher(*theta)),
                        _ => None,
                    },
                    pattern: NONE,
                })
                .collect(),
            outer_row: Vec::new(),
            sel: Vec::new(),
            enumerated: 0,
            comparisons: 0,
        };
        let mut out = self.emitted();
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
        out: &mut Emitted,
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

    /// Pair one block's members: charge the budget, then narrow and build
    /// the heads per outer member.
    fn block(
        &self,
        x: &[Value],
        outer: Members<'_>,
        inner: Members<'_>,
        s: &mut Scratch,
        out: &mut Emitted,
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
        s.conjuncts.iter_mut().for_each(|c| c.filled = false);
        for i in 0..outer.len() {
            s.sel.clear();
            s.sel.extend(0..inner.len() as u32);
            self.narrow(s, x, i, outer, inner, None);
            self.emit(s, x, (outer, i), inner, 1, None, out);
        }
    }

    /// Narrow `s.sel`, the inner indices standing for outer member `i`,
    /// conjunct by conjunct in `Select` order. A conjunct's operand columns
    /// are filled when a member of the block first reaches it (a one-member
    /// block rejected by its `__rowid` test fills no text column); a
    /// similarity conjunct over coded operands is the `candidate`'s, decided
    /// once for it.
    fn narrow(
        &self,
        s: &mut Scratch,
        x: &[Value],
        i: usize,
        outer: Members<'_>,
        inner: Members<'_>,
        mut candidate: Option<&mut Candidate<'_>>,
    ) {
        let ev = &self.ev;
        let member = outer.get(i);
        s.outer_row.clear();
        for (v, c) in self.verify.iter().zip(&mut s.conjuncts) {
            if s.sel.is_empty() {
                break;
            }
            if let (false, Verify::Cmp { a, b, .. } | Verify::Similar { a, b, .. }) = (c.filled, v)
            {
                let text = matches!(v, Verify::Similar { .. });
                c.columns.0.fill(a, x, outer, text, ev);
                c.columns.1.fill(b, x, inner, text, ev);
                c.filled = true;
            }
            let (col_a, col_b) = (&c.columns.0, &c.columns.1);
            match v {
                Verify::Program(rx) => {
                    outer_row(&mut s.outer_row, x, member);
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
                Verify::Similar { coded: false, .. } => {
                    let matcher = c.matcher.as_mut().expect("one per Similar conjunct");
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
                // Coded operands read columns: they cannot fail. One
                // verdict stands for every row pair of the candidate; the
                // matcher holds an outer code's text until the next code.
                Verify::Similar {
                    metric,
                    theta,
                    coded: true,
                    ..
                } => {
                    let candidate =
                        (candidate.as_deref_mut()).expect("coded operands sweep by code");
                    let holds = match candidate.verdict {
                        Some(holds) => holds,
                        None => {
                            let holds = candidate.admits(*metric, *theta) && {
                                let matcher = c.matcher.as_mut().expect("one per Similar conjunct");
                                if c.pattern != candidate.ca {
                                    matcher
                                        .set_pattern(text(col_a.vals[i].as_ref().expect("coded")));
                                    c.pattern = candidate.ca;
                                }
                                s.comparisons += 1;
                                let r = col_b.vals[s.sel[0] as usize].as_ref().expect("coded");
                                matcher.matches(text(r))
                            };
                            candidate.verdict = Some(holds);
                            holds
                        }
                    };
                    if !holds {
                        s.sel.clear();
                    }
                }
            }
        }
    }

    /// Build the head of every pair left in `s.sel` for outer member `i`,
    /// `times` times each — or keep the pair's rows' indices, when the
    /// sweep keeps pairs; a `coded` head is built once for the candidate
    /// and shared.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        s: &mut Scratch,
        x: &[Value],
        (outer, i): (Members<'_>, usize),
        inner: Members<'_>,
        times: u32,
        mut coded: Option<&mut Option<Value>>,
        out: &mut Emitted,
    ) {
        if s.sel.is_empty() {
            return;
        }
        let out = match out {
            Emitted::Values(values) => values,
            Emitted::Pairs(pairs) => {
                let a = outer.row(i);
                for &j in &s.sel {
                    let pair = [a, inner.row(j as usize)];
                    pairs.extend(std::iter::repeat_n(pair, times as usize));
                }
                return;
            }
        };
        outer_row(&mut s.outer_row, x, outer.get(i));
        for &j in &s.sel {
            let b = from_ref(inner.get(j as usize));
            let head = || {
                let v = self.head.eval_pair(&s.outer_row, b, &self.ev.ctx);
                v.map_err(|e| self.ev.record(e)).unwrap_or(Value::Null)
            };
            let v = match coded.as_deref_mut() {
                Some(built) => built.get_or_insert_with(head).clone(),
                None => head(),
            };
            out.extend((1..times).map(|_| v.clone()));
            out.push(v);
        }
    }
}

/// `(X.., a)` in `row`, built when a program (conjunct or head) first
/// needs it for the outer member `a`.
fn outer_row(row: &mut RowEnv, x: &[Value], a: &Value) {
    if row.is_empty() {
        row.extend_from_slice(x);
        row.push(a.clone());
    }
}

/// Per-worker state of a sweep, reused from block to block.
struct Scratch {
    /// Per conjunct of the pair predicate.
    conjuncts: Vec<Conjunct>,
    /// `(X.., a)` for the current outer member; empty until needed.
    outer_row: RowEnv,
    /// Inner indices still standing for the current outer member.
    sel: Vec<u32>,
    enumerated: u64,
    comparisons: u64,
}

/// One conjunct's per-worker state.
struct Conjunct {
    /// The `(outer, inner)` operand columns (unused for
    /// [`Verify::Program`]).
    columns: (Column, Column),
    /// Do the columns hold the current block's operands?
    filled: bool,
    /// The prepared matcher of a [`Verify::Similar`] conjunct.
    matcher: Option<Matcher>,
    /// The outer code whose text a coded conjunct's matcher holds.
    pattern: u32,
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
