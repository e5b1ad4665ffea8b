//! Theta joins (§6): one join, two kinds of side.
//!
//! Every theta join runs the same way. Both sides are read; the strategy
//! that runs — the profile's, or the cartesian product when the keys share
//! no pruning domain — is recorded, once per node
//! ([`Executor::decide_theta`]); then M-Bucket, min-max blocks or the
//! cartesian product of `cleanm_exec::theta` joins *candidates* — `(key,
//! row)` items, the row a `u32` index into its side, in the side's
//! partitions — and the pairs that pass come back as index pairs. Only how a side is read differs:
//!
//! * **by column**, when both sides are `Select* ← Scan` over stored tables
//!   that read by column and their filters, their keys and the predicate
//!   all lower: a side is a [`ColumnScan`] of its table, swept in the
//!   partition layout of the row path with its key read per surviving row
//!   ([`KeyKernel`]), and a [`PairKernel`] over the two blocks refines, for
//!   one left row, a selection of the right block's rows;
//! * **by row** otherwise: a side is the dataset `run` produced for it,
//!   numbered in its partitions, its keys read by one probe pass (none
//!   under a cartesian plan), and each pair is tested by the compiled
//!   predicate.
//!
//! A `Reduce` reading the join evaluates its head on each surviving pair's
//! two rows by index ([`Executor::reduce_theta`]) — or, a Bag of
//! `{left: p1, right: p2}` over column sides, keeps the index pairs
//! themselves, its records built when first read. Only a join that other
//! consumers read too builds joined rows ([`Executor::run_theta`]), and
//! its sides are read by row.

use std::slice::from_ref;
use std::sync::Arc;

use cleanm_exec::{produce_partials, theta, Dataset, ExecContext, ExecResult};
use cleanm_values::Value;

use crate::algebra::plan::{string_key, theta_widen, Alg, HintKind, ThetaHint};
use crate::calculus::{CalcExpr, MonoidKind, Program};
use crate::engine::output::Output;
use crate::engine::storage::StoredTable;

use super::execute::{conjoin, fields_of, plan_label, reduce_outputs, Executor, RowEval};
use super::kernel::{BoundPair, KeyKernel, KeyKinds, PairKernel};
use super::pairs::is_pair_head;
use super::profile::ThetaStrategy;
use super::program::{env_layout, RowEnv, RowExpr};
use super::scan::{chunk_ranges, ColumnScan};

/// A side's candidate: its join key and its row's index in the side.
type Item = (f64, u32);

/// The theta algorithms' pair test: for the left candidate `t`, push `(t,
/// u)` for every `u` of a block that satisfies the predicate with `t`, in
/// block order.
type Verify<'s> = Box<dyn Fn(&Item, &[Item], &mut Vec<(Item, Item)>) + Sync + 's>;

/// One side of a theta join lowered onto its table's columns.
struct ThetaSide {
    /// The side's table, filtered by its `Select` chain.
    scan: ColumnScan,
    key: KeyKernel,
}

impl ThetaSide {
    /// Lower a side's join `key` over its `scan`.
    fn lower(scan: ColumnScan, key: &Program) -> Option<ThetaSide> {
        let key = KeyKernel::compile(key, scan.block())?;
        Some(ThetaSide { scan, key })
    }

    /// The rows `lo..hi` of the table that pass the side's filter, keyed,
    /// with the kinds their keys took.
    fn sweep(&self, range: (u32, u32)) -> (Vec<Item>, KeyKinds) {
        let sel = self.scan.sweep(range);
        let mut kinds = KeyKinds::default();
        let items = (self.key.keys(self.scan.block(), &sel, &mut kinds))
            .expect("theta key bound against its own block");
        (items, kinds)
    }
}

/// A theta join lowered onto columns: both sides and the pair test.
struct ColumnarTheta {
    left: ThetaSide,
    right: ThetaSide,
    pair: PairKernel,
}

impl ColumnarTheta {
    /// Lower the join predicate `pred` (compiled against the concatenated
    /// `(left, right)` layout) over the two sides' blocks.
    fn lower(left: ThetaSide, right: ThetaSide, pred: &Program) -> Option<Self> {
        let pair = PairKernel::compile(pred, left.scan.block(), right.scan.block())?;
        Some(ColumnarTheta { left, right, pair })
    }

    /// The pair test by column: the pair kernel refines a selection of the
    /// block's rows.
    fn verifier(&self) -> impl Fn(&Item, &[Item], &mut Vec<(Item, Item)>) + Sync + '_ {
        let pair: BoundPair<'_> = self
            .pair
            .bind(self.left.scan.block(), self.right.scan.block())
            .expect("pair kernel bound against the blocks it compiled on");
        move |t, block, out| {
            let mut sel: Vec<u32> = (0..block.len() as u32).collect();
            pair.refine(t.1, &mut sel, |k| block[k as usize].1);
            out.extend(sel.into_iter().map(|k| (*t, block[k as usize])));
        }
    }
}

/// Both sides of a theta join read by row: the rows `run` produced for
/// each, numbered in partition order, and the two join keys and the
/// predicate compiled against the sides' layouts.
struct RowSides {
    rows: [Vec<RowEnv>; 2],
    keys: [Arc<RowExpr>; 2],
    pred: Arc<RowExpr>,
}

impl RowSides {
    /// Key side `s`'s candidates in one probe pass over its partitions, as
    /// [`KeyKernel::keys`] keys a column side, with the kinds its keys
    /// took. The probe sees every key, so a string deep in a partition
    /// still widens the pruning.
    fn key(
        &self,
        s: usize,
        items: &Dataset<Item>,
        ctx: &Arc<ExecContext>,
        ev: &RowEval,
    ) -> ExecResult<(Dataset<Item>, KeyKinds)> {
        let (rows, key) = (&self.rows[s], &self.keys[s]);
        let probed = items.probe_partitions(|part| {
            let mut kinds = KeyKinds::default();
            let keyed: Vec<Item> = (part.iter())
                .map(|&(_, i)| {
                    let v = key.eval_env(&rows[i as usize], &ev.ctx);
                    (row_key(v, &mut kinds), i)
                })
                .collect();
            (keyed, kinds)
        })?;
        let (parts, kinds): (Vec<_>, Vec<KeyKinds>) = probed.into_iter().unzip();
        let kinds = kinds.into_iter().fold(KeyKinds::default(), KeyKinds::merge);
        Ok((Dataset::from_partitions(ctx, parts), kinds))
    }

    /// The pair test by row: the compiled predicate on the two rows, an
    /// evaluation error recorded and counted as a rejection (a
    /// width-mismatched side included).
    fn verifier<'s>(
        &'s self,
        ev: &'s RowEval,
    ) -> impl Fn(&Item, &[Item], &mut Vec<(Item, Item)>) + Sync + 's {
        let [l, r] = &self.rows;
        theta::pairwise(move |a: &Item, b: &Item| {
            ev.holds_pair(&self.pred, &l[a.1 as usize], &r[b.1 as usize])
        })
    }
}

/// A row's join key as the pruning strategies read it — the row twin of
/// [`KeyKernel::keys`]: a string as its order-preserving prefix key
/// ([`string_key`]), a number as itself but NaN as +∞ (NaN sorts after
/// every number in the engine's total order), anything else —
/// NULL, or an error — as NaN: it satisfies no inequality, so where its
/// key lands cannot lose a pair.
fn row_key(key: cleanm_values::Result<Value>, kinds: &mut KeyKinds) -> f64 {
    match key {
        Ok(Value::Str(s)) => {
            kinds.text = true;
            string_key(&s)
        }
        Ok(v) => {
            if matches!(v, Value::Int(_) | Value::Float(_)) {
                kinds.numeric = true;
            }
            v.as_float()
                .map_or(f64::NAN, |f| if f.is_nan() { f64::INFINITY } else { f })
        }
        Err(_) => f64::NAN,
    }
}

/// A row side's rows in partition order, and its candidates: each row's
/// index, in the row's partition, under a key not read yet.
fn number(ctx: &Arc<ExecContext>, side: Dataset<RowEnv>) -> (Vec<RowEnv>, Dataset<Item>) {
    let parts = side.collect_partitions();
    let mut next = 0u32;
    let items = (parts.iter())
        .map(|part| {
            let lo = next;
            next += part.len() as u32;
            (lo..next).map(|i| (f64::NAN, i)).collect()
        })
        .collect();
    let rows = parts.into_iter().flatten().collect();
    (rows, Dataset::from_partitions(ctx, items))
}

/// A theta join's two sides, as the join read them.
enum Sides {
    Columns(Box<ColumnarTheta>),
    Rows(RowSides),
}

impl Sides {
    /// The two rows of the candidate pair `(a, b)`, each in its side's
    /// layout.
    fn rows(&self, a: u32, b: u32) -> [&[Value]; 2] {
        match self {
            Sides::Columns(c) => [from_ref(c.left.scan.row(a)), from_ref(c.right.scan.row(b))],
            Sides::Rows(r) => [&r.rows[0][a as usize], &r.rows[1][b as usize]],
        }
    }

    /// The pair test over these sides.
    fn verifier<'s>(&'s self, ev: &'s RowEval) -> Verify<'s> {
        match self {
            Sides::Columns(c) => Box::new(c.verifier()),
            Sides::Rows(r) => Box::new(r.verifier(ev)),
        }
    }
}

/// Join keyed candidates by the strategy `decided` — the key domain the
/// planned strategy prunes in, `None` for the cartesian product — with
/// `verify` as the pair test: min-max blocks, or M-Bucket.
fn join_items(
    decided: Option<bool>,
    planned: ThetaStrategy,
    kind: HintKind,
    [left, right]: [Dataset<Item>; 2],
    verify: Verify<'_>,
) -> ExecResult<Dataset<(Item, Item)>> {
    let Some(text) = decided else {
        return theta::cartesian_filter(left, right, verify);
    };
    let compat = kind.compat_fn(theta_widen(text));
    let key = |t: &Item| t.0;
    match planned {
        ThetaStrategy::MinMaxBlocks => {
            theta::minmax_block_join(left, right, key, key, compat, verify)
        }
        ThetaStrategy::MBucket => theta::mbucket_join(left, right, key, key, compat, verify, None),
        ThetaStrategy::CartesianFilter => unreachable!("the cartesian product prunes nothing"),
    }
}

impl<'a> Executor<'a> {
    /// A `Reduce` straight over an unshared theta join: the join, its
    /// sides by column where they lower, then the head evaluated on each
    /// surviving pair's two rows — no joined row is built. A Bag of
    /// `{left: p1, right: p2}` over column sides builds no head either:
    /// it keeps the index pairs, into the two scans' stored rows. In a
    /// profile tree the join is the node `run` would have made, with its
    /// sides as children.
    pub(super) fn reduce_theta(
        &mut self,
        join: &Arc<Alg>,
        head: &CalcExpr,
        monoid: &MonoidKind,
    ) -> ExecResult<Output> {
        let ((sides, pairs), frame) = self.in_frame(|ex| ex.join_theta(join, true))?;
        if let Some(frame) = frame {
            let (op, detail) = plan_label(join);
            self.end_node(frame, op, detail, pairs.count() as u64, Vec::new());
        }
        let layout = env_layout(join);
        // Compiled on the kept route too, where it is not run: the report's
        // count of compiled expressions is the same whichever route runs,
        // as the pair sweep's.
        let head_rx = self.row_expr(head, &layout)?;
        if let (Sides::Columns(c), MonoidKind::Bag, [a, b]) = (&sides, monoid, &layout[..]) {
            if is_pair_head(head, a, b) {
                let kept = pairs
                    .filter_transform(
                        "map_partitions",
                        |_| true,
                        |((_, a), (_, b)), out: &mut Vec<[u32; 2]>| out.push([a, b]),
                    )?
                    .collect();
                let stored = [c.left.scan.stored(), c.right.scan.stored()];
                return Ok(Output::index_pairs(stored.map(Arc::clone), kept));
            }
        }
        let ev = self.eval.clone();
        let outputs = pairs
            .filter_transform(
                "map_partitions",
                |_| true,
                |((_, a), (_, b)), out: &mut Vec<Value>| {
                    let [l, r] = sides.rows(a, b);
                    out.push(ev.eval_pair(&head_rx, l, r).unwrap_or(Value::Null))
                },
            )?
            .collect();
        self.check_errors()?;
        reduce_outputs(monoid, outputs)
    }

    /// A theta join `run` reaches — one that other consumers read too —
    /// over row sides, each surviving pair built into its joined row (the
    /// left row's slots, then the right row's) once, for all of them.
    pub(super) fn run_theta(&mut self, join: &Alg) -> ExecResult<Dataset<RowEnv>> {
        let (sides, pairs) = self.join_theta(join, false)?;
        pairs.map(move |((_, a), (_, b))| sides.rows(a, b).concat())
    }

    /// The join itself: read both sides — by column when `by_column` allows
    /// and [`Executor::lower_columnar_theta`] lowers them, by row
    /// otherwise — decide the strategy once, and join the candidates.
    /// Returns the sides and the pairs that pass.
    fn join_theta(
        &mut self,
        join: &Alg,
        by_column: bool,
    ) -> ExecResult<(Sides, Dataset<(Item, Item)>)> {
        let Alg::ThetaJoin {
            left,
            right,
            pred,
            hint,
        } = join
        else {
            unreachable!("join_theta runs theta joins only");
        };
        let lowered = match by_column {
            true => self.lower_columnar_theta(left, right, pred, hint)?,
            false => None,
        };
        // Column sides key their candidates as they sweep; row sides only
        // under a strategy that prunes.
        let (sides, [mut l, mut r], mut kinds) = match lowered {
            Some(columnar) => {
                let (l, l_kinds) = self.sweep_theta_side(&columnar.left, left)?;
                let (r, r_kinds) = self.sweep_theta_side(&columnar.right, right)?;
                self.vectorized_rows += (l.count() + r.count()) as u64;
                (
                    Sides::Columns(Box::new(columnar)),
                    [l, r],
                    Some([l_kinds, r_kinds]),
                )
            }
            None => {
                let (rows, items) = self.row_sides([left, right], pred, hint)?;
                (Sides::Rows(rows), items, None)
            }
        };
        let planned = self.profile.theta;
        if let Sides::Rows(rows) = &sides {
            if planned != ThetaStrategy::CartesianFilter {
                let (ctx, ev) = (&self.ctx, &self.eval);
                let (keyed_l, l_kinds) = rows.key(0, &l, ctx, ev)?;
                let (keyed_r, r_kinds) = rows.key(1, &r, ctx, ev)?;
                (l, r, kinds) = (keyed_l, keyed_r, Some([l_kinds, r_kinds]));
            }
        }
        let domain = kinds.and_then(|[l_kinds, r_kinds]| KeyKinds::domain(l_kinds, r_kinds));
        let decided = self.decide_theta(pred, planned, domain);
        let verify = sides.verifier(&self.eval);
        let joined = join_items(decided, planned, hint.kind, [l, r], verify)?;
        self.check_errors()?;
        Ok((sides, joined))
    }

    /// Read both sides by row: each side's rows as `run` produces them,
    /// numbered in its partitions, with the predicate and both keys
    /// compiled against the sides' layouts.
    fn row_sides(
        &mut self,
        [left, right]: [&Arc<Alg>; 2],
        pred: &CalcExpr,
        hint: &ThetaHint,
    ) -> ExecResult<(RowSides, [Dataset<Item>; 2])> {
        let sides = [self.run(left)?, self.run(right)?];
        let scopes = [env_layout(left), env_layout(right)];
        let pred = self.row_expr(pred, &scopes.concat())?;
        let keys = [
            self.row_expr(&hint.left_key, &scopes[0])?,
            self.row_expr(&hint.right_key, &scopes[1])?,
        ];
        let [(l_rows, l), (r_rows, r)] = sides.map(|side| number(&self.ctx, side));
        let rows = [l_rows, r_rows];
        Ok((RowSides { rows, keys, pred }, [l, r]))
    }

    /// A theta side the planner reads by column: the stored table and
    /// variable of a scan under a chain of `Select`s, none of them shared
    /// ([`Executor::columnar_source`]), with the chain's predicates in
    /// evaluation order (innermost first).
    fn theta_side<'p>(
        &self,
        side: &'p Arc<Alg>,
    ) -> Option<(&'a StoredTable, &'p str, Vec<&'p CalcExpr>)> {
        let mut chain = Vec::new();
        let mut node = side;
        while let Alg::Select { input, pred } = &**node {
            if self.is_shared(node) {
                return None;
            }
            chain.push(pred);
            node = input;
        }
        chain.reverse();
        let (stored, var) = self.columnar_source(node)?;
        Some((stored, var, chain))
    }

    /// Lower a theta join onto its sides' columns ([`ColumnarTheta`]).
    /// Decided once, here: `None` — the sides are read by row — unless
    /// both sides are [`Executor::theta_side`]s, each side's table reads by
    /// column over the columns its `Select` chain, its join key and the
    /// join predicate read, and all of those lower to kernels. On success
    /// the expressions are counted as row sides count them: each side's
    /// chain as one compiled filter with the rest of its `Select`s fused,
    /// the predicate and both keys.
    fn lower_columnar_theta(
        &mut self,
        left: &Arc<Alg>,
        right: &Arc<Alg>,
        pred: &CalcExpr,
        hint: &ThetaHint,
    ) -> ExecResult<Option<ColumnarTheta>> {
        let (Some(l), Some(r)) = (self.theta_side(left), self.theta_side(right)) else {
            return Ok(None);
        };
        // A compile failure is the row sides' to report.
        let Ok(pred_rx) = self.compile(pred, &[l.1.to_string(), r.1.to_string()]) else {
            return Ok(None);
        };
        let Some(left_side) = self.lower_theta_side(&l, &hint.left_key, pred)? else {
            return Ok(None);
        };
        let Some(right_side) = self.lower_theta_side(&r, &hint.right_key, pred)? else {
            return Ok(None);
        };
        let Some(columnar) = ColumnarTheta::lower(left_side, right_side, pred_rx.program()) else {
            return Ok(None);
        };
        for (_, _, chain) in [&l, &r] {
            self.compiled_exprs += usize::from(!chain.is_empty());
            self.fused_selects += chain.len().saturating_sub(1);
        }
        self.compiled_exprs += 3;
        Ok(Some(columnar))
    }

    /// One side of [`Executor::lower_columnar_theta`]: its chain and `key`
    /// compiled, and lowered over the columns they and `pred` read.
    fn lower_theta_side(
        &self,
        (stored, var, chain): &(&StoredTable, &str, Vec<&CalcExpr>),
        key: &CalcExpr,
        pred: &CalcExpr,
    ) -> ExecResult<Option<ThetaSide>> {
        let scope = [var.to_string()];
        let filter_rx = conjoin(chain).map(|c| self.compile(&c, &scope)).transpose();
        let (Ok(filter_rx), Ok(key_rx)) = (filter_rx, self.compile(key, &scope)) else {
            return Ok(None);
        };
        let fields = fields_of(var, chain.iter().copied().chain([key, pred]));
        let filter = filter_rx.as_deref().map(RowExpr::program);
        self.lower_on_columns(stored, &fields, filter, |scan| {
            ThetaSide::lower(scan, key_rx.program())
        })
    }

    /// One `theta_keys` stage over a lowered side, `node` in the plan: its
    /// filtered, keyed rows, partitioned as the row path partitions the
    /// side, and the kinds its keys took.
    fn sweep_theta_side(
        &mut self,
        side: &ThetaSide,
        node: &Alg,
    ) -> ExecResult<(Dataset<Item>, KeyKinds)> {
        let rows = side.scan.len();
        let tasks = chunk_ranges(rows as u32, self.ctx.default_partitions());
        let (swept, frame) = self.in_frame(|ex| {
            let sweep = |range| side.sweep(range);
            produce_partials(&ex.ctx, "theta_keys", rows as u64, tasks, |_| 0, sweep)
        })?;
        let (parts, kinds): (Vec<Vec<Item>>, Vec<KeyKinds>) = swept.into_iter().unzip();
        let items = Dataset::from_partitions(&self.ctx, parts);
        self.vectorized_rows += rows as u64;
        if let Some(frame) = frame {
            self.override_rows_in = Some(rows as u64);
            let (op, detail) = plan_label(node);
            self.end_node(frame, op, detail, items.count() as u64, Vec::new());
        }
        let kinds = kinds.into_iter().fold(KeyKinds::default(), KeyKinds::merge);
        Ok((items, kinds))
    }

    /// Record the strategy that runs — one decision per node — and return
    /// the key domain it prunes in: `planned` when it prunes and the keys
    /// share a `domain` ([`KeyKinds::domain`]), else the cartesian product
    /// (`None`), which needs no key domain and prunes nothing, so it is
    /// always correct.
    fn decide_theta(
        &mut self,
        pred: &CalcExpr,
        planned: ThetaStrategy,
        domain: Option<bool>,
    ) -> Option<bool> {
        let cartesian = ThetaStrategy::CartesianFilter;
        let reason = "fixed profile".to_string();
        let (ran, reason, domain) = match domain {
            _ if planned == cartesian => (cartesian, reason, None),
            Some(text) => (planned, reason, Some(text)),
            None => (
                cartesian,
                format!("mixed numeric/text join keys: no common pruning domain for {planned:?}"),
                None,
            ),
        };
        self.record_decision("theta", pred.to_string(), format!("{ran:?}"), reason);
        domain
    }
}
