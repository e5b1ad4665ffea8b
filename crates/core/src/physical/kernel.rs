//! Column-at-a-time kernels compiled from the fused instruction forms of
//! [`Program`].
//!
//! The row machine already collapses the hot cleaning shapes into fused
//! instructions — a predicate tree ([`Instr::Pred`]), a three-address
//! comparison ([`Instr::BinFused`]), a record of projections
//! ([`Instr::RecordFused`]), a single-builtin call ([`Instr::CallFused`]).
//! This module recognizes exactly those shapes and lowers them once more,
//! against the one *concrete* [`ColumnBatch`] a table is read as — the
//! pivot of all its rows, so a kernel lowers once per plan node — into
//! kernels that sweep whole typed columns: a predicate refines a selection vector over
//! `i64`/`f64`/`Arc<str>` slices ([`PredKernel`]); a theta join's predicate
//! reads two batches, slot 0 the left side's and slot 1 the right's, and
//! refines a selection of right rows for one left row ([`PairKernel`]),
//! while its join key is read as an `f64` per row ([`KeyKernel`]); a
//! grouping key or an aggregate's member expression becomes a
//! [`ColumnProgram`] whose value at a row is hashed and compared cell to
//! cell, so the grouping kernel ([`Groups`]) turns rows into dense group
//! ids without boxing a key and one key `Value` is materialized per *group
//! that needs it*.
//!
//! **Safety contract (what keeps columnar ≡ row byte-identical):** a
//! kernel compiles only when per-row evaluation provably cannot error —
//! comparisons are total, arithmetic is restricted to numeric/NULL typed
//! columns (where `eval_binop`'s only non-value outcomes are NULL
//! propagation and divide-by-zero → NULL), and string builtins are
//! restricted to the four total ones (`lower`/`upper`/`trim`/`prefix`)
//! over string columns. Everything else — comprehensions, `Val`
//! fallback columns, cross-type comparisons, shuffled schemas — returns
//! `None` from the kernel compiler and the caller keeps the row path. The
//! differential tests in `tests/columnar_agree.rs` and
//! `tests/group_fold.rs` pin the equivalence.

use std::borrow::Cow;
use std::sync::Arc;

use cleanm_values::{fx_hash, Column, ColumnBatch, NullMask, Value, HASH_SEED};

use crate::algebra::plan::string_key;
use crate::calculus::compile::{BoolExpr, Instr, Operand, Program};
use crate::calculus::eval::{lowercase_is_identity, prefix_end, uppercase_is_identity};
use crate::calculus::{BinOp, Func};

/// A resolved column reference: the environment slot it reads and a flat
/// index into the kernel's typed bind list. The batch column it came from
/// lives in the bind list, so the runtime reference is just the index.
#[derive(Debug, Clone, Copy)]
struct ColRef {
    slot: u8,
    col: u32,
}

/// The row each environment slot is at: a one-slot kernel reads slot 0, a
/// pair kernel reads its left batch at slot 0 and its right at slot 1.
type At = [usize; 2];

/// How a program's environment slots map onto the batches a kernel lowers
/// against.
#[derive(Debug, Clone, Copy)]
enum SlotMap<'n> {
    /// Slot `k` is a row of batch `k`; `slot.field` reads that batch's
    /// column `field` (a scan's filter, a theta join's two sides).
    Rows,
    /// Slot `i` is a whole value, the row's cell of the one batch's column
    /// `names[i]` (a group fold's finish scope, one column per slot).
    Columns(&'n [String]),
}

impl<'n> SlotMap<'n> {
    /// How many environment slots a program lowered under this map has.
    fn scope_len(self, batches: usize) -> usize {
        match self {
            SlotMap::Rows => batches,
            SlotMap::Columns(names) => names.len(),
        }
    }

    /// The `(batch, column name)` a cell reference reads: `slot.field`
    /// over rows, a bare slot over columns; `None` for any other operand.
    fn column_of<'o>(self, op: &'o Operand) -> Option<(u16, &'o str)>
    where
        'n: 'o,
    {
        match (self, op) {
            (SlotMap::Rows, Operand::SlotField { slot, field, .. }) => Some((*slot, field)),
            (SlotMap::Columns(names), Operand::Slot(slot)) => {
                Some((0, names.get(*slot as usize)?.as_str()))
            }
            _ => None,
        }
    }

    /// [`SlotMap::column_of`] for a lone instruction.
    fn column_of_instr<'o>(self, instr: &'o Instr) -> Option<(u16, &'o str)>
    where
        'n: 'o,
    {
        match (self, instr) {
            (SlotMap::Rows, Instr::SlotField { slot, field, .. }) => Some((*slot, field)),
            (SlotMap::Columns(names), Instr::Slot(slot)) => {
                Some((0, names.get(*slot as usize)?.as_str()))
            }
            _ => None,
        }
    }
}

/// Static cell type of a referenced column, fixed at kernel-compile time
/// from the actual batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellType {
    Int,
    Float,
    Str,
}

fn column_type(c: &Column) -> Option<CellType> {
    match c {
        Column::Int { .. } => Some(CellType::Int),
        Column::Float { .. } => Some(CellType::Float),
        Column::Str { .. } => Some(CellType::Str),
        // Bool columns never appear in fused comparisons (predicates
        // compare numbers/strings); Val columns are the row-path fallback.
        Column::Bool { .. } | Column::Val(_) => None,
    }
}

/// A numeric scalar expression over columns: the columnar lowering of an
/// [`Operand`] tree whose leaves are numeric columns or constants.
/// `Int`-kinded nodes evaluate in wrapping `i64` exactly like
/// [`eval_binop`]; everything else widens to `f64`. `None` is NULL.
#[derive(Debug)]
enum NumExpr {
    IntCol(ColRef),
    FloatCol(ColRef),
    IntConst(i64),
    FloatConst(f64),
    Bin {
        op: BinOp,
        /// Does this node produce an `Int` (both sides Int, op ∈ {+,-,*})?
        int: bool,
        l: Box<NumExpr>,
        r: Box<NumExpr>,
    },
}

impl NumExpr {
    fn is_int(&self) -> bool {
        match self {
            NumExpr::IntCol(_) | NumExpr::IntConst(_) => true,
            NumExpr::FloatCol(_) | NumExpr::FloatConst(_) => false,
            NumExpr::Bin { int, .. } => *int,
        }
    }

    /// The environment slots the expression reads, as a bit mask.
    fn reads(&self) -> u8 {
        match self {
            NumExpr::IntCol(r) | NumExpr::FloatCol(r) => 1 << r.slot,
            NumExpr::IntConst(_) | NumExpr::FloatConst(_) => 0,
            NumExpr::Bin { l, r, .. } => l.reads() | r.reads(),
        }
    }

    /// How a filter over `cols` reads the expression as `i64`; `first`
    /// holds the first entry's rows.
    fn reader_i<'r>(&'r self, cols: &'r Bound<'_>, first: At) -> Reader<'r, i64> {
        match self {
            _ if self.reads() & cols.varying == 0 => Reader::Fixed(self.eval_i(cols, first)),
            NumExpr::IntCol(r) => Reader::Col(cols.ints(*r)),
            _ => Reader::Eval(Box::new(move |at| self.eval_i(cols, at))),
        }
    }

    /// How a filter over `cols` reads the expression as `f64`; `first`
    /// holds the first entry's rows.
    fn reader_f<'r>(&'r self, cols: &'r Bound<'_>, first: At) -> Reader<'r, f64> {
        match self {
            _ if self.reads() & cols.varying == 0 => Reader::Fixed(self.eval_f(cols, first)),
            NumExpr::FloatCol(r) => Reader::Col(cols.floats(*r)),
            _ => Reader::Eval(Box::new(move |at| self.eval_f(cols, at))),
        }
    }

    /// Evaluate as `i64` (valid only when [`NumExpr::is_int`]); `None` is
    /// NULL. Mirrors `eval_binop`'s wrapping integer arithmetic.
    #[inline]
    fn eval_i(&self, cols: &Bound<'_>, at: At) -> Option<i64> {
        match self {
            NumExpr::IntCol(r) => cols.ints(*r).get(at).copied(),
            NumExpr::IntConst(v) => Some(*v),
            NumExpr::Bin { op, l, r, .. } => {
                let a = l.eval_i(cols, at)?;
                let b = r.eval_i(cols, at)?;
                Some(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    _ => unreachable!("int-kinded arithmetic"),
                })
            }
            NumExpr::FloatCol(_) | NumExpr::FloatConst(_) => {
                unreachable!("float node in int context")
            }
        }
    }

    /// Evaluate as `f64`, widening like `eval_binop` (`i as f64`); `None`
    /// is NULL (including division by zero).
    #[inline]
    fn eval_f(&self, cols: &Bound<'_>, at: At) -> Option<f64> {
        match self {
            NumExpr::IntCol(r) => cols.ints(*r).get(at).map(|&v| v as f64),
            NumExpr::FloatCol(r) => cols.floats(*r).get(at).copied(),
            NumExpr::IntConst(v) => Some(*v as f64),
            NumExpr::FloatConst(v) => Some(*v),
            NumExpr::Bin { int: true, .. } => self.eval_i(cols, at).map(|v| v as f64),
            NumExpr::Bin { op, l, r, .. } => {
                let a = l.eval_f(cols, at)?;
                let b = r.eval_f(cols, at)?;
                match op {
                    BinOp::Add => Some(a + b),
                    BinOp::Sub => Some(a - b),
                    BinOp::Mul => Some(a * b),
                    // Both the int and float division rules of `eval_binop`
                    // collapse to this: zero divisor → NULL, else f64.
                    BinOp::Div => (b != 0.0).then(|| a / b),
                    _ => unreachable!("arithmetic op"),
                }
            }
        }
    }
}

/// How a filter reads a numeric operand at each entry of a selection;
/// `None` is NULL.
enum Reader<'r, T> {
    /// The same value at every entry: a constant, or an operand over the
    /// rows the selection holds fixed (the left row of a pair refinement).
    Fixed(Option<T>),
    /// A column, read in place.
    Col(Cells<'r, T>),
    /// Arithmetic, or a column widened to `f64`, evaluated per entry.
    Eval(Box<dyn Fn(At) -> Option<T> + 'r>),
}

impl<T: Copy> Reader<'_, T> {
    #[inline]
    fn get(&self, at: At) -> Option<T> {
        match self {
            Reader::Fixed(v) => *v,
            Reader::Col(cells) => cells.get(at).copied(),
            Reader::Eval(eval) => eval(at),
        }
    }
}

/// A string side of a comparison: a string column or constant.
#[derive(Debug)]
enum StrOperand {
    Col(ColRef),
    Const(Arc<str>),
}

impl StrOperand {
    #[inline]
    fn get<'a>(&'a self, cols: &Bound<'a>, at: At) -> Option<&'a str> {
        match self {
            StrOperand::Col(r) => cols.strs(*r).get(at).map(|s| s.as_ref()),
            StrOperand::Const(s) => Some(s),
        }
    }
}

/// `eval_binop`'s NULL comparison rule: `Eq` ⇔ both NULL, `Ne` ⇔ exactly
/// one NULL, every other comparison is false.
#[inline]
fn null_cmp(op: BinOp, ln: bool, rn: bool) -> bool {
    match op {
        BinOp::Eq => ln && rn,
        BinOp::Ne => ln != rn,
        _ => false,
    }
}

#[inline]
fn ord_cmp(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!("comparison op"),
    }
}

/// Float comparison with `eval_binop`'s exact semantics: IEEE comparison
/// when neither side is NaN, the canonical total order otherwise.
#[inline]
fn float_cmp_total(op: BinOp, a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return ord_cmp(op, Value::float_key(a).cmp(&Value::float_key(b)));
    }
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => unreachable!("comparison op"),
    }
}

/// One vectorized comparison atom.
#[derive(Debug)]
enum CmpAtom {
    /// Both sides `Int`-kinded: exact `i64` comparison (no widening — a
    /// 64-bit int does not round-trip through `f64`).
    IntInt { op: BinOp, l: NumExpr, r: NumExpr },
    /// At least one side float: widen and compare with NaN total order.
    Num { op: BinOp, l: NumExpr, r: NumExpr },
    /// Both sides strings: lexicographic byte order (`str::cmp`).
    Str {
        op: BinOp,
        l: StrOperand,
        r: StrOperand,
    },
}

impl CmpAtom {
    #[inline]
    fn eval(&self, cols: &Bound<'_>, at: At) -> bool {
        match self {
            CmpAtom::IntInt { op, l, r } => match (l.eval_i(cols, at), r.eval_i(cols, at)) {
                (Some(a), Some(b)) => ord_cmp(*op, a.cmp(&b)),
                (a, b) => null_cmp(*op, a.is_none(), b.is_none()),
            },
            CmpAtom::Num { op, l, r } => match (l.eval_f(cols, at), r.eval_f(cols, at)) {
                (Some(a), Some(b)) => float_cmp_total(*op, a, b),
                (a, b) => null_cmp(*op, a.is_none(), b.is_none()),
            },
            CmpAtom::Str { op, l, r } => match (l.get(cols, at), r.get(cols, at)) {
                (Some(a), Some(b)) => ord_cmp(*op, a.cmp(b)),
                (a, b) => null_cmp(*op, a.is_none(), b.is_none()),
            },
        }
    }

    /// Refine a non-empty `sel` to the entries where the atom holds, in
    /// one loop: an operand the selection holds fixed is evaluated once,
    /// a column operand is read in place.
    fn filter(&self, cols: &Bound<'_>, sel: &mut Vec<u32>, at: &impl Fn(u32) -> At) {
        fn keep<T: Copy>(
            sel: &mut Vec<u32>,
            at: &impl Fn(u32) -> At,
            operands: (Reader<'_, T>, Reader<'_, T>),
            op: BinOp,
            holds: impl Fn(T, T) -> bool,
        ) {
            let test = |a: Option<T>, b: Option<T>| match (a, b) {
                (Some(a), Some(b)) => holds(a, b),
                (a, b) => null_cmp(op, a.is_none(), b.is_none()),
            };
            // A column against one value — the dominant shape — gets a loop
            // of its own.
            match operands {
                (Reader::Col(a), Reader::Fixed(b)) => {
                    sel.retain(|&k| test(a.get(at(k)).copied(), b))
                }
                (Reader::Fixed(a), Reader::Col(b)) => {
                    sel.retain(|&k| test(a, b.get(at(k)).copied()))
                }
                (a, b) => sel.retain(|&k| {
                    let at = at(k);
                    test(a.get(at), b.get(at))
                }),
            }
        }
        let first = at(sel[0]);
        match self {
            CmpAtom::IntInt { op, l, r } => {
                let operands = (l.reader_i(cols, first), r.reader_i(cols, first));
                keep(sel, at, operands, *op, |a, b| ord_cmp(*op, a.cmp(&b)))
            }
            CmpAtom::Num { op, l, r } => {
                let operands = (l.reader_f(cols, first), r.reader_f(cols, first));
                keep(sel, at, operands, *op, |a, b| float_cmp_total(*op, a, b))
            }
            CmpAtom::Str { .. } => sel.retain(|&k| self.eval(cols, at(k))),
        }
    }
}

/// A vectorized boolean tree — the columnar twin of [`BoolExpr`]. Atoms
/// are error-free, so evaluation order inside a row is unobservable and
/// conjunctions may run as successive selection-vector refinements.
#[derive(Debug)]
enum BoolKernel {
    Cmp(CmpAtom),
    Not(Box<BoolKernel>),
    AllOf(Vec<BoolKernel>),
    AnyOf(Vec<BoolKernel>),
}

impl BoolKernel {
    #[inline]
    fn eval_row(&self, cols: &Bound<'_>, at: At) -> bool {
        match self {
            BoolKernel::Cmp(a) => a.eval(cols, at),
            BoolKernel::Not(k) => !k.eval_row(cols, at),
            BoolKernel::AllOf(ks) => ks.iter().all(|k| k.eval_row(cols, at)),
            BoolKernel::AnyOf(ks) => ks.iter().any(|k| k.eval_row(cols, at)),
        }
    }

    /// Refine `sel` — ascending entries, each naming the rows `at` maps it
    /// to — to the entries where the kernel holds. A conjunction runs
    /// atom-by-atom over the shrinking selection, a disjunction runs
    /// branch-by-branch over the shrinking *undecided* set (each branch
    /// only sees entries no earlier branch accepted) — so every comparison
    /// atom is one tight `retain` loop over its columns, never a per-row
    /// recursive tree walk. Atoms are total, so decomposition order is
    /// unobservable.
    fn filter(&self, cols: &Bound<'_>, sel: &mut Vec<u32>, at: &impl Fn(u32) -> At) {
        match self {
            BoolKernel::AllOf(ks) => {
                for k in ks {
                    if sel.is_empty() {
                        return;
                    }
                    k.filter(cols, sel, at);
                }
            }
            BoolKernel::AnyOf(ks) => {
                let mut pending = std::mem::take(sel);
                let mut accepted: Vec<u32> = Vec::new();
                for k in ks {
                    if pending.is_empty() {
                        break;
                    }
                    let mut pass = pending.clone();
                    k.filter(cols, &mut pass, at);
                    if pass.len() == pending.len() {
                        // Branch accepted everything: done.
                        accepted.extend_from_slice(&pass);
                        pending.clear();
                        break;
                    }
                    // pending := pending \ pass (both sorted ascending).
                    let mut it = pass.iter().copied().peekable();
                    pending.retain(|&i| {
                        if it.peek() == Some(&i) {
                            it.next();
                            false
                        } else {
                            true
                        }
                    });
                    accepted.extend_from_slice(&pass);
                }
                // Branches accept disjoint sorted runs; restore row order.
                accepted.sort_unstable();
                *sel = accepted;
            }
            BoolKernel::Cmp(a) if !sel.is_empty() => a.filter(cols, sel, at),
            other => sel.retain(|&i| other.eval_row(cols, at(i))),
        }
    }
}

/// Typed column slices resolved once per sweep: kernels index these
/// directly, so the per-row cost is a slice load plus a null-bit test.
struct Bound<'a> {
    /// The slots whose row varies across a selection, as a bit mask: slot
    /// 0 for a one-slot kernel, slot 1 (the right row) for a pair kernel.
    varying: u8,
    ints: Vec<(&'a [i64], Option<&'a NullMask>)>,
    floats: Vec<(&'a [f64], Option<&'a NullMask>)>,
    strs: Vec<(&'a [Arc<str>], Option<&'a NullMask>)>,
}

impl<'a> Bound<'a> {
    fn ints(&self, r: ColRef) -> Cells<'a, i64> {
        Cells::new(self.ints[r.col as usize], r)
    }

    fn floats(&self, r: ColRef) -> Cells<'a, f64> {
        Cells::new(self.floats[r.col as usize], r)
    }

    fn strs(&self, r: ColRef) -> Cells<'a, Arc<str>> {
        Cells::new(self.strs[r.col as usize], r)
    }
}

/// One bound column, read at its slot's row.
#[derive(Clone, Copy)]
struct Cells<'a, T> {
    data: &'a [T],
    nulls: Option<&'a NullMask>,
    slot: usize,
}

impl<'a, T> Cells<'a, T> {
    fn new((data, nulls): (&'a [T], Option<&'a NullMask>), r: ColRef) -> Self {
        Cells {
            data,
            nulls,
            slot: r.slot as usize,
        }
    }

    /// The cell at the slot's row of `at`; `None` is NULL.
    #[inline]
    fn get(&self, at: At) -> Option<&'a T> {
        let i = at[self.slot];
        match self.nulls {
            Some(m) if m.is_null(i) => None,
            _ => Some(&self.data[i]),
        }
    }
}

/// The typed columns a kernel reads, per type in bind order: the
/// environment slot and the column of that slot's batch.
#[derive(Debug, Default)]
struct Binds {
    ints: Vec<(u8, u32)>,
    floats: Vec<(u8, u32)>,
    strs: Vec<(u8, u32)>,
}

impl Binds {
    /// Bind against `batches`, one per slot — the schemas the kernel
    /// compiled against; `None` if a column is missing or its type drifted.
    fn bind<'a>(&self, batches: &[&'a ColumnBatch], varying: u8) -> Option<Bound<'a>> {
        let col = |&(slot, c): &(u8, u32)| batches.get(slot as usize)?.columns().get(c as usize);
        let ints = self.ints.iter().map(|c| match col(c)? {
            Column::Int { data, nulls } => Some((data.as_slice(), nulls.as_ref())),
            _ => None,
        });
        let floats = self.floats.iter().map(|c| match col(c)? {
            Column::Float { data, nulls } => Some((data.as_slice(), nulls.as_ref())),
            _ => None,
        });
        let strs = self.strs.iter().map(|c| match col(c)? {
            Column::Str { data, nulls } => Some((data.as_slice(), nulls.as_ref())),
            _ => None,
        });
        Some(Bound {
            varying,
            ints: ints.collect::<Option<_>>()?,
            floats: floats.collect::<Option<_>>()?,
            strs: strs.collect::<Option<_>>()?,
        })
    }
}

/// Shared compile-time state: maps `slot.field` references onto typed bind
/// lists, validating against the concrete batch each slot binds to.
struct KernelCx<'a> {
    batches: &'a [&'a ColumnBatch],
    map: SlotMap<'a>,
    binds: Binds,
}

impl<'a> KernelCx<'a> {
    fn new(batches: &'a [&'a ColumnBatch], map: SlotMap<'a>) -> Self {
        KernelCx {
            batches,
            map,
            binds: Binds::default(),
        }
    }

    /// Resolve `slot.field` to a typed reference, registering the column
    /// for binding. `None` for a slot without a batch, a field the batch
    /// lacks, or an untyped column.
    fn resolve(&mut self, slot: u16, field: &str) -> Option<(ColRef, CellType)> {
        let batch = self.batches.get(slot as usize)?;
        let col = batch.column_index(field)? as u32;
        let ty = column_type(batch.column(col as usize))?;
        let list = match ty {
            CellType::Int => &mut self.binds.ints,
            CellType::Float => &mut self.binds.floats,
            CellType::Str => &mut self.binds.strs,
        };
        let bind = (slot as u8, col);
        let idx = match list.iter().position(|&b| b == bind) {
            Some(i) => i as u32,
            None => {
                list.push(bind);
                (list.len() - 1) as u32
            }
        };
        Some((
            ColRef {
                slot: bind.0,
                col: idx,
            },
            ty,
        ))
    }

    fn num_operand(&mut self, op: &Operand) -> Option<NumExpr> {
        match op {
            Operand::Const(Value::Int(i)) => Some(NumExpr::IntConst(*i)),
            Operand::Const(Value::Float(f)) => Some(NumExpr::FloatConst(*f)),
            Operand::Bin { op, l, r } => self.arith(*op, l, r),
            // Whole-row slots and non-scalar constants stay on the row path.
            _ => {
                let (slot, field) = self.map.column_of(op)?;
                match self.resolve(slot, field)? {
                    (r, CellType::Int) => Some(NumExpr::IntCol(r)),
                    (r, CellType::Float) => Some(NumExpr::FloatCol(r)),
                    _ => None,
                }
            }
        }
    }

    /// Lower `l op r` for an arithmetic `op` over numeric operands.
    fn arith(&mut self, op: BinOp, l: &Operand, r: &Operand) -> Option<NumExpr> {
        if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) {
            return None;
        }
        let l = self.num_operand(l)?;
        let r = self.num_operand(r)?;
        let int = l.is_int() && r.is_int() && op != BinOp::Div;
        Some(NumExpr::Bin {
            op,
            int,
            l: Box::new(l),
            r: Box::new(r),
        })
    }

    fn str_operand(&mut self, op: &Operand) -> Option<StrOperand> {
        match op {
            Operand::Const(Value::Str(s)) => Some(StrOperand::Const(Arc::clone(s))),
            _ => {
                let (slot, field) = self.map.column_of(op)?;
                match self.resolve(slot, field)? {
                    (r, CellType::Str) => Some(StrOperand::Col(r)),
                    _ => None,
                }
            }
        }
    }

    /// Lower one comparison. Numeric×numeric and string×string compile;
    /// cross-type comparisons (rank order) stay on the row path.
    fn cmp(&mut self, op: BinOp, lhs: &Operand, rhs: &Operand) -> Option<CmpAtom> {
        if !op.is_comparison() {
            return None;
        }
        // Try strings first (a Str constant can only compare stringly).
        if let (Some(l), Some(r)) = (self.try_str(lhs), self.try_str(rhs)) {
            return Some(CmpAtom::Str { op, l, r });
        }
        let l = self.num_operand(lhs)?;
        let r = self.num_operand(rhs)?;
        if l.is_int() && r.is_int() {
            Some(CmpAtom::IntInt { op, l, r })
        } else {
            Some(CmpAtom::Num { op, l, r })
        }
    }

    /// `str_operand` without registering bindings on failure — probe-only.
    fn try_str(&mut self, op: &Operand) -> Option<StrOperand> {
        match op {
            Operand::Const(Value::Str(_)) | Operand::SlotField { .. } | Operand::Slot(_) => {
                self.str_operand(op)
            }
            _ => None,
        }
    }

    fn bool_kernel(&mut self, e: &BoolExpr) -> Option<BoolKernel> {
        match e {
            BoolExpr::Cmp { op, lhs, rhs } => self.cmp(*op, lhs, rhs).map(BoolKernel::Cmp),
            BoolExpr::Not(inner) => Some(BoolKernel::Not(Box::new(self.bool_kernel(inner)?))),
            BoolExpr::AllOf(xs) => xs
                .iter()
                .map(|x| self.bool_kernel(x))
                .collect::<Option<Vec<_>>>()
                .map(BoolKernel::AllOf),
            BoolExpr::AnyOf(xs) => xs
                .iter()
                .map(|x| self.bool_kernel(x))
                .collect::<Option<Vec<_>>>()
                .map(BoolKernel::AnyOf),
            BoolExpr::AllCmp(cmps) => cmps
                .iter()
                .map(|(op, l, r)| self.cmp(*op, l, r).map(BoolKernel::Cmp))
                .collect::<Option<Vec<_>>>()
                .map(BoolKernel::AllOf),
        }
    }

    /// Lower a fused predicate program whose slots bind to `batches` as
    /// `map` says.
    fn predicate(
        program: &Program,
        batches: &'a [&'a ColumnBatch],
        map: SlotMap<'a>,
    ) -> Option<(BoolKernel, Binds)> {
        if program.scope_len() != map.scope_len(batches.len()) {
            return None;
        }
        let mut cx = KernelCx::new(batches, map);
        let root = match program.instrs() {
            [Instr::Pred(p)] => cx.bool_kernel(p)?,
            [Instr::BinFused { op, lhs, rhs }] => BoolKernel::Cmp(cx.cmp(*op, lhs, rhs)?),
            _ => return None,
        };
        Some((root, cx.binds))
    }
}

/// A compiled columnar predicate over a one-variable environment: refines
/// a selection vector over the whole typed columns of one batch.
pub struct PredKernel {
    root: BoolKernel,
    binds: Binds,
}

impl PredKernel {
    /// Lower `program` against the concrete `batch` its one slot binds to.
    /// `None` when the program is not a single fused predicate over one
    /// variable, or any reference fails to resolve to a typed column.
    pub fn compile(program: &Program, batch: &ColumnBatch) -> Option<PredKernel> {
        let (root, binds) = KernelCx::predicate(program, &[batch], SlotMap::Rows)?;
        Some(PredKernel { root, binds })
    }

    /// Lower `program` over an environment of whole values, slot `i` the
    /// row's cell of `batch`'s column `names[i]` — a group predicate over
    /// the finished slots, one row per group. `None` as for
    /// [`PredKernel::compile`], or when a slot it reads has no typed column.
    pub fn compile_slots(
        program: &Program,
        batch: &ColumnBatch,
        names: &[String],
    ) -> Option<PredKernel> {
        let (root, binds) = KernelCx::predicate(program, &[batch], SlotMap::Columns(names))?;
        Some(PredKernel { root, binds })
    }

    /// Refine `sel` to the rows where the predicate is truthy. `batch`
    /// must have the schema the kernel compiled against (returns `false`
    /// untouched otherwise, so the caller can fall back).
    pub fn filter(&self, batch: &ColumnBatch, sel: &mut Vec<u32>) -> bool {
        let Some(bound) = self.binds.bind(&[batch], 0b01) else {
            return false;
        };
        self.root.filter(&bound, sel, &|i| [i as usize, 0]);
        true
    }
}

/// A theta join's predicate over the `(left, right)` environment, lowered
/// against one batch per side: slot 0 reads the left batch, slot 1 the
/// right. [`BoundPair::refine`] tests one left row against a selection of
/// right rows — what the row path's pair evaluation makes truthy, by the
/// same comparison rules as [`PredKernel`].
pub struct PairKernel {
    root: BoolKernel,
    binds: Binds,
}

impl PairKernel {
    /// Lower `program` (compiled against the concatenated two-variable
    /// layout) against the sides' batches. `None` as for
    /// [`PredKernel::compile`].
    pub fn compile(
        program: &Program,
        left: &ColumnBatch,
        right: &ColumnBatch,
    ) -> Option<PairKernel> {
        let (root, binds) = KernelCx::predicate(program, &[left, right], SlotMap::Rows)?;
        Some(PairKernel { root, binds })
    }

    /// The kernel over the columns of `left` and `right`; `None` unless they
    /// have the schemas it compiled against.
    pub fn bind<'a>(
        &'a self,
        left: &'a ColumnBatch,
        right: &'a ColumnBatch,
    ) -> Option<BoundPair<'a>> {
        Some(BoundPair {
            root: &self.root,
            cols: self.binds.bind(&[left, right], 0b10)?,
        })
    }
}

/// A [`PairKernel`] with its two sides' columns resolved.
pub struct BoundPair<'a> {
    root: &'a BoolKernel,
    cols: Bound<'a>,
}

impl BoundPair<'_> {
    /// Refine `sel` — ascending entries, entry `k` naming right row
    /// `right(k)` — to the entries whose right row satisfies the predicate
    /// with left row `left`.
    pub fn refine(&self, left: u32, sel: &mut Vec<u32>, right: impl Fn(u32) -> u32) {
        let at = |k| [left as usize, right(k) as usize];
        self.root.filter(&self.cols, sel, &at);
    }
}

/// The kinds of value a theta side's join keys took.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KeyKinds {
    /// Some key was a string (keyed by its order-preserving prefix).
    pub text: bool,
    /// Some key was a number.
    pub numeric: bool,
}

impl KeyKinds {
    /// The kinds of two sets of keys together.
    pub fn merge(self, other: KeyKinds) -> KeyKinds {
        KeyKinds {
            text: self.text || other.text,
            numeric: self.numeric || other.numeric,
        }
    }

    /// The key domain two sides can prune in — `Some(true)` for prefix
    /// keys of strings, `Some(false)` for numbers — or `None` when a side
    /// mixes the two or the sides differ: mixed keys have no common order
    /// to prune by.
    pub fn domain(left: KeyKinds, right: KeyKinds) -> Option<bool> {
        let mixed = |k: KeyKinds| k.text && k.numeric;
        (!mixed(left) && !mixed(right) && left.text == right.text).then_some(left.text)
    }
}

/// A theta join key lowered against one side's batch: a numeric column
/// expression (a column, or arithmetic over columns and constants) or a
/// string column.
pub struct KeyKernel {
    key: KeyExpr,
    binds: Binds,
}

enum KeyExpr {
    Num(NumExpr),
    Str(StrOperand),
}

impl KeyKernel {
    /// Lower a key `program` over one variable against `batch`. `None` for
    /// any other shape, or a reference that does not resolve to a typed
    /// column.
    pub fn compile(program: &Program, batch: &ColumnBatch) -> Option<KeyKernel> {
        if program.scope_len() != 1 {
            return None;
        }
        let batches = [batch];
        let mut cx = KernelCx::new(&batches, SlotMap::Rows);
        let key = match program.instrs() {
            [Instr::SlotField { slot, field, .. }] => match cx.resolve(*slot, field)? {
                (r, CellType::Int) => KeyExpr::Num(NumExpr::IntCol(r)),
                (r, CellType::Float) => KeyExpr::Num(NumExpr::FloatCol(r)),
                (r, CellType::Str) => KeyExpr::Str(StrOperand::Col(r)),
            },
            [Instr::BinFused { op, lhs, rhs }] => KeyExpr::Num(cx.arith(*op, lhs, rhs)?),
            _ => return None,
        };
        Some(KeyKernel {
            key,
            binds: cx.binds,
        })
    }

    /// The keys of rows `sel` of `batch`, each with its row, as the pruning
    /// strategies read a key: a number as itself but NaN as +∞ (NaN sorts
    /// after every number in the engine's total order), a string as its
    /// order-preserving prefix key, NULL as NaN (NULL satisfies no
    /// inequality, so where its key lands cannot lose a pair). `kinds`
    /// notes what the keys were. `None` unless `batch` has the schema the
    /// kernel compiled against.
    pub fn keys(
        &self,
        batch: &ColumnBatch,
        sel: &[u32],
        kinds: &mut KeyKinds,
    ) -> Option<Vec<(f64, u32)>> {
        let cols = self.binds.bind(&[batch], 0b01)?;
        let mut key = |i: u32| {
            let at = [i as usize, 0];
            match &self.key {
                KeyExpr::Num(e) => e.eval_f(&cols, at).map(|f| {
                    kinds.numeric = true;
                    if f.is_nan() {
                        f64::INFINITY
                    } else {
                        f
                    }
                }),
                KeyExpr::Str(s) => s.get(&cols, at).map(|s| {
                    kinds.text = true;
                    string_key(s)
                }),
            }
        };
        Some(
            sel.iter()
                .map(|&i| (key(i).unwrap_or(f64::NAN), i))
                .collect(),
        )
    }
}

/// One of the four total string builtins a column expression may apply.
#[derive(Debug, Clone, Copy)]
enum StrFuncKind {
    Lower,
    Upper,
    Trim,
    Prefix,
}

impl StrFuncKind {
    fn of(f: &Func) -> Option<StrFuncKind> {
        match f {
            Func::Lower => Some(StrFuncKind::Lower),
            Func::Upper => Some(StrFuncKind::Upper),
            Func::Trim => Some(StrFuncKind::Trim),
            Func::Prefix => Some(StrFuncKind::Prefix),
            _ => None,
        }
    }

    /// The builtin's result over one non-NULL cell as a view: a slice of
    /// the source where the result is one (`trim`, `prefix`, identity case
    /// folds), an owned string only when folding changes bytes.
    #[inline]
    fn view(self, s: &str) -> Cow<'_, str> {
        match self {
            StrFuncKind::Lower if lowercase_is_identity(s) => Cow::Borrowed(s),
            StrFuncKind::Lower => Cow::Owned(s.to_lowercase()),
            StrFuncKind::Upper if uppercase_is_identity(s) => Cow::Borrowed(s),
            StrFuncKind::Upper => Cow::Owned(s.to_uppercase()),
            StrFuncKind::Trim => Cow::Borrowed(s.trim()),
            StrFuncKind::Prefix => Cow::Borrowed(&s[..prefix_end(s)]),
        }
    }

    /// Apply to one non-NULL cell, with exactly `eval_func`'s allocation
    /// discipline: identity results share the source `Arc`, changed
    /// results pay one allocation.
    #[inline]
    fn apply(self, s: &Arc<str>) -> Arc<str> {
        match self.view(s) {
            Cow::Borrowed(v) if v.len() == s.len() => Arc::clone(s),
            v => Arc::from(&*v),
        }
    }
}

/// One scalar cell as a column expression reads it: a typed view that
/// borrows strings and compares with [`Value`]'s equality — NULL = NULL,
/// NaN = NaN, −0.0 = 0.0 — so rows group as their boxed values would.
enum Cell<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Cow<'a, str>),
}

impl PartialEq for Cell<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        use Cell::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => Value::float_key(*a) == Value::float_key(*b),
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

/// Fold one cell into a running row hash. Equal cells ([`Cell::eq`]) mix
/// equally: floats go through the canonical float key, like [`Value`]'s
/// own `Hash`.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    fx_hash(h, &word)
}

const NULL_WORD: u64 = 0x9e37_79b9_7f4a_7c15;

impl Cell<'_> {
    #[inline]
    fn mix_into(&self, h: u64) -> u64 {
        match self {
            Cell::Null => mix(h, NULL_WORD),
            Cell::Bool(b) => mix(h, 2 + *b as u64),
            Cell::Int(i) => mix(h, *i as u64),
            Cell::Float(f) => mix(h, Value::float_key(*f)),
            Cell::Str(s) => fx_hash(h, s.as_bytes()),
        }
    }
}

/// A column expression — what a grouping-key field or an aggregate's
/// member expression lowers to when it needs no row: a column copy, a
/// scalar constant, or one of the four total string builtins over a string
/// column. Evaluation cannot fail, so a sweep over these has no error path.
#[derive(Debug)]
enum ColExpr {
    /// A typed (non-`Val`) column, by index into the batch.
    Col(usize),
    /// A scalar constant (`count(*)`'s `1`, a literal key field).
    Const(Value),
    /// `lower` / `upper` / `trim` / `prefix` over a string column.
    StrFunc { func: StrFuncKind, col: usize },
}

impl ColExpr {
    fn of_field(batch: &ColumnBatch, (slot, field): (u16, &str)) -> Option<usize> {
        let col = batch.column_index(field).filter(|_| slot == 0)?;
        (!matches!(batch.column(col), Column::Val(_))).then_some(col)
    }

    /// Scalar constants only: a list or struct has no cell view.
    fn of_const(v: &Value) -> Option<ColExpr> {
        (!matches!(v, Value::List(_) | Value::Struct(_))).then(|| ColExpr::Const(v.clone()))
    }

    fn of_operand(op: &Operand, batch: &ColumnBatch, map: SlotMap<'_>) -> Option<ColExpr> {
        match op {
            Operand::Const(v) => Self::of_const(v),
            _ => Self::of_field(batch, map.column_of(op)?).map(ColExpr::Col),
        }
    }

    fn of_instr(instr: &Instr, batch: &ColumnBatch, map: SlotMap<'_>) -> Option<ColExpr> {
        match instr {
            Instr::Const(v) => Self::of_const(v),
            Instr::CallFused { func, arg } => {
                let func = StrFuncKind::of(func)?;
                // Non-string cells would route through `to_text`, which
                // the row path handles — keep them there.
                let col = Self::of_field(batch, map.column_of(arg)?)?;
                matches!(batch.column(col), Column::Str { .. })
                    .then_some(ColExpr::StrFunc { func, col })
            }
            _ => Self::of_field(batch, map.column_of_instr(instr)?).map(ColExpr::Col),
        }
    }

    /// The expression's cell at row `i`.
    #[inline]
    fn cell<'a>(&'a self, batch: &'a ColumnBatch, i: usize) -> Cell<'a> {
        let (col, func) = match self {
            ColExpr::Col(col) => (*col, None),
            ColExpr::StrFunc { func, col } => (*col, Some(*func)),
            ColExpr::Const(v) => {
                return match v {
                    Value::Bool(b) => Cell::Bool(*b),
                    Value::Int(i) => Cell::Int(*i),
                    Value::Float(f) => Cell::Float(*f),
                    Value::Str(s) => Cell::Str(Cow::Borrowed(s)),
                    _ => Cell::Null, // lowering admits scalar constants only
                };
            }
        };
        let column = batch.column(col);
        if column.is_null(i) {
            return Cell::Null;
        }
        match column {
            Column::Int { data, .. } => Cell::Int(data[i]),
            Column::Float { data, .. } => Cell::Float(data[i]),
            Column::Bool { data, .. } => Cell::Bool(data[i]),
            Column::Str { data, .. } => Cell::Str(match func {
                Some(func) => func.view(&data[i]),
                None => Cow::Borrowed(&data[i]),
            }),
            Column::Val(_) => unreachable!("lowering admits typed columns only"),
        }
    }

    /// The expression's value at row `i` — exactly what the row program
    /// evaluates to (string results share or allocate as `eval_func` does).
    fn value(&self, batch: &ColumnBatch, i: usize) -> Value {
        match self {
            ColExpr::Col(col) => batch.column(*col).value(i),
            ColExpr::Const(v) => v.clone(),
            ColExpr::StrFunc { func, col } => match batch.column(*col) {
                Column::Str { data, nulls } if !nulls.as_ref().is_some_and(|m| m.is_null(i)) => {
                    Value::Str(func.apply(&data[i]))
                }
                _ => Value::Null,
            },
        }
    }

    /// Mix this expression's cell of every selected row into the row's
    /// running hash — one typed loop per column, the type dispatch hoisted
    /// out of it.
    fn hash_into(&self, batch: &ColumnBatch, sel: &[u32], hashes: &mut [u64]) {
        fn sweep<T>(
            data: &[T],
            nulls: &Option<NullMask>,
            sel: &[u32],
            hashes: &mut [u64],
            word: impl Fn(&T, u64) -> u64,
        ) {
            for (h, &i) in hashes.iter_mut().zip(sel) {
                let i = i as usize;
                *h = match nulls {
                    Some(m) if m.is_null(i) => mix(*h, NULL_WORD),
                    _ => word(&data[i], *h),
                };
            }
        }
        if let ColExpr::Col(col) = self {
            match batch.column(*col) {
                Column::Int { data, nulls } => {
                    return sweep(data, nulls, sel, hashes, |v, h| Cell::Int(*v).mix_into(h))
                }
                Column::Float { data, nulls } => {
                    return sweep(data, nulls, sel, hashes, |v, h| Cell::Float(*v).mix_into(h))
                }
                Column::Str { data, nulls } => {
                    return sweep(data, nulls, sel, hashes, |v, h| fx_hash(h, v.as_bytes()))
                }
                _ => {}
            }
        }
        for (h, &i) in hashes.iter_mut().zip(sel) {
            *h = self.cell(batch, i as usize).mix_into(*h);
        }
    }
}

/// A compiled [`Program`] over one scan variable, lowered to column
/// expressions against a table's block: a bare scalar (`d0.suppkey`,
/// `prefix(d0.phone)`, `1`) or a record of them (the `tuple_key` shape of
/// composite FD keys). Its value at a row can be hashed, compared with its
/// value at another row and materialized without evaluating the program
/// or boxing a cell. This is what the columnar group fold reads grouping
/// keys and aggregate member expressions through.
#[derive(Debug)]
pub struct ColumnProgram {
    block: Arc<ColumnBatch>,
    /// Field names of a record-valued program; `None` for a scalar.
    names: Option<Arc<[Arc<str>]>>,
    fields: Vec<ColExpr>,
}

impl ColumnProgram {
    /// Lower `program` against `block`. Recognized shapes:
    /// `[RecordFused]`, a lone scalar instruction (`[SlotField]` /
    /// `[Const]` / `[CallFused]`), and `[field…, Record]` where every field
    /// is one. `None` — the caller keeps the row path — for anything else:
    /// whole-row slots, `BlockKeys`, comprehensions, `Val` columns.
    pub fn lower(program: &Program, block: &Arc<ColumnBatch>) -> Option<ColumnProgram> {
        Self::lower_in(program, block, SlotMap::Rows)
    }

    /// [`ColumnProgram::lower`] over an environment of whole values, slot
    /// `i` the row's cell of `block`'s column `names[i]` (the finish scope
    /// of a group fold: a head that is a record of the key and finished
    /// slots).
    pub fn lower_slots(
        program: &Program,
        block: &Arc<ColumnBatch>,
        names: &[String],
    ) -> Option<ColumnProgram> {
        Self::lower_in(program, block, SlotMap::Columns(names))
    }

    fn lower_in(
        program: &Program,
        block: &Arc<ColumnBatch>,
        map: SlotMap<'_>,
    ) -> Option<ColumnProgram> {
        if program.scope_len() != map.scope_len(1) {
            return None;
        }
        let (names, fields) = match program.instrs() {
            [Instr::RecordFused { names, ops }] => (
                Some(Arc::clone(names)),
                ops.iter()
                    .map(|op| ColExpr::of_operand(op, block, map))
                    .collect::<Option<_>>()?,
            ),
            [fields @ .., Instr::Record(names)] if fields.len() == names.len() => (
                Some(Arc::clone(names)),
                fields
                    .iter()
                    .map(|instr| ColExpr::of_instr(instr, block, map))
                    .collect::<Option<_>>()?,
            ),
            [scalar] => (None, vec![ColExpr::of_instr(scalar, block, map)?]),
            _ => return None,
        };
        Some(ColumnProgram {
            block: Arc::clone(block),
            names,
            fields,
        })
    }

    /// The program's value at row `i` — what the row path would have
    /// evaluated.
    pub fn value(&self, i: u32) -> Value {
        let (block, i) = (&*self.block, i as usize);
        match &self.names {
            None => self.fields[0].value(block, i),
            Some(names) => Value::Struct(
                names
                    .iter()
                    .zip(&self.fields)
                    .map(|(n, f)| (Arc::clone(n), f.value(block, i)))
                    .collect(),
            ),
        }
    }

    /// The program's cells as numbers, unboxed: `Some` for a bare `Int` or
    /// `Float` column or a numeric constant (`count(*)`'s `1`) — the member
    /// expressions a typed group-fold accumulator reads.
    pub fn numbers(&self) -> Option<Numbers<'_>> {
        if self.names.is_some() {
            return None;
        }
        match &self.fields[0] {
            ColExpr::Const(Value::Int(c)) => Some(Numbers::IntConst(*c)),
            ColExpr::Const(Value::Float(c)) => Some(Numbers::FloatConst(*c)),
            ColExpr::Col(col) => match self.block.column(*col) {
                Column::Int { data, nulls } => Some(Numbers::Int(data, nulls.as_ref())),
                Column::Float { data, nulls } => Some(Numbers::Float(data, nulls.as_ref())),
                _ => None,
            },
            _ => None,
        }
    }

    /// Do rows whose values are the same ([`ColumnProgram::same`]) render
    /// the same text? Not where a float is read: `-0.0` and `0.0` are one
    /// value but two texts.
    pub fn text_exact(&self) -> bool {
        self.fields.iter().all(|f| match f {
            ColExpr::Col(col) => !matches!(self.block.column(*col), Column::Float { .. }),
            ColExpr::Const(v) => !matches!(v, Value::Float(_)),
            ColExpr::StrFunc { .. } => true,
        })
    }

    /// Is the program's value the same at rows `a` and `b` (`Value`
    /// equality, cell by cell)?
    #[inline]
    pub fn same(&self, a: u32, b: u32) -> bool {
        let (block, a, b) = (&*self.block, a as usize, b as usize);
        self.fields
            .iter()
            .all(|f| f.cell(block, a) == f.cell(block, b))
    }

    /// Hash the program's value at every row of `sel` into `hashes`
    /// (cleared first), column at a time.
    fn hash_rows(&self, sel: &[u32], hashes: &mut Vec<u64>) {
        hashes.clear();
        hashes.resize(sel.len(), HASH_SEED);
        for field in &self.fields {
            field.hash_into(&self.block, sel, hashes);
        }
    }
}

/// A scalar column program's cells as numbers ([`ColumnProgram::numbers`]):
/// a typed column with its NULL mask, or one constant at every row.
#[derive(Debug, Clone, Copy)]
pub enum Numbers<'a> {
    /// An `Int` column.
    Int(&'a [i64], Option<&'a NullMask>),
    /// A `Float` column.
    Float(&'a [f64], Option<&'a NullMask>),
    /// An integer constant.
    IntConst(i64),
    /// A float constant.
    FloatConst(f64),
}

impl Numbers<'_> {
    /// Are the cells integers (so a `Sum` over them stays `Int`)?
    pub fn is_int(self) -> bool {
        matches!(self, Numbers::Int(..) | Numbers::IntConst(_))
    }

    /// Call `f(group, cell)` for every non-NULL cell at a row of `sel`,
    /// `gids` holding each row's group — in row order, one typed loop per
    /// case. Integer cells only.
    #[inline]
    pub fn each_int(self, sel: &[u32], gids: &[u32], mut f: impl FnMut(usize, i64)) {
        match self {
            Numbers::Int(data, nulls) => each(data, nulls, sel, gids, f),
            Numbers::IntConst(c) => gids.iter().for_each(|&g| f(g as usize, c)),
            Numbers::Float(..) | Numbers::FloatConst(_) => unreachable!("float cells read as ints"),
        }
    }

    /// [`Numbers::each_int`] as `f64`: integer cells widen `i as f64`, as
    /// [`Value::as_float`] does.
    #[inline]
    pub fn each_float(self, sel: &[u32], gids: &[u32], mut f: impl FnMut(usize, f64)) {
        match self {
            Numbers::Float(data, nulls) => each(data, nulls, sel, gids, f),
            Numbers::FloatConst(c) => gids.iter().for_each(|&g| f(g as usize, c)),
            ints => ints.each_int(sel, gids, |g, v| f(g, v as f64)),
        }
    }
}

/// The non-NULL cells of `data` at the rows of `sel`, each with its group.
#[inline]
fn each<T: Copy>(
    data: &[T],
    nulls: Option<&NullMask>,
    sel: &[u32],
    gids: &[u32],
    mut f: impl FnMut(usize, T),
) {
    let rows = sel.iter().zip(gids);
    match nulls {
        None => rows.for_each(|(&i, &g)| f(g as usize, data[i as usize])),
        Some(m) => rows
            .filter(|(&i, _)| !m.is_null(i as usize))
            .for_each(|(&i, &g)| f(g as usize, data[i as usize])),
    }
}

/// The grouping kernel's state: dense `u32` group ids over the distinct
/// values of a [`ColumnProgram`], one representative row per group. The
/// table is open-addressed over group ids — a probe touches the slot
/// array, the stored hash and, on a hash match, the representative's
/// cells; nothing is allocated per row and no key is ever boxed.
#[derive(Debug, Default)]
pub struct Groups {
    /// Open-addressed slots holding group ids ([`EMPTY`] = free); the
    /// length is a power of two at least twice the group count.
    slots: Vec<u32>,
    /// Per group: the row hash it was entered under.
    hashes: Vec<u64>,
    /// Per group: its first row.
    reps: Vec<u32>,
    /// Scratch for [`Groups::assign`]'s column-at-a-time hashing.
    scratch: Vec<u64>,
}

const EMPTY: u32 = u32::MAX;

impl Groups {
    /// An empty table with room for `groups` groups before it grows.
    pub fn with_capacity(groups: usize) -> Groups {
        Groups {
            slots: vec![EMPTY; (groups * 2).next_power_of_two().max(64)],
            hashes: Vec::with_capacity(groups),
            reps: Vec::with_capacity(groups),
            scratch: Vec::new(),
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// Every group's representative row, in group-id order.
    pub fn reps(&self) -> &[u32] {
        &self.reps
    }

    /// Assign a group id to each row of `sel` by `key`'s value there,
    /// appending the ids to `gids` in `sel` order. New groups take the
    /// next id, so ids are dense and in first-appearance order.
    pub fn assign(&mut self, key: &ColumnProgram, sel: &[u32], gids: &mut Vec<u32>) {
        let mut hashes = std::mem::take(&mut self.scratch);
        key.hash_rows(sel, &mut hashes);
        gids.reserve(sel.len());
        for (&hash, &row) in hashes.iter().zip(sel) {
            gids.push(self.upsert(key, hash, row));
        }
        self.scratch = hashes;
    }

    /// Merge `other`'s groups in: each of its groups probes by its
    /// representative row under the hash it already carries — no key is
    /// rebuilt or re-hashed. Returns `other`'s group id → this id.
    pub fn absorb(&mut self, key: &ColumnProgram, other: &Groups) -> Vec<u32> {
        other
            .hashes
            .iter()
            .zip(&other.reps)
            .map(|(&hash, &rep)| self.upsert(key, hash, rep))
            .collect()
    }

    /// The id of the group `at` belongs to, entering a new group with `at`
    /// as its representative when `key`'s value there is unseen.
    #[inline]
    fn upsert(&mut self, key: &ColumnProgram, hash: u64, at: u32) -> u32 {
        if self.reps.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let g = self.slots[slot];
            if g == EMPTY {
                let g = self.reps.len() as u32;
                self.slots[slot] = g;
                self.hashes.push(hash);
                self.reps.push(at);
                return g;
            }
            if self.hashes[g as usize] == hash && key.same(self.reps[g as usize], at) {
                return g;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(64);
        self.slots.clear();
        self.slots.resize(len, EMPTY);
        for (g, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & (len - 1);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & (len - 1);
            }
            self.slots[slot] = g as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculus::eval::{eval, truthy, EvalCtx};
    use crate::calculus::CalcExpr;
    use cleanm_values::{ColumnBuilder, FxHashMap};

    fn rows() -> Vec<Value> {
        (0..200i64)
            .map(|i| {
                Value::record([
                    ("id", Value::Int(i)),
                    (
                        "bal",
                        if i % 7 == 0 {
                            Value::Null
                        } else {
                            Value::Float(i as f64 * 1.25 - 50.0)
                        },
                    ),
                    ("seg", Value::str(if i % 3 == 0 { "A" } else { "B" })),
                ])
            })
            .collect()
    }

    fn pred_expr() -> CalcExpr {
        use crate::calculus::BinOp::*;
        // (bal * 1.5 > id and seg != "A") or id <= 3
        CalcExpr::bin(
            Or,
            CalcExpr::bin(
                And,
                CalcExpr::bin(
                    Gt,
                    CalcExpr::bin(
                        Mul,
                        CalcExpr::proj(CalcExpr::var("c"), "bal"),
                        CalcExpr::Const(Value::Float(1.5)),
                    ),
                    CalcExpr::proj(CalcExpr::var("c"), "id"),
                ),
                CalcExpr::bin(
                    Ne,
                    CalcExpr::proj(CalcExpr::var("c"), "seg"),
                    CalcExpr::Const(Value::str("A")),
                ),
            ),
            CalcExpr::bin(
                Le,
                CalcExpr::proj(CalcExpr::var("c"), "id"),
                CalcExpr::Const(Value::Int(3)),
            ),
        )
    }

    #[test]
    fn pred_kernel_matches_row_evaluation() {
        let ctx = EvalCtx::new();
        let rows = rows();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let scope = vec!["c".to_string()];
        let prog = Program::compile(&pred_expr(), &scope, &ctx).unwrap();
        let kernel = PredKernel::compile(&prog, &batch).expect("fused predicate vectorizes");
        let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
        assert!(kernel.filter(&batch, &mut sel));

        let survivors: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                let env = vec![("c".to_string(), (*r).clone())];
                truthy(&eval(&pred_expr(), &env, &ctx).unwrap())
            })
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel, survivors);
        assert!(!sel.is_empty() && sel.len() < rows.len(), "non-trivial");
    }

    #[test]
    fn nan_comparisons_follow_total_order() {
        let rows = vec![
            Value::record([("f", Value::Float(f64::NAN))]),
            Value::record([("f", Value::Float(1e300))]),
            Value::record([("f", Value::Null)]),
        ];
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let ctx = EvalCtx::new();
        let scope = vec!["c".to_string()];
        for (op, konst) in [
            (BinOp::Eq, Value::Float(f64::NAN)),
            (BinOp::Lt, Value::Float(f64::NAN)),
            (BinOp::Ge, Value::Float(2.0)),
            (BinOp::Ne, Value::Null),
        ] {
            let e = CalcExpr::bin(
                op,
                CalcExpr::proj(CalcExpr::var("c"), "f"),
                CalcExpr::Const(konst.clone()),
            );
            let prog = Program::compile(&e, &scope, &ctx).unwrap();
            // `x != null` style predicates may constant-fold differently;
            // only check when the kernel compiles.
            let Some(kernel) = PredKernel::compile(&prog, &batch) else {
                continue;
            };
            let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
            kernel.filter(&batch, &mut sel);
            let want: Vec<u32> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    let env = vec![("c".to_string(), (*r).clone())];
                    truthy(&eval(&e, &env, &ctx).unwrap())
                })
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(sel, want, "{op:?} vs {konst:?}");
        }
    }

    /// Group `rows` through the kernel and return `(key, count)` per
    /// group, in first-appearance order.
    fn kernel_groups(rows: &[Value], e: &CalcExpr) -> Option<Vec<(Value, u64)>> {
        let ctx = EvalCtx::new();
        let prog = Program::compile(e, &["c".to_string()], &ctx).unwrap();
        let block = Arc::new(ColumnBatch::from_rows(rows).unwrap());
        let key = ColumnProgram::lower(&prog, &block)?;
        let (mut groups, mut gids) = (Groups::default(), Vec::new());
        let all: Vec<u32> = (0..rows.len() as u32).collect();
        groups.assign(&key, &all, &mut gids);
        let mut counts = vec![0u64; groups.len()];
        for g in gids {
            counts[g as usize] += 1;
        }
        Some(
            (0..groups.len() as u32)
                .map(|g| (key.value(groups.reps()[g as usize]), counts[g as usize]))
                .collect(),
        )
    }

    fn row_groups(rows: &[Value], e: &CalcExpr) -> FxHashMap<Value, u64> {
        let ctx = EvalCtx::new();
        let mut want: FxHashMap<Value, u64> = FxHashMap::default();
        for r in rows {
            let env = vec![("c".to_string(), r.clone())];
            *want.entry(eval(e, &env, &ctx).unwrap()).or_insert(0) += 1;
        }
        want
    }

    fn assert_groups_match(rows: &[Value], e: &CalcExpr) {
        let got = kernel_groups(rows, e).expect("key lowers to column expressions");
        let want = row_groups(rows, e);
        assert_eq!(got.len(), want.len(), "{e}");
        for (k, n) in &got {
            assert_eq!(want.get(k), Some(n), "group {k} of {e}");
        }
    }

    #[test]
    fn grouping_kernel_matches_row_grouping_for_every_key_shape() {
        let rows = rows();
        let col = |f: &str| CalcExpr::proj(CalcExpr::var("c"), f);
        let prefix = CalcExpr::call(Func::Prefix, vec![col("seg")]);
        for e in [
            // composite key (`RecordFused`)
            CalcExpr::Record(vec![
                ("k0".to_string(), col("seg")),
                ("k1".to_string(), col("bal")),
            ]),
            // single column (`SlotField`), NULLs included
            col("bal"),
            // derived key (`CallFused`) alone and inside a record
            prefix.clone(),
            CalcExpr::Record(vec![
                ("k0".to_string(), prefix),
                ("k1".to_string(), col("id")),
            ]),
            // a constant key: one group
            CalcExpr::Const(Value::Int(1)),
        ] {
            assert_groups_match(&rows, &e);
        }
    }

    #[test]
    fn grouping_kernel_keeps_value_equality() {
        // `−0.0` joins `0.0`'s group, NULL = NULL, NaN = NaN.
        let k = |v: Value| Value::record([("k", v)]);
        let rows = vec![
            k(Value::Float(-0.0)),
            k(Value::Float(f64::NAN)),
            k(Value::Float(2.0)),
            k(Value::Null),
            k(Value::Float(f64::NAN)),
            k(Value::Float(0.0)),
            k(Value::Float(2.0)),
            k(Value::Null),
            k(Value::Float(7.0)),
        ];
        let e = CalcExpr::proj(CalcExpr::var("c"), "k");
        assert_groups_match(&rows, &e);
        assert_eq!(kernel_groups(&rows, &e).unwrap().len(), 5);
    }

    #[test]
    fn absorbed_groups_probe_by_representative() {
        let rows = rows();
        let ctx = EvalCtx::new();
        let e = CalcExpr::proj(CalcExpr::var("c"), "seg");
        let prog = Program::compile(&e, &["c".to_string()], &ctx).unwrap();
        let block = Arc::new(ColumnBatch::from_rows(&rows).unwrap());
        let key = ColumnProgram::lower(&prog, &block).unwrap();
        let (mut left, mut right) = (Groups::default(), Groups::default());
        let (mut lg, mut rg) = (Vec::new(), Vec::new());
        left.assign(&key, &[1, 2], &mut lg); // B, B
        right.assign(&key, &[3, 4, 5], &mut rg); // A, B, B
        assert_eq!((lg, rg), (vec![0, 0], vec![0, 1, 1]));
        assert_eq!(left.absorb(&key, &right), vec![1, 0], "A is new, B merges");
        assert_eq!(left.len(), 2);
    }

    #[test]
    fn what_is_not_a_column_expression_does_not_lower() {
        let ctx = EvalCtx::new();
        let scope = vec!["c".to_string()];
        let mixed = vec![
            Value::record([("a", Value::Int(1)), ("s", Value::str("x"))]),
            Value::record([("a", Value::str("x")), ("s", Value::str("y"))]),
        ];
        let block = Arc::new(ColumnBatch::from_rows(&mixed).unwrap());
        let col = |f: &str| CalcExpr::proj(CalcExpr::var("c"), f);
        for e in [
            col("a"),                                              // a `Val` column
            col("zz"),                                             // not a field
            CalcExpr::var("c"),                                    // the whole row
            CalcExpr::call(Func::Prefix, vec![col("a")]),          // builtin over a non-string
            CalcExpr::bin(BinOp::Add, col("a"), CalcExpr::int(1)), // arithmetic
        ] {
            let prog = Program::compile(&e, &scope, &ctx).unwrap();
            assert!(ColumnProgram::lower(&prog, &block).is_none(), "{e}");
        }
        let prog = Program::compile(&col("s"), &scope, &ctx).unwrap();
        assert!(ColumnProgram::lower(&prog, &block).is_some());
    }

    #[test]
    fn pair_kernel_refines_as_pair_evaluation_does() {
        let bal = [
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(0.0),
        ];
        let rows: Vec<Value> = (0..48i64)
            .map(|i| {
                Value::record([
                    ("id", Value::Int(i)),
                    ("bal", bal[i as usize % 4].clone()),
                    ("seg", Value::str(if i % 3 == 0 { "A" } else { "B" })),
                ])
            })
            .collect();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let col = |v: &str, f: &str| CalcExpr::proj(CalcExpr::var(v), f);
        // (a.bal * 2 <= b.bal or a.seg = b.seg) and a.id != b.id + 1
        let e = CalcExpr::bin(
            BinOp::And,
            CalcExpr::bin(
                BinOp::Or,
                CalcExpr::bin(
                    BinOp::Le,
                    CalcExpr::bin(BinOp::Mul, col("a", "bal"), CalcExpr::int(2)),
                    col("b", "bal"),
                ),
                CalcExpr::bin(BinOp::Eq, col("a", "seg"), col("b", "seg")),
            ),
            CalcExpr::bin(
                BinOp::Ne,
                col("a", "id"),
                CalcExpr::bin(BinOp::Add, col("b", "id"), CalcExpr::int(1)),
            ),
        );
        let ctx = EvalCtx::new();
        let prog = Program::compile(&e, &["a".to_string(), "b".to_string()], &ctx).unwrap();
        let kernel = PairKernel::compile(&prog, &batch, &batch).expect("pair predicate lowers");
        let pair = kernel.bind(&batch, &batch).unwrap();
        // A block of right rows in no particular order, as a bucket holds them.
        let block: Vec<u32> = (0..rows.len() as u32).rev().step_by(3).collect();
        let mut scratch = Vec::new();
        for left in 0..rows.len() {
            let mut sel: Vec<u32> = (0..block.len() as u32).collect();
            pair.refine(left as u32, &mut sel, |k| block[k as usize]);
            let want: Vec<u32> = (0..block.len() as u32)
                .filter(|&k| {
                    let (l, r) = (left, block[k as usize] as usize);
                    let v = prog.eval_pair(&rows[l..=l], &rows[r..=r], &ctx, &mut scratch);
                    truthy(&v.unwrap())
                })
                .collect();
            assert_eq!(sel, want, "left row {left}");
        }
    }

    #[test]
    fn whole_slots_read_as_columns() {
        // A group fold's finish scope: one column per environment slot.
        let scope: Vec<String> = ["__gkey", "__agg0", "__agg1", "__agg2"]
            .map(String::from)
            .into();
        let n = 40usize;
        let cells = |f: &dyn Fn(usize) -> Value| {
            let mut b = ColumnBuilder::new();
            (0..n).for_each(|g| b.push(f(g)));
            b.finish()
        };
        let cols = vec![
            cells(&|g| Value::Int(g as i64 * 7 % 11)),
            cells(&|g| Value::Int(g as i64 % 4)),
            cells(&|g| match g % 5 {
                0 => Value::Null,
                1 => Value::Float(f64::NAN),
                _ => Value::Float(g as f64 / 8.0),
            }),
            cells(&|g| match g % 2 {
                0 => Value::Int(1),
                _ => Value::str("x"),
            }),
        ];
        let names = scope.iter().map(|s| Arc::from(s.as_str())).collect();
        let batch = Arc::new(ColumnBatch::from_columns(names, cols).unwrap());
        let env = |g: usize| -> Vec<Value> { batch.columns().iter().map(|c| c.value(g)).collect() };
        let ctx = EvalCtx::new();
        let var = |i: usize| CalcExpr::var(&scope[i]);
        let having = CalcExpr::bin(
            BinOp::And,
            CalcExpr::bin(BinOp::Gt, var(1), CalcExpr::int(1)),
            CalcExpr::bin(BinOp::Lt, var(2), CalcExpr::Const(Value::Float(3.0))),
        );
        let prog = Program::compile(&having, &scope, &ctx).unwrap();
        let kernel =
            PredKernel::compile_slots(&prog, &batch, &scope).expect("slot predicate lowers");
        let mut sel: Vec<u32> = (0..n as u32).collect();
        assert!(kernel.filter(&batch, &mut sel));
        let want: Vec<u32> = (0..n as u32)
            .filter(|&g| truthy(&prog.eval(&env(g as usize), &ctx).unwrap()))
            .collect();
        assert_eq!(sel, want);
        assert!(!sel.is_empty() && sel.len() < n, "non-trivial");

        let head = CalcExpr::Record(vec![
            ("k".into(), var(0)),
            ("n".into(), var(1)),
            ("p".into(), var(2)),
            ("one".into(), CalcExpr::int(1)),
        ]);
        let prog = Program::compile(&head, &scope, &ctx).unwrap();
        let built = ColumnProgram::lower_slots(&prog, &batch, &scope).expect("slot head lowers");
        for g in 0..n {
            let want = prog.eval(&env(g), &ctx).unwrap();
            assert_eq!(format!("{:?}", built.value(g as u32)), format!("{want:?}"));
        }
        // A `Val` column has no kernel; a row-slot lowering sees no field.
        let val = CalcExpr::bin(BinOp::Gt, var(3), CalcExpr::int(0));
        let prog = Program::compile(&val, &scope, &ctx).unwrap();
        assert!(PredKernel::compile_slots(&prog, &batch, &scope).is_none());
        let prog = Program::compile(&var(3), &scope, &ctx).unwrap();
        assert!(ColumnProgram::lower_slots(&prog, &batch, &scope).is_none());
        assert!(ColumnProgram::lower(&prog, &batch).is_none());
    }

    #[test]
    fn untyped_columns_refuse_to_compile() {
        let rows = vec![
            Value::record([("a", Value::Int(1))]),
            Value::record([("a", Value::str("x"))]),
        ];
        let batch = ColumnBatch::from_rows(&rows).unwrap(); // Val column
        let ctx = EvalCtx::new();
        let e = CalcExpr::bin(
            BinOp::Lt,
            CalcExpr::proj(CalcExpr::var("c"), "a"),
            CalcExpr::Const(Value::Int(5)),
        );
        let prog = Program::compile(&e, &["c".to_string()], &ctx).unwrap();
        assert!(PredKernel::compile(&prog, &batch).is_none());
    }
}
