//! Column-at-a-time kernels compiled from the fused instruction forms of
//! [`Program`].
//!
//! The row machine already collapses the hot cleaning shapes into fused
//! instructions — a predicate tree ([`Instr::Pred`]), a three-address
//! comparison ([`Instr::BinFused`]), a record of projections
//! ([`Instr::RecordFused`]), a single-builtin call ([`Instr::CallFused`]).
//! This module recognizes exactly those shapes and lowers them once more,
//! against a *concrete* [`ColumnBatch`] schema, into kernels that sweep
//! whole typed columns: a predicate refines a selection vector over
//! `i64`/`f64`/`Arc<str>` slices, a projection produces output columns, a
//! grouping key hashes raw cells and materializes one key `Value` per
//! *distinct group* instead of one per row.
//!
//! **Safety contract (what keeps columnar ≡ row byte-identical):** a
//! kernel compiles only when per-row evaluation provably cannot error —
//! comparisons are total, arithmetic is restricted to numeric/NULL typed
//! columns (where `eval_binop`'s only non-value outcomes are NULL
//! propagation and divide-by-zero → NULL), and string builtins are
//! restricted to the four total ones (`lower`/`upper`/`trim`/`prefix`)
//! over string columns. Everything else — interpreter islands, `Val`
//! fallback columns, cross-type comparisons, shuffled schemas — returns
//! `None` from the kernel compiler and the caller keeps the row path. The
//! differential tests in `tests/columnar_agree.rs` pin the equivalence.

use std::sync::Arc;

use cleanm_values::{Column, ColumnBatch, FxHashMap, NullMask, Value};

use crate::calculus::compile::{BoolExpr, Instr, Operand, Program};
use crate::calculus::eval::{lowercase_is_identity, prefix_end, uppercase_is_identity};
use crate::calculus::{BinOp, Func};

/// A resolved column reference: a flat index into the kernel's typed bind
/// list. The `(slot, column)` pair it came from lives in the bind list, so
/// the runtime reference is just the flat index.
#[derive(Debug, Clone, Copy)]
struct ColRef {
    col: u32,
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

    /// Evaluate as `i64` (valid only when [`NumExpr::is_int`]); `None` is
    /// NULL. Mirrors `eval_binop`'s wrapping integer arithmetic.
    #[inline]
    fn eval_i(&self, cols: &Bound<'_>, i: usize) -> Option<i64> {
        match self {
            NumExpr::IntCol(r) => cols.int(*r, i),
            NumExpr::IntConst(v) => Some(*v),
            NumExpr::Bin { op, l, r, .. } => {
                let a = l.eval_i(cols, i)?;
                let b = r.eval_i(cols, i)?;
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
    fn eval_f(&self, cols: &Bound<'_>, i: usize) -> Option<f64> {
        match self {
            NumExpr::IntCol(r) => cols.int(*r, i).map(|v| v as f64),
            NumExpr::FloatCol(r) => cols.float(*r, i),
            NumExpr::IntConst(v) => Some(*v as f64),
            NumExpr::FloatConst(v) => Some(*v),
            NumExpr::Bin { int: true, .. } => self.eval_i(cols, i).map(|v| v as f64),
            NumExpr::Bin { op, l, r, .. } => {
                let a = l.eval_f(cols, i)?;
                let b = r.eval_f(cols, i)?;
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

/// A string side of a comparison: a string column or constant.
#[derive(Debug)]
enum StrOperand {
    Col(ColRef),
    Const(Arc<str>),
}

impl StrOperand {
    #[inline]
    fn get<'a>(&'a self, cols: &Bound<'a>, i: usize) -> Option<&'a str> {
        match self {
            StrOperand::Col(r) => cols.str(*r, i),
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
    fn eval(&self, cols: &Bound<'_>, i: usize) -> bool {
        match self {
            CmpAtom::IntInt { op, l, r } => match (l.eval_i(cols, i), r.eval_i(cols, i)) {
                (Some(a), Some(b)) => ord_cmp(*op, a.cmp(&b)),
                (a, b) => null_cmp(*op, a.is_none(), b.is_none()),
            },
            CmpAtom::Num { op, l, r } => match (l.eval_f(cols, i), r.eval_f(cols, i)) {
                (Some(a), Some(b)) => float_cmp_total(*op, a, b),
                (a, b) => null_cmp(*op, a.is_none(), b.is_none()),
            },
            CmpAtom::Str { op, l, r } => match (l.get(cols, i), r.get(cols, i)) {
                (Some(a), Some(b)) => ord_cmp(*op, a.cmp(b)),
                (a, b) => null_cmp(*op, a.is_none(), b.is_none()),
            },
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
    fn eval_row(&self, cols: &Bound<'_>, i: usize) -> bool {
        match self {
            BoolKernel::Cmp(a) => a.eval(cols, i),
            BoolKernel::Not(k) => !k.eval_row(cols, i),
            BoolKernel::AllOf(ks) => ks.iter().all(|k| k.eval_row(cols, i)),
            BoolKernel::AnyOf(ks) => ks.iter().any(|k| k.eval_row(cols, i)),
        }
    }

    /// Refine `sel` to the rows where the kernel holds. A conjunction runs
    /// atom-by-atom over the shrinking selection, a disjunction runs
    /// branch-by-branch over the shrinking *undecided* set (each branch
    /// only sees rows no earlier branch accepted) — so every comparison
    /// atom is one tight `retain` loop over its columns, never a per-row
    /// recursive tree walk. Atoms are total, so decomposition order is
    /// unobservable.
    fn filter(&self, cols: &Bound<'_>, sel: &mut Vec<u32>) {
        match self {
            BoolKernel::AllOf(ks) => {
                for k in ks {
                    if sel.is_empty() {
                        return;
                    }
                    k.filter(cols, sel);
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
                    k.filter(cols, &mut pass);
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
            BoolKernel::Cmp(a) => sel.retain(|&i| a.eval(cols, i as usize)),
            other => sel.retain(|&i| other.eval_row(cols, i as usize)),
        }
    }
}

/// Typed column slices resolved once per sweep: kernels index these
/// directly, so the per-row cost is a slice load plus a null-bit test.
struct Bound<'a> {
    ints: Vec<(&'a [i64], Option<&'a NullMask>)>,
    floats: Vec<(&'a [f64], Option<&'a NullMask>)>,
    strs: Vec<(&'a [Arc<str>], Option<&'a NullMask>)>,
}

impl<'a> Bound<'a> {
    #[inline]
    fn int(&self, r: ColRef, i: usize) -> Option<i64> {
        let (data, nulls) = self.ints[r.col as usize];
        match nulls {
            Some(m) if m.is_null(i) => None,
            _ => Some(data[i]),
        }
    }

    #[inline]
    fn float(&self, r: ColRef, i: usize) -> Option<f64> {
        let (data, nulls) = self.floats[r.col as usize];
        match nulls {
            Some(m) if m.is_null(i) => None,
            _ => Some(data[i]),
        }
    }

    #[inline]
    fn str(&self, r: ColRef, i: usize) -> Option<&'a str> {
        let (data, nulls) = self.strs[r.col as usize];
        match nulls {
            Some(m) if m.is_null(i) => None,
            _ => Some(data[i].as_ref()),
        }
    }
}

/// Shared compile-time state: maps `(slot, field)` references onto typed
/// bind lists, validating against the concrete batch schemas.
struct KernelCx<'a> {
    batches: &'a [&'a ColumnBatch],
    /// `(slot, col, type)` of every reference, in bind order per type.
    ints: Vec<(u8, u32)>,
    floats: Vec<(u8, u32)>,
    strs: Vec<(u8, u32)>,
}

impl<'a> KernelCx<'a> {
    fn new(batches: &'a [&'a ColumnBatch]) -> Self {
        KernelCx {
            batches,
            ints: Vec::new(),
            floats: Vec::new(),
            strs: Vec::new(),
        }
    }

    /// Resolve `slot.field` to a typed reference, registering the column
    /// for binding. `None` when out of range or the column is untyped.
    fn resolve(&mut self, slot: u16, field: &str) -> Option<(ColRef, CellType)> {
        let batch = self.batches.get(slot as usize)?;
        let col = batch.column_index(field)? as u32;
        let ty = column_type(batch.column(col as usize))?;
        let list = match ty {
            CellType::Int => &mut self.ints,
            CellType::Float => &mut self.floats,
            CellType::Str => &mut self.strs,
        };
        let idx = match list.iter().position(|&(s, c)| s == slot as u8 && c == col) {
            Some(i) => i as u32,
            None => {
                list.push((slot as u8, col));
                (list.len() - 1) as u32
            }
        };
        Some((ColRef { col: idx }, ty))
    }

    fn num_operand(&mut self, op: &Operand) -> Option<NumExpr> {
        match op {
            Operand::Const(Value::Int(i)) => Some(NumExpr::IntConst(*i)),
            Operand::Const(Value::Float(f)) => Some(NumExpr::FloatConst(*f)),
            Operand::SlotField { slot, field, .. } => match self.resolve(*slot, field)? {
                (r, CellType::Int) => Some(NumExpr::IntCol(r)),
                (r, CellType::Float) => Some(NumExpr::FloatCol(r)),
                _ => None,
            },
            Operand::Bin { op, l, r } => {
                if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) {
                    return None;
                }
                let l = self.num_operand(l)?;
                let r = self.num_operand(r)?;
                let int = l.is_int() && r.is_int() && *op != BinOp::Div;
                Some(NumExpr::Bin {
                    op: *op,
                    int,
                    l: Box::new(l),
                    r: Box::new(r),
                })
            }
            // Whole-row slots and non-scalar constants stay on the row path.
            _ => None,
        }
    }

    fn str_operand(&mut self, op: &Operand) -> Option<StrOperand> {
        match op {
            Operand::Const(Value::Str(s)) => Some(StrOperand::Const(Arc::clone(s))),
            Operand::SlotField { slot, field, .. } => match self.resolve(*slot, field)? {
                (r, CellType::Str) => Some(StrOperand::Col(r)),
                _ => None,
            },
            _ => None,
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
            Operand::Const(Value::Str(_)) | Operand::SlotField { .. } => self.str_operand(op),
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

    /// Bind the registered references against `batches` (the same schemas
    /// the kernel compiled against).
    fn bind_lists(
        ints: &[(u8, u32)],
        floats: &[(u8, u32)],
        strs: &[(u8, u32)],
        batches: &[&'a ColumnBatch],
    ) -> Option<Bound<'a>> {
        let mut b = Bound {
            ints: Vec::with_capacity(ints.len()),
            floats: Vec::with_capacity(floats.len()),
            strs: Vec::with_capacity(strs.len()),
        };
        for &(slot, col) in ints {
            match batches.get(slot as usize)?.column(col as usize) {
                Column::Int { data, nulls } => b.ints.push((data.as_slice(), nulls.as_ref())),
                _ => return None,
            }
        }
        for &(slot, col) in floats {
            match batches.get(slot as usize)?.column(col as usize) {
                Column::Float { data, nulls } => b.floats.push((data.as_slice(), nulls.as_ref())),
                _ => return None,
            }
        }
        for &(slot, col) in strs {
            match batches.get(slot as usize)?.column(col as usize) {
                Column::Str { data, nulls } => b.strs.push((data.as_slice(), nulls.as_ref())),
                _ => return None,
            }
        }
        Some(b)
    }
}

/// A compiled columnar predicate: refines a selection vector over whole
/// typed columns. Compile with the concrete batch(es) the program's slots
/// bind to — one batch per environment variable, two for a theta pair
/// (both sides indexed by the same row position).
pub struct PredKernel {
    root: BoolKernel,
    ints: Vec<(u8, u32)>,
    floats: Vec<(u8, u32)>,
    strs: Vec<(u8, u32)>,
}

impl PredKernel {
    /// Lower `program` against the concrete `batches` (one per slot).
    /// `None` when the program is not a single fused predicate, or any
    /// reference fails to resolve to a typed column.
    pub fn compile(program: &Program, batches: &[&ColumnBatch]) -> Option<PredKernel> {
        if program.scope_len() != batches.len() {
            return None;
        }
        let mut cx = KernelCx::new(batches);
        let root = match program.instrs() {
            [Instr::Pred(p)] => cx.bool_kernel(p)?,
            [Instr::BinFused { op, lhs, rhs }] => BoolKernel::Cmp(cx.cmp(*op, lhs, rhs)?),
            _ => return None,
        };
        Some(PredKernel {
            root,
            ints: cx.ints,
            floats: cx.floats,
            strs: cx.strs,
        })
    }

    /// Refine `sel` to the rows where the predicate is truthy. `batches`
    /// must have the schemas the kernel compiled against (returns `false`
    /// untouched otherwise, so the caller can fall back).
    pub fn filter(&self, batches: &[&ColumnBatch], sel: &mut Vec<u32>) -> bool {
        let Some(bound) = KernelCx::bind_lists(&self.ints, &self.floats, &self.strs, batches)
        else {
            return false;
        };
        self.root.filter(&bound, sel);
        true
    }
}

/// One output field of a projection kernel.
enum FieldExpr {
    /// Copy a source column (gathered by refcount bump / scalar copy).
    Copy(usize),
    /// A constant repeated per row.
    ConstV(Value),
    /// One of the four total string builtins over a string column.
    StrFunc { func: StrFuncKind, col: usize },
}

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

    /// Apply to one non-NULL cell, with exactly `eval_func`'s allocation
    /// discipline: identity results share the source `Arc`, changed
    /// results pay one allocation.
    #[inline]
    fn apply(self, s: &Arc<str>) -> Arc<str> {
        match self {
            StrFuncKind::Lower => {
                if lowercase_is_identity(s) {
                    Arc::clone(s)
                } else {
                    Arc::from(s.to_lowercase().as_str())
                }
            }
            StrFuncKind::Upper => {
                if uppercase_is_identity(s) {
                    Arc::clone(s)
                } else {
                    Arc::from(s.to_uppercase().as_str())
                }
            }
            StrFuncKind::Trim => {
                let t = s.trim();
                if t.len() == s.len() {
                    Arc::clone(s)
                } else {
                    Arc::from(t)
                }
            }
            StrFuncKind::Prefix => {
                let end = prefix_end(s);
                if end == s.len() {
                    Arc::clone(s)
                } else {
                    Arc::from(&s[..end])
                }
            }
        }
    }
}

/// A compiled columnar projection: the `transform` shape — a record whose
/// fields are column copies, constants, and single-builtin string calls —
/// or a bare single-builtin head. Produces an output [`ColumnBatch`]
/// without materializing a struct per row.
pub struct MapKernel {
    names: Vec<Arc<str>>,
    fields: Vec<FieldExpr>,
    /// Source columns referenced by index into the bound batch.
    refs: Vec<u32>,
}

impl MapKernel {
    /// Lower `program` against a single-slot `batch`. Recognized shapes:
    /// `[RecordFused]`, `[CallFused]` (bare builtin head, one unnamed
    /// output column `"value"`), and `[field…, Record]` where every field
    /// instruction is a fused call / slot-field / constant.
    pub fn compile(program: &Program, batch: &ColumnBatch) -> Option<MapKernel> {
        if program.scope_len() != 1 {
            return None;
        }
        let mut k = MapKernel {
            names: Vec::new(),
            fields: Vec::new(),
            refs: Vec::new(),
        };
        let add_ref = |col: u32, refs: &mut Vec<u32>| -> usize {
            match refs.iter().position(|&c| c == col) {
                Some(i) => i,
                None => {
                    refs.push(col);
                    refs.len() - 1
                }
            }
        };
        let field_of = |instr: &Instr, refs: &mut Vec<u32>| -> Option<FieldExpr> {
            match instr {
                Instr::Const(v) => Some(FieldExpr::ConstV(v.clone())),
                Instr::SlotField { slot: 0, field, .. } => {
                    let col = batch.column_index(field)? as u32;
                    Some(FieldExpr::Copy(add_ref(col, refs)))
                }
                Instr::CallFused { func, arg } => {
                    let func = StrFuncKind::of(func)?;
                    let Operand::SlotField { slot: 0, field, .. } = arg else {
                        return None;
                    };
                    let col = batch.column_index(field)? as u32;
                    // Builtin kernels require a string column: non-string
                    // cells would route through `to_text`, which the row
                    // path handles — keep it there.
                    if !matches!(batch.column(col as usize), Column::Str { .. }) {
                        return None;
                    }
                    Some(FieldExpr::StrFunc {
                        func,
                        col: add_ref(col, refs),
                    })
                }
                _ => None,
            }
        };
        match program.instrs() {
            [Instr::RecordFused { names, ops }] => {
                for (name, op) in names.iter().zip(ops.iter()) {
                    let fe = match op {
                        Operand::Const(v) => FieldExpr::ConstV(v.clone()),
                        Operand::SlotField { slot: 0, field, .. } => {
                            let col = batch.column_index(field)? as u32;
                            FieldExpr::Copy(add_ref(col, &mut k.refs))
                        }
                        _ => return None,
                    };
                    k.names.push(Arc::clone(name));
                    k.fields.push(fe);
                }
            }
            [single @ Instr::CallFused { .. }] => {
                k.names.push(Arc::from("value"));
                k.fields.push(field_of(single, &mut k.refs)?);
            }
            [fields @ .., Instr::Record(names)] if fields.len() == names.len() => {
                for (name, instr) in names.iter().zip(fields.iter()) {
                    k.names.push(Arc::clone(name));
                    let fe = field_of(instr, &mut k.refs)?;
                    k.fields.push(fe);
                }
            }
            _ => return None,
        }
        Some(k)
    }

    /// Apply to the rows selected by `sel`, producing one output column
    /// per field. `None` when `batch` no longer matches the compiled
    /// schema.
    pub fn apply(&self, batch: &ColumnBatch, sel: &[u32]) -> Option<ColumnBatch> {
        let srcs: Vec<&Column> = self
            .refs
            .iter()
            .map(|&c| batch.column(c as usize))
            .collect();
        let mut cols = Vec::with_capacity(self.fields.len());
        for fe in &self.fields {
            let col = match fe {
                FieldExpr::Copy(r) => srcs[*r].gather(sel),
                FieldExpr::ConstV(v) => {
                    Column::from_values(sel.iter().map(|_| v.clone()).collect())
                }
                FieldExpr::StrFunc { func, col } => {
                    let Column::Str { data, nulls } = srcs[*col] else {
                        return None;
                    };
                    let mut out: Vec<Arc<str>> = Vec::with_capacity(sel.len());
                    let mut out_nulls: Option<NullMask> = None;
                    let empty: Arc<str> = Arc::from("");
                    for (j, &i) in sel.iter().enumerate() {
                        let i = i as usize;
                        if nulls.as_ref().is_some_and(|m| m.is_null(i)) {
                            out.push(Arc::clone(&empty));
                            out_nulls
                                .get_or_insert_with(|| NullMask::new(sel.len()))
                                .set_null(j);
                        } else {
                            out.push(func.apply(&data[i]));
                        }
                    }
                    Column::Str {
                        data: out,
                        nulls: out_nulls,
                    }
                }
            };
            cols.push(col);
        }
        ColumnBatch::from_columns(self.names.clone(), cols).ok()
    }
}

/// A compiled grouping-key kernel: the `tuple_key` shape (a fused record
/// of column projections). Groups rows by hashing raw cells — the key
/// `Value` is materialized once per *distinct group*, not once per row.
pub struct GroupKeyKernel {
    names: Vec<Arc<str>>,
    /// Key columns by index into the bound batch (`None` = constant).
    keys: Vec<KeyCol>,
}

enum KeyCol {
    Col(u32),
    Const(Value),
}

impl GroupKeyKernel {
    /// Lower a `[RecordFused]` key program against `batch`.
    pub fn compile(program: &Program, batch: &ColumnBatch) -> Option<GroupKeyKernel> {
        if program.scope_len() != 1 {
            return None;
        }
        let [Instr::RecordFused { names, ops }] = program.instrs() else {
            return None;
        };
        let mut keys = Vec::with_capacity(ops.len());
        for op in ops.iter() {
            match op {
                Operand::Const(v) => keys.push(KeyCol::Const(v.clone())),
                Operand::SlotField { slot: 0, field, .. } => {
                    let col = batch.column_index(field)? as u32;
                    // Typed or not: grouping hashes cells via `Value`
                    // semantics, but `Val` columns would re-box anyway —
                    // require typed columns so the sweep stays flat.
                    column_type(batch.column(col as usize))?;
                    keys.push(KeyCol::Col(col));
                }
                _ => return None,
            }
        }
        Some(GroupKeyKernel {
            names: names.iter().map(Arc::clone).collect(),
            keys,
        })
    }

    /// Group the selected rows, returning `(key, count)` per distinct
    /// group in first-appearance order. Cells hash and compare with
    /// `Value` semantics (canonical float bits, NULL = NULL).
    pub fn group_counts(&self, batch: &ColumnBatch, sel: &[u32]) -> Option<Vec<(Value, u64)>> {
        use std::hash::Hasher;
        let cols: Vec<Option<&Column>> = self
            .keys
            .iter()
            .map(|k| match k {
                KeyCol::Col(c) => Some(batch.column(*c as usize)),
                KeyCol::Const(_) => None,
            })
            .collect();

        #[inline]
        fn hash_cell(h: &mut cleanm_values::FxHasher, col: &Column, i: usize) {
            if col.is_null(i) {
                h.write_u8(0);
                return;
            }
            match col {
                Column::Int { data, .. } => {
                    h.write_u8(2);
                    h.write_u64(Value::float_key(data[i] as f64));
                }
                Column::Float { data, .. } => {
                    h.write_u8(2);
                    h.write_u64(Value::float_key(data[i]));
                }
                Column::Bool { data, .. } => {
                    h.write_u8(1);
                    h.write_u8(data[i] as u8);
                }
                Column::Str { data, .. } => {
                    h.write_u8(3);
                    h.write(data[i].as_bytes());
                }
                Column::Val(_) => unreachable!("typed columns only"),
            }
        }

        #[inline]
        fn cells_eq(cols: &[Option<&Column>], a: usize, b: usize) -> bool {
            cols.iter().all(|c| {
                let Some(col) = c else { return true };
                match (col.is_null(a), col.is_null(b)) {
                    (true, true) => true,
                    (false, false) => match col {
                        Column::Int { data, .. } => data[a] == data[b],
                        Column::Float { data, .. } => {
                            Value::float_key(data[a]) == Value::float_key(data[b])
                        }
                        Column::Bool { data, .. } => data[a] == data[b],
                        Column::Str { data, .. } => data[a] == data[b],
                        Column::Val(_) => unreachable!("typed columns only"),
                    },
                    _ => false,
                }
            })
        }

        // hash → first group with that hash; same-hash groups chain
        // through `next` (no per-bucket allocation). Collisions resolve
        // by raw-cell comparison against each group's first row.
        const NONE: u32 = u32::MAX;
        let mut table: FxHashMap<u64, u32> = FxHashMap::default();
        // (first row, running count, next group in hash chain)
        let mut groups: Vec<(u32, u64, u32)> = Vec::new();
        for &i in sel {
            let i = i as usize;
            let mut h = cleanm_values::FxHasher::default();
            for c in &cols {
                if let Some(col) = c {
                    hash_cell(&mut h, col, i);
                } else {
                    h.write_u8(9); // constant field: same for every row
                }
            }
            let hash = h.finish();
            match table.entry(hash) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(groups.len() as u32);
                    groups.push((i as u32, 1, NONE));
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let mut g = *e.get() as usize;
                    loop {
                        if cells_eq(&cols, groups[g].0 as usize, i) {
                            groups[g].1 += 1;
                            break;
                        }
                        if groups[g].2 == NONE {
                            groups[g].2 = groups.len() as u32;
                            groups.push((i as u32, 1, NONE));
                            break;
                        }
                        g = groups[g].2 as usize;
                    }
                }
            }
        }

        // Materialize one key Value per distinct group.
        Some(
            groups
                .into_iter()
                .map(|(first, count, _)| {
                    let fields: Arc<[(Arc<str>, Value)]> = self
                        .names
                        .iter()
                        .zip(&self.keys)
                        .map(|(n, k)| {
                            let v = match k {
                                KeyCol::Col(c) => batch.column(*c as usize).value(first as usize),
                                KeyCol::Const(v) => v.clone(),
                            };
                            (Arc::clone(n), v)
                        })
                        .collect();
                    (Value::Struct(fields), count)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculus::eval::{eval, truthy, EvalCtx};
    use crate::calculus::CalcExpr;

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
        let kernel = PredKernel::compile(&prog, &[&batch]).expect("fused predicate vectorizes");
        let mut sel = cleanm_values::sel_all(rows.len());
        assert!(kernel.filter(&[&batch], &mut sel));

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
            let Some(kernel) = PredKernel::compile(&prog, &[&batch]) else {
                continue;
            };
            let mut sel = cleanm_values::sel_all(rows.len());
            kernel.filter(&[&batch], &mut sel);
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

    #[test]
    fn map_kernel_matches_row_builtins() {
        let rows: Vec<Value> = (0..50)
            .map(|i| {
                Value::record([
                    (
                        "phone",
                        if i % 9 == 0 {
                            Value::Null
                        } else {
                            Value::str(format!("{i:03}-555"))
                        },
                    ),
                    ("name", Value::str(format!("  Name-{i} "))),
                ])
            })
            .collect();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let ctx = EvalCtx::new();
        let scope = vec!["c".to_string()];
        let e = CalcExpr::Record(vec![
            (
                "area".to_string(),
                CalcExpr::call(
                    Func::Prefix,
                    vec![CalcExpr::proj(CalcExpr::var("c"), "phone")],
                ),
            ),
            (
                "lo".to_string(),
                CalcExpr::call(
                    Func::Lower,
                    vec![CalcExpr::proj(CalcExpr::var("c"), "name")],
                ),
            ),
            (
                "t".to_string(),
                CalcExpr::call(Func::Trim, vec![CalcExpr::proj(CalcExpr::var("c"), "name")]),
            ),
        ]);
        let prog = Program::compile(&e, &scope, &ctx).unwrap();
        let kernel = MapKernel::compile(&prog, &batch).expect("builtin projection vectorizes");
        let sel = cleanm_values::sel_all(rows.len());
        let out = kernel.apply(&batch, &sel).unwrap();
        for (i, r) in rows.iter().enumerate() {
            let env = vec![("c".to_string(), r.clone())];
            assert_eq!(out.row(i), eval(&e, &env, &ctx).unwrap(), "row {i}");
        }
    }

    #[test]
    fn group_kernel_counts_match_row_grouping() {
        let rows = rows();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let ctx = EvalCtx::new();
        let scope = vec!["c".to_string()];
        let e = CalcExpr::Record(vec![
            ("k0".to_string(), CalcExpr::proj(CalcExpr::var("c"), "seg")),
            ("k1".to_string(), CalcExpr::proj(CalcExpr::var("c"), "bal")),
        ]);
        let prog = Program::compile(&e, &scope, &ctx).unwrap();
        let kernel = GroupKeyKernel::compile(&prog, &batch).expect("tuple key vectorizes");
        let sel = cleanm_values::sel_all(rows.len());
        let groups = kernel.group_counts(&batch, &sel).unwrap();

        let mut want: FxHashMap<Value, u64> = FxHashMap::default();
        for r in &rows {
            let env = vec![("c".to_string(), r.clone())];
            *want.entry(eval(&e, &env, &ctx).unwrap()).or_insert(0) += 1;
        }
        assert_eq!(groups.len(), want.len());
        for (k, n) in &groups {
            assert_eq!(want.get(k), Some(n), "group {k}");
        }
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
        assert!(PredKernel::compile(&prog, &[&batch]).is_none());
    }

    #[test]
    fn theta_pair_kernel_matches_eval_pair() {
        let left: Vec<Value> = (0..100i64)
            .map(|i| Value::record([("bal", Value::Float(i as f64)), ("nk", Value::Int(i % 25))]))
            .collect();
        let right: Vec<Value> = (0..100i64)
            .map(|i| {
                Value::record([
                    ("bal", Value::Float(((i * 31 + 7) % 100) as f64)),
                    ("nk", Value::Int((i * 3) % 25)),
                ])
            })
            .collect();
        let lb = ColumnBatch::from_rows(&left).unwrap();
        let rb = ColumnBatch::from_rows(&right).unwrap();
        let ctx = EvalCtx::new();
        let scope = vec!["t1".to_string(), "t2".to_string()];
        let e = CalcExpr::bin(
            BinOp::And,
            CalcExpr::bin(
                BinOp::Lt,
                CalcExpr::proj(CalcExpr::var("t1"), "bal"),
                CalcExpr::proj(CalcExpr::var("t2"), "bal"),
            ),
            CalcExpr::bin(
                BinOp::Ge,
                CalcExpr::proj(CalcExpr::var("t1"), "nk"),
                CalcExpr::proj(CalcExpr::var("t2"), "nk"),
            ),
        );
        let prog = Program::compile(&e, &scope, &ctx).unwrap();
        let kernel = PredKernel::compile(&prog, &[&lb, &rb]).expect("pair predicate vectorizes");
        let mut sel = cleanm_values::sel_all(left.len());
        assert!(kernel.filter(&[&lb, &rb], &mut sel));

        let mut scratch = Vec::new();
        let want: Vec<u32> = (0..left.len())
            .filter(|&i| {
                let (l, r) = (&left[i..=i], &right[i..=i]);
                truthy(&prog.eval_pair(l, r, &ctx, &mut scratch).unwrap())
            })
            .map(|i| i as u32)
            .collect();
        assert_eq!(sel, want);
    }
}
