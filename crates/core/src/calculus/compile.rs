//! Compilation of calculus expressions to flat, slot-resolved programs.
//!
//! The reference evaluator ([`super::eval()`]) re-interprets the `CalcExpr`
//! tree for every row: each variable reference scans the string-keyed
//! environment, each struct access scans field names, and every node costs
//! a recursive call. This module is the paper's third-level code-generation
//! idea (§6: cleaning queries should run at hand-written-loop speed) in
//! ahead-of-time form: [`Program::compile`] lowers an expression against a known
//! *scope* (the ordered variable names of the row environment, which the
//! physical planner knows statically per plan node) into a [`Program`] — a
//! flat instruction sequence over a value stack in which
//!
//! * variables are numeric environment **slots** resolved once at compile
//!   time,
//! * constant subtrees are **pre-evaluated** (including pure builtin calls),
//! * table references and blocker calls are **pre-bound** to their runtime
//!   objects, so no string-keyed map lookup happens per row, and
//! * struct field accesses carry a self-tuning positional **hint**: after
//!   the first row, the field index is a direct load verified by a single
//!   name check.
//!
//! Programs are evaluated by a non-recursive loop over a reusable scratch
//! stack ([`Program::eval_with`]), with a batch entry point
//! ([`Program::eval_batch`]) that amortizes the scratch across a whole
//! partition. Every expression compiles: a nested comprehension is one
//! [`Instr::Comp`] whose qualifiers and head are sub-programs over the
//! scope extended by the variables bound before them, and an explicit
//! monoid merge is one [`Instr::Merge`]. The tree-walking evaluator
//! ([`super::eval()`]) is the reference semantics; the differential
//! property tests pin compiled ≡ interpreted.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use cleanm_cluster::Blocker;
use cleanm_values::{Error, Result, Value};

use super::eval::{eval_binop, eval_func, finalize, merge_values, monoid_unit, truthy, EvalCtx};
use super::expr::{BinOp, CalcExpr, Func, MonoidKind, Qual};

/// One instruction of a compiled program. The machine is a value stack:
/// every instruction pops a fixed number of operands and pushes at most one
/// result, except the jump family which steers control flow for
/// short-circuit `and`/`or` and `if`.
pub enum Instr {
    /// Push a (pre-evaluated) constant.
    Const(Value),
    /// Push the value bound at environment slot `n`.
    Slot(u16),
    /// Push `field` of the struct at slot `slot` (fused `Var`+`Proj`, the
    /// single most common shape in cleaning predicates: `c.column`).
    SlotField {
        slot: u16,
        field: Arc<str>,
        hint: AtomicU32,
    },
    /// Pop a struct, push its `field`.
    Proj { field: Arc<str>, hint: AtomicU32 },
    /// Pop `names.len()` values (pushed in field order), push a struct.
    Record(Arc<[Arc<str>]>),
    /// Build a struct straight from addressable operands — the desugared
    /// shape of every FD / DEDUP grouping key (`tuple_key`: a record of
    /// column projections) collapses to this single instruction.
    RecordFused {
        names: Arc<[Arc<str>]>,
        ops: Box<[Operand]>,
    },
    /// Pop `r` then `l`, push `l op r` (non-short-circuit operators only).
    Bin(BinOp),
    /// Fused three-address `lhs op rhs` over directly addressable operands
    /// — no stack traffic and no value clones. This is the dominant shape
    /// of cleaning predicates (`c.col < const`, `t1.col ≤ t2.col`).
    BinFused {
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// Pop, push `Bool(!truthy)`.
    Not,
    /// Pop, push `Bool(truthy)`.
    Truthy,
    /// Pop a list, push `Bool(non-empty)`.
    Exists,
    /// Push the result of a fused predicate tree: comparisons over
    /// addressable operands combined with `and` / `or` / `not`, evaluated
    /// by native short-circuit without touching the value stack. A whole
    /// denial-constraint predicate collapses to one of these.
    Pred(BoolExpr),
    /// Guarded projection: evaluate `cond` natively and resolve only the
    /// taken branch — the fused form of `if c then t else e` with a
    /// predicate-tree condition and addressable branches.
    IfFused {
        cond: BoolExpr,
        then: Operand,
        els: Operand,
    },
    /// Pop; if truthiness equals `when`, push `Bool(when)` and jump to
    /// `target` — the short-circuit of `and` (`when: false`) / `or`
    /// (`when: true`).
    ShortCircuit { when: bool, target: usize },
    /// Pop; jump to `target` when not truthy (no push) — `if` dispatch.
    JumpIfFalse(usize),
    /// Unconditional jump.
    Jump(usize),
    /// Pop `argc` arguments (in call order), push the builtin's result.
    Call { func: Func, argc: usize },
    /// Single-argument builtin over an addressable operand — the dominant
    /// transform shape (`lower(c.name)`, `prefix(c.phone)`): the argument
    /// is resolved by reference and borrowed straight into the builtin,
    /// no stack traffic and no argument clone.
    CallFused { func: Func, arg: Operand },
    /// Pop the term, push the pre-bound blocker's keys as a string list.
    BlockKeys(Arc<dyn Blocker>),
    /// Push the value of a nested comprehension.
    Comp(Box<CompProgram>),
    /// Pop `r` then `l`, push their merge under the monoid, finished.
    Merge(MonoidKind),
}

/// A compiled comprehension `⊕{ head | q₁, …, qₙ }`: each qualifier and
/// the head is a program over the enclosing scope extended by the
/// variables the qualifiers before it bind. Qualifiers run left to right;
/// a head value enters the accumulator through the monoid's unit and
/// merge, and the accumulator is finished once — exactly the reference
/// evaluator's semantics.
pub struct CompProgram {
    monoid: MonoidKind,
    quals: Vec<QualProgram>,
    head: Program,
}

enum QualProgram {
    /// Bind the next slot to each member of the list the program yields;
    /// NULL yields nothing.
    Gen(Program),
    /// Bind the next slot to the program's value.
    Bind(Program),
    /// Go on only where the program's value is truthy.
    Pred(Program),
}

/// A comprehension's running accumulator. Collection monoids collect the
/// head values in one vector — the unit-then-concatenate merge without
/// re-copying the accumulator per member.
enum CompAcc {
    Items(Vec<Value>),
    Value(Value),
}

impl CompProgram {
    fn run(&self, slots: Slots<'_>, ctx: &EvalCtx) -> Result<Value> {
        let mut env: Vec<Value> = Vec::with_capacity(self.head.scope.len());
        env.extend(slots.iter().cloned());
        // Sub-programs get a stack of their own: the enclosing evaluation
        // still holds the one it was handed.
        let mut scratch = Vec::new();
        let mut acc = match self.monoid {
            MonoidKind::Bag | MonoidKind::Set | MonoidKind::List => CompAcc::Items(Vec::new()),
            _ => CompAcc::Value(self.monoid.zero()),
        };
        self.qualify(0, &mut env, ctx, &mut scratch, &mut acc)?;
        let acc = match acc {
            CompAcc::Items(items) => Value::list(items),
            CompAcc::Value(v) => v,
        };
        finalize(&self.monoid, acc)
    }

    /// Run qualifier `i` and everything after it over `env`, folding each
    /// head value into `acc`.
    fn qualify(
        &self,
        i: usize,
        env: &mut Vec<Value>,
        ctx: &EvalCtx,
        scratch: &mut Vec<Value>,
        acc: &mut CompAcc,
    ) -> Result<()> {
        let Some(qual) = self.quals.get(i) else {
            let head = self.head.run(Slots::Env(env), ctx, scratch)?;
            match acc {
                CompAcc::Items(items) => items.push(head),
                CompAcc::Value(v) => {
                    let unit = monoid_unit(&self.monoid, head)?;
                    *v = merge_values(&self.monoid, std::mem::take(v), unit)?;
                }
            }
            return Ok(());
        };
        match qual {
            QualProgram::Gen(source) => {
                let coll = source.run(Slots::Env(env), ctx, scratch)?;
                if coll.is_null() {
                    return Ok(());
                }
                for item in coll.as_list()? {
                    env.push(item.clone());
                    let done = self.qualify(i + 1, env, ctx, scratch, acc);
                    env.pop();
                    done?;
                }
            }
            QualProgram::Bind(value) => {
                let v = value.run(Slots::Env(env), ctx, scratch)?;
                env.push(v);
                let done = self.qualify(i + 1, env, ctx, scratch, acc);
                env.pop();
                done?;
            }
            QualProgram::Pred(pred) => {
                if truthy(&pred.run(Slots::Env(env), ctx, scratch)?) {
                    self.qualify(i + 1, env, ctx, scratch, acc)?;
                }
            }
        }
        Ok(())
    }
}

/// A directly addressable operand of a fused instruction: resolved by
/// reference (or, for nested arithmetic, by value) without passing through
/// the value stack.
pub enum Operand {
    Const(Value),
    Slot(u16),
    SlotField {
        slot: u16,
        field: Arc<str>,
        hint: AtomicU32,
    },
    /// Nested arithmetic over operands (`c.acctbal * 1.5`), evaluated in
    /// the interpreter's operand order.
    Bin {
        op: BinOp,
        l: Box<Operand>,
        r: Box<Operand>,
    },
}

/// Resolve an operand that may contain nested arithmetic. Addressable
/// leaves stay borrowed; only computed results are owned.
fn operand_val<'v>(op: &'v Operand, slots: &Slots<'v>) -> Result<std::borrow::Cow<'v, Value>> {
    use std::borrow::Cow;
    match op {
        Operand::Bin { op, l, r } => {
            let lv = operand_val(l, slots)?;
            let rv = operand_val(r, slots)?;
            eval_binop(*op, &lv, &rv).map(Cow::Owned)
        }
        addressable => operand_ref(addressable, slots).map(Cow::Borrowed),
    }
}

/// Apply `op` to two operands, taking the all-reference fast path when
/// neither side computes.
#[inline]
fn fused_binop(op: BinOp, lhs: &Operand, rhs: &Operand, slots: &Slots<'_>) -> Result<Value> {
    if matches!(lhs, Operand::Bin { .. }) || matches!(rhs, Operand::Bin { .. }) {
        let l = operand_val(lhs, slots)?;
        let r = operand_val(rhs, slots)?;
        eval_binop(op, &l, &r)
    } else {
        eval_binop(op, operand_ref(lhs, slots)?, operand_ref(rhs, slots)?)
    }
}

/// A fused boolean tree over addressable operands. Evaluation short-circuits
/// exactly like the interpreter — `and` / `or` do not evaluate (and so do
/// not raise errors from) a right side the left side decides — but returns
/// a bare `bool` with no value-stack traffic. `and` / `or` chains are
/// flattened into contiguous [`BoolExpr::AllOf`] / [`BoolExpr::AnyOf`]
/// lists at compile time: a denial-constraint conjunction (or a fused
/// Select chain) evaluates as one tight loop over a slice instead of a
/// recursive descent through boxed nodes.
pub enum BoolExpr {
    Cmp {
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    Not(Box<BoolExpr>),
    /// Conjunction list in evaluation order (left-to-right short-circuit).
    AllOf(Box<[BoolExpr]>),
    /// Disjunction list in evaluation order (left-to-right short-circuit).
    AnyOf(Box<[BoolExpr]>),
    /// Conjunction whose atoms are all plain comparisons — the flattened
    /// fast form of a fused Select chain or a denial-constraint
    /// conjunction: one tight loop over contiguous triples, no per-atom
    /// enum dispatch.
    AllCmp(Box<[(BinOp, Operand, Operand)]>),
}

fn eval_bool(e: &BoolExpr, slots: &Slots<'_>) -> Result<bool> {
    // Comparison leaves inside a flattened chain evaluate inline — no
    // recursive call per atom.
    #[inline(always)]
    fn leaf(e: &BoolExpr, slots: &Slots<'_>) -> Result<bool> {
        match e {
            BoolExpr::Cmp { op, lhs, rhs } => Ok(truthy(&fused_binop(*op, lhs, rhs, slots)?)),
            other => eval_bool(other, slots),
        }
    }
    match e {
        BoolExpr::Cmp { op, lhs, rhs } => Ok(truthy(&fused_binop(*op, lhs, rhs, slots)?)),
        BoolExpr::Not(inner) => Ok(!eval_bool(inner, slots)?),
        BoolExpr::AllOf(xs) => {
            for x in xs.iter() {
                if !leaf(x, slots)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        BoolExpr::AnyOf(xs) => {
            for x in xs.iter() {
                if leaf(x, slots)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        BoolExpr::AllCmp(cmps) => {
            for (op, lhs, rhs) in cmps.iter() {
                if !truthy(&fused_binop(*op, lhs, rhs, slots)?) {
                    return Ok(false);
                }
            }
            Ok(true)
        }
    }
}

/// `Value::Null` with a `'static` borrow, for null-propagating projections
/// resolved by reference.
static NULL_VALUE: Value = Value::Null;

/// Build a fused record: resolve every operand by reference first, then
/// construct the struct in a single exact-size allocation (the zip/map is
/// `TrustedLen`). Field names are shared `Arc<str>`s — no per-row name
/// interning, unlike the interpreter's `Value::record`.
fn build_record(names: &Arc<[Arc<str>]>, ops: &[Operand], slots: &Slots<'_>) -> Result<Value> {
    const MAX_INLINE: usize = 16;
    if ops.len() <= MAX_INLINE {
        let mut refs: [&Value; MAX_INLINE] = [&NULL_VALUE; MAX_INLINE];
        for (slot, o) in refs.iter_mut().zip(ops.iter()) {
            *slot = operand_ref(o, slots)?;
        }
        let fields: Arc<[(Arc<str>, Value)]> = names
            .iter()
            .zip(&refs[..ops.len()])
            .map(|(n, v)| (Arc::clone(n), (*v).clone()))
            .collect();
        Ok(Value::Struct(fields))
    } else {
        let mut fields = Vec::with_capacity(ops.len());
        for (n, o) in names.iter().zip(ops.iter()) {
            fields.push((Arc::clone(n), operand_ref(o, slots)?.clone()));
        }
        Ok(Value::Struct(Arc::from(fields)))
    }
}

#[inline(always)]
fn operand_ref<'v>(op: &'v Operand, slots: &Slots<'v>) -> Result<&'v Value> {
    match op {
        Operand::Const(v) => Ok(v),
        Operand::Slot(i) => Ok(slots.get(*i as usize)),
        Operand::SlotField { slot, field, hint } => {
            project_ref(slots.get(*slot as usize), field, hint)
        }
        Operand::Bin { .. } => Err(Error::Invalid(
            "computed operand in an addressable-only position".to_string(),
        )),
    }
}

/// A compiled, slot-resolved expression program.
///
/// A program is immutable and `Sync`: the projection hints are relaxed
/// atomics, so one program compiled per plan node is shared by every worker
/// evaluating that node's partitions.
pub struct Program {
    instrs: Vec<Instr>,
    /// The slot names the program was compiled against, in slot order.
    scope: Vec<String>,
    /// Static bound on the evaluation stack depth.
    max_stack: usize,
}

/// The two row shapes programs evaluate against: one slice of slot values,
/// or a (left, right) pair of slices addressed as one concatenated scope —
/// which lets theta-join predicates run without materializing a merged
/// row per candidate pair. Rows carry values only; the names live in the
/// program's scope.
#[derive(Clone, Copy)]
enum Slots<'a> {
    Env(&'a [Value]),
    Pair(&'a [Value], &'a [Value]),
}

impl<'a> Slots<'a> {
    #[inline]
    fn get(&self, i: usize) -> &'a Value {
        match self {
            Slots::Env(env) => &env[i],
            Slots::Pair(l, r) => {
                if i < l.len() {
                    &l[i]
                } else {
                    &r[i - l.len()]
                }
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Slots::Env(env) => env.len(),
            Slots::Pair(l, r) => l.len() + r.len(),
        }
    }

    /// Slot values in scope order.
    fn iter(&self) -> impl Iterator<Item = &'a Value> {
        let (l, r): (&'a [Value], &'a [Value]) = match self {
            Slots::Env(env) => (env, &[]),
            Slots::Pair(l, r) => (l, r),
        };
        l.iter().chain(r)
    }
}

/// A row whose width disagrees with the layout it is evaluated under is a
/// typed error — never a panic, and never a silently different evaluation.
pub(crate) fn check_width(scope: &[String], width: usize) -> Result<()> {
    if width == scope.len() {
        return Ok(());
    }
    Err(Error::Invalid(format!(
        "row layout mismatch: {} slots [{}] in scope, row has {width}",
        scope.len(),
        scope.join(", ")
    )))
}

impl Program {
    /// Compile `expr` against the ordered slot names `scope`. Fails when a
    /// variable is not in scope or a table reference is unknown — the
    /// executor fails the query with that error before any row runs.
    pub fn compile(expr: &CalcExpr, scope: &[String], ctx: &EvalCtx) -> Result<Program> {
        Program::build(expr, scope, ctx, true)
    }

    /// [`Program::compile`], pre-evaluating pure constant subtrees when
    /// `fold` is set.
    fn build(expr: &CalcExpr, scope: &[String], ctx: &EvalCtx, fold: bool) -> Result<Program> {
        let mut c = Compiler {
            instrs: Vec::new(),
            scope,
            ctx,
            fold,
            depth: 0,
            max_depth: 0,
        };
        c.emit(expr)?;
        debug_assert_eq!(c.depth, 1, "program must leave exactly one result");
        Ok(Program {
            instrs: c.instrs,
            scope: scope.to_vec(),
            max_stack: c.max_depth,
        })
    }

    /// Number of environment slots the program expects.
    pub fn scope_len(&self) -> usize {
        self.scope.len()
    }

    /// The slot names the program was compiled against.
    pub fn scope(&self) -> &[String] {
        &self.scope
    }

    /// Number of instructions (tests / explain output).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction sequence — read by the columnar kernel compiler
    /// (`physical/kernel.rs`) to recognize vectorizable program
    /// shapes (a single fused predicate tree, a fused record build, a
    /// builtin-per-field projection).
    pub(crate) fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Evaluate against one row of slot values, reusing `scratch` as the
    /// value stack. The row must have the compiled scope's layout.
    pub fn eval_with(
        &self,
        env: &[Value],
        ctx: &EvalCtx,
        scratch: &mut Vec<Value>,
    ) -> Result<Value> {
        self.run(Slots::Env(env), ctx, scratch)
    }

    /// Evaluate against a concatenated (left, right) row pair without
    /// materializing the merged row.
    pub fn eval_pair(
        &self,
        left: &[Value],
        right: &[Value],
        ctx: &EvalCtx,
        scratch: &mut Vec<Value>,
    ) -> Result<Value> {
        self.run(Slots::Pair(left, right), ctx, scratch)
    }

    /// Single-shot evaluation (constant folding, tests; hot paths use
    /// [`Program::eval_with`] / [`Program::eval_batch`]).
    pub fn eval(&self, env: &[Value], ctx: &EvalCtx) -> Result<Value> {
        let mut scratch = Vec::with_capacity(self.max_stack);
        self.eval_with(env, ctx, &mut scratch)
    }

    /// Batch entry point: evaluate every row of a partition with one shared
    /// scratch stack — no per-row allocation in the loop.
    pub fn eval_batch(&self, rows: &[Vec<Value>], ctx: &EvalCtx) -> Result<Vec<Value>> {
        let mut scratch = Vec::with_capacity(self.max_stack);
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            out.push(self.eval_with(row, ctx, &mut scratch)?);
        }
        Ok(out)
    }

    fn run(&self, slots: Slots<'_>, ctx: &EvalCtx, stack: &mut Vec<Value>) -> Result<Value> {
        check_width(&self.scope, slots.len())?;
        // Fully fused programs — one predicate tree, one record build, one
        // three-address op — bypass the stack machine entirely. These are
        // the common shapes of filter predicates and grouping keys.
        if let [single] = self.instrs.as_slice() {
            match single {
                Instr::Pred(p) => return Ok(Value::Bool(eval_bool(p, &slots)?)),
                Instr::BinFused { op, lhs, rhs } => return fused_binop(*op, lhs, rhs, &slots),
                Instr::IfFused { cond, then, els } => {
                    let branch = if eval_bool(cond, &slots)? { then } else { els };
                    return operand_val(branch, &slots).map(std::borrow::Cow::into_owned);
                }
                Instr::CallFused { func, arg } => {
                    let v = operand_val(arg, &slots)?;
                    return eval_func(func, std::slice::from_ref(v.as_ref()), ctx);
                }
                Instr::Const(v) => return Ok(v.clone()),
                Instr::Slot(i) => return Ok(slots.get(*i as usize).clone()),
                Instr::SlotField { slot, field, hint } => {
                    return project_ref(slots.get(*slot as usize), field, hint).cloned()
                }
                Instr::RecordFused { names, ops } => return build_record(names, ops, &slots),
                _ => {}
            }
        }
        stack.clear();
        stack.reserve(self.max_stack);
        let mut pc = 0usize;
        while pc < self.instrs.len() {
            match &self.instrs[pc] {
                Instr::Const(v) => stack.push(v.clone()),
                Instr::Slot(i) => stack.push(slots.get(*i as usize).clone()),
                Instr::SlotField { slot, field, hint } => {
                    stack.push(project_ref(slots.get(*slot as usize), field, hint)?.clone());
                }
                Instr::Proj { field, hint } => {
                    let v = stack.pop().expect("proj operand");
                    let f = project_ref(&v, field, hint)?.clone();
                    stack.push(f);
                }
                Instr::Record(names) => {
                    // Drain in place: no intermediate argument vector, and
                    // the field names are shared `Arc<str>`s — unlike the
                    // interpreter, which re-interns every name per row.
                    let at = stack.len() - names.len();
                    let fields: Arc<[(Arc<str>, Value)]> =
                        names.iter().cloned().zip(stack.drain(at..)).collect();
                    stack.push(Value::Struct(fields));
                }
                Instr::RecordFused { names, ops } => {
                    stack.push(build_record(names, ops, &slots)?);
                }
                Instr::Bin(op) => {
                    let r = stack.pop().expect("binop rhs");
                    let l = stack.pop().expect("binop lhs");
                    stack.push(eval_binop(*op, &l, &r)?);
                }
                Instr::BinFused { op, lhs, rhs } => {
                    stack.push(fused_binop(*op, lhs, rhs, &slots)?);
                }
                Instr::Not => {
                    let v = stack.pop().expect("not operand");
                    stack.push(Value::Bool(!truthy(&v)));
                }
                Instr::Truthy => {
                    let v = stack.pop().expect("truthy operand");
                    stack.push(Value::Bool(truthy(&v)));
                }
                Instr::Exists => {
                    let v = stack.pop().expect("exists operand");
                    stack.push(Value::Bool(!v.as_list()?.is_empty()));
                }
                Instr::Pred(p) => {
                    stack.push(Value::Bool(eval_bool(p, &slots)?));
                }
                Instr::IfFused { cond, then, els } => {
                    let branch = if eval_bool(cond, &slots)? { then } else { els };
                    stack.push(operand_val(branch, &slots)?.into_owned());
                }
                Instr::ShortCircuit { when, target } => {
                    let v = stack.pop().expect("short-circuit operand");
                    if truthy(&v) == *when {
                        stack.push(Value::Bool(*when));
                        pc = *target;
                        continue;
                    }
                }
                Instr::JumpIfFalse(target) => {
                    let v = stack.pop().expect("jump condition");
                    if !truthy(&v) {
                        pc = *target;
                        continue;
                    }
                }
                Instr::Jump(target) => {
                    pc = *target;
                    continue;
                }
                Instr::Call { func, argc } => {
                    // Arguments are borrowed off the top of the stack — no
                    // per-call argument vector.
                    let at = stack.len() - argc;
                    let v = eval_func(func, &stack[at..], ctx)?;
                    stack.truncate(at);
                    stack.push(v);
                }
                Instr::CallFused { func, arg } => {
                    let v = operand_val(arg, &slots)?;
                    stack.push(eval_func(func, std::slice::from_ref(v.as_ref()), ctx)?);
                }
                Instr::BlockKeys(blocker) => {
                    let term = stack.pop().expect("block_keys term");
                    let keys = match &term {
                        Value::Str(s) => blocker.keys(s),
                        other => blocker.keys(&other.to_text()),
                    };
                    stack.push(Value::list(keys.into_iter().map(Value::from)));
                }
                Instr::Comp(comp) => stack.push(comp.run(slots, ctx)?),
                Instr::Merge(m) => {
                    let r = stack.pop().expect("merge rhs");
                    let l = stack.pop().expect("merge lhs");
                    stack.push(finalize(m, merge_values(m, l, r)?)?);
                }
            }
            pc += 1;
        }
        Ok(stack.pop().expect("program result"))
    }
}

/// Struct field load by reference, with a self-tuning positional hint:
/// rows of a partition share a schema, so after the first row the access
/// is a direct index plus one name equality check.
#[inline]
fn project_ref<'v>(base: &'v Value, field: &str, hint: &AtomicU32) -> Result<&'v Value> {
    if base.is_null() {
        return Ok(&NULL_VALUE);
    }
    let fields = base.as_struct()?;
    let h = hint.load(Ordering::Relaxed) as usize;
    if let Some((n, v)) = fields.get(h) {
        if n.as_ref() == field {
            return Ok(v);
        }
    }
    let idx = fields
        .iter()
        .position(|(n, _)| n.as_ref() == field)
        .ok_or_else(|| Error::UnknownField(field.to_string()))?;
    hint.store(idx as u32, Ordering::Relaxed);
    Ok(&fields[idx].1)
}

struct Compiler<'a> {
    instrs: Vec<Instr>,
    scope: &'a [String],
    ctx: &'a EvalCtx,
    /// Pre-evaluate pure constant subtrees?
    fold: bool,
    depth: usize,
    max_depth: usize,
}

impl Compiler<'_> {
    fn push_instr(&mut self, i: Instr, stack_delta: isize) {
        self.instrs.push(i);
        self.depth = self.depth.checked_add_signed(stack_delta).expect("stack");
        self.max_depth = self.max_depth.max(self.depth);
    }

    /// Lower `e` to a directly addressable operand, if it is one
    /// (constant, variable, or `var.field` projection).
    fn try_operand(&self, e: &CalcExpr) -> Result<Option<Operand>> {
        Ok(match e {
            CalcExpr::Const(v) => Some(Operand::Const(v.clone())),
            CalcExpr::Var(n) => Some(Operand::Slot(self.slot_of(n)?)),
            CalcExpr::Proj(inner, field) => match &**inner {
                CalcExpr::Var(n) => Some(Operand::SlotField {
                    slot: self.slot_of(n)?,
                    field: Arc::from(field.as_str()),
                    hint: AtomicU32::new(0),
                }),
                _ => None,
            },
            _ => None,
        })
    }

    /// Lower `e` to an operand allowing nested arithmetic over addressable
    /// leaves (`c.acctbal * 1.5`).
    fn try_operand_deep(&self, e: &CalcExpr) -> Result<Option<Operand>> {
        if let Some(op) = self.try_operand(e)? {
            return Ok(Some(op));
        }
        if let CalcExpr::BinOp(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div), l, r) = e {
            if let (Some(a), Some(b)) = (self.try_operand_deep(l)?, self.try_operand_deep(r)?) {
                return Ok(Some(Operand::Bin {
                    op: *op,
                    l: Box::new(a),
                    r: Box::new(b),
                }));
            }
        }
        Ok(None)
    }

    /// Lower `e` to a fused boolean tree, if every leaf is a comparison
    /// over (possibly arithmetic) operands and every combinator is
    /// `and`/`or`/`not`.
    fn try_bool_expr(&self, e: &CalcExpr) -> Result<Option<BoolExpr>> {
        Ok(match e {
            CalcExpr::BinOp(op, l, r) if op.is_comparison() => {
                match (self.try_operand_deep(l)?, self.try_operand_deep(r)?) {
                    (Some(lhs), Some(rhs)) => Some(BoolExpr::Cmp { op: *op, lhs, rhs }),
                    _ => None,
                }
            }
            CalcExpr::BinOp(op @ (BinOp::And | BinOp::Or), l, r) => {
                match (self.try_bool_expr(l)?, self.try_bool_expr(r)?) {
                    (Some(a), Some(b)) => {
                        // Flatten nested chains of the same connective into
                        // one contiguous list, preserving left-to-right
                        // evaluation order (and therefore short-circuit and
                        // error semantics).
                        let and = *op == BinOp::And;
                        let mut xs: Vec<BoolExpr> = Vec::new();
                        for side in [a, b] {
                            match side {
                                BoolExpr::AllOf(inner) if and => xs.extend(inner.into_vec()),
                                BoolExpr::AllCmp(inner) if and => xs.extend(
                                    inner
                                        .into_vec()
                                        .into_iter()
                                        .map(|(op, lhs, rhs)| BoolExpr::Cmp { op, lhs, rhs }),
                                ),
                                BoolExpr::AnyOf(inner) if !and => xs.extend(inner.into_vec()),
                                other => xs.push(other),
                            }
                        }
                        Some(if and {
                            // An all-comparison conjunction tightens
                            // further into the triple-list form.
                            if xs.iter().all(|x| matches!(x, BoolExpr::Cmp { .. })) {
                                BoolExpr::AllCmp(
                                    xs.into_iter()
                                        .map(|x| match x {
                                            BoolExpr::Cmp { op, lhs, rhs } => (op, lhs, rhs),
                                            _ => unreachable!("checked above"),
                                        })
                                        .collect(),
                                )
                            } else {
                                BoolExpr::AllOf(xs.into_boxed_slice())
                            }
                        } else {
                            BoolExpr::AnyOf(xs.into_boxed_slice())
                        })
                    }
                    _ => None,
                }
            }
            CalcExpr::Not(inner) => self
                .try_bool_expr(inner)?
                .map(|b| BoolExpr::Not(Box::new(b))),
            _ => None,
        })
    }

    fn slot_of(&self, name: &str) -> Result<u16> {
        // Innermost binding wins, matching the interpreter's reverse scan.
        self.scope
            .iter()
            .rposition(|n| n == name)
            .map(|i| i as u16)
            .ok_or_else(|| Error::Invalid(format!("unbound variable `{name}`")))
    }

    /// Is the subtree a compile-time constant with row-independent, pure
    /// semantics? Similarity calls are excluded — they tick the comparison
    /// counter per evaluation, which folding would lose — as are blockers
    /// and table references (pre-bound separately).
    fn is_pure_const(e: &CalcExpr) -> bool {
        !e.any_node(&mut |n| {
            matches!(
                n,
                CalcExpr::Var(_)
                    | CalcExpr::TableRef(_)
                    | CalcExpr::Call(
                        Func::Similar(..) | Func::Similarity(..) | Func::BlockKeys(..),
                        _
                    )
            )
        })
    }

    fn emit(&mut self, e: &CalcExpr) -> Result<()> {
        // Constant pre-evaluation: fold any pure constant subtree now, by
        // compiling it unfolded and running it on an empty row. If that
        // fails (a type error the program would also raise per row), emit
        // the unfolded code so the runtime error is identical.
        if self.fold && !matches!(e, CalcExpr::Const(_)) && Self::is_pure_const(e) {
            let folded =
                Program::build(e, &[], self.ctx, false).and_then(|p| p.eval(&[], self.ctx));
            if let Ok(v) = folded {
                self.push_instr(Instr::Const(v), 1);
                return Ok(());
            }
        }
        match e {
            CalcExpr::Const(v) => self.push_instr(Instr::Const(v.clone()), 1),
            CalcExpr::Var(n) => {
                let slot = self.slot_of(n)?;
                self.push_instr(Instr::Slot(slot), 1);
            }
            CalcExpr::TableRef(t) => {
                let rows = self
                    .ctx
                    .table(t)
                    .ok_or_else(|| Error::Invalid(format!("unknown table `{t}`")))?
                    .clone();
                self.push_instr(Instr::Const(rows), 1);
            }
            CalcExpr::Record(fields) => {
                let names: Arc<[Arc<str>]> =
                    fields.iter().map(|(n, _)| Arc::from(n.as_str())).collect();
                // A record of addressable operands (the `tuple_key` shape
                // of grouping keys) fuses into one instruction.
                let mut ops = Vec::with_capacity(fields.len());
                for (_, fe) in fields {
                    match self.try_operand(fe)? {
                        Some(op) => ops.push(op),
                        None => {
                            ops.clear();
                            break;
                        }
                    }
                }
                if !fields.is_empty() && ops.len() == fields.len() {
                    self.push_instr(
                        Instr::RecordFused {
                            names,
                            ops: ops.into_boxed_slice(),
                        },
                        1,
                    );
                    return Ok(());
                }
                for (_, fe) in fields {
                    self.emit(fe)?;
                }
                let delta = 1 - fields.len() as isize;
                self.push_instr(Instr::Record(names), delta);
            }
            CalcExpr::Proj(inner, field) => {
                if let CalcExpr::Var(n) = &**inner {
                    let slot = self.slot_of(n)?;
                    self.push_instr(
                        Instr::SlotField {
                            slot,
                            field: Arc::from(field.as_str()),
                            hint: AtomicU32::new(0),
                        },
                        1,
                    );
                } else {
                    self.emit(inner)?;
                    self.push_instr(
                        Instr::Proj {
                            field: Arc::from(field.as_str()),
                            hint: AtomicU32::new(0),
                        },
                        0,
                    );
                }
            }
            CalcExpr::BinOp(op @ (BinOp::And | BinOp::Or), l, r) => {
                // A fully comparison-shaped boolean tree fuses into one
                // natively short-circuiting instruction.
                if let Some(pred) = self.try_bool_expr(e)? {
                    self.push_instr(Instr::Pred(pred), 1);
                    return Ok(());
                }
                self.emit(l)?;
                let patch = self.instrs.len();
                self.push_instr(
                    Instr::ShortCircuit {
                        when: *op == BinOp::Or,
                        target: 0, // patched below
                    },
                    -1,
                );
                self.emit(r)?;
                self.push_instr(Instr::Truthy, 0);
                let end = self.instrs.len();
                if let Instr::ShortCircuit { target, .. } = &mut self.instrs[patch] {
                    *target = end;
                }
            }
            CalcExpr::BinOp(op, l, r) => {
                // Fuse `operand op operand` into a single three-address
                // instruction (no stack traffic, operands by reference,
                // nested arithmetic allowed).
                if let (Some(lhs), Some(rhs)) =
                    (self.try_operand_deep(l)?, self.try_operand_deep(r)?)
                {
                    self.push_instr(Instr::BinFused { op: *op, lhs, rhs }, 1);
                    return Ok(());
                }
                self.emit(l)?;
                self.emit(r)?;
                self.push_instr(Instr::Bin(*op), -1);
            }
            CalcExpr::Not(inner) => {
                if let Some(pred) = self.try_bool_expr(e)? {
                    self.push_instr(Instr::Pred(pred), 1);
                    return Ok(());
                }
                self.emit(inner)?;
                self.push_instr(Instr::Not, 0);
            }
            CalcExpr::If(c, t, els) => {
                // A predicate-tree condition with addressable branches
                // fuses into one guarded-projection instruction: only the
                // taken branch is resolved, matching the interpreter.
                if let Some(cond) = self.try_bool_expr(c)? {
                    if let (Some(then_op), Some(else_op)) =
                        (self.try_operand_deep(t)?, self.try_operand_deep(els)?)
                    {
                        self.push_instr(
                            Instr::IfFused {
                                cond,
                                then: then_op,
                                els: else_op,
                            },
                            1,
                        );
                        return Ok(());
                    }
                }
                self.emit(c)?;
                let cond_patch = self.instrs.len();
                self.push_instr(Instr::JumpIfFalse(0), -1);
                let base_depth = self.depth;
                self.emit(t)?;
                let then_patch = self.instrs.len();
                self.push_instr(Instr::Jump(0), 0);
                let else_start = self.instrs.len();
                // The else branch starts from the pre-then stack depth.
                self.depth = base_depth;
                self.emit(els)?;
                let end = self.instrs.len();
                if let Instr::JumpIfFalse(target) = &mut self.instrs[cond_patch] {
                    *target = else_start;
                }
                if let Instr::Jump(target) = &mut self.instrs[then_patch] {
                    *target = end;
                }
            }
            CalcExpr::Call(f, args) => {
                // A single addressable argument fuses call and load into
                // one instruction (blocker calls keep their pre-bound
                // instruction below).
                if let [arg] = args.as_slice() {
                    if !matches!(f, Func::BlockKeys(_)) {
                        if let Some(op) = self.try_operand_deep(arg)? {
                            self.push_instr(
                                Instr::CallFused {
                                    func: f.clone(),
                                    arg: op,
                                },
                                1,
                            );
                            return Ok(());
                        }
                    }
                }
                for a in args {
                    self.emit(a)?;
                }
                let delta = 1 - args.len() as isize;
                // Pre-bind the blocker when the context already prepared it;
                // otherwise the generic call errors at runtime exactly like
                // the interpreter.
                if let Func::BlockKeys(algo) = f {
                    if args.len() == 1 {
                        if let Some(blocker) = self.ctx.prepared_blocker(algo) {
                            self.push_instr(Instr::BlockKeys(blocker), delta);
                            return Ok(());
                        }
                    }
                }
                self.push_instr(
                    Instr::Call {
                        func: f.clone(),
                        argc: args.len(),
                    },
                    delta,
                );
            }
            CalcExpr::Exists(inner) => {
                self.emit(inner)?;
                self.push_instr(Instr::Exists, 0);
            }
            CalcExpr::Comp(c) => {
                // Each qualifier sees the variables bound before it.
                let mut scope = self.scope.to_vec();
                let mut quals = Vec::with_capacity(c.quals.len());
                for q in &c.quals {
                    quals.push(match q {
                        Qual::Gen(var, e) => {
                            let source = self.sub_program(e, &scope)?;
                            scope.push(var.clone());
                            QualProgram::Gen(source)
                        }
                        Qual::Bind(var, e) => {
                            let value = self.sub_program(e, &scope)?;
                            scope.push(var.clone());
                            QualProgram::Bind(value)
                        }
                        Qual::Pred(e) => QualProgram::Pred(self.sub_program(e, &scope)?),
                    });
                }
                let comp = CompProgram {
                    monoid: c.monoid.clone(),
                    quals,
                    head: self.sub_program(&c.head, &scope)?,
                };
                self.push_instr(Instr::Comp(Box::new(comp)), 1);
            }
            CalcExpr::Merge(m, l, r) => {
                self.emit(l)?;
                self.emit(r)?;
                self.push_instr(Instr::Merge(m.clone()), -1);
            }
        }
        Ok(())
    }

    fn sub_program(&self, e: &CalcExpr, scope: &[String]) -> Result<Program> {
        Program::build(e, scope, self.ctx, self.fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculus::eval::{eval, Env};
    use crate::calculus::expr::FilterAlgo;

    fn scope() -> Vec<String> {
        vec!["x".to_string(), "row".to_string()]
    }

    fn env() -> Env {
        vec![
            ("x".to_string(), Value::Int(7)),
            (
                "row".to_string(),
                Value::record([("a", Value::Int(1)), ("b", Value::str("hi"))]),
            ),
        ]
    }

    /// The slot values of a named environment, in scope order.
    fn slots(env: &Env) -> Vec<Value> {
        env.iter().map(|(_, v)| v.clone()).collect()
    }

    fn check(expr: &CalcExpr) {
        let ctx = EvalCtx::new();
        let prog = Program::compile(expr, &scope(), &ctx).unwrap();
        let env = env();
        assert_eq!(
            prog.eval(&slots(&env), &ctx).unwrap(),
            eval(expr, &env, &ctx).unwrap(),
            "{expr}"
        );
    }

    #[test]
    fn slots_and_fields_resolve() {
        check(&CalcExpr::var("x"));
        check(&CalcExpr::proj(CalcExpr::var("row"), "b"));
        check(&CalcExpr::bin(
            BinOp::Add,
            CalcExpr::proj(CalcExpr::var("row"), "a"),
            CalcExpr::var("x"),
        ));
    }

    #[test]
    fn constants_fold_to_one_instruction() {
        let ctx = EvalCtx::new();
        let e = CalcExpr::bin(
            BinOp::Mul,
            CalcExpr::bin(BinOp::Add, CalcExpr::int(2), CalcExpr::int(3)),
            CalcExpr::int(4),
        );
        let prog = Program::compile(&e, &[], &ctx).unwrap();
        assert_eq!(prog.len(), 1, "constant subtree pre-evaluated");
        assert_eq!(prog.eval(&[], &ctx).unwrap(), Value::Int(20));
    }

    #[test]
    fn short_circuit_skips_rhs() {
        // `false and (1 + "x")`: the interpreter never evaluates the
        // ill-typed right side; the compiled program must not either.
        let e = CalcExpr::bin(
            BinOp::And,
            CalcExpr::bin(BinOp::Lt, CalcExpr::var("x"), CalcExpr::int(0)),
            CalcExpr::bin(BinOp::Add, CalcExpr::int(1), CalcExpr::str("x")),
        );
        check(&e);
        let or = CalcExpr::bin(
            BinOp::Or,
            CalcExpr::bin(BinOp::Gt, CalcExpr::var("x"), CalcExpr::int(0)),
            CalcExpr::bin(BinOp::Add, CalcExpr::int(1), CalcExpr::str("x")),
        );
        check(&or);
    }

    #[test]
    fn if_branches_only_taken_side() {
        let e = CalcExpr::If(
            Box::new(CalcExpr::bin(
                BinOp::Gt,
                CalcExpr::var("x"),
                CalcExpr::int(0),
            )),
            Box::new(CalcExpr::var("x")),
            Box::new(CalcExpr::bin(
                BinOp::Add,
                CalcExpr::int(1),
                CalcExpr::str("x"),
            )),
        );
        check(&e);
    }

    #[test]
    fn unbound_variable_is_a_compile_error() {
        let ctx = EvalCtx::new();
        assert!(Program::compile(&CalcExpr::var("nope"), &scope(), &ctx).is_err());
    }

    #[test]
    fn innermost_binding_shadows() {
        let ctx = EvalCtx::new();
        let scope = vec!["x".to_string(), "x".to_string()];
        let env = vec![
            ("x".to_string(), Value::Int(1)),
            ("x".to_string(), Value::Int(2)),
        ];
        let prog = Program::compile(&CalcExpr::var("x"), &scope, &ctx).unwrap();
        assert_eq!(prog.eval(&slots(&env), &ctx).unwrap(), Value::Int(2));
        assert_eq!(
            eval(&CalcExpr::var("x"), &env, &ctx).unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn tables_are_prebound() {
        let ctx = EvalCtx::new().with_table("t", Value::list([Value::Int(1), Value::Int(2)]));
        let e = CalcExpr::Exists(Box::new(CalcExpr::TableRef("t".into())));
        let prog = Program::compile(&e, &[], &ctx).unwrap();
        assert_eq!(prog.eval(&[], &ctx).unwrap(), Value::Bool(true));
        // Unknown tables fail at compile time.
        assert!(Program::compile(&CalcExpr::TableRef("nope".into()), &[], &ctx).is_err());
    }

    #[test]
    fn blockers_are_prebound() {
        let algo = FilterAlgo::TokenFilter { q: 2 };
        let e = CalcExpr::call(Func::BlockKeys(algo.clone()), vec![CalcExpr::var("x")]);
        let mut ctx = EvalCtx::new();
        ctx.prepare_blockers(&e, &[]);
        let scope = vec!["x".to_string()];
        let prog = Program::compile(&e, &scope, &ctx).unwrap();
        assert!(
            prog.instrs.iter().any(|i| matches!(i, Instr::BlockKeys(_))),
            "blocker call must be pre-bound"
        );
        let env = vec![("x".to_string(), Value::str("anna"))];
        assert_eq!(
            prog.eval(&slots(&env), &ctx).unwrap(),
            eval(&e, &env, &ctx).unwrap()
        );
    }

    #[test]
    fn comprehension_compiles_to_one_comp_instruction() {
        let ctx = EvalCtx::new();
        // sum{ v + x | v <- [1,2,3] } over slot x.
        let e = CalcExpr::comp(
            MonoidKind::Sum,
            CalcExpr::bin(BinOp::Add, CalcExpr::var("v"), CalcExpr::var("x")),
            vec![Qual::Gen(
                "v".into(),
                CalcExpr::Const(Value::list([Value::Int(1), Value::Int(2), Value::Int(3)])),
            )],
        );
        let scope = vec!["x".to_string()];
        let prog = Program::compile(&e, &scope, &ctx).unwrap();
        assert!(matches!(prog.instrs.as_slice(), [Instr::Comp(_)]));
        let env = vec![("x".to_string(), Value::Int(10))];
        assert_eq!(prog.eval(&slots(&env), &ctx).unwrap(), Value::Int(36));
        // An unbound name inside the comprehension fails at compile time.
        let unbound = CalcExpr::comp(MonoidKind::Sum, CalcExpr::var("w"), Vec::new());
        assert!(Program::compile(&unbound, &scope, &ctx).is_err());
    }

    #[test]
    fn qualifiers_follow_the_reference() {
        // bag{ w | v <- source, w := v * x, w > 7 }: NULL generates nothing,
        // a scalar is the reference's typed error, `w` binds per member.
        let comp = |source: CalcExpr| {
            let w = CalcExpr::bin(BinOp::Mul, CalcExpr::var("v"), CalcExpr::var("x"));
            CalcExpr::comp(
                MonoidKind::Bag,
                CalcExpr::var("w"),
                vec![
                    Qual::Gen("v".into(), source),
                    Qual::Bind("w".into(), w),
                    Qual::Pred(CalcExpr::bin(
                        BinOp::Gt,
                        CalcExpr::var("w"),
                        CalcExpr::int(7),
                    )),
                ],
            )
        };
        check(&comp(CalcExpr::Const(Value::list([
            Value::Int(1),
            Value::Int(2),
        ]))));
        check(&comp(CalcExpr::Const(Value::Null)));
        let ctx = EvalCtx::new();
        let scalar = comp(CalcExpr::proj(CalcExpr::var("row"), "a"));
        let prog = Program::compile(&scalar, &scope(), &ctx).unwrap();
        assert_eq!(
            prog.eval(&slots(&env()), &ctx).unwrap_err().to_string(),
            eval(&scalar, &env(), &ctx).unwrap_err().to_string()
        );
    }

    #[test]
    fn merges_compile_to_one_instruction_and_constant_ones_fold() {
        let ctx = EvalCtx::new();
        let ints = |ns: &[i64]| Value::list(ns.iter().map(|&n| Value::Int(n)));
        let xs = CalcExpr::comp(
            MonoidKind::Bag,
            CalcExpr::var("x"),
            vec![Qual::Gen("v".into(), CalcExpr::Const(ints(&[0, 0])))],
        );
        let e = CalcExpr::Merge(
            MonoidKind::Set,
            Box::new(xs),
            Box::new(CalcExpr::Const(ints(&[9, 7]))),
        );
        let prog = Program::compile(&e, &scope(), &ctx).unwrap();
        assert!(matches!(
            prog.instrs.last(),
            Some(Instr::Merge(MonoidKind::Set))
        ));
        // x = 7 twice, then 9 and 7: the set's finish dedups and sorts.
        assert_eq!(prog.eval(&slots(&env()), &ctx).unwrap(), ints(&[7, 9]));
        check(&e);
        let one_two = CalcExpr::Merge(
            MonoidKind::Sum,
            Box::new(CalcExpr::int(1)),
            Box::new(CalcExpr::int(2)),
        );
        let prog = Program::compile(&one_two, &[], &ctx).unwrap();
        assert!(matches!(
            prog.instrs.as_slice(),
            [Instr::Const(Value::Int(3))]
        ));
    }

    #[test]
    fn batch_matches_per_row() {
        let ctx = EvalCtx::new();
        let e = CalcExpr::bin(
            BinOp::Lt,
            CalcExpr::proj(CalcExpr::var("row"), "a"),
            CalcExpr::var("x"),
        );
        let prog = Program::compile(&e, &scope(), &ctx).unwrap();
        let rows: Vec<Env> = (0..50)
            .map(|i| {
                vec![
                    ("x".to_string(), Value::Int(25)),
                    (
                        "row".to_string(),
                        Value::record([("a", Value::Int(i)), ("b", Value::str("s"))]),
                    ),
                ]
            })
            .collect();
        let batch = prog
            .eval_batch(&rows.iter().map(slots).collect::<Vec<_>>(), &ctx)
            .unwrap();
        for (row, got) in rows.iter().zip(&batch) {
            assert_eq!(got, &eval(&e, row, &ctx).unwrap());
        }
    }

    #[test]
    fn pair_evaluation_matches_merged_env() {
        let ctx = EvalCtx::new();
        let scope = vec!["l".to_string(), "r".to_string()];
        let e = CalcExpr::bin(
            BinOp::Lt,
            CalcExpr::proj(CalcExpr::var("l"), "k"),
            CalcExpr::proj(CalcExpr::var("r"), "k"),
        );
        let prog = Program::compile(&e, &scope, &ctx).unwrap();
        let l = vec![("l".to_string(), Value::record([("k", Value::Int(1))]))];
        let r = vec![("r".to_string(), Value::record([("k", Value::Int(2))]))];
        let mut scratch = Vec::new();
        let got = prog
            .eval_pair(&slots(&l), &slots(&r), &ctx, &mut scratch)
            .unwrap();
        let mut env = l.clone();
        env.extend(r.iter().cloned());
        assert_eq!(got, eval(&e, &env, &ctx).unwrap());
    }

    #[test]
    fn layout_mismatch_is_detected() {
        let ctx = EvalCtx::new();
        let prog = Program::compile(&CalcExpr::var("x"), &scope(), &ctx).unwrap();
        assert!(prog.eval(&[Value::Int(1)], &ctx).is_err());
    }

    #[test]
    fn projection_hint_self_tunes() {
        let ctx = EvalCtx::new();
        let e = CalcExpr::proj(CalcExpr::var("row"), "b");
        let prog = Program::compile(&e, &scope(), &ctx).unwrap();
        // Two different field orders: the hint adapts and stays correct.
        let env1 = env();
        let env2 = vec![
            ("x".to_string(), Value::Int(7)),
            (
                "row".to_string(),
                Value::record([("b", Value::str("first")), ("a", Value::Int(1))]),
            ),
        ];
        assert_eq!(prog.eval(&slots(&env1), &ctx).unwrap(), Value::str("hi"));
        assert_eq!(prog.eval(&slots(&env2), &ctx).unwrap(), Value::str("first"));
        assert_eq!(prog.eval(&slots(&env1), &ctx).unwrap(), Value::str("hi"));
    }
}
