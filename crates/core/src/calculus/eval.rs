//! Reference evaluator for the calculus.
//!
//! Single-node, straightforward semantics. It *defines* the meaning of a
//! comprehension, and it is the oracle of the property tests: that
//! normalization preserves it, and that compiled programs
//! ([`super::compile`]) — which the physical executor runs for every
//! expression — compute it. The builtins, the monoid unit / merge /
//! finish and the binary operators here are shared by both.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cleanm_cluster::Blocker;
use cleanm_values::{Error, Result, StrView, Value};

use super::expr::make_blocker;
use super::expr::{BinOp, CalcExpr, Comprehension, FilterAlgo, Func, MonoidKind, Qual};

/// Evaluation context: the table catalog, pre-built blockers, and a
/// comparison counter (similarity calls are the unit of §8's cost model).
pub struct EvalCtx {
    tables: HashMap<String, Value>,
    blockers: HashMap<String, Arc<dyn Blocker>>,
    comparisons: AtomicU64,
}

impl Default for EvalCtx {
    fn default() -> Self {
        EvalCtx::new()
    }
}

impl EvalCtx {
    pub fn new() -> Self {
        EvalCtx {
            tables: HashMap::new(),
            blockers: HashMap::new(),
            comparisons: AtomicU64::new(0),
        }
    }

    /// Register a named collection (a list of rows-as-structs).
    pub fn with_table(mut self, name: &str, rows: Value) -> Self {
        self.tables.insert(name.to_string(), rows);
        self
    }

    /// Pre-build the blockers an expression needs. K-means blockers sample
    /// their centers from `corpus`.
    pub fn prepare_blockers(&mut self, expr: &CalcExpr, corpus: &[String]) {
        let mut algos = Vec::new();
        collect_filter_algos(expr, &mut algos);
        for algo in algos {
            let key = algo.to_string();
            self.blockers
                .entry(key)
                .or_insert_with(|| make_blocker(&algo, corpus));
        }
    }

    pub fn comparisons(&self) -> u64 {
        self.comparisons.load(Ordering::Relaxed)
    }

    /// Count similarity tests made outside `Func::Similar` — the pair
    /// sweep adds a whole partition's worth at once.
    pub(crate) fn add_comparisons(&self, n: u64) {
        self.comparisons.fetch_add(n, Ordering::Relaxed);
    }

    fn blocker(&self, algo: &FilterAlgo) -> Result<&Arc<dyn Blocker>> {
        self.blockers.get(&algo.to_string()).ok_or_else(|| {
            Error::Invalid(format!(
                "blocker {algo} not prepared; call prepare_blockers first"
            ))
        })
    }

    /// An already-prepared blocker, if any — the compiler pre-binds these so
    /// compiled programs skip the string-keyed map lookup per call.
    pub(crate) fn prepared_blocker(&self, algo: &FilterAlgo) -> Option<Arc<dyn Blocker>> {
        self.blockers.get(&algo.to_string()).cloned()
    }

    /// A registered table, if any — the compiler pre-binds table references.
    pub(crate) fn table(&self, name: &str) -> Option<&Value> {
        self.tables.get(name)
    }
}

fn collect_filter_algos(expr: &CalcExpr, out: &mut Vec<FilterAlgo>) {
    match expr {
        CalcExpr::Call(Func::BlockKeys(algo), args) => {
            out.push(algo.clone());
            for a in args {
                collect_filter_algos(a, out);
            }
        }
        CalcExpr::Const(_) | CalcExpr::Var(_) | CalcExpr::TableRef(_) => {}
        CalcExpr::Record(fields) => {
            for (_, e) in fields {
                collect_filter_algos(e, out);
            }
        }
        CalcExpr::Proj(e, _) | CalcExpr::Not(e) | CalcExpr::Exists(e) => {
            collect_filter_algos(e, out)
        }
        CalcExpr::BinOp(_, l, r) | CalcExpr::Merge(_, l, r) => {
            collect_filter_algos(l, out);
            collect_filter_algos(r, out);
        }
        CalcExpr::If(c, t, e) => {
            collect_filter_algos(c, out);
            collect_filter_algos(t, out);
            collect_filter_algos(e, out);
        }
        CalcExpr::Call(_, args) => {
            for a in args {
                collect_filter_algos(a, out);
            }
        }
        CalcExpr::Comp(c) => {
            collect_filter_algos(&c.head, out);
            for q in &c.quals {
                match q {
                    Qual::Gen(_, e) | Qual::Bind(_, e) | Qual::Pred(e) => {
                        collect_filter_algos(e, out)
                    }
                }
            }
        }
    }
}

/// Variable environment — a small association list (comprehension depth is
/// shallow, so linear scan beats hashing).
pub type Env = Vec<(String, Value)>;

fn lookup<'a>(env: &'a Env, name: &str) -> Result<&'a Value> {
    env.iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::Invalid(format!("unbound variable `{name}`")))
}

/// Evaluate the borrowable fragment of an expression — `Const`, `Var`, and
/// `Proj` chains over them — without cloning: the result stays a reference
/// into the environment (or the expression tree) and is cloned only where a
/// caller actually needs ownership. Everything else falls through to
/// [`eval`].
fn eval_ref<'a>(expr: &'a CalcExpr, env: &'a Env, ctx: &EvalCtx) -> Result<Cow<'a, Value>> {
    match expr {
        CalcExpr::Const(v) => Ok(Cow::Borrowed(v)),
        CalcExpr::Var(n) => lookup(env, n).map(Cow::Borrowed),
        CalcExpr::Proj(e, field) => {
            let base = eval_ref(e, env, ctx)?;
            if base.is_null() {
                return Ok(Cow::Owned(Value::Null));
            }
            match base {
                Cow::Borrowed(b) => b.field(field).map(Cow::Borrowed),
                Cow::Owned(o) => o.field(field).cloned().map(Cow::Owned),
            }
        }
        other => eval(other, env, ctx).map(Cow::Owned),
    }
}

/// Evaluate an expression under an environment.
pub fn eval(expr: &CalcExpr, env: &Env, ctx: &EvalCtx) -> Result<Value> {
    match expr {
        CalcExpr::Const(v) => Ok(v.clone()),
        CalcExpr::Var(n) => lookup(env, n).cloned(),
        CalcExpr::TableRef(t) => ctx
            .tables
            .get(t)
            .cloned()
            .ok_or_else(|| Error::Invalid(format!("unknown table `{t}`"))),
        CalcExpr::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (n, e) in fields {
                out.push((n.as_str(), eval(e, env, ctx)?));
            }
            Ok(Value::record(out))
        }
        CalcExpr::Proj(..) => eval_ref(expr, env, ctx).map(Cow::into_owned),
        CalcExpr::BinOp(op, l, r) => {
            let lv = eval_ref(l, env, ctx)?;
            // Short-circuit logic.
            match op {
                BinOp::And => {
                    if !truthy(&lv) {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(truthy(&*eval_ref(r, env, ctx)?)));
                }
                BinOp::Or => {
                    if truthy(&lv) {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(truthy(&*eval_ref(r, env, ctx)?)));
                }
                _ => {}
            }
            let rv = eval_ref(r, env, ctx)?;
            eval_binop(*op, &lv, &rv)
        }
        CalcExpr::Not(e) => Ok(Value::Bool(!truthy(&*eval_ref(e, env, ctx)?))),
        CalcExpr::If(c, t, e) => {
            if truthy(&*eval_ref(c, env, ctx)?) {
                eval(t, env, ctx)
            } else {
                eval(e, env, ctx)
            }
        }
        CalcExpr::Call(f, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env, ctx)?);
            }
            eval_func(f, &vals, ctx)
        }
        CalcExpr::Exists(e) => {
            let v = eval_ref(e, env, ctx)?;
            Ok(Value::Bool(!v.as_list()?.is_empty()))
        }
        CalcExpr::Comp(c) => eval_comp(c, env, ctx),
        CalcExpr::Merge(m, l, r) => {
            let lv = eval(l, env, ctx)?;
            let rv = eval(r, env, ctx)?;
            // Idempotent collection monoids need their finalization (Set
            // dedup, Filter group ordering) re-applied after an explicit
            // merge — if-splitting introduces these nodes.
            finalize(m, merge_values(m, lv, rv)?)
        }
    }
}

/// Truthiness: `Bool(true)` only — Null and everything else are false,
/// matching SQL's treatment of NULL in WHERE.
pub fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

fn numeric_pair(l: &Value, r: &Value) -> Option<(f64, f64)> {
    let lf = match l {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => return None,
    };
    let rf = match r {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => return None,
    };
    Some((lf, rf))
}

#[inline]
fn float_cmp(op: BinOp, a: f64, b: f64) -> bool {
    use BinOp::*;
    match op {
        Eq => a == b,
        Ne => a != b,
        Lt => a < b,
        Le => a <= b,
        Gt => a > b,
        Ge => a >= b,
        _ => unreachable!("comparison op"),
    }
}

#[inline]
pub(crate) fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    // Fast paths for the dominant scalar comparisons; NaNs fall through to
    // the canonicalizing total order below.
    match (l, r) {
        (Value::Int(a), Value::Int(b)) if op.is_comparison() => {
            return Ok(Value::Bool(match op {
                Eq => a == b,
                Ne => a != b,
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                _ => unreachable!(),
            }));
        }
        (Value::Float(a), Value::Float(b)) if op.is_comparison() && !a.is_nan() && !b.is_nan() => {
            return Ok(Value::Bool(float_cmp(op, *a, *b)));
        }
        // Mixed numeric comparisons widen exactly like the canonical
        // cross-type ordering (`i as f64`).
        (Value::Int(a), Value::Float(b)) if op.is_comparison() && !b.is_nan() => {
            return Ok(Value::Bool(float_cmp(op, *a as f64, *b)));
        }
        (Value::Float(a), Value::Int(b)) if op.is_comparison() && !a.is_nan() => {
            return Ok(Value::Bool(float_cmp(op, *a, *b as f64)));
        }
        _ => {}
    }
    if matches!(op, Add | Sub | Mul | Div) {
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        // Integer arithmetic when both are ints (except Div).
        if let (Value::Int(a), Value::Int(b)) = (l, r) {
            return Ok(match op {
                Add => Value::Int(a.wrapping_add(*b)),
                Sub => Value::Int(a.wrapping_sub(*b)),
                Mul => Value::Int(a.wrapping_mul(*b)),
                Div => {
                    if *b == 0 {
                        Value::Null
                    } else {
                        Value::Float(*a as f64 / *b as f64)
                    }
                }
                _ => unreachable!(),
            });
        }
        // String concatenation via Add.
        if let (Value::Str(a), Value::Str(b)) = (l, r) {
            if op == Add {
                return Ok(Value::str(format!("{a}{b}")));
            }
        }
        let (a, b) = numeric_pair(l, r).ok_or(Error::TypeMismatch {
            expected: "number",
            found: l.type_name(),
        })?;
        return Ok(match op {
            Add => Value::Float(a + b),
            Sub => Value::Float(a - b),
            Mul => Value::Float(a * b),
            Div => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Float(a / b)
                }
            }
            _ => unreachable!(),
        });
    }
    // Comparisons: NULL compares false except Eq/Ne on two NULLs.
    if l.is_null() || r.is_null() {
        return Ok(match op {
            Eq => Value::Bool(l.is_null() && r.is_null()),
            Ne => Value::Bool(l.is_null() != r.is_null()),
            _ => Value::Bool(false),
        });
    }
    let ord = l.cmp(r);
    Ok(Value::Bool(match op {
        Eq => ord == std::cmp::Ordering::Equal,
        Ne => ord != std::cmp::Ordering::Equal,
        Lt => ord == std::cmp::Ordering::Less,
        Le => ord != std::cmp::Ordering::Greater,
        Gt => ord == std::cmp::Ordering::Greater,
        Ge => ord != std::cmp::Ordering::Less,
        And | Or | Add | Sub | Mul | Div => unreachable!("handled above"),
    }))
}

/// The textual content of a value without allocating for the common
/// `Value::Str` case.
pub(crate) fn text_of(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Str(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.to_text()),
    }
}

/// End byte offset of the `prefix()` builtin's slice: the text before the
/// first `-`, or the first three characters.
pub(crate) fn prefix_end(s: &str) -> usize {
    match s.find('-') {
        Some(i) => i,
        None => s.char_indices().nth(3).map(|(i, _)| i).unwrap_or(s.len()),
    }
}

/// Is `s` its own lowercase? ASCII fast path, exact Unicode fallback (a
/// titlecase letter like `ǅ` is not `is_uppercase` yet still folds).
pub(crate) fn lowercase_is_identity(s: &str) -> bool {
    if s.is_ascii() {
        !s.bytes().any(|b| b.is_ascii_uppercase())
    } else {
        s.chars().all(|c| {
            let mut lower = c.to_lowercase();
            lower.next() == Some(c) && lower.next().is_none()
        })
    }
}

/// Is `s` its own uppercase?
pub(crate) fn uppercase_is_identity(s: &str) -> bool {
    if s.is_ascii() {
        !s.bytes().any(|b| b.is_ascii_lowercase())
    } else {
        s.chars().all(|c| {
            let mut upper = c.to_uppercase();
            upper.next() == Some(c) && upper.next().is_none()
        })
    }
}

pub(crate) fn eval_func(f: &Func, args: &[Value], ctx: &EvalCtx) -> Result<Value> {
    let arg = |i: usize| -> Result<&Value> {
        args.get(i)
            .ok_or_else(|| Error::Invalid(format!("{f:?}: missing argument {i}")))
    };
    match f {
        Func::Prefix => {
            let v = arg(0)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            // Zero-copy: slice the shared source in place; a prefix that
            // covers the whole string materializes as a refcount bump.
            match v {
                Value::Str(s) => Ok(StrView::slice(s, 0, prefix_end(s)).into_value()),
                other => {
                    let s = other.to_text();
                    let end = prefix_end(&s);
                    Ok(Value::str(&s[..end]))
                }
            }
        }
        // Case folding propagates NULL like the other string builtins and
        // only allocates when it changes bytes: an already-folded shared
        // string is returned by refcount bump.
        Func::Lower => match arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) if lowercase_is_identity(s) => Ok(Value::Str(Arc::clone(s))),
            other => Ok(Value::str(text_of(other).to_lowercase())),
        },
        Func::Upper => match arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) if uppercase_is_identity(s) => Ok(Value::Str(Arc::clone(s))),
            other => Ok(Value::str(text_of(other).to_uppercase())),
        },
        Func::Trim => {
            let v = arg(0)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            match v {
                Value::Str(s) => {
                    // An offset view over the shared source: already-trimmed
                    // strings (the whole source) materialize without copying.
                    let trimmed = s.trim();
                    let start = trimmed.as_ptr() as usize - s.as_ptr() as usize;
                    Ok(StrView::slice(s, start, start + trimmed.len()).into_value())
                }
                other => Ok(Value::str(other.to_text().trim())),
            }
        }
        Func::Length => match arg(0)? {
            Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
            Value::List(items) => Ok(Value::Int(items.len() as i64)),
            Value::Null => Ok(Value::Null),
            other => Err(Error::TypeMismatch {
                expected: "string or list",
                found: other.type_name(),
            }),
        },
        Func::Count => Ok(Value::Int(arg(0)?.as_list()?.len() as i64)),
        Func::CountDistinct => {
            let items = arg(0)?.as_list()?;
            let mut distinct: Vec<&Value> = Vec::new();
            for v in items {
                if !distinct.contains(&v) {
                    distinct.push(v);
                }
            }
            Ok(Value::Int(distinct.len() as i64))
        }
        Func::Avg => {
            let items = arg(0)?.as_list()?;
            let mut sum = 0.0;
            let mut n = 0usize;
            for v in items {
                if !v.is_null() {
                    sum += v.as_float()?;
                    n += 1;
                }
            }
            if n == 0 {
                Ok(Value::Null)
            } else {
                Ok(Value::Float(sum / n as f64))
            }
        }
        Func::Similar(metric, theta) => {
            ctx.comparisons.fetch_add(1, Ordering::Relaxed);
            let a = text_of(arg(0)?);
            let b = text_of(arg(1)?);
            Ok(Value::Bool(metric.similar(&a, &b, *theta)))
        }
        Func::Similarity(metric) => {
            ctx.comparisons.fetch_add(1, Ordering::Relaxed);
            let a = text_of(arg(0)?);
            let b = text_of(arg(1)?);
            Ok(Value::Float(metric.similarity(&a, &b)))
        }
        Func::BlockKeys(algo) => {
            let term = text_of(arg(0)?);
            let blocker = ctx.blocker(algo)?;
            Ok(Value::list(
                blocker.keys(&term).into_iter().map(Value::from),
            ))
        }
        Func::Split(sep) => {
            let v = arg(0)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            // No separator present → the single token *is* the input:
            // share it instead of copying it.
            if let Value::Str(s) = v {
                if !s.contains(sep.as_str()) {
                    return Ok(Value::list([Value::Str(Arc::clone(s))]));
                }
            }
            let s = text_of(v);
            Ok(Value::list(s.split(sep.as_str()).map(Value::from)))
        }
        Func::Concat => {
            // Concatenating one string is the identity: share it.
            if let [Value::Str(s)] = args {
                return Ok(Value::Str(Arc::clone(s)));
            }
            let mut out = String::new();
            for v in args {
                match v {
                    Value::Str(s) => out.push_str(s),
                    other => out.push_str(&other.to_text()),
                }
            }
            Ok(Value::str(out))
        }
        Func::IsNull => Ok(Value::Bool(arg(0)?.is_null())),
        Func::Coalesce => {
            let v = arg(0)?;
            if v.is_null() {
                Ok(arg(1)?.clone())
            } else {
                Ok(v.clone())
            }
        }
        Func::Distinct => {
            let items = arg(0)?.as_list()?;
            let mut out: Vec<Value> = Vec::new();
            for v in items {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Ok(Value::list(out))
        }
    }
}

/// Evaluate a comprehension: fold the qualifier bindings, merging each head
/// instantiation into the monoid's accumulator.
fn eval_comp(c: &Comprehension, env: &Env, ctx: &EvalCtx) -> Result<Value> {
    let mut acc = c.monoid.zero();
    let mut env = env.clone();
    eval_quals(&c.quals, 0, &mut env, ctx, &mut |env, ctx| {
        let head = eval(&c.head, env, ctx)?;
        let unit = monoid_unit(&c.monoid, head)?;
        acc = merge_values(&c.monoid, std::mem::take(&mut acc), unit)?;
        Ok(())
    })?;
    finalize(&c.monoid, acc)
}

fn eval_quals(
    quals: &[Qual],
    i: usize,
    env: &mut Env,
    ctx: &EvalCtx,
    emit: &mut dyn FnMut(&Env, &EvalCtx) -> Result<()>,
) -> Result<()> {
    if i == quals.len() {
        return emit(env, ctx);
    }
    match &quals[i] {
        Qual::Gen(v, e) => {
            let coll = eval_ref(e, env, ctx)?;
            let items = match coll.as_ref() {
                Value::Null => return Ok(()), // generating over NULL yields nothing
                other => other.as_list()?.to_vec(),
            };
            for item in items {
                env.push((v.clone(), item));
                eval_quals(quals, i + 1, env, ctx, emit)?;
                env.pop();
            }
            Ok(())
        }
        Qual::Pred(e) => {
            if truthy(&*eval_ref(e, env, ctx)?) {
                eval_quals(quals, i + 1, env, ctx, emit)
            } else {
                Ok(())
            }
        }
        Qual::Bind(v, e) => {
            let val = eval(e, env, ctx)?;
            env.push((v.clone(), val));
            eval_quals(quals, i + 1, env, ctx, emit)?;
            env.pop();
            Ok(())
        }
    }
}

/// U⊕: lift one head value into the monoid.
pub(crate) fn monoid_unit(m: &MonoidKind, head: Value) -> Result<Value> {
    match m {
        MonoidKind::Bag | MonoidKind::Set | MonoidKind::List => Ok(Value::list([head])),
        MonoidKind::Filter(_) => {
            // Head must be {key(s), item}: normalize to a one-group map.
            let keys = head.field("key")?.clone();
            let item = head.field("item")?.clone();
            let keys = match keys {
                Value::List(ks) => ks.to_vec(),
                scalar => vec![scalar],
            };
            Ok(Value::list(keys.into_iter().map(|k| {
                Value::record([("key", k), ("partition", Value::list([item.clone()]))])
            })))
        }
        _ => Ok(head),
    }
}

/// ⊕: merge two accumulated monoid values.
pub fn merge_values(m: &MonoidKind, l: Value, r: Value) -> Result<Value> {
    match m {
        MonoidKind::Sum => eval_binop(BinOp::Add, &l, &r).map(|v| {
            if v.is_null() {
                // Null is not Sum's identity; treat as 0 contribution.
                if l.is_null() {
                    r
                } else {
                    l
                }
            } else {
                v
            }
        }),
        MonoidKind::Prod => {
            if l.is_null() {
                Ok(r)
            } else if r.is_null() {
                Ok(l)
            } else {
                eval_binop(BinOp::Mul, &l, &r)
            }
        }
        MonoidKind::Min => Ok(match (&l, &r) {
            (Value::Null, _) => r,
            (_, Value::Null) => l,
            _ => {
                if l <= r {
                    l
                } else {
                    r
                }
            }
        }),
        MonoidKind::Max => Ok(match (&l, &r) {
            (Value::Null, _) => r,
            (_, Value::Null) => l,
            _ => {
                if l >= r {
                    l
                } else {
                    r
                }
            }
        }),
        MonoidKind::Any => Ok(Value::Bool(truthy(&l) || truthy(&r))),
        MonoidKind::All => Ok(Value::Bool(truthy(&l) && truthy(&r))),
        MonoidKind::Bag | MonoidKind::Set | MonoidKind::List => {
            let mut out = l.as_list()?.to_vec();
            out.extend(r.as_list()?.iter().cloned());
            Ok(Value::list(out))
        }
        MonoidKind::Filter(_) => {
            // Merge group maps: same key → concatenated partitions.
            let mut groups: Vec<(Value, Vec<Value>)> = Vec::new();
            for side in [l, r] {
                for g in side.as_list()? {
                    let key = g.field("key")?.clone();
                    let members = g.field("partition")?.as_list()?.to_vec();
                    match groups.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, existing)) => existing.extend(members),
                        None => groups.push((key, members)),
                    }
                }
            }
            Ok(Value::list(groups.into_iter().map(|(k, members)| {
                Value::record([("key", k), ("partition", Value::list(members))])
            })))
        }
    }
}

/// Final adjustment: Set dedups (and sorts, for determinism); Filter sorts
/// groups by key.
pub(crate) fn finalize(m: &MonoidKind, acc: Value) -> Result<Value> {
    match m {
        MonoidKind::Set => {
            let mut items = acc.as_list()?.to_vec();
            items.sort();
            items.dedup();
            Ok(Value::list(items))
        }
        MonoidKind::Filter(_) => {
            let mut groups = acc.as_list()?.to_vec();
            groups.sort_by(|a, b| {
                a.field("key")
                    .unwrap_or(&Value::Null)
                    .cmp(b.field("key").unwrap_or(&Value::Null))
            });
            Ok(Value::list(groups))
        }
        _ => Ok(acc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculus::expr::{BinOp, CalcExpr, MonoidKind};

    fn nums(ns: &[i64]) -> Value {
        Value::list(ns.iter().map(|&n| Value::Int(n)))
    }

    #[test]
    fn paper_example_sum() {
        // +{ x | x <- [1,2,10], x < 5 } = 3
        let ctx = EvalCtx::new().with_table("t", nums(&[1, 2, 10]));
        let e = CalcExpr::comp(
            MonoidKind::Sum,
            CalcExpr::var("x"),
            vec![
                Qual::Gen("x".into(), CalcExpr::TableRef("t".into())),
                Qual::Pred(CalcExpr::bin(
                    BinOp::Lt,
                    CalcExpr::var("x"),
                    CalcExpr::int(5),
                )),
            ],
        );
        assert_eq!(eval(&e, &vec![], &ctx).unwrap(), Value::Int(3));
    }

    #[test]
    fn paper_example_cross_product() {
        // set{ (x,y) | x <- {1,2}, y <- {3,4} } has 4 elements
        let ctx = EvalCtx::new()
            .with_table("a", nums(&[1, 2]))
            .with_table("b", nums(&[3, 4]));
        let e = CalcExpr::comp(
            MonoidKind::Set,
            CalcExpr::record(vec![("x", CalcExpr::var("x")), ("y", CalcExpr::var("y"))]),
            vec![
                Qual::Gen("x".into(), CalcExpr::TableRef("a".into())),
                Qual::Gen("y".into(), CalcExpr::TableRef("b".into())),
            ],
        );
        let v = eval(&e, &vec![], &ctx).unwrap();
        assert_eq!(v.as_list().unwrap().len(), 4);
    }

    #[test]
    fn min_max_over_empty_is_null() {
        let ctx = EvalCtx::new().with_table("t", nums(&[]));
        for m in [MonoidKind::Min, MonoidKind::Max] {
            let e = CalcExpr::comp(
                m,
                CalcExpr::var("x"),
                vec![Qual::Gen("x".into(), CalcExpr::TableRef("t".into()))],
            );
            assert_eq!(eval(&e, &vec![], &ctx).unwrap(), Value::Null);
        }
    }

    #[test]
    fn set_dedups() {
        let ctx = EvalCtx::new().with_table("t", nums(&[3, 1, 3, 2, 1]));
        let e = CalcExpr::comp(
            MonoidKind::Set,
            CalcExpr::var("x"),
            vec![Qual::Gen("x".into(), CalcExpr::TableRef("t".into()))],
        );
        assert_eq!(eval(&e, &vec![], &ctx).unwrap(), nums(&[1, 2, 3]));
    }

    #[test]
    fn bind_and_nested_generator() {
        // bag{ y | x <- [1,2], y := x*10 }
        let ctx = EvalCtx::new().with_table("t", nums(&[1, 2]));
        let e = CalcExpr::comp(
            MonoidKind::Bag,
            CalcExpr::var("y"),
            vec![
                Qual::Gen("x".into(), CalcExpr::TableRef("t".into())),
                Qual::Bind(
                    "y".into(),
                    CalcExpr::bin(BinOp::Mul, CalcExpr::var("x"), CalcExpr::int(10)),
                ),
            ],
        );
        assert_eq!(eval(&e, &vec![], &ctx).unwrap(), nums(&[10, 20]));
    }

    #[test]
    fn filter_monoid_groups() {
        // filter{ {key: x mod-ish, item: x} | x <- [1,2,3,4] } via key = x <= 2
        let ctx = EvalCtx::new().with_table("t", nums(&[1, 2, 3, 4]));
        let e = CalcExpr::comp(
            MonoidKind::Filter(FilterAlgo::Exact),
            CalcExpr::record(vec![
                (
                    "key",
                    CalcExpr::bin(BinOp::Le, CalcExpr::var("x"), CalcExpr::int(2)),
                ),
                ("item", CalcExpr::var("x")),
            ]),
            vec![Qual::Gen("x".into(), CalcExpr::TableRef("t".into()))],
        );
        let v = eval(&e, &vec![], &ctx).unwrap();
        let groups = v.as_list().unwrap();
        assert_eq!(groups.len(), 2);
        // Sorted by key: false group first.
        assert_eq!(groups[0].field("key").unwrap(), &Value::Bool(false));
        assert_eq!(groups[0].field("partition").unwrap(), &nums(&[3, 4]));
        assert_eq!(groups[1].field("partition").unwrap(), &nums(&[1, 2]));
    }

    #[test]
    fn multi_key_filter_expands() {
        // An item with a list key lands in several groups (token filtering).
        let ctx = EvalCtx::new().with_table("t", Value::list([Value::str("ab")]));
        let mut ctx = ctx;
        let head = CalcExpr::record(vec![
            (
                "key",
                CalcExpr::call(
                    Func::BlockKeys(FilterAlgo::TokenFilter { q: 1 }),
                    vec![CalcExpr::var("x")],
                ),
            ),
            ("item", CalcExpr::var("x")),
        ]);
        let e = CalcExpr::comp(
            MonoidKind::Filter(FilterAlgo::TokenFilter { q: 1 }),
            head,
            vec![Qual::Gen("x".into(), CalcExpr::TableRef("t".into()))],
        );
        ctx.prepare_blockers(&e, &[]);
        let v = eval(&e, &vec![], &ctx).unwrap();
        assert_eq!(v.as_list().unwrap().len(), 2, "two 1-grams: a, b");
    }

    #[test]
    fn builtin_functions() {
        let ctx = EvalCtx::new();
        let env = vec![];
        let call = |f: Func, args: Vec<CalcExpr>| eval(&CalcExpr::call(f, args), &env, &ctx);

        assert_eq!(
            call(Func::Prefix, vec![CalcExpr::str("123-456")]).unwrap(),
            Value::str("123")
        );
        assert_eq!(
            call(Func::Prefix, vec![CalcExpr::str("abcdef")]).unwrap(),
            Value::str("abc")
        );
        assert_eq!(
            call(Func::Lower, vec![CalcExpr::str("AbC")]).unwrap(),
            Value::str("abc")
        );
        assert_eq!(
            call(Func::Length, vec![CalcExpr::str("héllo")]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            call(Func::CountDistinct, vec![CalcExpr::Const(nums(&[1, 1, 2]))]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            call(Func::Avg, vec![CalcExpr::Const(nums(&[1, 2, 3]))]).unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(
            call(Func::Split("-".into()), vec![CalcExpr::str("a-b-c")]).unwrap(),
            Value::list([Value::str("a"), Value::str("b"), Value::str("c")])
        );
        assert_eq!(
            call(
                Func::Coalesce,
                vec![CalcExpr::Const(Value::Null), CalcExpr::int(7)]
            )
            .unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn similarity_counts_comparisons() {
        let ctx = EvalCtx::new();
        let e = CalcExpr::call(
            Func::Similar(cleanm_text::Metric::Levenshtein, 0.8),
            vec![CalcExpr::str("smith"), CalcExpr::str("smyth")],
        );
        assert_eq!(eval(&e, &vec![], &ctx).unwrap(), Value::Bool(true));
        assert_eq!(ctx.comparisons(), 1);
    }

    #[test]
    fn null_semantics() {
        let ctx = EvalCtx::new();
        let env = vec![("n".to_string(), Value::Null)];
        // NULL arithmetic propagates.
        let v = eval(
            &CalcExpr::bin(BinOp::Add, CalcExpr::var("n"), CalcExpr::int(1)),
            &env,
            &ctx,
        )
        .unwrap();
        assert!(v.is_null());
        // NULL comparison is false.
        let v = eval(
            &CalcExpr::bin(BinOp::Lt, CalcExpr::var("n"), CalcExpr::int(1)),
            &env,
            &ctx,
        )
        .unwrap();
        assert_eq!(v, Value::Bool(false));
        // Projection through NULL is NULL.
        let v = eval(&CalcExpr::proj(CalcExpr::var("n"), "f"), &env, &ctx).unwrap();
        assert!(v.is_null());
    }

    #[test]
    fn exists_and_division() {
        let ctx = EvalCtx::new().with_table("t", nums(&[1]));
        let e = CalcExpr::Exists(Box::new(CalcExpr::TableRef("t".into())));
        assert_eq!(eval(&e, &vec![], &ctx).unwrap(), Value::Bool(true));
        let e = CalcExpr::bin(BinOp::Div, CalcExpr::int(1), CalcExpr::int(0));
        assert!(eval(&e, &vec![], &ctx).unwrap().is_null());
    }
}
