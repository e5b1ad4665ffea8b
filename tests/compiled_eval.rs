//! Differential property tests: the compiled register machine must agree
//! with the reference tree-walking evaluator on randomized expressions,
//! environments, and row schemas — including NaN ordering, `Null`
//! propagation, type errors, shuffled struct field orders (which exercise
//! the self-tuning projection hints), and comprehensions: every monoid,
//! `Bind` and predicate qualifiers, generators over NULL and over
//! non-lists, comprehensions nested inside comprehensions and inside
//! `count_distinct` / `avg`, and explicit monoid merges.

use cleanm::core::calculus::compile::Program;
use cleanm::core::calculus::{eval, BinOp, CalcExpr, EvalCtx, FilterAlgo, Func, MonoidKind, Qual};
use cleanm::values::Value;
use proptest::prelude::*;

type Env = Vec<(String, Value)>;

/// The row as compiled programs see it: slot values only, in scope order
/// (the names are the reference interpreter's input).
fn slots(env: &[(String, Value)]) -> Vec<Value> {
    env.iter().map(|(_, v)| v.clone()).collect()
}

const SCOPE: [&str; 4] = ["x", "y", "s", "row"];
const FIELDS: [&str; 3] = ["a", "b", "c"];

/// Random scalar values: integers, floats (including NaN, ±0.0, and
/// infinities), strings, booleans, and NULL.
fn scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::Int),
        (-4.0f64..4.0).prop_map(Value::Float),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::str("anna")),
        Just(Value::str("bob-1")),
        Just(Value::str("")),
        Just(Value::Bool(true)),
        Just(Value::Bool(false)),
        Just(Value::Null),
    ]
    .boxed()
}

/// A row struct over a random permutation/subset of the field pool — field
/// order varies between cases, so projection hints must re-tune.
fn row() -> BoxedStrategy<Value> {
    (scalar(), scalar(), scalar(), 0usize..6)
        .prop_map(|(a, b, c, order)| {
            let mut fields = vec![("a", a), ("b", b), ("c", c)];
            fields.rotate_left(order % 3);
            if order >= 3 {
                fields.pop(); // sometimes a narrower schema: missing-field errors
            }
            Value::record(fields)
        })
        .boxed()
}

fn env() -> BoxedStrategy<Env> {
    (scalar(), scalar(), scalar(), row())
        .prop_map(|(x, y, s, row)| {
            vec![
                ("x".to_string(), x),
                ("y".to_string(), y),
                ("s".to_string(), s),
                ("row".to_string(), row),
            ]
        })
        .boxed()
}

/// Every monoid a comprehension or a merge reduces with.
fn monoid(i: usize) -> MonoidKind {
    use MonoidKind::*;
    [
        Sum,
        Prod,
        Min,
        Max,
        Any,
        All,
        Bag,
        Set,
        List,
        Filter(FilterAlgo::Exact),
    ][i % 10]
        .clone()
}

const BAG: usize = 6;

fn ints(ns: &[i64]) -> CalcExpr {
    CalcExpr::Const(Value::list(ns.iter().map(|&n| Value::Int(n))))
}

/// The random parts of one comprehension, before its monoid picks the head:
/// the generator's source, two operand expressions, which extra qualifiers
/// follow the generator, whether the generated variable shadows the
/// scope's `x`, and which head shape to use.
type CompParts = (CalcExpr, CalcExpr, CalcExpr, usize, bool, bool);

fn comp_parts(inner: BoxedStrategy<CalcExpr>) -> BoxedStrategy<CompParts> {
    // Unsorted, with a duplicate: every collection monoid's finish shows.
    let unsorted = || Just(ints(&[1, 2, 3, 2]));
    let source = prop_oneof![
        unsorted(),
        unsorted(),
        unsorted(),
        proptest::collection::vec(scalar(), 0..4).prop_map(|xs| CalcExpr::Const(Value::list(xs))),
        // NULL generates nothing; a scalar is a typed error (or NULL).
        Just(CalcExpr::Const(Value::Null)),
        Just(CalcExpr::int(5)),
        inner.clone(),
        inner
            .clone()
            .prop_map(|e| CalcExpr::call(Func::Split("-".into()), vec![e])),
        // Two deep: generate over another comprehension's bag.
        inner.clone().prop_map(|e| CalcExpr::comp(
            MonoidKind::Bag,
            CalcExpr::bin(BinOp::Add, CalcExpr::var("t"), e),
            vec![Qual::Gen("t".into(), ints(&[1, 2, 2]))],
        )),
    ];
    // Operands are well-typed half the time, so heads and qualifiers
    // mostly run rather than raise a type error.
    let operand = || prop_oneof![inner.clone(), (0i64..4).prop_map(CalcExpr::int)];
    (
        source,
        operand(),
        operand(),
        0usize..4,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .boxed()
}

/// `⊕{ head | v ← source [, w := v * a] [, v < a] }` under `monoid(m)`:
/// the head reads the last bound variable and `b`, in the shape the monoid
/// needs (`{key, item}` for `Filter`).
fn build_comp(m: usize, (source, a, b, extra, shadow, simple): CompParts) -> CalcExpr {
    let v = if shadow { "x" } else { "v" }; // the innermost binding wins
    let mut quals = vec![Qual::Gen(v.into(), source)];
    let mut bound = v;
    if extra % 2 == 1 {
        let w = CalcExpr::bin(BinOp::Mul, CalcExpr::var(v), a.clone());
        quals.push(Qual::Bind("w".into(), w));
        bound = "w";
    }
    if extra >= 2 {
        quals.push(Qual::Pred(CalcExpr::bin(BinOp::Lt, CalcExpr::var(v), a)));
    }
    let var = CalcExpr::var(bound);
    let head = match monoid(m) {
        MonoidKind::Any | MonoidKind::All => CalcExpr::bin(BinOp::Le, var, b),
        MonoidKind::Filter(_) => CalcExpr::record(vec![("key", b), ("item", var)]),
        _ if simple => var,
        MonoidKind::Bag | MonoidKind::Set | MonoidKind::List => {
            CalcExpr::record(vec![("p", var), ("q", b)])
        }
        _ => CalcExpr::bin(BinOp::Add, var, b),
    };
    CalcExpr::comp(monoid(m), head, quals)
}

/// A comprehension under any monoid over `inner` operands, a bag
/// comprehension counted distinct or averaged (the aggregates of grouped
/// queries), or a merge — of two comprehensions under their monoid, or of
/// any two operands, whose types need not fit it.
fn comprehension(inner: BoxedStrategy<CalcExpr>) -> BoxedStrategy<CalcExpr> {
    prop_oneof![
        (0usize..10, comp_parts(inner.clone())).prop_map(|(m, p)| build_comp(m, p)),
        (0usize..10, comp_parts(inner.clone())).prop_map(|(m, p)| build_comp(m, p)),
        (comp_parts(inner.clone()), proptest::bool::ANY).prop_map(|(p, avg)| {
            let func = if avg { Func::Avg } else { Func::CountDistinct };
            CalcExpr::call(func, vec![build_comp(BAG, p)])
        }),
        (
            0usize..10,
            comp_parts(inner.clone()),
            comp_parts(inner.clone())
        )
            .prop_map(|(m, p, q)| CalcExpr::Merge(
                monoid(m),
                Box::new(build_comp(m, p)),
                Box::new(build_comp(m, q)),
            )),
        (0usize..10, inner.clone(), inner).prop_map(|(m, l, r)| CalcExpr::Merge(
            monoid(m),
            Box::new(l),
            Box::new(r)
        )),
    ]
    .boxed()
}

/// Random expressions over the fixed scope, covering arithmetic,
/// comparisons, logic, conditionals, projections, records, builtins,
/// comprehensions (nested as deep as the recursion goes) and merges.
fn expr(depth: u32) -> BoxedStrategy<CalcExpr> {
    let leaf = prop_oneof![
        scalar().prop_map(CalcExpr::Const),
        prop_oneof![Just(0usize), Just(1), Just(2), Just(3)].prop_map(|i| CalcExpr::var(SCOPE[i])),
        (0usize..3).prop_map(|f| CalcExpr::proj(CalcExpr::var("row"), FIELDS[f])),
    ];
    leaf.prop_recursive(depth, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..12).prop_map(|(l, r, op)| {
                let op = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::And,
                    BinOp::Or,
                ][op];
                CalcExpr::bin(op, l, r)
            }),
            inner.clone().prop_map(|e| CalcExpr::Not(Box::new(e))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| CalcExpr::If(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
            inner
                .clone()
                .prop_map(|e| CalcExpr::call(Func::Lower, vec![e])),
            inner
                .clone()
                .prop_map(|e| CalcExpr::call(Func::Length, vec![e])),
            inner
                .clone()
                .prop_map(|e| CalcExpr::call(Func::IsNull, vec![e])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| CalcExpr::call(Func::Coalesce, vec![a, b])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| CalcExpr::call(Func::Concat, vec![a, b])),
            inner
                .clone()
                .prop_map(|e| CalcExpr::call(Func::Prefix, vec![e])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| CalcExpr::record(vec![("p", a), ("q", b)])),
            // Projection through a freshly built record.
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| CalcExpr::proj(CalcExpr::record(vec![("p", a), ("q", b)]), "q")),
            comprehension(inner.clone()),
            comprehension(inner.clone()),
        ]
    })
    .boxed()
}

fn scope() -> Vec<String> {
    SCOPE.iter().map(|s| s.to_string()).collect()
}

/// Both engines agree: equal values on success, errors on both sides
/// otherwise.
fn assert_agree(
    expr: &CalcExpr,
    env: &Env,
    ctx: &EvalCtx,
    compiled: Result<Value, impl std::fmt::Display>,
) {
    let interpreted = eval(expr, env, ctx);
    match (interpreted, compiled) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "value mismatch on {expr}"),
        (Err(_), Err(_)) => {}
        (Ok(a), Err(e)) => panic!("interpreter Ok({a}), compiled Err({e}) on {expr}"),
        (Err(e), Ok(b)) => panic!("interpreter Err({e}), compiled Ok({b}) on {expr}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Program::eval` ≡ reference `eval` on random expressions and rows.
    #[test]
    fn compiled_agrees_with_interpreter(e in expr(3), env in env()) {
        let ctx = EvalCtx::new();
        let prog = Program::compile(&e, &scope(), &ctx).expect("closed expr compiles");
        assert_agree(&e, &env, &ctx, prog.eval(&slots(&env), &ctx));
    }

    /// Comprehensions and merges at the root, over random operands (which
    /// nest further comprehensions): compiled ≡ interpreted.
    #[test]
    fn compiled_comprehensions_agree(e in comprehension(expr(2)), env in env()) {
        let ctx = EvalCtx::new();
        let prog = Program::compile(&e, &scope(), &ctx).expect("closed expr compiles");
        assert_agree(&e, &env, &ctx, prog.eval(&slots(&env), &ctx));
    }

    /// The batch entry point matches per-row interpretation across a
    /// partition of rows with a shared scratch stack.
    #[test]
    fn batch_agrees_with_interpreter(e in expr(2), envs in proptest::collection::vec(env(), 1..12)) {
        let ctx = EvalCtx::new();
        let prog = Program::compile(&e, &scope(), &ctx).expect("closed expr compiles");
        match prog.eval_batch(&envs.iter().map(|e| slots(e)).collect::<Vec<_>>(), &ctx) {
            Ok(batch) => {
                prop_assert_eq!(batch.len(), envs.len());
                for (row, got) in envs.iter().zip(batch) {
                    let want = eval(&e, row, &ctx).expect("batch Ok implies per-row Ok");
                    prop_assert_eq!(want, got, "{}", &e);
                }
            }
            Err(_) => {
                // The batch fails iff some row fails under the interpreter.
                prop_assert!(
                    envs.iter().any(|row| eval(&e, row, &ctx).is_err()),
                    "batch errored but every row interprets cleanly: {}", &e
                );
            }
        }
    }

    /// Pair evaluation over a split environment matches evaluation over the
    /// concatenation (the theta-join entry point).
    #[test]
    fn pair_agrees_with_merged_env(e in expr(2), env in env(), split in 0usize..5) {
        let ctx = EvalCtx::new();
        let prog = Program::compile(&e, &scope(), &ctx).expect("closed expr compiles");
        let split = split.min(env.len());
        let (l, r) = env.split_at(split);
        let mut scratch = Vec::new();
        let compiled = prog.eval_pair(&slots(l), &slots(r), &ctx, &mut scratch);
        assert_agree(&e, &env, &ctx, compiled);
    }

    /// One program, many row schemas: the projection hints must stay
    /// correct when consecutive rows disagree on field order.
    #[test]
    fn hints_survive_schema_shuffles(e in expr(2), envs in proptest::collection::vec(env(), 2..8)) {
        let ctx = EvalCtx::new();
        let prog = Program::compile(&e, &scope(), &ctx).expect("closed expr compiles");
        let mut scratch = Vec::new();
        for row in &envs {
            let compiled = prog.eval_with(&slots(row), &ctx, &mut scratch);
            assert_agree(&e, row, &ctx, compiled);
        }
    }
}
