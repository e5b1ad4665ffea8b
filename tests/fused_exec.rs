//! Differential property tests for Select fusion: a plan executed by the
//! unified planner (filter evaluated inside the downstream operator's
//! partition sweep) must produce exactly the results of the
//! operator-at-a-time execution — across Select→Nest, Select→Reduce
//! (collection and scalar monoids), Select→Join, Select→ThetaJoin, and
//! transform-shaped heads, under `Null`/`NaN` predicate values and empty
//! partitions. Both sides merge the head values in row order, so results
//! are bit-exact for every monoid, floats included.

use std::collections::HashMap;
use std::sync::Arc;

use cleanm::core::algebra::{Alg, HintKind, ThetaHint};
use cleanm::core::calculus::{BinOp, CalcExpr, EvalCtx, Func, MonoidKind};
use cleanm::core::engine::storage::StoredTable;
use cleanm::core::physical::{EngineProfile, Executor, Planner};
use cleanm::exec::ExecContext;
use cleanm::values::Value;
use proptest::prelude::*;

/// Scalar pool for the predicate columns: integers, floats (NaN included),
/// strings, and NULL — everything a cleaning predicate meets in the wild.
fn scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        (-6i64..6).prop_map(Value::Int),
        (-2.0f64..2.0).prop_map(Value::Float),
        Just(Value::Float(f64::NAN)),
        Just(Value::Null),
        Just(Value::str("a st")),
        Just(Value::str("b st")),
    ]
    .boxed()
}

/// A random customer-shaped table: `k` drives grouping, `v` and `s` feed
/// predicates. Sizes start at zero so empty tables (and therefore fully
/// empty partitions) are always in the mix.
fn table() -> BoxedStrategy<Vec<Value>> {
    proptest::collection::vec((scalar(), scalar(), 0i64..4), 0..24)
        .prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (v, s, k))| {
                    Value::record([
                        ("__rowid", Value::Int(i as i64)),
                        ("k", Value::Int(k)),
                        ("v", v),
                        ("s", s),
                    ])
                })
                .collect()
        })
        .boxed()
}

/// A small predicate grammar over the row variable `var`: comparisons
/// against int/float/NaN/Null constants plus conjunction/disjunction.
fn pred(var: &'static str) -> BoxedStrategy<CalcExpr> {
    let col = move |f: &str| CalcExpr::proj(CalcExpr::var(var), f);
    let atom = prop_oneof![
        (0i64..4).prop_map(move |c| CalcExpr::bin(BinOp::Lt, col("k"), CalcExpr::int(c))),
        (-1.0f64..1.0).prop_map(move |c| CalcExpr::bin(BinOp::Ge, col("v"), CalcExpr::float(c))),
        Just(CalcExpr::bin(
            BinOp::Le,
            col("v"),
            CalcExpr::float(f64::NAN)
        )),
        Just(CalcExpr::bin(
            BinOp::Ne,
            col("s"),
            CalcExpr::Const(Value::Null)
        )),
        Just(CalcExpr::bin(BinOp::Eq, col("s"), CalcExpr::str("a st"))),
    ];
    let atom = atom.boxed();
    (atom.clone(), atom, 0u8..3)
        .prop_map(|(a, b, combine)| match combine {
            0 => a,
            1 => CalcExpr::bin(BinOp::And, a, b),
            _ => CalcExpr::bin(BinOp::Or, a, b),
        })
        .boxed()
}

fn catalog(rows: Vec<Value>) -> HashMap<String, StoredTable> {
    let mut t = HashMap::new();
    t.insert("t".to_string(), StoredTable::from_rows(rows));
    t
}

/// Stack `preds` as a Select chain over `input` (first predicate innermost).
fn select_chain(mut input: Arc<Alg>, preds: &[CalcExpr]) -> Arc<Alg> {
    for p in preds {
        input = Arc::new(Alg::Select {
            input,
            pred: p.clone(),
        });
    }
    input
}

/// Run `plan` under the profile and return its sorted output plus how many
/// Select nodes the executor fused away.
fn run(
    plan: &Arc<Alg>,
    tables: &HashMap<String, StoredTable>,
    profile: EngineProfile,
) -> (Vec<Value>, usize) {
    let ctx = ExecContext::new(2, 4);
    let mut ex = Executor::new(ctx, profile, tables, Arc::new(EvalCtx::new()));
    ex.register_plans(std::slice::from_ref(plan));
    let mut out = ex.run_reduce(plan).expect("plan executes").into_records();
    out.sort();
    (out, ex.fused_selects)
}

/// The operator-at-a-time twin of the fusing profile: the same physical
/// strategies, every `Select` its own pass and every group materialized.
fn unfused_profile() -> EngineProfile {
    EngineProfile {
        planner: Planner::OperatorAtATime,
        ..EngineProfile::clean_db()
    }
}

/// fused ≡ unfused for a given plan, requiring that fusion engaged
/// (`expect_fused` Select nodes) when the profile allows it.
fn assert_fused_matches(
    plan: &Arc<Alg>,
    tables: &HashMap<String, StoredTable>,
    expect_fused: usize,
) {
    let (fused_out, fused_n) = run(plan, tables, EngineProfile::clean_db());
    let (unfused_out, unfused_n) = run(plan, tables, unfused_profile());
    assert_eq!(fused_out, unfused_out, "fusion changed the results");
    assert_eq!(fused_n, expect_fused, "fusion did not engage as expected");
    assert_eq!(unfused_n, 0, "unfused profile must not fuse");
}

fn scan(var: &str) -> Arc<Alg> {
    Arc::new(Alg::Scan {
        table: "t".into(),
        var: var.into(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Select chain → Reduce(Bag) with a transform-shaped head (the
    /// `prefix` / `lower` string builtins).
    #[test]
    fn select_reduce_transform_fused_matches(
        rows in table(),
        p1 in pred("c"),
        p2 in pred("c"),
    ) {
        let tables = catalog(rows);
        let input = select_chain(scan("c"), &[p1, p2]);
        let plan = Arc::new(Alg::Reduce {
            input,
            monoid: MonoidKind::Bag,
            head: CalcExpr::record(vec![
                ("p", CalcExpr::call(Func::Prefix, vec![CalcExpr::proj(CalcExpr::var("c"), "s")])),
                ("l", CalcExpr::call(Func::Lower, vec![CalcExpr::proj(CalcExpr::var("c"), "s")])),
            ]),
        });
        assert_fused_matches(&plan, &tables, 2);
    }

    /// Select → Reduce over every scalar monoid (one `fused_filter_map`
    /// sweep, then the monoid merge) plus Set (dedup finish).
    #[test]
    fn select_reduce_scalar_monoids_fused_match(
        rows in table(),
        p in pred("c"),
    ) {
        let tables = catalog(rows);
        for monoid in [
            MonoidKind::Sum,
            MonoidKind::Min,
            MonoidKind::Max,
            MonoidKind::Any,
            MonoidKind::All,
            MonoidKind::Set,
        ] {
            let plan = Arc::new(Alg::Reduce {
                input: select_chain(scan("c"), std::slice::from_ref(&p)),
                monoid: monoid.clone(),
                head: match monoid {
                    MonoidKind::Any | MonoidKind::All => CalcExpr::bin(
                        BinOp::Gt,
                        CalcExpr::proj(CalcExpr::var("c"), "k"),
                        CalcExpr::int(1),
                    ),
                    _ => CalcExpr::proj(CalcExpr::var("c"), "k"),
                },
            });
            assert_fused_matches(&plan, &tables, 1);
        }
    }

    /// Select → Nest → Reduce: the filter runs inside the pair-emission
    /// sweep of the grouping.
    #[test]
    fn select_nest_fused_matches(rows in table(), p in pred("c")) {
        let tables = catalog(rows);
        let nest = Arc::new(Alg::Nest {
            input: select_chain(scan("c"), std::slice::from_ref(&p)),
            algo: cleanm::core::calculus::FilterAlgo::Exact,
            key: CalcExpr::proj(CalcExpr::var("c"), "k"),
            item: CalcExpr::var("c"),
            group_var: "g".into(),
        });
        let plan = Arc::new(Alg::Reduce {
            input: nest,
            monoid: MonoidKind::Bag,
            head: CalcExpr::var("g"),
        });
        assert_fused_matches(&plan, &tables, 1);
    }

    /// Selects on both sides of an equi-Join: filters run inside the
    /// keying sweeps.
    #[test]
    fn select_join_fused_matches(rows in table(), pl in pred("l"), pr in pred("r")) {
        let tables = catalog(rows);
        let join = Arc::new(Alg::Join {
            left: select_chain(scan("l"), std::slice::from_ref(&pl)),
            right: select_chain(scan("r"), std::slice::from_ref(&pr)),
            left_key: CalcExpr::proj(CalcExpr::var("l"), "k"),
            right_key: CalcExpr::proj(CalcExpr::var("r"), "k"),
        });
        let plan = Arc::new(Alg::Reduce {
            input: join,
            monoid: MonoidKind::Bag,
            head: CalcExpr::record(vec![
                ("a", CalcExpr::proj(CalcExpr::var("l"), "__rowid")),
                ("b", CalcExpr::proj(CalcExpr::var("r"), "__rowid")),
            ]),
        });
        assert_fused_matches(&plan, &tables, 2);
    }

    /// Select *chains* on the sides of a ThetaJoin collapse to one filter
    /// pass per side (the sides themselves must stay materialized for the
    /// pruning probes).
    #[test]
    fn select_theta_chain_collapse_matches(rows in table(), pl in pred("l"), pl2 in pred("l"), pr in pred("r")) {
        let tables = catalog(rows);
        let theta_pred = CalcExpr::bin(
            BinOp::Lt,
            CalcExpr::proj(CalcExpr::var("l"), "k"),
            CalcExpr::proj(CalcExpr::var("r"), "k"),
        );
        let theta = Arc::new(Alg::ThetaJoin {
            left: select_chain(scan("l"), &[pl, pl2]),
            right: select_chain(scan("r"), std::slice::from_ref(&pr)),
            pred: theta_pred,
            hint: ThetaHint {
                left_key: CalcExpr::proj(CalcExpr::var("l"), "k"),
                right_key: CalcExpr::proj(CalcExpr::var("r"), "k"),
                kind: HintKind::LeftLessThanRight,
            },
        });
        let plan = Arc::new(Alg::Reduce {
            input: theta,
            monoid: MonoidKind::Bag,
            head: CalcExpr::record(vec![
                ("a", CalcExpr::proj(CalcExpr::var("l"), "__rowid")),
                ("b", CalcExpr::proj(CalcExpr::var("r"), "__rowid")),
            ]),
        });
        // The left chain of two collapses into one pass: one Select fused.
        assert_fused_matches(&plan, &tables, 1);
    }

    /// Deep Select chains feeding Reduce collapse entirely — and the
    /// chain order is preserved (inner predicates run first).
    #[test]
    fn deep_select_chain_fused_matches(
        rows in table(),
        p1 in pred("c"),
        p2 in pred("c"),
        p3 in pred("c"),
    ) {
        let tables = catalog(rows);
        let plan = Arc::new(Alg::Reduce {
            input: select_chain(scan("c"), &[p1, p2, p3]),
            monoid: MonoidKind::Bag,
            head: CalcExpr::proj(CalcExpr::var("c"), "__rowid"),
        });
        assert_fused_matches(&plan, &tables, 3);
    }
}

/// Rows with a list column `xs` (sometimes NULL, sometimes empty) and a
/// list-of-records column `ys` whose records hold lists themselves.
fn nested_table() -> BoxedStrategy<Vec<Value>> {
    let ints = || proptest::collection::vec(-2i64..4, 0..4);
    let xs = prop_oneof![
        Just(Value::Null),
        ints().prop_map(|v| Value::list(v.into_iter().map(Value::Int))),
    ];
    let ys = proptest::collection::vec(ints(), 0..3).prop_map(|ys| {
        Value::list(
            ys.into_iter()
                .map(|zs| Value::record([("zs", Value::list(zs.into_iter().map(Value::Int)))])),
        )
    });
    proptest::collection::vec((xs, ys, 0i64..4), 0..10)
        .prop_map(|rows| {
            rows.into_iter()
                .map(|(xs, ys, k)| Value::record([("k", Value::Int(k)), ("xs", xs), ("ys", ys)]))
                .collect()
        })
        .boxed()
}

fn unnest(input: Arc<Alg>, path: CalcExpr, var: &str) -> Arc<Alg> {
    Arc::new(Alg::Unnest {
        input,
        path,
        var: var.into(),
    })
}

/// Run `plan` profiled under `profile`: its sorted output and whether a
/// node of the profile tree is the fused pair node.
fn run_profiled(
    plan: &Arc<Alg>,
    tables: &HashMap<String, StoredTable>,
    profile: EngineProfile,
    workers: usize,
) -> (Vec<Value>, bool) {
    fn fused(node: &cleanm::core::ProfileNode) -> bool {
        node.flags.iter().any(|f| f == "fused-pairs") || node.children.iter().any(fused)
    }
    let ctx = ExecContext::new(workers, 2 * workers);
    let mut ex = Executor::new(ctx, profile, tables, Arc::new(EvalCtx::new()));
    ex.register_plans(std::slice::from_ref(plan));
    ex.set_profiling(true);
    let mut out = ex.run_reduce(plan).expect("plan executes").into_records();
    out.sort();
    (out, fused(&ex.take_profile_root().expect("profiled")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two Unnests under a Reduce. Independent paths run as the fused pair
    /// sweep; a second path that reads the first variable cannot, and keeps
    /// the node-at-a-time route. Either way the output is the nested loop
    /// the plan stands for, under every profile.
    #[test]
    fn double_unnest_matches_the_nested_loop(rows in nested_table()) {
        let col = |var: &str, f: &str| CalcExpr::proj(CalcExpr::var(var), f);
        let ints = |v: &Value, f: &str| -> Vec<i64> {
            match v.field(f).unwrap() {
                Value::List(items) => items.iter().map(|i| i.as_int().unwrap()).collect(),
                _ => Vec::new(),
            }
        };
        let tables = catalog(rows.clone());

        // bag{ {a, b} | c <- t, c.k < 2, a <- c.xs, b <- c.xs, a < b }
        let small_k = CalcExpr::bin(BinOp::Lt, col("c", "k"), CalcExpr::int(2));
        let pairs = Arc::new(Alg::Reduce {
            input: select_chain(
                unnest(
                    unnest(select_chain(scan("c"), &[small_k]), col("c", "xs"), "a"),
                    col("c", "xs"),
                    "b",
                ),
                &[CalcExpr::bin(BinOp::Lt, CalcExpr::var("a"), CalcExpr::var("b"))],
            ),
            monoid: MonoidKind::Bag,
            head: CalcExpr::record(vec![("a", CalcExpr::var("a")), ("b", CalcExpr::var("b"))]),
        });
        let mut expected_pairs = Vec::new();
        for r in rows.iter().filter(|r| r.field("k").unwrap() < &Value::Int(2)) {
            let xs = ints(r, "xs");
            for &a in &xs {
                for &b in xs.iter().filter(|&&b| a < b) {
                    expected_pairs.push(Value::record([("a", Value::Int(a)), ("b", Value::Int(b))]));
                }
            }
        }
        expected_pairs.sort();

        // bag{ z | c <- t, y <- c.ys, z <- y.zs, z > 0 }
        let nested = Arc::new(Alg::Reduce {
            input: select_chain(
                unnest(unnest(scan("c"), col("c", "ys"), "y"), col("y", "zs"), "z"),
                &[CalcExpr::bin(BinOp::Gt, CalcExpr::var("z"), CalcExpr::int(0))],
            ),
            monoid: MonoidKind::Bag,
            head: CalcExpr::var("z"),
        });
        let mut expected_nested: Vec<Value> = rows
            .iter()
            .flat_map(|r| r.field("ys").unwrap().as_list().unwrap().to_vec())
            .flat_map(|y| ints(&y, "zs"))
            .filter(|&z| z > 0)
            .map(Value::Int)
            .collect();
        expected_nested.sort();

        for profile in [
            EngineProfile::clean_db(),
            EngineProfile::spark_sql_like(),
            EngineProfile::big_dansing_like(),
        ] {
            for workers in [1, 2] {
                let (out, fused) = run_profiled(&pairs, &tables, profile.clone(), workers);
                prop_assert!(fused, "{}: independent paths must fuse", profile.name);
                prop_assert_eq!(&out, &expected_pairs, "{}", profile.name);
                let (out, fused) = run_profiled(&nested, &tables, profile.clone(), workers);
                prop_assert!(!fused, "{}: a dependent path cannot fuse", profile.name);
                prop_assert_eq!(&out, &expected_nested, "{}", profile.name);
            }
        }
    }
}

/// End-to-end differential check through the full session (parse → plan →
/// execute): WHERE + FD under the fusing profile matches the unfused twin.
#[test]
fn session_where_fd_fused_matches_unfused() {
    use cleanm::core::CleanDb;
    use cleanm::datagen::customer::CustomerGen;

    let data = CustomerGen::new(7)
        .rows(800)
        .duplicate_fraction(0.1)
        .generate();
    let sql = "SELECT * FROM customer c WHERE c.nationkey < 20 FD(c.address, c.nationkey)";
    let mut reports = Vec::new();
    for profile in [EngineProfile::clean_db(), unfused_profile()] {
        let mut db = CleanDb::new(profile);
        db.register("customer", data.table.clone());
        reports.push(db.run(sql).unwrap());
    }
    assert_eq!(reports[0].violating_ids, reports[1].violating_ids);
    assert!(
        reports[0].exprs.fused_selects >= 2,
        "fusing profile must fuse the WHERE and the group filter: {:?}",
        reports[0].exprs
    );
    assert_eq!(reports[1].exprs.fused_selects, 0);
    assert_eq!(
        reports[0].exprs.interpreted, 0,
        "fused predicates still run compiled"
    );
}
