//! Differential property tests for grouped aggregation. A grouped `Reduce`
//! has two routes, chosen by its input: the **columnar fold** (the unified
//! planner over an unshared `Scan` under `LocalAggregate`, whose key and
//! slot expressions lower onto typed columns — rows folded straight into
//! per-group accumulators, no `(key, Vec<member>)` materialization), or
//! **materialize-then-reduce** (the `Nest` builds its groups, the compiled
//! `Reduce` consumes them — what the operator-at-a-time planner always
//! runs). Both must produce exactly the reference evaluator's results
//! across every supported aggregate (count, sum, min, max, avg,
//! count_distinct / the FD distinct-RHS test), under `Null`/`NaN` values,
//! empty tables, heavy-hitter skewed keys, shuffled schemas, and all three
//! shuffle strategies — and the route rule is pinned both ways: a
//! `group_fold*` stage appears exactly when the columnar fold runs.
//!
//! The second half pins the columnar route itself: a generated-table
//! differential against materialized groups and the reference evaluator,
//! what lowers and what does not, and its stage volumes. No option
//! selects a route: the tests that want materialized groups under CleanDB
//! hand it an input that does not columnarize ([`ragged`]), a
//! non-`LocalAggregate` strategy, or an expression that is not a column
//! expression.
//!
//! Float caveat (documented in ARCHITECTURE.md): `sum`/`avg` over *float*
//! columns may differ in the last ulp between the routes — the columnar
//! fold sums per chunk and merges the chunk partials, associating float
//! additions differently from the sequential reduce. The aggregated
//! columns here are integers, NULLs and NaNs, or floats whose sums are
//! exact, where both orders are bit-exact (NaN is absorbing either way).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use cleanm::core::algebra::{lower_op, Alg};
use cleanm::core::calculus::{desugar_query, eval, CalcExpr, EvalCtx, FilterAlgo, Func};
use cleanm::core::engine::storage::StoredTable;
use cleanm::core::lang::parse_query;
use cleanm::core::physical::{EngineProfile, Executor, NestStrategy, Planner, ProfileNode};
use cleanm::core::{CleanDb, CleaningReport};
use cleanm::exec::{ExecContext, MetricsSnapshot};
use cleanm::values::{Column, ColumnBatch, Value};
use proptest::prelude::*;

/// Aggregation-column pool: integers, NULL, and NaN — exact under any
/// fold association (see module docs for the float caveat).
fn agg_scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::Int),
        (-8i64..8).prop_map(Value::Int),
        Just(Value::Null),
        Just(Value::Float(f64::NAN)),
    ]
    .boxed()
}

/// Grouping-key pool: a few collision-heavy ints and strings plus NULL, so
/// groups of every size (and NULL-keyed groups) appear.
fn key_scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        (0i64..4).prop_map(Value::Int),
        Just(Value::str("a st")),
        Just(Value::str("b st")),
        Just(Value::Null),
    ]
    .boxed()
}

/// A random table; `shuffled` reverses the field order of every row —
/// positional assumptions anywhere in the fold pipeline would surface as a
/// differential failure.
fn rows(shuffled: bool) -> BoxedStrategy<Vec<Value>> {
    proptest::collection::vec((key_scalar(), agg_scalar(), agg_scalar()), 0..32)
        .prop_map(move |rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (k, v, w))| {
                    let mut fields = vec![
                        ("__rowid", Value::Int(i as i64)),
                        ("k", k),
                        ("v", v),
                        ("w", w),
                    ];
                    if shuffled {
                        fields[1..].reverse();
                    }
                    Value::record(fields)
                })
                .collect()
        })
        .boxed()
}

fn catalog(rows: Vec<Value>) -> HashMap<String, StoredTable> {
    let mut t = HashMap::new();
    t.insert("t".to_string(), StoredTable::from_rows(rows));
    t
}

fn fold_profile(nest: NestStrategy) -> EngineProfile {
    EngineProfile {
        nest,
        ..EngineProfile::clean_db()
    }
}

/// The operator-at-a-time twin of [`fold_profile`]: groups are
/// materialized, then reduced.
fn materialize_profile(nest: NestStrategy) -> EngineProfile {
    EngineProfile {
        planner: Planner::OperatorAtATime,
        ..fold_profile(nest)
    }
}

/// `rows` with the field order of the last one reversed. A table of mixed
/// layouts does not columnarize, so a grouped `Reduce` over it
/// materializes its groups — chosen by the input; every cell is where it
/// was.
fn ragged(mut rows: Vec<Value>) -> Vec<Value> {
    if let Some(last) = rows.last_mut() {
        let mut fields = fields_of(last);
        fields.reverse();
        *last = Value::record(fields);
    }
    rows
}

fn fields_of(record: &Value) -> Vec<(String, Value)> {
    let fields = record.as_struct().unwrap().iter();
    fields.map(|(n, v)| (n.to_string(), v.clone())).collect()
}

/// `v` with the fields of every record in name order, so a [`ragged`] row
/// compares equal to the row it was made from.
fn by_name(v: &Value) -> Value {
    match v {
        Value::Struct(_) => {
            let mut fields = fields_of(v);
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Value::record(fields.into_iter().map(|(n, v)| (n, by_name(&v))))
        }
        Value::List(items) => Value::list(items.iter().map(by_name)),
        other => other.clone(),
    }
}

/// Run `sql`'s first operator under `profile`; returns the sorted outputs
/// and the runtime metrics (stage names prove which path executed).
fn run_sql(
    sql: &str,
    tables: &HashMap<String, StoredTable>,
    profile: EngineProfile,
) -> (Vec<Value>, MetricsSnapshot) {
    let q = parse_query(sql).expect("parses");
    let dq = desugar_query(&q, 1).expect("desugars");
    let plan: Arc<Alg> = lower_op(&dq.ops[0].comp).expect("lowers");
    let ctx = ExecContext::new(2, 4);
    let mut ex = Executor::new(ctx.clone(), profile, tables, Arc::new(EvalCtx::new()));
    ex.register_plans(std::slice::from_ref(&plan));
    let mut out = ex.run_reduce(&plan).expect("executes").into_records();
    out.sort();
    (out, ctx.metrics().snapshot())
}

/// The route rule, stated from the input alone: the columnar fold runs
/// under `LocalAggregate` over a non-empty table whose rows share one
/// field layout and whose columns `read` each hold one type of non-NULL
/// value.
fn folds_by_column(rows: &[Value], read: &[&str], nest: NestStrategy) -> bool {
    let typed = |batch: ColumnBatch| {
        let column = |f: &&str| batch.column(batch.column_index(f).expect("a read column"));
        read.iter().all(|f| !matches!(column(f), Column::Val(_)))
    };
    nest == NestStrategy::LocalAggregate
        && !rows.is_empty()
        && ColumnBatch::from_rows(rows).is_some_and(typed)
}

/// `rows` with every non-NULL cell an integer — strings and NaN renamed to
/// ints no other cell holds — so each column holds one type unless it is
/// all NULL, and the columnar fold's side of the route rule is exercised.
fn int_cells(rows: &[Value]) -> Vec<Value> {
    let int = |v: &Value| match v {
        Value::Str(s) if &**s == "a st" => Value::Int(100),
        Value::Str(_) => Value::Int(101),
        Value::Float(_) => Value::Int(102),
        other => other.clone(),
    };
    let row = |r: &Value| Value::record(fields_of(r).into_iter().map(|(n, v)| (n, int(&v))));
    rows.iter().map(row).collect()
}

/// Under every Nest strategy, over `table_rows` and over its
/// [`int_cells`] twin: the unified planner's output ≡ the
/// operator-at-a-time planner's ≡ the reference evaluator's, and a
/// `group_fold*` stage appears exactly when [`folds_by_column`] says the
/// columnar fold runs over the columns `read`.
fn assert_routes_agree(sql: &str, table_rows: Vec<Value>, read: &[&str]) {
    let typed = int_cells(&table_rows);
    for table_rows in [table_rows, typed] {
        assert_routes_agree_over(sql, table_rows, read);
    }
}

fn assert_routes_agree_over(sql: &str, table_rows: Vec<Value>, read: &[&str]) {
    let expected = reference_of(&table_rows, sql);
    let tables = catalog(table_rows.clone());
    for nest in [
        NestStrategy::LocalAggregate,
        NestStrategy::HashShuffle,
        NestStrategy::SortShuffle,
    ] {
        let (unified, metrics) = run_sql(sql, &tables, fold_profile(nest));
        let (materialized, _) = run_sql(sql, &tables, materialize_profile(nest));
        assert_eq!(
            exact(&unified),
            exact(&expected),
            "unified diverged under {nest:?} for `{sql}`"
        );
        assert_eq!(
            exact(&materialized),
            exact(&expected),
            "operator-at-a-time diverged under {nest:?} for `{sql}`"
        );
        let stages: Vec<&str> = metrics.stages.iter().map(|s| s.operator).collect();
        assert_eq!(
            stages.iter().any(|s| s.starts_with("group_fold")),
            folds_by_column(&table_rows, read, nest),
            "route under {nest:?} for `{sql}`: {stages:?}"
        );
    }
}

/// Each value rendered in full — a float by its sign and digits, so
/// `-0.0` and `0.0` differ — for comparing outputs byte for byte where
/// `Value`'s equality would not tell them apart.
fn exact(values: &[Value]) -> Vec<String> {
    values.iter().map(|v| format!("{v:?}")).collect()
}

const GROUP_AGG_SQL: &str = "SELECT c.k, count(*) AS n, sum(c.v) AS s, min(c.v) AS mn, \
     max(c.v) AS mx, avg(c.v) AS a, count_distinct(c.w) AS cd \
     FROM t c GROUP BY c.k";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every aggregate the grouped SELECT reaches, over random tables
    /// (empty included) with NULL/NaN values.
    #[test]
    fn grouped_aggregates_fold_matches_materialize(rows in rows(false)) {
        assert_routes_agree(GROUP_AGG_SQL, rows, &["k", "v", "w"]);
    }

    /// The same aggregates over tables with reversed field order: the
    /// composed item programs must resolve fields by name, not position.
    #[test]
    fn shuffled_schema_fold_matches(rows in rows(true)) {
        assert_routes_agree(GROUP_AGG_SQL, rows, &["k", "v", "w"]);
    }

    /// HAVING predicates (group filters over folded aggregates).
    #[test]
    fn having_fold_matches(rows in rows(false), cut in 0i64..4) {
        assert_routes_agree(
            &format!(
                "SELECT c.k, count(*) AS n FROM t c GROUP BY c.k HAVING count(*) > {cut}"
            ),
            rows,
            &["k"],
        );
    }

    /// The FD shape — violating groups selected by the distinct-RHS test —
    /// including a WHERE chain fused below the grouping.
    #[test]
    fn fd_fold_matches(rows in rows(false), cut in 0i64..10) {
        assert_routes_agree("SELECT * FROM t c FD(c.k | c.v)", rows.clone(), &["k", "v"]);
        assert_routes_agree(
            &format!("SELECT * FROM t c WHERE c.v >= {cut} FD(c.k | c.w)"),
            rows,
            &["v", "k", "w"],
        );
    }

    /// Composite FD keys and derived RHS expressions.
    #[test]
    fn fd_composite_fold_matches(rows in rows(false)) {
        assert_routes_agree("SELECT * FROM t c FD(c.k, c.w | c.v)", rows, &["k", "w", "v"]);
    }

    /// Heavy-hitter skew: ~90% of the rows share one key.
    #[test]
    fn skewed_keys_fold_matches(rows in rows(false), heavy in key_scalar()) {
        let skewed: Vec<Value> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if i % 10 == 0 {
                    r.clone()
                } else {
                    let mut fields = fields_of(r);
                    for (n, v) in &mut fields {
                        if n == "k" {
                            *v = heavy.clone();
                        }
                    }
                    Value::record(fields)
                }
            })
            .collect();
        assert_routes_agree(GROUP_AGG_SQL, skewed.clone(), &["k", "v", "w"]);
        assert_routes_agree("SELECT * FROM t c FD(c.k | c.v)", skewed, &["k", "v"]);
    }
}

/// A fold that declines leaves nothing behind: a ragged FD under CleanDB
/// records one decision for its one `Nest`, counts exactly the programs
/// and fused `Select`s the materialized path counts — as many as under
/// `HashShuffle`, where the fold is never tried — and its profile tree has
/// one `Nest` node and no `GroupFold`.
#[test]
fn a_declined_fold_leaves_nothing_behind() {
    let fd = "SELECT * FROM t c FD(c.k | c.v)";
    let mut db = ragged_session(200, 9);
    db.set_tracing(true);
    let declined = db.run(fd).unwrap();
    let hash = fold_profile(NestStrategy::HashShuffle);
    let never_tried = typed_session(hash, 200, 9, 1).run(fd).unwrap();
    assert_eq!(declined.violating_ids, never_tried.violating_ids);
    let nests: Vec<_> = declined.decisions.iter().map(|d| d.operator).collect();
    assert_eq!(nests, ["nest"], "{:?}", declined.decisions);
    assert_eq!(declined.exprs.compiled, never_tried.exprs.compiled);
    assert_eq!(
        declined.exprs.fused_selects,
        never_tried.exprs.fused_selects
    );
    assert_eq!(declined.exprs.vectorized_rows, 0);

    fn ops<'a>(node: &'a ProfileNode, out: &mut Vec<&'a str>) {
        out.push(&node.op);
        node.children.iter().for_each(|c| ops(c, out));
    }
    let mut seen = Vec::new();
    declined
        .profiles
        .iter()
        .for_each(|p| ops(&p.root, &mut seen));
    assert!(!seen.contains(&"GroupFold"), "{}", declined.profile_tree());
    let nest_nodes = seen.iter().filter(|op| **op == "Nest").count();
    assert_eq!(nest_nodes, 1, "{}", declined.profile_tree());
}

// ---------------------------------------------------------------------
// The columnar route: the unified planner over an unshared Scan under
// `LocalAggregate` folds the stored table's columns — key cells
// hashed into dense group ids, accumulators folded by id, violating groups
// gathered by row index. Everything observable must equal materialized
// groups and the reference evaluator.
// ---------------------------------------------------------------------

/// How one append batch types its key column `a` — and whether it
/// columnarizes at all.
#[derive(Debug, Clone, Copy)]
enum BatchKind {
    IntKeys,
    /// Floats equal in value to the int keys, plus NaN and both zeros.
    FloatKeys,
    /// A differently typed key column: never equal to a numeric key.
    StrKeys,
    /// Ints and floats in one column: a `Val` column, the row path.
    MixedKeys,
    /// Int keys, field order reversed: the batch does not columnarize.
    Shuffled,
}

/// How the keys of a table are distributed.
#[derive(Debug, Clone, Copy)]
enum KeyMode {
    Random,
    Unique,
    AllEqual,
    /// Nine rows in ten share one key.
    Skewed,
}

fn batch_kind() -> BoxedStrategy<BatchKind> {
    prop_oneof![
        Just(BatchKind::IntKeys),
        Just(BatchKind::IntKeys),
        Just(BatchKind::IntKeys),
        Just(BatchKind::FloatKeys),
        Just(BatchKind::FloatKeys),
        Just(BatchKind::StrKeys),
        Just(BatchKind::MixedKeys),
        Just(BatchKind::Shuffled),
    ]
    .boxed()
}

fn key_mode() -> BoxedStrategy<KeyMode> {
    prop_oneof![
        Just(KeyMode::Random),
        Just(KeyMode::Random),
        Just(KeyMode::Unique),
        Just(KeyMode::AllEqual),
        Just(KeyMode::Skewed),
    ]
    .boxed()
}

/// Key `pick` (0 = NULL) as a batch of `kind` stores it. Int and float
/// batches name the same numbers, so groups span batches of both types.
fn key_cell(kind: BatchKind, pick: usize, row: usize) -> Value {
    let float = match kind {
        BatchKind::FloatKeys => true,
        BatchKind::MixedKeys => row % 2 == 1,
        _ => false,
    };
    match (kind, pick) {
        (_, 0) => Value::Null,
        (BatchKind::StrKeys, n) => Value::str(["", "1", "zoë", "日本"][n % 4]),
        (BatchKind::FloatKeys, 5) => Value::Float(f64::NAN),
        (BatchKind::FloatKeys, 6) if row % 2 == 1 => Value::Float(-0.0),
        (BatchKind::FloatKeys, 6) => Value::Float(0.0),
        (_, 6) => Value::Int(0),
        (_, n) if float => Value::Float(n as f64),
        (_, n) => Value::Int(n as i64),
    }
}

/// One generated row before its batch types it: key picks for `a`, then
/// the `b`, `c`, `d`, `s`, `x` cells.
type RawRow = (usize, Value, Value, Value, Value, Value);

fn raw_rows() -> BoxedStrategy<Vec<RawRow>> {
    let small =
        |lo: i64, hi: i64| prop_oneof![Just(Value::Null), (lo..hi).prop_map(Value::Int)].boxed();
    // Sums of these floats are exact in any association (multiples of
    // 0.5, NaN absorbing), so `sum` / `avg` compare bit for bit.
    let d = prop_oneof![
        Just(Value::Null),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(1.5)),
        Just(Value::Float(-2.0)),
    ];
    let s = prop_oneof![
        Just(Value::Null),
        Just(Value::str("")),
        Just(Value::str("555-1234")),
        Just(Value::str("555-9876")),
        Just(Value::str("556")),
        Just(Value::str("日本語-の名前")),
        Just(Value::str("zoë")),
        Just(Value::str("0123456789".repeat(7))),
    ];
    let row = (0usize..8, small(0, 3), small(-3, 4), d, s, small(-2, 3));
    proptest::collection::vec(row, 0..40).boxed()
}

/// Lay `raw` out as append batches of `size` rows, batch `i` typed by
/// `kinds[i % kinds.len()]`.
fn batches(raw: &[RawRow], mode: KeyMode, size: usize, kinds: &[BatchKind]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = Vec::new();
    for (i, (pick, b, c, d, s, x)) in raw.iter().enumerate() {
        let kind = kinds[(i / size) % kinds.len()];
        let pick = match mode {
            KeyMode::Random => *pick,
            KeyMode::Unique => 100 + i,
            KeyMode::AllEqual => 2,
            KeyMode::Skewed if i % 10 != 0 => 3,
            KeyMode::Skewed => *pick,
        };
        let mut fields = vec![
            ("__rowid", Value::Int(i as i64)),
            ("a", key_cell(kind, pick, i)),
            ("b", b.clone()),
            ("c", c.clone()),
            ("d", d.clone()),
            ("s", s.clone()),
            ("x", x.clone()),
        ];
        if matches!(kind, BatchKind::Shuffled) {
            fields[1..].reverse();
        }
        if i % size == 0 {
            out.push(Vec::new());
        }
        out.last_mut().unwrap().push(Value::record(fields));
    }
    out
}

fn session(profile: EngineProfile, workers: usize, data: &[Vec<Value>]) -> CleanDb {
    let mut db = CleanDb::with_context(profile, ExecContext::new(workers, 2 * workers));
    let mut data = data.iter();
    db.register_values("t", data.next().cloned().unwrap_or_default());
    for more in data {
        db.append_values("t", more.clone()).unwrap();
    }
    db
}

/// What the calculus says `sql`'s only operator means over the stored
/// rows of table `t`.
fn reference_output(db: &CleanDb, sql: &str) -> Vec<Value> {
    reference_of(&db.table_rows("t").unwrap(), sql)
}

/// What the calculus says `sql`'s only operator means over table `t` =
/// `rows`: the reference evaluator on the normalized comprehension, its
/// outputs sorted.
fn reference_of(rows: &[Value], sql: &str) -> Vec<Value> {
    use cleanm::core::calculus::{eval, normalize};
    let query = parse_query(sql).unwrap();
    let op = desugar_query(&query, 42).unwrap().ops.remove(0);
    let (comp, _) = normalize(&op.comp);
    let ctx = EvalCtx::new().with_table("t", Value::list(rows.iter().cloned()));
    let mut out = eval(&comp, &vec![], &ctx)
        .unwrap()
        .as_list()
        .unwrap()
        .to_vec();
    out.sort();
    out
}

/// The op's outputs as a sorted multiset. A group record carries its
/// members as a list, so equality pins member order within each group.
fn sorted_output(report: &CleaningReport) -> Vec<Value> {
    let mut out = report.ops[0].output.to_vec();
    out.sort();
    out
}

/// [`sorted_output`] with every record's fields in name order, for
/// comparing a run over a [`ragged`] table with one over the original.
fn named_output(report: &CleaningReport) -> Vec<Value> {
    let mut out: Vec<Value> = report.ops[0].output.iter().map(by_name).collect();
    out.sort();
    out
}

const COLUMNAR_QUERIES: [&str; 8] = [
    "SELECT * FROM t c FD(c.a | c.c)",
    "SELECT * FROM t c FD(c.a, c.b | c.c)",
    "SELECT * FROM t c FD(c.a | prefix(c.s))",
    "SELECT * FROM t c FD(c.b | c.c, c.s)",
    "SELECT * FROM t c WHERE c.x > 0 FD(c.a | c.c)",
    "SELECT c.a, count(*) AS n, sum(c.c) AS s, min(c.c) AS mn, max(c.d) AS mx, \
     avg(c.c) AS av, sum(c.d) AS sd, count_distinct(c.b) AS cd \
     FROM t c GROUP BY c.a HAVING count(*) > 1",
    "SELECT c.a, max(c.s) AS ms, count_distinct(c.s) AS cs FROM t c WHERE c.x > 0 GROUP BY c.a",
    "SELECT count(*) AS n, min(c.c) AS m FROM t c GROUP BY prefix(c.s)",
];

/// Every planner level under every Nest strategy — all the policy a
/// grouping query can see.
fn all_profiles() -> Vec<EngineProfile> {
    let planners = [Planner::OperatorAtATime, Planner::Unified];
    let nests = [
        NestStrategy::LocalAggregate,
        NestStrategy::SortShuffle,
        NestStrategy::HashShuffle,
    ];
    let mut profiles = Vec::new();
    for planner in planners {
        for nest in nests {
            profiles.push(EngineProfile {
                name: format!("{planner:?}/{nest:?}"),
                nest,
                planner,
                ..EngineProfile::clean_db()
            });
        }
    }
    profiles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Generated tables × FD / GROUP BY shapes × every planner level and
    /// Nest strategy × workers {1, 2}: output multisets and member order
    /// within each group ≡ the reference evaluator. The columnar route runs
    /// under the unified planner with `LocalAggregate`
    /// wherever the generated batches columnarize; materialized groups
    /// everywhere else — under their other strategies, over `MixedKeys` /
    /// non-columnar batches, and under the operator-at-a-time planner —
    /// hence the two routes agree.
    #[test]
    fn columnar_fold_agrees_with_rows_and_the_reference_evaluator(
        raw in raw_rows(),
        mode in key_mode(),
        size in 1usize..14,
        kinds in proptest::collection::vec(batch_kind(), 1..4),
    ) {
        let data = batches(&raw, mode, size, &kinds);
        assert_columnar_agrees(&data, &COLUMNAR_QUERIES, &format!("{kinds:?} {mode:?}"))?;
    }
}

/// `queries` over the table `data` lays out (one append batch each) under
/// every planner level and Nest strategy with 1 and 2 workers: each op's
/// outputs ≡ the reference evaluator's over the stored rows, byte for byte
/// ([`exact`]).
fn assert_columnar_agrees(
    data: &[Vec<Value>],
    queries: &[&str],
    over: &str,
) -> Result<(), TestCaseError> {
    // The reference reads the stored rows, the same in every session.
    let stored = session(EngineProfile::clean_db(), 1, data);
    let expected: Vec<_> = queries
        .iter()
        .map(|sql| exact(&reference_output(&stored, sql)))
        .collect();
    for profile in all_profiles() {
        for workers in [1, 2] {
            let mut db = session(profile.clone(), workers, data);
            for (sql, expected) in queries.iter().zip(&expected) {
                let report = db.run(sql).unwrap();
                prop_assert_eq!(report.exprs.interpreted, 0, "{}", sql);
                prop_assert_eq!(
                    &exact(&sorted_output(&report)),
                    expected,
                    "{} under {} ({} worker(s)) over {}",
                    sql,
                    profile.name,
                    workers,
                    over
                );
            }
        }
    }
    Ok(())
}

/// A table of one append batch per entry of `batches`: rows
/// `{__rowid, k, v, f}` with the given key, `Int` cell and `Float` cell.
fn edge_batches(batches: &[&[(i64, Value, Value)]]) -> Vec<Vec<Value>> {
    let mut id = 0;
    let row = |(k, v, f): &(i64, Value, Value), id: &mut i64| {
        *id += 1;
        Value::record([
            ("__rowid", Value::Int(*id)),
            ("k", Value::Int(*k)),
            ("v", v.clone()),
            ("f", f.clone()),
        ])
    };
    (batches.iter())
        .map(|rows| rows.iter().map(|r| row(r, &mut id)).collect())
        .collect()
}

/// The edges of the typed accumulators, fed to both differential
/// harnesses (every Nest strategy over 4 partitions; every planner level
/// with 1 and 2 workers): `i64` sums that wrap inside a chunk and across a
/// chunk boundary; a float sum whose value depends on association
/// (`1.0 + 1e16 - 1e16`: every chunking of its three rows adds them in row
/// order); groups whose cells are all NULL (`sum` is `Int(0)`, `avg`,
/// `min`, `max` are NULL); NaN and ±0.0 cells, where `min` / `max` keep the
/// earlier of two equal cells; and an `Int` batch appended to a `Float`
/// one, which reads as a `Val` column and materializes its groups. Every
/// output is byte-identical across the routes and to the reference
/// evaluator.
#[test]
fn typed_accumulators_agree_exactly_at_their_edges() {
    use Value::{Float, Int, Null};
    let (max, min) = (i64::MAX, i64::MIN);
    let ints = "SELECT c.k, count(*) AS n, sum(c.v) AS s, min(c.v) AS mn, max(c.v) AS mx \
         FROM t c GROUP BY c.k";
    let floats = "SELECT c.k, count(*) AS n, sum(c.f) AS s, min(c.f) AS mn, max(c.f) AS mx, \
         avg(c.f) AS a, avg(c.v) AS av FROM t c GROUP BY c.k";
    let rows: &[(i64, Value, Value)] = &[
        // Key 0: wrapping int sums; 8 rows, so chunks of 2 and of 4.
        (0, Int(max), Int(1)),
        (0, Int(max), Null),
        (0, Int(max), Int(2)),
        (0, Int(1), Null),
        (0, Int(min), Null),
        (0, Int(max), Null),
        (0, Int(max), Null),
        (0, Int(-3), Null),
    ];
    let data = edge_batches(&[rows]);
    assert_routes_agree(ints, data[0].clone(), &["k", "v"]);
    assert_columnar_agrees(&data, &[ints], "wrapping sums").unwrap();

    let rows: &[(i64, Value, Value)] = &[
        // Key 0: association (three rows, whatever the chunking).
        (0, Int(1), Float(1.0)),
        (0, Int(2), Float(1e16)),
        (0, Int(3), Float(-1e16)),
    ];
    let data = edge_batches(&[rows]);
    assert_routes_agree(floats, data[0].clone(), &["k", "v", "f"]);
    assert_columnar_agrees(&data, &[floats], "float association").unwrap();

    let rows: &[(i64, Value, Value)] = &[
        (1, Null, Null),
        (2, Int(4), Float(-0.0)),
        (2, Int(5), Float(0.0)),
        (1, Null, Null),
        (3, Int(6), Float(0.0)),
        (3, Int(7), Float(-0.0)),
        (4, Int(8), Float(f64::NAN)),
        (4, Int(9), Float(1.5)),
        (2, Null, Float(-0.0)),
        (4, Int(10), Float(-2.0)),
        (1, Null, Null),
    ];
    let data = edge_batches(&[rows]);
    assert_routes_agree(ints, data[0].clone(), &["k", "v"]);
    assert_routes_agree(floats, data[0].clone(), &["k", "v", "f"]);
    assert_columnar_agrees(&data, &[ints, floats], "NULL groups, NaN, ±0.0").unwrap();

    // An `Int` batch after a `Float` one: `f` is a `Val` column.
    let data = edge_batches(&[rows, &[(2, Int(11), Int(7)), (5, Int(12), Int(0))]]);
    assert_columnar_agrees(&data, &[ints, floats], "an Int batch after a Float one").unwrap();
    let mut db = session(EngineProfile::clean_db(), 2, &data);
    assert_eq!(
        db.run(floats).unwrap().exprs.vectorized_rows,
        0,
        "f is generic"
    );
    assert!(
        db.run(ints).unwrap().exprs.vectorized_rows > 0,
        "v stays typed"
    );
}

/// Float sums associate as a map-side combine does: in row order within a
/// chunk, then the chunk partials in chunk order. Over two chunks of
/// `0.0, 1.0 | 1e16, -1e16` that is `1.0 + 0.0`, where a row-at-a-time sum
/// — the materialized groups, the reference evaluator — gives `0.0`: the
/// documented last-digits caveat of float aggregates.
#[test]
fn float_sums_associate_per_chunk_then_in_chunk_order() {
    use Value::{Float, Int};
    let sql = "SELECT c.k, sum(c.f) AS s FROM t c GROUP BY c.k";
    let rows: &[(i64, Value, Value)] = &[
        (0, Int(0), Float(0.0)),
        (0, Int(0), Float(1.0)),
        (0, Int(0), Float(1e16)),
        (0, Int(0), Float(-1e16)),
    ];
    let data = edge_batches(&[rows]);
    let sum = |report: &CleaningReport| report.ops[0].output[0].field("s").unwrap().clone();
    // One worker: two partitions, so two chunks of two rows.
    let columnar = session(EngineProfile::clean_db(), 1, &data)
        .run(sql)
        .unwrap();
    assert!(columnar.exprs.vectorized_rows > 0);
    assert_eq!(format!("{:?}", sum(&columnar)), format!("{:?}", Float(1.0)));
    let stored = session(EngineProfile::clean_db(), 1, &data);
    let reference = reference_output(&stored, sql);
    assert_eq!(
        format!("{:?}", reference[0].field("s").unwrap()),
        "Float(0.0)"
    );
    let mut materialized = session_over(EngineProfile::clean_db(), ragged(data[0].clone()), 1);
    let materialized = materialized.run(sql).unwrap();
    assert_eq!(materialized.exprs.vectorized_rows, 0);
    assert_eq!(format!("{:?}", sum(&materialized)), "Float(0.0)");
}

/// A table whose every batch columnarizes with typed columns: `n` rows,
/// `keys` distinct `k`, an int `v`, a phone-like `s`, in `batches` appends.
fn typed_session(profile: EngineProfile, n: i64, keys: i64, batches: usize) -> CleanDb {
    session_over(profile, typed_rows(n, keys), batches)
}

fn typed_rows(n: i64, keys: i64) -> Vec<Value> {
    (0..n)
        .map(|i| {
            Value::record([
                ("__rowid", Value::Int(i)),
                ("k", Value::Int(i % keys)),
                ("v", Value::Int(i % 7)),
                ("s", Value::str(format!("{:03}-{i}", i % 5))),
            ])
        })
        .collect()
}

/// The same table in one batch that does not columnarize ([`ragged`]):
/// CleanDB materializes its groups.
fn ragged_session(n: i64, keys: i64) -> CleanDb {
    session_over(EngineProfile::clean_db(), ragged(typed_rows(n, keys)), 1)
}

fn session_over(profile: EngineProfile, rows: Vec<Value>, batches: usize) -> CleanDb {
    let n = rows.len();
    let mut db = CleanDb::with_context(profile, ExecContext::new(2, 4));
    let mut chunks = rows.chunks(n.div_ceil(batches).max(1));
    db.register_values("t", chunks.next().unwrap_or_default().to_vec());
    for more in chunks {
        db.append_values("t", more.to_vec()).unwrap();
    }
    db
}

fn stage_names(report: &CleaningReport) -> Vec<&'static str> {
    report.metrics.stages.iter().map(|s| s.operator).collect()
}

/// Single-column keys (`SlotField`), derived keys and member expressions
/// (`CallFused`), constant slots (`count(*)` = `Sum{1}`), record-valued
/// right-hand sides and fused `WHERE` chains all lower: the sweep covers
/// every row and no row dataset (`filter`, `aggregate_by_key`) is built.
#[test]
fn every_column_expression_shape_takes_the_columnar_route() {
    for sql in [
        "SELECT * FROM t c FD(c.k | c.v)",
        "SELECT * FROM t c FD(c.k, c.v | c.s)",
        "SELECT * FROM t c FD(c.k | prefix(c.s))",
        "SELECT * FROM t c FD(prefix(c.s) | c.k)",
        "SELECT * FROM t c FD(c.k | c.v, c.s)",
        "SELECT * FROM t c WHERE c.v > 2 FD(c.k | c.v)",
        "SELECT c.k, count(*) AS n FROM t c GROUP BY c.k",
        "SELECT c.k, sum(c.v) AS s, avg(c.v) AS a, count_distinct(c.s) AS d \
         FROM t c WHERE c.v < 6 GROUP BY c.k HAVING count(*) > 1",
        "SELECT count(*) AS n, min(c.v) AS m FROM t c GROUP BY upper(c.s)",
    ] {
        for batches in [1, 3] {
            let mut db = typed_session(EngineProfile::clean_db(), 600, 40, batches);
            let report = db.run(sql).unwrap();
            assert_eq!(
                report.exprs.vectorized_rows, 600,
                "{sql}: {:?}",
                report.exprs
            );
            let stages = stage_names(&report);
            assert!(
                stages.iter().all(|s| s.starts_with("group_f")),
                "{sql} over {batches} batch(es) built a row dataset: {stages:?}"
            );
            assert_eq!(
                report.decisions.len(),
                1,
                "the Nest's decision is recorded once: {:?}",
                report.decisions
            );
            let materialized = ragged_session(600, 40).run(sql).unwrap();
            assert_eq!(materialized.exprs.vectorized_rows, 0, "{sql}");
            assert_eq!(named_output(&report), named_output(&materialized), "{sql}");
            assert_eq!(report.violating_ids, materialized.violating_ids, "{sql}");
            assert_eq!(report.decisions, materialized.decisions, "{sql}");
        }
    }
}

/// What does not lower materializes its groups — decided once, with the
/// same recorded decision: non-`LocalAggregate` strategies, a shared scan, `Val` columns, arithmetic in the key, and
/// tables whose rows do not columnarize.
#[test]
fn what_does_not_lower_materializes_its_groups() {
    let fd = "SELECT * FROM t c FD(c.k | c.v)";
    let swept = |db: &mut CleanDb, sql: &str| db.run(sql).unwrap().exprs.vectorized_rows;

    for nest in [NestStrategy::HashShuffle, NestStrategy::SortShuffle] {
        assert_eq!(
            swept(&mut typed_session(fold_profile(nest), 200, 9, 1), fd),
            0
        );
    }
    assert_eq!(swept(&mut ragged_session(200, 9), fd), 0);

    let mut db = typed_session(EngineProfile::clean_db(), 200, 9, 1);
    // The FD's Nest is shared with the DEDUP: it groups once, by column,
    // and neither consumer materializes its groups.
    let shared = "SELECT * FROM t c FD(c.k | c.v) DEDUP(exact, LD, 0.9, c.k, c.s)";
    let report = db.run(shared).unwrap();
    assert!(!stage_names(&report).contains(&"aggregate_by_key"));
    assert!(report.exprs.vectorized_rows > 0);
    // Arithmetic is not a column expression.
    assert_eq!(
        swept(&mut db, "SELECT count(*) AS n FROM t c GROUP BY c.k + 1"),
        0
    );
    // A `Val` key column (ints and strings), then a shuffled-layout batch.
    db.append_values(
        "t",
        vec![Value::record([
            ("__rowid", Value::Int(200)),
            ("k", Value::str("x")),
            ("v", Value::Int(1)),
            ("s", Value::str("y")),
        ])],
    )
    .unwrap();
    assert_eq!(
        swept(&mut db, fd),
        0,
        "a key column of ints and strings across batches is a `Val` column"
    );
    db.append_values(
        "t",
        vec![
            Value::record([
                ("__rowid", Value::Int(201)),
                ("k", Value::Int(1)),
                ("v", Value::Int(1)),
                ("s", Value::Null),
            ]),
            Value::record([
                ("__rowid", Value::Int(202)),
                ("k", Value::str("1")),
                ("v", Value::Int(1)),
                ("s", Value::Null),
            ]),
        ],
    )
    .unwrap();
    assert_eq!(swept(&mut db, fd), 0, "a `Val` key column");
    assert_eq!(
        swept(&mut db, "SELECT * FROM t c FD(c.v | c.k)"),
        0,
        "a `Val` member column"
    );
    let mut db = typed_session(EngineProfile::clean_db(), 200, 9, 1);
    db.append_values(
        "t",
        vec![Value::record([
            ("s", Value::str("y")),
            ("v", Value::Int(1)),
            ("k", Value::Int(1)),
            ("__rowid", Value::Int(200)),
        ])],
    )
    .unwrap();
    db.append_values(
        "t",
        vec![Value::record([
            ("__rowid", Value::Int(201)),
            ("v", Value::Int(1)),
            ("k", Value::Int(1)),
            ("s", Value::str("y")),
        ])],
    )
    .unwrap();
    assert_eq!(
        swept(&mut db, fd),
        0,
        "rows of two field layouts do not read by column, whichever batch they are in"
    );
}

/// An aggregate that cannot fold a cell fails the query with the same
/// typed error on both routes.
#[test]
fn sum_over_a_string_column_is_the_same_typed_error_on_both_routes() {
    let sql = "SELECT c.k, sum(c.s) AS s FROM t c GROUP BY c.k";
    let error = |profile: EngineProfile| {
        let mut db = typed_session(profile, 50, 5, 2);
        db.run(sql).unwrap_err().to_string()
    };
    let columnar = error(EngineProfile::clean_db());
    let materialized = ragged_session(50, 5).run(sql).unwrap_err();
    assert_eq!(columnar, materialized.to_string());
    assert!(columnar.contains("type mismatch"), "{columnar}");
}

/// Grouped-aggregate shuffle volume: one `group_fold` stage over all rows
/// moves the per-chunk group partials — at most chunks × distinct keys,
/// independent of row count — and `group_finish` sees the groups. Hash
/// grouping, materialized, moves every row.
#[test]
fn columnar_grouped_aggregate_moves_one_partial_per_chunk_and_group() {
    let mut db = typed_session(EngineProfile::clean_db(), 8_000, 10, 1);
    let report = db
        .run("SELECT c.k, count(*) AS n, sum(c.v) AS s FROM t c GROUP BY c.k")
        .unwrap();
    assert_eq!(report.ops[0].output.len(), 10);
    assert_eq!(stage_names(&report), ["group_fold", "group_finish"]);
    let fold = &report.metrics.stages[0];
    assert_eq!(fold.records_in, 8_000);
    assert_eq!(
        fold.records_shuffled,
        4 * 10,
        "ten groups in each of four chunks"
    );
    assert_eq!(report.metrics.stages[1].records_in, 10);
    assert_eq!(report.exprs.vectorized_rows, 8_000);
    let hash = materialize_profile(NestStrategy::HashShuffle);
    let materialized = typed_session(hash, 8_000, 10, 1)
        .run("SELECT c.k, count(*) AS n, sum(c.v) AS s FROM t c GROUP BY c.k")
        .unwrap();
    let stages = &materialized.metrics.stages;
    let grouping = stages.iter().find(|s| s.operator == "group_by_key_hash");
    let grouping = grouping.unwrap();
    assert_eq!(
        grouping.records_shuffled, 8_000,
        "hash grouping moves all rows"
    );
}

/// FD two-phase execution: the probe moves one partial table per chunk,
/// and phase two sees the violating rows alone — gathered by index, one
/// member list per (chunk, violating group).
#[test]
fn columnar_fd_gathers_only_violating_rows() {
    let rows: Vec<Value> = (0..4_000)
        .map(|i| {
            let k = i % 40;
            let v = i64::from((k == 3 || k == 17) && i % 400 == k);
            Value::record([
                ("__rowid", Value::Int(i)),
                ("k", Value::Int(k)),
                ("v", Value::Int(v)),
            ])
        })
        .collect();
    let mut db = CleanDb::with_context(EngineProfile::clean_db(), ExecContext::new(2, 4));
    db.register_values("t", rows.clone());
    let report = db.run("SELECT * FROM t c FD(c.k | c.v)").unwrap();
    assert_eq!(report.ops[0].output.len(), 2, "two violating groups");
    assert_eq!(
        stage_names(&report),
        ["group_fold_probe", "group_fold_materialize"]
    );
    let (probe, gather) = (&report.metrics.stages[0], &report.metrics.stages[1]);
    assert_eq!(probe.records_in, 4_000);
    assert_eq!(probe.records_shuffled, 4, "one partial table per chunk");
    assert_eq!(gather.records_in, 200, "only violating rows are gathered");
    assert_eq!(
        gather.records_shuffled,
        4 * 2,
        "two violating groups in each chunk"
    );
    // Members are the stored rows, in ascending row order.
    let mut row_db = CleanDb::new(EngineProfile::clean_db());
    row_db.register_values("t", ragged(rows));
    let materialized = row_db.run("SELECT * FROM t c FD(c.k | c.v)").unwrap();
    assert_eq!(materialized.exprs.vectorized_rows, 0);
    assert_eq!(named_output(&report), named_output(&materialized));
    assert!(report.metrics.records_shuffled <= materialized.metrics.records_shuffled);
}

/// An all-clean FD decides from the probe alone: phase two never runs.
#[test]
fn columnar_clean_fd_runs_no_phase_two() {
    let mut db = typed_session(EngineProfile::clean_db(), 1_000, 20, 1);
    let report = db.run("SELECT * FROM t c FD(c.k | c.k)").unwrap();
    assert!(report.ops[0].output.is_empty());
    assert_eq!(stage_names(&report), ["group_fold_probe"]);
}

/// The FD of `fd.lineitem` (composite key, ~10% noisy order keys) on the
/// columnar route moves no more records than materialized groups do.
#[test]
fn columnar_fd_on_lineitem_shuffles_no_more_than_materialized_groups() {
    use cleanm::datagen::tpch::{LineitemGen, NoiseColumn};
    let table = LineitemGen::new(42)
        .rows(3_000)
        .base_rows(3_000)
        .noise_column(NoiseColumn::OrderKey)
        .generate()
        .table;
    let sql = "SELECT * FROM lineitem l FD(l.orderkey, l.linenumber | l.suppkey)";
    let mut db = CleanDb::with_context(EngineProfile::clean_db(), ExecContext::new(1, 4));
    db.register("lineitem", table);
    let columnar = db.run(sql).unwrap();
    let rows = db.table_rows("lineitem").unwrap();
    db.register_values("lineitem", ragged(rows.to_vec()));
    let materialized = db.run(sql).unwrap();
    assert_eq!(columnar.exprs.vectorized_rows, 3_000);
    assert_eq!(materialized.exprs.vectorized_rows, 0);
    assert!(!columnar.violating_ids.is_empty());
    assert_eq!(columnar.violating_ids, materialized.violating_ids);
    assert!(
        columnar.metrics.records_shuffled <= materialized.metrics.records_shuffled,
        "{} > {}",
        columnar.metrics.records_shuffled,
        materialized.metrics.records_shuffled
    );
}

// ---------------------------------------------------------------------
// Grouped blocks: one `Nest` read by an FD's fold and two pair sweeps
// ---------------------------------------------------------------------

/// An FD, an exact DEDUP and a blocked DC over one `Nest` key — in one
/// statement (the `Nest` shared by all three), each alone, all three
/// beneath a `WHERE` chain, an FD whose right-hand side does not lower
/// onto columns beside the DEDUP (it reads groups materialized from the
/// blocks), and [`SHARED_FOLDS`]' two FDs beside the DEDUP — with the
/// columns each statement reads.
const BLOCK_QUERIES: [(&str, &[&str]); 8] = [
    (
        "SELECT * FROM t c FD(c.k | c.v) DEDUP(exact, LD, 0.7, c.k, c.n) \
         DC(t1.k = t2.k AND t1.v > t2.v)",
        &["k", "n", "v"],
    ),
    ("SELECT * FROM t c FD(c.k | c.v)", &["k", "v"]),
    (
        "SELECT * FROM t c DEDUP(exact, LD, 0.7, c.k, c.n)",
        &["k", "n"],
    ),
    (
        "SELECT * FROM t c DC(t1.k = t2.k AND t1.v > t2.v)",
        &["k", "v"],
    ),
    (
        "SELECT * FROM t c WHERE c.v > 0 FD(c.k | c.v) DEDUP(exact, LD, 0.7, c.k, c.n) \
         DC(t1.k = t2.k AND t1.v > t2.v)",
        &["k", "n", "v"],
    ),
    (
        "SELECT * FROM t c FD(c.k | c.v + 1) DEDUP(exact, LD, 0.7, c.k, c.n)",
        &["k", "n"],
    ),
    (SHARED_FOLDS[0].0, &["k", "n", "v"]),
    (SHARED_FOLDS[1].0, &["k", "n", "v"]),
];

/// Two FDs and a DEDUP over one `Nest`, with and without a `WHERE` chain,
/// and each FD's statement alone.
const SHARED_FOLDS: [(&str, [&str; 2]); 2] = [
    (
        "SELECT * FROM t c FD(c.k | c.v) FD(c.k | c.n) DEDUP(exact, LD, 0.7, c.k, c.n)",
        [
            "SELECT * FROM t c FD(c.k | c.v)",
            "SELECT * FROM t c FD(c.k | c.n)",
        ],
    ),
    (
        "SELECT * FROM t c WHERE c.v > 0 FD(c.k | c.v) FD(c.k | c.n) \
         DEDUP(exact, LD, 0.7, c.k, c.n)",
        [
            "SELECT * FROM t c WHERE c.v > 0 FD(c.k | c.v)",
            "SELECT * FROM t c WHERE c.v > 0 FD(c.k | c.n)",
        ],
    ),
];

/// Rows `{__rowid, k, n, v}` from `(k, n, v)` cells.
fn block_table(cells: impl IntoIterator<Item = (Value, Value, Value)>) -> Vec<Value> {
    let row = |(i, (k, n, v)): (usize, (Value, Value, Value))| {
        Value::record([
            ("__rowid", Value::Int(i as i64)),
            ("k", k),
            ("n", n),
            ("v", v),
        ])
    };
    cells.into_iter().enumerate().map(row).collect()
}

/// A generated block table: float keys with NULL, NaN and both zeros
/// among them (NULL and NaN each block together, `-0.0` with `0.0`),
/// names with NULL and near-duplicates among them, small ints with NULL.
fn block_rows() -> BoxedStrategy<Vec<Value>> {
    let key = prop_oneof![
        Just(Value::Null),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.0)),
        Just(Value::Float(1.5)),
        Just(Value::Float(2.0)),
    ];
    let name = prop_oneof![
        Just(Value::Null),
        Just(Value::str("")),
        Just(Value::str("anderson")),
        Just(Value::str("andersen")),
        Just(Value::str("zhang")),
    ];
    let v = prop_oneof![Just(Value::Null), (0i64..4).prop_map(Value::Int)];
    proptest::collection::vec((key, name, v), 0..40)
        .prop_map(block_table)
        .boxed()
}

fn block_session(profile: EngineProfile, workers: usize, rows: Vec<Value>) -> CleanDb {
    let mut db = CleanDb::with_context(profile, ExecContext::new(workers, 2 * workers));
    db.set_tracing(true);
    db.register_values("t", rows);
    db
}

/// Index pairs the pair sweeps enumerated: the `rows_in` of every traced
/// root over a `fused-pairs` node.
fn pairs_enumerated(report: &CleaningReport) -> u64 {
    let pairs = |n: &ProfileNode| {
        n.children
            .iter()
            .any(|c| c.flags.iter().any(|f| f == "fused-pairs"))
    };
    (report.profiles.iter())
        .filter(|p| pairs(&p.root))
        .map(|p| p.root.rows_in)
        .sum()
}

/// Every op's outputs as a sorted multiset, fields in name order (member
/// order within each group pinned).
fn all_named_outputs(report: &CleaningReport) -> Vec<Vec<String>> {
    let named = |op: &cleanm::core::engine::OpResult| {
        let mut out: Vec<Value> = op.output.iter().map(by_name).collect();
        out.sort();
        exact(&out)
    };
    report.ops.iter().map(named).collect()
}

/// Each of [`BLOCK_QUERIES`] over `rows` with 1 and 2 workers: CleanDB over
/// the typed table (grouped blocks wherever the columns it reads are
/// typed), CleanDB over the same table made [`ragged`] (materialized
/// groups) and the SparkSQL-like profile agree on every op's outputs, the
/// violating ids, the index pairs enumerated and the comparisons.
fn assert_blocks_agree(rows: &[Value]) -> Result<(), TestCaseError> {
    for (sql, read) in BLOCK_QUERIES {
        let typed = |c: &&str| rows.iter().any(|r| !r.field(c).unwrap().is_null());
        let columnar = !rows.is_empty() && read.iter().all(typed);
        let pairs = sql.contains("DEDUP") || sql.contains("DC(");
        for workers in [1, 2] {
            let run = |profile: EngineProfile, rows: Vec<Value>| {
                block_session(profile, workers, rows).run(sql).unwrap()
            };
            let grouped = run(EngineProfile::clean_db(), rows.to_vec());
            let by_row = run(EngineProfile::clean_db(), ragged(rows.to_vec()));
            let spark = run(EngineProfile::spark_sql_like(), rows.to_vec());
            prop_assert_eq!(
                stage_names(&grouped).contains(&"group_blocks"),
                columnar && pairs,
                "{} ({} worker(s))",
                sql,
                workers
            );
            // One row reversed is still one layout: it reads by column.
            let by_rows = rows.len() > 1;
            prop_assert!(
                !stage_names(&by_row).contains(&"group_blocks") || !by_rows,
                "{}",
                sql
            );
            for (other, route) in [(&by_row, "ragged"), (&spark, "SparkSQL")] {
                let on = format!("{sql} against {route} ({workers} worker(s))");
                prop_assert_eq!(
                    all_named_outputs(&grouped),
                    all_named_outputs(other),
                    "{}",
                    on
                );
                prop_assert_eq!(&grouped.violating_ids, &other.violating_ids, "{}", on);
                prop_assert_eq!(
                    pairs_enumerated(&grouped),
                    pairs_enumerated(other),
                    "{}",
                    on
                );
                prop_assert_eq!(
                    grouped.metrics.comparisons,
                    other.metrics.comparisons,
                    "{}",
                    on
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grouped_blocks_agree_with_materialized_groups(rows in block_rows()) {
        assert_blocks_agree(&rows)?;
    }
}

/// Each of [`SHARED_FOLDS`] over `rows` with 1, 2 and 4 workers: the two
/// FDs fold in the shared `Nest`'s one grouping pass — the statement runs
/// no stage but `group_blocks` and the DEDUP's `map_partitions` when the
/// columns it reads are typed — and each FD's output is, byte for byte and
/// in order (groups, then members), the output of the same FD alone, which
/// groups and folds in its own pass: the one merge in chunk order gives
/// both.
fn assert_shared_folds_equal_lone(rows: &[Value]) -> Result<(), TestCaseError> {
    let typed = |c: &&str| rows.iter().any(|r| !r.field(c).unwrap().is_null());
    let columnar = !rows.is_empty() && ["k", "n", "v"].iter().all(typed);
    for (shared, alone) in SHARED_FOLDS {
        for workers in [1, 2, 4] {
            let run = |sql: &str| {
                block_session(EngineProfile::clean_db(), workers, rows.to_vec())
                    .run(sql)
                    .unwrap()
            };
            let report = run(shared);
            let on = format!("{shared} ({workers} worker(s))");
            if columnar {
                let stages = stage_names(&report);
                prop_assert_eq!(stages, ["group_blocks", "map_partitions"], "{}", on);
            }
            for (op, sql) in report.ops.iter().zip(alone) {
                let lone = run(sql);
                prop_assert_eq!(exact(&op.output), exact(&lone.ops[0].output), "{}", on);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shared_folds_equal_lone_folds(rows in block_rows()) {
        assert_shared_folds_equal_lone(&rows)?;
    }
}

/// The edges of block tables: none, all singletons, one 60-member block.
#[test]
fn grouped_blocks_agree_at_their_edges() {
    let names = ["anderson", "andersen", "anders", "zhang"];
    let singletons = (0..30).map(|i| {
        (
            Value::Float(i as f64),
            Value::str(names[i % 4]),
            Value::Int(i as i64 % 3),
        )
    });
    let one_block = (0..60).map(|i| {
        (
            Value::Float(1.5),
            Value::str(names[i % 4]),
            Value::Int(i as i64 % 5),
        )
    });
    for rows in [Vec::new(), block_table(singletons), block_table(one_block)] {
        assert_blocks_agree(&rows).unwrap();
        assert_shared_folds_equal_lone(&rows).unwrap();
    }
}

/// A DEDUP and a blocked DC over one `Nest` share its `Unnest` chain; each
/// sweeps the blocks itself, and the blocks are grouped once on either
/// route: by column, or materialized once for both sweeps.
#[test]
fn two_sweeps_over_a_shared_unnest_group_once() {
    let sql = "SELECT * FROM t c DEDUP(exact, LD, 0.7, c.k, c.n) DC(t1.k = t2.k AND t1.v > t2.v)";
    let cells = (0..40).map(|i| {
        let name = ["anderson", "andersen", "zhang"][i % 3];
        (
            Value::Float((i % 7) as f64),
            Value::str(name),
            Value::Int(i as i64 % 5),
        )
    });
    let rows = block_table(cells);
    for (rows, grouping) in [
        (rows.clone(), "group_blocks"),
        (ragged(rows), "aggregate_by_key"),
    ] {
        let report = block_session(EngineProfile::clean_db(), 1, rows)
            .run(sql)
            .unwrap();
        let grouped = |s: &&str| s.contains("aggregate") || s.contains("group");
        let stages: Vec<&str> = stage_names(&report).into_iter().filter(grouped).collect();
        assert_eq!(stages, [grouping]);
    }
}

/// A work budget below a block's `|B|²` stops either route's sweep with
/// the same typed failure.
#[test]
fn a_block_over_the_budget_fails_alike_on_both_routes() {
    let one_block = (0..60).map(|i| (Value::Float(1.5), Value::str("anderson"), Value::Int(i)));
    let rows = block_table(one_block);
    let sql = BLOCK_QUERIES[0].0;
    let limits = cleanm::core::RunLimits {
        max_work: Some(60 * 60 - 1),
        ..Default::default()
    };
    for rows in [rows.clone(), ragged(rows)] {
        let mut db = block_session(EngineProfile::clean_db(), 2, rows);
        let failure = db.run_with_limits(sql, limits).unwrap().failure.unwrap();
        assert_eq!(failure.kind, "budget_exceeded");
        assert!(failure.resource_limit);
        assert!(
            failure
                .error
                .starts_with("work budget exceeded in pair_sweep"),
            "{}",
            failure.error
        );
    }
}

// ---------------------------------------------------------------------
// Keyed blocks: token-filter and k-means `Nest`s under CLUSTER BY and
// DEDUP, grouped by the distinct values of `BlockKeys`' argument
// ---------------------------------------------------------------------

/// CLUSTER BY and DEDUP over token filtering (q = 2 and 3) and k-means,
/// with and without a `WHERE` chain, with the columns each reads.
const KEYED_QUERIES: [(&str, &[&str]); 7] = [
    (
        "SELECT * FROM t x, dict w CLUSTER BY(token_filtering(2), LD, 0.6, x.name)",
        &["name"],
    ),
    (
        "SELECT * FROM t x, dict w WHERE x.v > 0 CLUSTER BY(token_filtering(3), LD, 0.5, x.name)",
        &["name", "v"],
    ),
    (
        "SELECT * FROM t x, dict w CLUSTER BY(kmeans(2), LD, 0.5, x.name)",
        &["name"],
    ),
    (
        "SELECT * FROM t c DEDUP(token_filtering(2), LD, 0.6, c.name)",
        &["name"],
    ),
    (
        "SELECT * FROM t c WHERE c.v > 0 DEDUP(token_filtering(3), LD, 0.5, c.name)",
        &["name", "v"],
    ),
    (
        "SELECT * FROM t c DEDUP(kmeans(2), LD, 0.5, c.name)",
        &["name"],
    ),
    (
        "SELECT * FROM t c DEDUP(token_filtering(2), LD, 0.5, c.name, c.v)",
        &["name", "v"],
    ),
];

/// Terms: NULL, empty, shorter than q, non-ASCII and near-duplicates.
const TERMS: [&str; 10] = [
    "", "a", "ab", "anderson", "andersen", "zoë", "zoe", "müller", "mueller", "smith",
];

/// Rows `{__rowid, name, v}`: a name from [`TERMS`] or NULL (index 10),
/// and a small int or NULL.
fn term_table(cells: &[(usize, Option<i64>)]) -> Vec<Value> {
    let name = |i: usize| TERMS.get(i).map_or(Value::Null, Value::str);
    let row = |(i, &(n, v)): (usize, &(usize, Option<i64>))| {
        Value::record([
            ("__rowid", Value::Int(i as i64)),
            ("name", name(n)),
            ("v", v.map_or(Value::Null, Value::Int)),
        ])
    };
    cells.iter().enumerate().map(row).collect()
}

/// A generated table (repeated names among up to 30 rows) and dictionary
/// (up to six terms, repeats allowed, possibly none).
fn term_inputs() -> BoxedStrategy<(Vec<Value>, Vec<String>)> {
    let cell = (
        0usize..11,
        prop_oneof![Just(None), (0i64..3).prop_map(Some)],
    );
    let rows = proptest::collection::vec(cell, 0..30).prop_map(|cells| term_table(&cells));
    let dict = proptest::collection::vec((0usize..10).prop_map(|i| TERMS[i].to_string()), 0..6);
    (rows, dict).boxed()
}

fn keyed_session(
    profile: EngineProfile,
    workers: usize,
    rows: Vec<Value>,
    dict: &[String],
) -> CleanDb {
    let mut db = block_session(profile, workers, rows);
    db.register_dictionary("dict", dict.to_vec());
    db
}

/// The reference evaluator's context for `sql`'s one operator over the
/// session's tables, its blockers prepared as the session prepares them
/// (k-means centers from the dictionary), and the operator's
/// comprehension.
fn keyed_reference(db: &CleanDb, sql: &str, dict: &[String]) -> (EvalCtx, CalcExpr) {
    use cleanm::core::calculus::normalize;
    let query = parse_query(sql).unwrap();
    let op = desugar_query(&query, 42).unwrap().ops.remove(0);
    let (comp, _) = normalize(&op.comp);
    let table = |name: &str| Value::list(db.table_rows(name).unwrap().iter().cloned());
    let mut ctx = EvalCtx::new()
        .with_table("t", table("t"))
        .with_table("dict", table("dict"));
    ctx.prepare_blockers(&comp, dict);
    (ctx, comp)
}

/// The operator's blocker and similarity threshold, as its comprehension
/// names them.
fn keyed_funcs(comp: &CalcExpr) -> (FilterAlgo, f64) {
    let (mut algo, mut theta) = (None, None);
    comp.any_node(&mut |e| {
        match e {
            CalcExpr::Call(Func::BlockKeys(a), _) => algo = Some(a.clone()),
            CalcExpr::Call(Func::Similar(_, t), _) => theta = Some(*t),
            _ => {}
        }
        false
    });
    (
        algo.expect("a keyed operator"),
        theta.expect("a similarity test"),
    )
}

/// The blocking keys of `term` under the operator's blocker.
fn block_keys(ctx: &EvalCtx, comp: &CalcExpr, term: &Value) -> Vec<Value> {
    let call = CalcExpr::call(
        Func::BlockKeys(keyed_funcs(comp).0),
        vec![CalcExpr::Const(term.clone())],
    );
    eval(&call, &vec![], ctx)
        .unwrap()
        .as_list()
        .unwrap()
        .to_vec()
}

/// Do the length and count filters let the values `a` and `b`, with
/// `keys_a` and `keys_b` distinct keys of which they share `shared`, reach
/// Levenshtein at `theta`? Their texts differ in length by at most the
/// matcher's k edits, and under token filtering(`q`), when both normalize
/// character by character, they share at least `max(keys) − q·k` q-grams.
fn filters_admit(
    theta: f64,
    q: Option<usize>,
    (a, keys_a): (&Value, usize),
    (b, keys_b): (&Value, usize),
    shared: usize,
) -> bool {
    use cleanm::cluster::normalizes_per_char;
    use cleanm::text::Metric;
    let (a, b) = (a.to_text(), b.to_text());
    let (la, lb) = (a.chars().count(), b.chars().count());
    let k = Metric::Levenshtein.max_edits(theta, la, lb).unwrap();
    let per_char = normalizes_per_char(&a) && normalizes_per_char(&b);
    la.abs_diff(lb) <= k
        && match q {
            Some(q) if per_char => shared + q * k >= keys_a.max(keys_b),
            _ => true,
        }
}

/// The distinct `(outer, inner)` value pairs that reach Levenshtein,
/// counted from the data: CLUSTER BY's (term, dictionary word) pairs
/// sharing a block, DEDUP's (name, name) pairs of rows sharing a block
/// with ascending `__rowid`s, each only if [`filters_admit`] it.
fn compared_value_pairs(db: &CleanDb, sql: &str, dict: &[String]) -> usize {
    let (ctx, comp) = keyed_reference(db, sql, dict);
    let (algo, theta) = keyed_funcs(&comp);
    let q = match algo {
        FilterAlgo::TokenFilter { q } => Some(q),
        _ => None,
    };
    let keys = |v: &Value| -> HashSet<Value> { block_keys(&ctx, &comp, v).into_iter().collect() };
    let admits = |a: &Value, b: &Value| {
        let (ka, kb) = (keys(a), keys(b));
        let shared = ka.intersection(&kb).count();
        shared > 0 && filters_admit(theta, q, (a, ka.len()), (b, kb.len()), shared)
    };
    let passes = |r: &Value| {
        !sql.contains("WHERE") || matches!(r.field("v").unwrap(), Value::Int(v) if *v > 0)
    };
    let table = db.table_rows("t").unwrap();
    let rows: Vec<&Value> = table.iter().filter(|r| passes(r)).collect();
    let name = |r: &Value| r.field("name").unwrap().clone();
    let mut pairs: HashSet<(Value, Value)> = HashSet::new();
    if sql.contains("CLUSTER BY") {
        for r in &rows {
            for w in dict.iter().map(Value::str) {
                pairs.insert((name(r), w));
            }
        }
    } else {
        for a in &rows {
            for b in &rows {
                if a.field("__rowid").unwrap() < b.field("__rowid").unwrap() {
                    pairs.insert((name(a), name(b)));
                }
            }
        }
    }
    pairs.iter().filter(|(a, b)| admits(a, b)).count()
}

/// Each of [`KEYED_QUERIES`] over `rows` and `dict` with 1 and 2 workers:
/// CleanDB over the typed table (keyed blocks when the columns it reads
/// are typed), CleanDB over the same table made [`ragged`] (materialized
/// groups), the SparkSQL-like profile and the reference evaluator agree on
/// the outputs as sorted multisets; the three runs enumerate the same
/// index pairs; and the typed run compares no more than the row route,
/// which compares once per shared block, and — at 1 worker — exactly the
/// distinct value pairs that reach the similarity conjunct and pass the
/// length and count filters.
fn assert_keyed_agree(rows: &[Value], dict: &[String]) -> Result<(), TestCaseError> {
    for (sql, read) in KEYED_QUERIES {
        let typed = |c: &&str| rows.iter().any(|r| !r.field(c).unwrap().is_null());
        let columnar = !rows.is_empty() && read.iter().all(typed);
        let coded = columnar && !sql.contains("c.v)");
        for workers in [1, 2] {
            let run = |profile: EngineProfile, rows: Vec<Value>| {
                let mut db = keyed_session(profile, workers, rows, dict);
                let report = db.run(sql).unwrap();
                (db, report)
            };
            let (db, keyed) = run(EngineProfile::clean_db(), rows.to_vec());
            let (_, by_row) = run(EngineProfile::clean_db(), ragged(rows.to_vec()));
            let (_, spark) = run(EngineProfile::spark_sql_like(), rows.to_vec());
            let on = format!("{sql} ({workers} worker(s))");
            prop_assert_eq!(
                stage_names(&keyed).contains(&"group_blocks"),
                columnar,
                "{}",
                on
            );
            // One row reversed is still one layout: it reads by column.
            let by_rows = rows.len() > 1;
            prop_assert!(
                !stage_names(&by_row).contains(&"group_blocks") || !by_rows,
                "{}",
                on
            );
            prop_assert!(!stage_names(&spark).contains(&"group_blocks"), "{}", on);
            let joined = stage_names(&keyed).contains(&"join_hash");
            prop_assert!(!joined || !columnar || dict.is_empty(), "{}", on);
            let (ctx, comp) = keyed_reference(&db, sql, dict);
            let mut reference = eval(&comp, &vec![], &ctx)
                .unwrap()
                .as_list()
                .unwrap()
                .to_vec();
            reference.sort();
            prop_assert_eq!(exact(&sorted_output(&keyed)), exact(&reference), "{}", on);
            for (other, route) in [(&by_row, "ragged"), (&spark, "SparkSQL")] {
                let on = format!("{on} against {route}");
                prop_assert_eq!(named_output(&keyed), named_output(other), "{}", on);
                prop_assert_eq!(&keyed.violating_ids, &other.violating_ids, "{}", on);
                prop_assert_eq!(pairs_enumerated(&keyed), pairs_enumerated(other), "{}", on);
                prop_assert!(
                    keyed.metrics.comparisons <= other.metrics.comparisons,
                    "{}: {} > {}",
                    on,
                    keyed.metrics.comparisons,
                    other.metrics.comparisons
                );
            }
            if coded && workers == 1 {
                let compared = compared_value_pairs(&db, sql, dict) as u64;
                prop_assert_eq!(keyed.metrics.comparisons, compared, "{}", on);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn keyed_blocks_agree_with_materialized_groups((rows, dict) in term_inputs()) {
        assert_keyed_agree(&rows, &dict)?;
    }
}

/// The edges: no rows, no dictionary, one name repeated forty times
/// against a dictionary of one word repeated, every term once.
#[test]
fn keyed_blocks_agree_at_their_edges() {
    let all: Vec<(usize, Option<i64>)> = (0..11).map(|i| (i, Some(1))).collect();
    let same: Vec<(usize, Option<i64>)> = (0..40).map(|i| (3, Some(i % 3))).collect();
    let words = |n: usize, w: &str| vec![w.to_string(); n];
    for (cells, dict) in [
        (Vec::new(), words(2, "smith")),
        (all.clone(), Vec::new()),
        (same, words(5, "andersen")),
        (all, TERMS.iter().map(|t| t.to_string()).collect()),
    ] {
        assert_keyed_agree(&term_table(&cells), &dict).unwrap();
    }
}

/// A work budget below the largest block pair stops either route's sweep
/// with the same typed failure.
#[test]
fn a_keyed_block_over_the_budget_fails_alike_on_both_routes() {
    let cells: Vec<(usize, Option<i64>)> = (0..40).map(|i| (3, Some(i))).collect();
    let rows = term_table(&cells);
    let dict = vec!["anderson".to_string(); 40];
    let limits = cleanm::core::RunLimits {
        max_work: Some(40 * 40 - 1),
        ..Default::default()
    };
    for (sql, _) in [KEYED_QUERIES[0], KEYED_QUERIES[3]] {
        for rows in [rows.clone(), ragged(rows.clone())] {
            let mut db = keyed_session(EngineProfile::clean_db(), 2, rows, &dict);
            let failure = db.run_with_limits(sql, limits).unwrap().failure.unwrap();
            assert_eq!(failure.kind, "budget_exceeded", "{sql}");
            assert!(
                failure
                    .error
                    .starts_with("work budget exceeded in pair_sweep"),
                "{sql}: {}",
                failure.error
            );
        }
    }
}

/// Terms for the count and length filters: the empty string, terms
/// shorter than q, uppercase, punctuation and double spaces (where
/// normalization is not one character per character), non-ASCII and
/// near-duplicates. Index [`FILTER_TERMS`]`.len()` is NULL.
const FILTER_TERMS: [&str; 16] = [
    "",
    "a",
    "Ab",
    "anderson",
    "ANDERSEN",
    "and-erson",
    "and  erson",
    " anderson.",
    "o'brien",
    "obrien",
    "zoë",
    "Zoe",
    "müller",
    "mueller",
    "日本語の名前",
    "smith",
];

/// θ at both ends and where `(1 − θ)·len` lands on an integer in decimal
/// but not in binary (0.8 × 5, 0.7 × 10, 0.6 × 5).
const FILTER_THETAS: [f64; 6] = [0.0, 1.0, 0.8, 0.7, 0.75, 0.6];

/// Rows `{__rowid, name, v}` over [`FILTER_TERMS`].
fn filter_table(cells: &[usize]) -> Vec<Value> {
    let name = |i: usize| FILTER_TERMS.get(i).map_or(Value::Null, Value::str);
    let row = |(i, &n): (usize, &usize)| {
        Value::record([
            ("__rowid", Value::Int(i as i64)),
            ("name", name(n)),
            ("v", Value::Int(i as i64 % 3)),
        ])
    };
    cells.iter().enumerate().map(row).collect()
}

/// A generated table (up to 24 rows, repeats and NULLs among them), a
/// dictionary (up to six terms, repeats allowed, possibly none), q and θ.
fn filter_inputs() -> BoxedStrategy<(Vec<Value>, Vec<String>, usize, f64)> {
    let n = FILTER_TERMS.len();
    let rows = proptest::collection::vec(0..n + 1, 0..24).prop_map(|c| filter_table(&c));
    let dict = proptest::collection::vec((0..n).prop_map(|i| FILTER_TERMS[i].to_string()), 0..6);
    let theta = (0..FILTER_THETAS.len()).prop_map(|i| FILTER_THETAS[i]);
    (rows, dict, 2usize..5, theta).boxed()
}

/// The brute-force answer of a CLUSTER BY or DEDUP over `t.name` without a
/// `WHERE`: every pair of a row with a dictionary word (CLUSTER BY) or
/// with a row of larger `__rowid` (DEDUP) that the metric finds similar,
/// once per key the two share — for token filtering the distinct q-grams
/// of the normalized texts, for k-means the reference evaluator's centers
/// — the index pairs a block walk holds: the keys shared, summed over
/// every pair of members (a row with itself included), and the distinct
/// value pairs that reach Levenshtein: those sharing a key that
/// [`filters_admit`].
fn filter_oracle(
    db: &CleanDb,
    sql: &str,
    dict: &[String],
    q: Option<usize>,
    theta: f64,
) -> (Vec<Value>, u64, u64) {
    use cleanm::text::{normalize, qgrams, Metric};
    let (ctx, comp) = keyed_reference(db, sql, dict);
    let keys = |v: &Value| -> HashSet<String> {
        match q {
            Some(q) => qgrams(&normalize(&v.to_text()), q).into_iter().collect(),
            None => (block_keys(&ctx, &comp, v).iter())
                .map(Value::to_text)
                .collect(),
        }
    };
    let similar =
        |a: &Value, b: &Value| Metric::Levenshtein.similar(&a.to_text(), &b.to_text(), theta);
    let rows = db.table_rows("t").unwrap();
    let name = |r: &Value| r.field("name").unwrap().clone();
    let (mut out, mut enumerated, mut compared) = (Vec::new(), 0u64, HashSet::new());
    let mut pair = |a: &Value, b: &Value, emit: bool, record: Value| {
        let (ka, kb) = (keys(a), keys(b));
        let shared = ka.intersection(&kb).count();
        enumerated += shared as u64;
        if emit && shared > 0 {
            if filters_admit(theta, q, (a, ka.len()), (b, kb.len()), shared) {
                compared.insert((a.clone(), b.clone()));
            }
            if similar(a, b) {
                out.extend(std::iter::repeat_n(by_name(&record), shared));
            }
        }
    };
    for r in rows.iter() {
        if sql.contains("CLUSTER BY") {
            for w in dict.iter().map(Value::str) {
                let record = Value::record([("term", name(r)), ("repair", w.clone())]);
                pair(&name(r), &w, true, record);
            }
        } else {
            for b in rows.iter() {
                let ordered = r.field("__rowid").unwrap() < b.field("__rowid").unwrap();
                let record = Value::record([("left", r.clone()), ("right", b.clone())]);
                pair(&name(r), &name(b), ordered, record);
            }
        }
    }
    out.sort();
    (out, enumerated, compared.len() as u64)
}

/// CLUSTER BY and DEDUP under token filtering(q) and k-means over `rows`
/// and `dict`, with 1 and 2 workers, on keyed blocks wherever the names
/// are typed: the outputs equal the brute force as multisets — the count
/// and length filters lose no similar pair and keep one output per shared
/// key — the index pairs enumerated equal the block walk's, at 1 worker
/// Levenshtein runs once per value pair the filters admit, the outputs
/// come in the same order at either worker count, and a work budget one
/// short of the walk fails in `pair_sweep` while one that covers it
/// passes.
fn assert_filters_agree(
    rows: &[Value],
    dict: &[String],
    q: usize,
    theta: f64,
) -> Result<(), TestCaseError> {
    let queries = [
        (
            format!(
                "SELECT * FROM t x, dict w CLUSTER BY(token_filtering({q}), LD, {theta}, x.name)"
            ),
            Some(q),
        ),
        (
            format!("SELECT * FROM t c DEDUP(token_filtering({q}), LD, {theta}, c.name)"),
            Some(q),
        ),
        (
            format!("SELECT * FROM t x, dict w CLUSTER BY(kmeans(2), LD, {theta}, x.name)"),
            None,
        ),
        (
            format!("SELECT * FROM t c DEDUP(kmeans(2), LD, {theta}, c.name)"),
            None,
        ),
    ];
    let typed = rows.iter().any(|r| !r.field("name").unwrap().is_null());
    for (sql, grams) in &queries {
        let mut order = None;
        for workers in [1, 2] {
            let on = format!("{sql} ({workers} worker(s))");
            let mut db = keyed_session(EngineProfile::clean_db(), workers, rows.to_vec(), dict);
            let report = db.run(sql).unwrap();
            prop_assert_eq!(
                stage_names(&report).contains(&"group_blocks"),
                typed,
                "{}",
                on
            );
            let (expected, walked, compared) = filter_oracle(&db, sql, dict, *grams, theta);
            prop_assert_eq!(exact(&named_output(&report)), exact(&expected), "{}", on);
            prop_assert_eq!(pairs_enumerated(&report), walked, "{}", on);
            if workers == 1 && typed {
                prop_assert_eq!(report.metrics.comparisons, compared, "{}", on);
            }
            let this = exact(&report.ops[0].output);
            prop_assert_eq!(order.get_or_insert_with(|| this.clone()), &this, "{}", on);
            if walked == 0 || grams.is_none() {
                continue;
            }
            for (max_work, fails) in [(walked - 1, true), (walked, false)] {
                let limits = cleanm::core::RunLimits {
                    max_work: Some(max_work),
                    ..Default::default()
                };
                let limited = db.run_with_limits(sql, limits).unwrap();
                let failure = limited.failure.as_ref();
                prop_assert_eq!(failure.is_some(), fails, "{} under {}", on, max_work);
                if let Some(failure) = failure {
                    prop_assert_eq!(&failure.kind, "budget_exceeded", "{}", on);
                    let in_sweep = failure
                        .error
                        .starts_with("work budget exceeded in pair_sweep");
                    prop_assert!(in_sweep, "{}: {}", on, failure.error);
                } else {
                    prop_assert_eq!(named_output(&limited), named_output(&report), "{}", on);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn count_and_length_filters_keep_every_similar_pair((rows, dict, q, theta) in filter_inputs()) {
        assert_filters_agree(&rows, &dict, q, theta)?;
    }
}

/// The filters' edges: every term against every term, one term repeated
/// on many rows against a repeated word, an empty dictionary, and no
/// rows — each at every q and θ.
#[test]
fn count_and_length_filters_agree_at_their_edges() {
    let n = FILTER_TERMS.len();
    let every: Vec<usize> = (0..=n).collect();
    let dict = |terms: &[&str]| terms.iter().map(|t| t.to_string()).collect::<Vec<_>>();
    let inputs = [
        (filter_table(&every), dict(&FILTER_TERMS)),
        (filter_table(&[3; 12]), dict(&["andersen"; 4])),
        (filter_table(&every), Vec::new()),
        (Vec::new(), dict(&["smith"])),
    ];
    for (rows, words) in &inputs {
        for q in 2..5 {
            for theta in FILTER_THETAS {
                assert_filters_agree(rows, words, q, theta).unwrap();
            }
        }
    }
}

/// A scan that only grouped and keyed `Nest`s read — fig. 1's shape: an
/// FD and an exact DEDUP over one shared `Nest` beside CLUSTER BY's name
/// blocks over the same table — reads by column: no `Nest` materializes
/// its groups, and every op's outputs are the row route's.
#[test]
fn a_scan_shared_only_by_block_carriers_reads_by_column() {
    let sql = "SELECT * FROM t x, dict w FD(x.v | x.name) DEDUP(exact, LD, 0.6, x.v, x.name) \
               CLUSTER BY(token_filtering(2), LD, 0.6, x.name)";
    let cells: Vec<(usize, Option<i64>)> = (0..30).map(|i| (i % 10, Some(i as i64 % 4))).collect();
    let rows = term_table(&cells);
    let dict: Vec<String> = ["anderson", "smith", "zoe"].map(String::from).to_vec();
    let run = |rows: Vec<Value>| {
        keyed_session(EngineProfile::clean_db(), 2, rows, &dict)
            .run(sql)
            .unwrap()
    };
    let (columns, by_row) = (run(rows.clone()), run(ragged(rows)));
    let materialized = |report: &CleaningReport| {
        fn walk(n: &ProfileNode) -> bool {
            n.flags.iter().any(|f| f == "materialize-groups") || n.children.iter().any(walk)
        }
        report.profiles.iter().any(|p| walk(&p.root))
    };
    assert!(!materialized(&columns));
    assert!(!stage_names(&columns).contains(&"aggregate_by_key"));
    assert_eq!(columns.exprs.vectorized_rows, 3 * 30 + 3);
    assert!(materialized(&by_row));
    assert_eq!(all_named_outputs(&columns), all_named_outputs(&by_row));
    assert_eq!(columns.violating_ids, by_row.violating_ids);
}
