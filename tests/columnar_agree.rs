//! The columnar execution core is a *physical* optimization: under the
//! unified planner eligible `Select` and group-fold nodes
//! sweep typed column batches with whole-column kernels; under the
//! operator-at-a-time planner the very same queries run row-at-a-time.
//! Every observable output — violating ids, repairs, operator outputs —
//! must be identical either way, under the strategies of all three
//! profiles, every operator family (FD / DEDUP / DC / GROUP BY /
//! CLUSTER BY), and the nasty edges: NULL cells, NaN floats, empty
//! tables, and row structs whose field order varies (which defeats
//! columnarization and must fall back to the row path).

use cleanm::core::ops::{DcOutcome, InequalityDc};
use cleanm::core::{CleanDb, CleaningReport, EngineProfile, Planner};
use cleanm::datagen::customer::CustomerGen;
use cleanm::datagen::tpch::{LineitemGen, NoiseColumn};
use cleanm::formats::csv;
use cleanm::values::{DataType, Row, Schema, Table, Value};

fn all_profiles() -> Vec<EngineProfile> {
    vec![
        EngineProfile::clean_db(),
        EngineProfile::spark_sql_like(),
        EngineProfile::big_dansing_like(),
    ]
}

/// `profile`'s strategies under another planner level.
fn with_planner(profile: &EngineProfile, planner: Planner) -> EngineProfile {
    EngineProfile {
        planner,
        ..profile.clone()
    }
}

/// The row-at-a-time twin of `profile`.
fn by_rows(profile: &EngineProfile) -> EngineProfile {
    with_planner(profile, Planner::OperatorAtATime)
}

/// Everything observable about a run that must not depend on the planner.
type Digest = (Vec<i64>, Vec<(String, String)>, Vec<(String, Vec<Value>)>);

fn digest(r: &CleaningReport) -> Digest {
    // Repairs and grouped outputs surface in hash-map iteration order,
    // which is not stable run to run — compare both as sorted multisets.
    let mut repairs: Vec<(String, String)> = r
        .repairs
        .iter()
        .map(|x| (x.term.clone(), x.suggestion.clone()))
        .collect();
    repairs.sort();
    (
        r.violating_ids.clone(),
        repairs,
        r.ops
            .iter()
            .map(|o| {
                let mut out = o.output.to_vec();
                out.sort();
                (o.label.clone(), out)
            })
            .collect(),
    )
}

fn run_with(profile: EngineProfile, name: &str, table: &Table, query: &str) -> CleaningReport {
    let mut db = CleanDb::new(profile);
    db.register(name, table.clone());
    if query.contains("dictionary d") {
        db.register_dictionary("dictionary", cleanm::datagen::names::dictionary(200, 6));
    }
    db.run(query).unwrap()
}

/// Row-at-a-time ≡ columnar for `profile`'s strategies: the
/// operator-at-a-time planner against the unified one.
fn assert_agree(profile: &EngineProfile, name: &str, table: &Table, query: &str) {
    let row = run_with(by_rows(profile), name, table, query);
    assert_eq!(row.exprs.vectorized_rows, 0, "`{query}`");
    let col = run_with(with_planner(profile, Planner::Unified), name, table, query);
    assert_eq!(
        digest(&row),
        digest(&col),
        "row vs columnar drift under {} for `{query}`",
        profile.name
    );
}

#[test]
fn cleaning_ops_identical_row_vs_columnar_all_profiles() {
    let data = CustomerGen::new(91)
        .rows(900)
        .duplicate_fraction(0.12)
        .fd_noise_fraction(0.05)
        .generate();
    let query = "SELECT c.name, c.address FROM customer c, dictionary d \
                 FD(c.address | c.nationkey) \
                 DEDUP(exact, LD, 0.8, c.address, c.name) \
                 CLUSTER BY(token_filtering(3), LD, 0.8, c.name)";
    for profile in all_profiles() {
        assert_agree(&profile, "customer", &data.table, query);
    }
}

#[test]
fn group_by_identical_row_vs_columnar_all_profiles() {
    let data = CustomerGen::new(92).rows(1_000).generate();
    let query = "SELECT c.nationkey, count(*) AS n FROM customer c \
                 WHERE c.acctbal > 100.0 GROUP BY c.nationkey HAVING count(*) > 3";
    for profile in all_profiles() {
        assert_agree(&profile, "customer", &data.table, query);
    }
}

#[test]
fn plain_where_select_vectorizes_and_agrees() {
    let data = CustomerGen::new(93).rows(1_500).generate();
    // A filter over one scan, no grouping: this is the shape the columnar
    // fast path executes as a whole-column kernel sweep.
    let query = "SELECT c.name, c.acctbal FROM customer c \
                 WHERE c.acctbal > 500.0 AND c.nationkey >= 10";
    let row = run_with(
        by_rows(&EngineProfile::clean_db()),
        "customer",
        &data.table,
        query,
    );
    let col = run_with(EngineProfile::clean_db(), "customer", &data.table, query);
    assert_eq!(digest(&row), digest(&col));
    assert_eq!(
        row.exprs.vectorized_rows, 0,
        "the operator-at-a-time planner must not sweep"
    );
    assert!(
        col.exprs.vectorized_rows > 0,
        "the WHERE sweep should have gone columnar: {:?}",
        col.exprs
    );
}

#[test]
fn dc_identical_row_vs_columnar() {
    let data = LineitemGen::new(94)
        .rows(2_000)
        .noise_column(NoiseColumn::OrderKey)
        .generate();
    let run = |profile: EngineProfile| {
        let mut db = CleanDb::new(profile);
        db.register("lineitem", data.table.clone());
        InequalityDc::rule_psi("lineitem", 20_000.0)
            .run(&mut db)
            .unwrap()
    };
    let profile = EngineProfile::clean_db();
    match (run(by_rows(&profile)), run(profile)) {
        (
            DcOutcome::Completed {
                violations: row, ..
            },
            DcOutcome::Completed {
                violations: col, ..
            },
        ) => assert_eq!(row, col, "DC drift"),
        (r, c) => panic!("DC outcomes diverged: {r:?} vs {c:?}"),
    }
}

#[test]
fn null_and_nan_edges_agree() {
    // Hand-built rows exercising every kernel comparison edge: NULL in
    // numeric and string cells, NaN floats, negative zero, mixed int/float
    // magnitudes near the predicate constants.
    let schema = Schema::of([
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("s", DataType::Str),
    ]);
    let mut rows = Vec::new();
    for i in 0..200i64 {
        let v = match i % 7 {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            2 => Value::Float(-0.0),
            3 => Value::Float(i as f64 * 1.5 - 100.0),
            _ => Value::Float(-(i as f64) / 3.0),
        };
        let s = match i % 5 {
            0 => Value::Null,
            1 => Value::str(""),
            _ => Value::str(["Ann", "bob", "CAROL"][(i % 3) as usize]),
        };
        rows.push(Row::new(vec![Value::Int(i % 11), v, s]));
    }
    let table = Table::new(schema, rows);
    // (The grammar has no unary minus, so bounds stay non-negative; the
    // NaN / NULL / -0.0 cells still flow through every comparison.)
    let queries = [
        "SELECT t.k, t.v FROM edge t WHERE t.v <= 10.0 AND t.k < 8",
        "SELECT t.s FROM edge t WHERE lower(t.s) = 'ann'",
        "SELECT t.k, count(*) AS n FROM edge t WHERE t.v < 50.0 GROUP BY t.k",
        "SELECT t.k FROM edge t FD(t.s | t.k)",
    ];
    for profile in all_profiles() {
        for query in &queries {
            assert_agree(&profile, "edge", &table, query);
        }
    }
}

#[test]
fn empty_table_agrees() {
    let schema = Schema::of([("a", DataType::Int), ("b", DataType::Str)]);
    let table = Table::new(schema, vec![]);
    let queries = [
        "SELECT t.a FROM empty t WHERE t.a > 0",
        "SELECT t.b, count(*) AS n FROM empty t GROUP BY t.b",
        "SELECT t.a FROM empty t FD(t.b | t.a)",
    ];
    for profile in all_profiles() {
        for query in &queries {
            assert_agree(&profile, "empty", &table, query);
        }
    }
}

#[test]
fn shuffled_struct_layout_falls_back_to_rows() {
    // Structs whose field order differs row to row cannot columnarize
    // (`ColumnBatch::from_rows` requires one layout); the unified planner
    // must silently take the row path and agree.
    let mk = |id: i64, a: i64, b: &str, flipped: bool| {
        if flipped {
            Value::record([
                ("__rowid", Value::Int(id)),
                ("b", Value::str(b)),
                ("a", Value::Int(a)),
            ])
        } else {
            Value::record([
                ("__rowid", Value::Int(id)),
                ("a", Value::Int(a)),
                ("b", Value::str(b)),
            ])
        }
    };
    let rows: Vec<Value> = (0..100)
        .map(|i| mk(i, i % 13, ["x", "y", "z"][(i % 3) as usize], i % 2 == 1))
        .collect();
    let query = "SELECT t.a, t.b FROM shuffled t WHERE t.a > 4";
    let run = |profile: EngineProfile| {
        let mut db = CleanDb::new(profile);
        db.register_values("shuffled", rows.clone());
        db.run(query).unwrap()
    };
    let clean_db = EngineProfile::clean_db();
    let (row, col) = (run(by_rows(&clean_db)), run(clean_db));
    assert_eq!(digest(&row), digest(&col));
    assert_eq!(
        col.exprs.vectorized_rows, 0,
        "mixed layouts must not sweep by column"
    );
}

#[test]
fn register_columnar_matches_row_register() {
    // Column-first CSV ingest → register_columnar must be observationally
    // identical to row ingest → register, and the pre-seeded batch must
    // still feed the vectorized sweep.
    let data = CustomerGen::new(95).rows(800).generate();
    let text = csv::write_str(&data.table, &csv::CsvOptions::default());
    let query = "SELECT c.name FROM customer c WHERE c.acctbal > 250.0";

    let row_table = csv::read_str(&text, &data.table.schema, &csv::CsvOptions::default()).unwrap();
    let mut db_rows = CleanDb::new(EngineProfile::clean_db());
    db_rows.register("customer", row_table);
    let via_rows = db_rows.run(query).unwrap();

    let batch =
        csv::read_str_columnar(&text, &data.table.schema, &csv::CsvOptions::default()).unwrap();
    let mut db_cols = CleanDb::new(EngineProfile::clean_db());
    db_cols.register_columnar("customer", batch);
    let via_cols = db_cols.run(query).unwrap();

    assert_eq!(digest(&via_rows), digest(&via_cols));
    assert!(via_cols.exprs.vectorized_rows > 0, "{:?}", via_cols.exprs);
    assert_eq!(
        via_rows.exprs.vectorized_rows,
        via_cols.exprs.vectorized_rows
    );
}

/// `n` rows of `t`: `__rowid`, an int key `k`, a float `v` and a string
/// `s`. From row `drift_at` on, `k` holds strings (`drift_type`) or the
/// fields come in reverse order (otherwise).
fn drifting_rows(n: i64, drift_at: i64, drift_type: bool) -> Vec<Value> {
    (0..n)
        .map(|id| {
            let drifted = id >= drift_at;
            let k = if drifted && drift_type {
                Value::str(format!("k{}", id % 7))
            } else {
                Value::Int(id % 7)
            };
            let mut fields = vec![
                ("__rowid", Value::Int(id)),
                ("k", k),
                ("v", Value::Float((id * 37 % 100) as f64)),
                ("s", Value::str(["a", "b", "c"][(id % 3) as usize])),
            ];
            if drifted && !drift_type {
                fields.reverse();
            }
            Value::record(fields)
        })
        .collect()
}

/// Run `query` over `rows` registered as one batch, then `parts - 1`
/// appends of equal size.
fn run_split(rows: &[Value], parts: usize, query: &str) -> CleaningReport {
    let mut chunks = rows.chunks(rows.len().div_ceil(parts));
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register_values("t", chunks.next().unwrap().to_vec());
    for chunk in chunks {
        db.append_values("t", chunk.to_vec()).unwrap();
    }
    db.run(query).unwrap()
}

const SPLIT_QUERIES: [&str; 4] = [
    "SELECT c.k, c.v FROM t c WHERE c.v > 30.0",
    "SELECT c.k, count(*) AS n, sum(c.v) AS sv FROM t c WHERE c.v < 80.0 \
     GROUP BY c.k HAVING count(*) > 2",
    "SELECT * FROM t c FD(c.k | c.s)",
    "SELECT * FROM t DC(t1.v < 20.0 AND t1.v < t2.v AND t1.k > t2.k)",
];

/// Registered whole or as 2 or 5 appends, a table reads the same: equal
/// reports and equal vectorized rows for a filter-project, a `GROUP BY …
/// HAVING`, an FD and a theta DC — however the rows arrived.
fn assert_split_invariant(rows: &[Value], label: &str) -> Vec<u64> {
    SPLIT_QUERIES
        .iter()
        .map(|query| {
            let whole = run_split(rows, 1, query);
            for parts in [2, 5] {
                let split = run_split(rows, parts, query);
                assert_eq!(
                    digest(&whole),
                    digest(&split),
                    "{label} / {parts}: `{query}`"
                );
                assert_eq!(
                    whole.exprs.vectorized_rows, split.exprs.vectorized_rows,
                    "{label} / {parts}: `{query}`"
                );
                assert_eq!(whole.decisions, split.decisions, "{label} / {parts}");
            }
            whole.exprs.vectorized_rows
        })
        .collect()
}

#[test]
fn uniform_appends_vectorize_like_one_batch() {
    let swept = assert_split_invariant(&drifting_rows(120, 120, false), "uniform");
    assert!(
        swept.iter().all(|&n| n > 0),
        "every query reads by column: {swept:?}"
    );
}

/// A key that changes type between appends is one `Val` column, and a
/// second field layout stops the table reading by column — exactly as if
/// the rows had arrived in one batch.
#[test]
fn drifting_appends_read_like_one_batch() {
    let swept = assert_split_invariant(&drifting_rows(120, 60, true), "type drift");
    assert!(swept[0] > 0, "a filter on `v` alone still reads by column");
    assert_eq!(swept[2], 0, "FD over the `Val` key column");
    let swept = assert_split_invariant(&drifting_rows(120, 60, false), "layout drift");
    assert_eq!(swept, [0; 4], "two field layouts never read by column");
}
