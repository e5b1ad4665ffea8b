//! Engine profiles are *physical* policies: every profile must produce the
//! same logical results. These tests pin that invariant across operator
//! families and datasets.

use cleanm::core::calculus::desugar::{OpKind, ROWID_FIELD};
use cleanm::core::calculus::BinOp;
use cleanm::core::engine::collect_rowids;
use cleanm::core::ops::dc::pair_ids;
use cleanm::core::ops::{DcAtom, DcOutcome, DcSide, DcTerm, Dedup, InequalityDc};
use cleanm::core::physical::{NestStrategy, ThetaStrategy};
use cleanm::core::{CleanDb, CleaningReport, EngineProfile, Planner};
use cleanm::datagen::customer::CustomerGen;
use cleanm::datagen::mag::MagGen;
use cleanm::datagen::tpch::{LineitemGen, NoiseColumn};
use cleanm::text::Metric;
use cleanm::values::{DataType, Row, Schema, Table, Value};
use proptest::prelude::*;

fn profiles() -> Vec<EngineProfile> {
    vec![
        EngineProfile::clean_db(),
        EngineProfile::spark_sql_like(),
        EngineProfile::big_dansing_like(),
    ]
}

/// The whole policy space: every planner level × Nest strategy × theta
/// strategy — 18 points, the three named profiles among them.
fn policy_space() -> Vec<EngineProfile> {
    let planners = [Planner::OperatorAtATime, Planner::Unified];
    let nests = [
        NestStrategy::LocalAggregate,
        NestStrategy::SortShuffle,
        NestStrategy::HashShuffle,
    ];
    let thetas = [
        ThetaStrategy::MBucket,
        ThetaStrategy::MinMaxBlocks,
        ThetaStrategy::CartesianFilter,
    ];
    let mut space = Vec::new();
    for planner in planners {
        for nest in nests {
            for theta in thetas {
                space.push(EngineProfile {
                    name: format!("{planner:?}/{nest:?}/{theta:?}"),
                    nest,
                    theta,
                    planner,
                });
            }
        }
    }
    space
}

/// Is `profile` CleanDB's point of the policy space?
fn is_clean_db(profile: &EngineProfile) -> bool {
    let point = |p: &EngineProfile| (p.planner, p.nest, p.theta);
    point(profile) == point(&EngineProfile::clean_db())
}

#[test]
fn the_named_profiles_are_points_of_the_policy_space() {
    let space = policy_space();
    assert_eq!(space.len(), 18);
    for named in profiles() {
        let point = |p: &EngineProfile| (p.planner, p.nest, p.theta);
        let hits = space.iter().filter(|p| point(p) == point(&named));
        assert_eq!(hits.count(), 1, "{}", named.name);
    }
}

#[test]
fn fd_violations_identical_across_profiles() {
    let data = LineitemGen::new(11)
        .rows(3_000)
        .noise_column(NoiseColumn::OrderKey)
        .generate();
    let mut results = Vec::new();
    for profile in profiles() {
        let mut db = CleanDb::new(profile);
        db.register("lineitem", data.table.clone());
        let report = db
            .run("SELECT * FROM lineitem t FD(t.orderkey, t.linenumber | t.suppkey)")
            .unwrap();
        results.push(report.violating_ids);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    assert!(!results[0].is_empty());
}

#[test]
fn dedup_pairs_identical_across_profiles() {
    let data = CustomerGen::new(12)
        .rows(1_200)
        .duplicate_fraction(0.15)
        .fd_noise_fraction(0.0)
        .generate();
    let mut results = Vec::new();
    for profile in profiles() {
        let mut db = CleanDb::new(profile);
        db.register("customer", data.table.clone());
        let (_, pairs) = Dedup::new("customer", "exact", "t.address")
            .metric(Metric::Levenshtein, 0.7)
            .similarity_on(&["t.name"])
            .run(&mut db)
            .unwrap();
        results.push(pairs);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    assert!(!results[0].is_empty());
}

#[test]
fn skewed_mag_dedup_identical_across_profiles() {
    let data = MagGen::new(13).papers(1_500).authors(40).generate();
    let mut results = Vec::new();
    for profile in [EngineProfile::clean_db(), EngineProfile::spark_sql_like()] {
        let mut db = CleanDb::new(profile);
        db.register("mag", data.table.clone());
        let (_, pairs) = Dedup::new("mag", "exact", "concat(t.year, t.authorid)")
            .metric(Metric::Levenshtein, 0.8)
            .similarity_on(&["t.title"])
            .run(&mut db)
            .unwrap();
        results.push(pairs);
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn token_filtering_dedup_identical_across_profiles() {
    // Multi-key blocking is the stress case for grouping strategies: the
    // same pair can surface in several blocks on different nodes.
    let data = CustomerGen::new(14)
        .rows(600)
        .duplicate_fraction(0.2)
        .fd_noise_fraction(0.0)
        .generate();
    let mut results = Vec::new();
    for profile in profiles() {
        let mut db = CleanDb::new(profile);
        db.register("customer", data.table.clone());
        let (_, pairs) = Dedup::new("customer", "token_filtering(3)", "t.name")
            .metric(Metric::Levenshtein, 0.8)
            .run(&mut db)
            .unwrap();
        results.push(pairs);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

#[test]
fn cleandb_shuffles_no_more_than_baselines() {
    let data = CustomerGen::new(15)
        .rows(3_000)
        .duplicate_fraction(0.10)
        .max_duplicates(40)
        .fd_noise_fraction(0.0)
        .generate();
    let mut shuffled = Vec::new();
    for profile in profiles() {
        let mut db = CleanDb::new(profile);
        db.register("customer", data.table.clone());
        let report = db
            .run("SELECT * FROM customer c DEDUP(exact, LD, 0.7, c.address, c.name)")
            .unwrap();
        shuffled.push((report.profile.clone(), report.metrics.records_shuffled));
    }
    let get = |name: &str| {
        shuffled
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap()
    };
    assert!(
        get("CleanDB") <= get("SparkSQL"),
        "local aggregation must not shuffle more: {shuffled:?}"
    );
    assert!(get("CleanDB") <= get("BigDansing"), "{shuffled:?}");
}

#[test]
fn fd_and_inequality_dc_in_one_statement_identical_across_profiles() {
    let data = LineitemGen::new(16)
        .rows(400)
        .noise_column(NoiseColumn::Discount)
        .generate();
    let fd = "FD(t.orderkey, t.linenumber | t.suppkey)";
    let dc = "DC(t1.extendedprice < t2.extendedprice AND t1.discount > t2.discount + 0.05)";
    let run = |profile: &EngineProfile, ops: &str| {
        let mut db = CleanDb::new(profile.clone());
        db.register("lineitem", data.table.clone());
        db.run(&format!("SELECT * FROM lineitem t {ops}")).unwrap()
    };
    let mut results = Vec::new();
    for profile in profiles() {
        let unified = run(&profile, &format!("{fd} {dc}"));
        assert!(
            unified.plan_text.contains("ThetaJoin"),
            "{}",
            unified.plan_text
        );
        // One statement reports what the two operators report apart.
        let mut apart = run(&profile, fd).violating_ids;
        apart.extend(run(&profile, dc).violating_ids);
        apart.sort_unstable();
        apart.dedup();
        assert_eq!(unified.violating_ids, apart, "{}", profile.name);
        results.push(unified.violating_ids);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    assert!(!results[0].is_empty());
}

// ---------------------------------------------------------------------
// Denial constraints on generated tables and predicates: the query text
// at every point of the policy space and worker count, the typed rule, and
// a nested loop over the rule's own atoms all name the same pairs. A theta
// join reads its sides by column exactly when the planner fuses and the
// input lowers, and then in the order, and with the comparisons, of row
// sides.
// ---------------------------------------------------------------------

/// Rows `(a, b, c, s)`: float columns `a`, `b` (NULL, NaN, ±0, ties), an
/// int column `c`, and a text column `s` whose strings share a prefix
/// longer than a prefix key.
fn dc_rows() -> impl Strategy<Value = Vec<[Value; 4]>> {
    let float = || {
        prop_oneof![
            Just(Value::Null),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-0.0)),
            (0i64..4).prop_map(|i| Value::Float(i as f64 * 0.5)),
        ]
    };
    let int = prop_oneof![Just(Value::Null), (0i64..3).prop_map(Value::Int)];
    let row = (float(), float(), int, dc_text()).prop_map(|(a, b, c, s)| [a, b, c, s]);
    proptest::collection::vec(row, 0..12)
}

fn dc_text() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::str("")),
        Just(Value::str("b")),
        Just(Value::str("abcdefgh1")),
        Just(Value::str("abcdefgh2")),
    ]
}

fn dc_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::Ne),
        Just(BinOp::Eq),
    ]
}

/// True one time in four.
fn rarely() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(false), Just(false), Just(true)]
}

/// One side of a generated comparison: `tᵢ.x`, `tᵢ.x + k` or `tᵢ.x * k`
/// (numeric `x` only), or a constant.
#[derive(Debug, Clone, PartialEq)]
enum Term {
    Cell {
        side: DcSide,
        col: &'static str,
        arith: Option<(BinOp, i64)>,
    },
    Const(Value),
}

impl Term {
    fn is_text(&self) -> bool {
        matches!(
            self,
            Term::Cell { col: "s", .. } | Term::Const(Value::Str(_))
        )
    }

    fn text(&self, t1: &str, t2: &str) -> String {
        match self {
            Term::Cell { side, col, arith } => {
                let var = if *side == DcSide::T1 { t1 } else { t2 };
                match arith {
                    None => format!("{var}.{col}"),
                    Some((BinOp::Add, k)) => format!("{var}.{col} + {k}"),
                    Some((_, k)) => format!("{var}.{col} * {k}"),
                }
            }
            Term::Const(Value::Str(s)) => format!("'{s}'"),
            Term::Const(v) => v.to_string(),
        }
    }

    /// The term's value on a `(t1, t2)` pair, as the engine computes it.
    fn value(&self, t1: &Value, t2: &Value) -> Value {
        let (side, col, arith) = match self {
            Term::Cell { side, col, arith } => (side, col, arith),
            Term::Const(v) => return v.clone(),
        };
        let cell = if *side == DcSide::T1 { t1 } else { t2 }
            .field(col)
            .unwrap();
        match (arith, cell) {
            (None, v) | (Some(_), v @ Value::Null) => v.clone(),
            (Some((BinOp::Add, k)), Value::Int(i)) => Value::Int(i.wrapping_add(*k)),
            (Some((_, k)), Value::Int(i)) => Value::Int(i.wrapping_mul(*k)),
            (Some((BinOp::Add, k)), Value::Float(f)) => Value::Float(f + *k as f64),
            (Some((_, k)), Value::Float(f)) => Value::Float(f * *k as f64),
            (Some(_), other) => panic!("arithmetic over {other}"),
        }
    }

    /// The term as the typed rule reads it; `None` under arithmetic.
    fn plain(&self) -> Option<DcTerm> {
        match self {
            Term::Cell {
                side,
                col,
                arith: None,
            } => Some(DcTerm::Cell(*side, col.to_string())),
            Term::Cell { .. } => None,
            Term::Const(v) => Some(DcTerm::Const(v.clone())),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Atom {
    op: BinOp,
    left: Term,
    right: Term,
}

impl Atom {
    fn text(&self, t1: &str, t2: &str) -> String {
        let op = match self.op {
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Ne => "<>",
            _ => "=",
        };
        format!(
            "{} {op} {}",
            self.left.text(t1, t2),
            self.right.text(t1, t2)
        )
    }

    /// Does the comparison hold on `(t1, t2)` under the engine's rules?
    fn holds(&self, t1: &Value, t2: &Value) -> bool {
        let (left, right) = (self.left.value(t1, t2), self.right.value(t1, t2));
        let atom = DcAtom {
            op: self.op,
            left: DcTerm::Const(left),
            right: DcTerm::Const(right),
        };
        atom.holds(&Value::Null, &Value::Null).unwrap()
    }

    fn plain(&self) -> Option<DcAtom> {
        Some(DcAtom {
            op: self.op,
            left: self.left.plain()?,
            right: self.right.plain()?,
        })
    }

    /// A text term against a numeric one compares by type rank, which no
    /// column kernel does.
    fn cross_type(&self) -> bool {
        self.left.is_text() != self.right.is_text()
    }

    fn columns(&self) -> impl Iterator<Item = &'static str> + '_ {
        [&self.left, &self.right]
            .into_iter()
            .filter_map(|t| match t {
                Term::Cell { col, .. } => Some(*col),
                Term::Const(_) => None,
            })
    }
}

/// A cell of `side` two ways: a numeric column, maybe under `+ k` or
/// `* k`, and the text column.
fn dc_cells(side: DcSide) -> impl Strategy<Value = [Term; 2]> {
    let arith = prop_oneof![
        Just(None),
        Just(None),
        (0i64..3).prop_map(|k| Some((BinOp::Add, k))),
        (0i64..3).prop_map(|k| Some((BinOp::Mul, k))),
    ];
    let col = prop_oneof![Just("a"), Just("b"), Just("c")];
    (col, arith).prop_map(move |(col, arith)| {
        let text = Term::Cell {
            side,
            col: "s",
            arith: None,
        };
        [Term::Cell { side, col, arith }, text]
    })
}

/// `tᵢ.x op tⱼ.y` with the tuple variables on either side of the operator;
/// now and then a text term against a numeric one.
fn dc_pair_atom() -> impl Strategy<Value = Atom> {
    let kinds = (rarely(), rarely());
    let cells = (dc_cells(DcSide::T1), dc_cells(DcSide::T2));
    (dc_op(), kinds, cells, any::<bool>()).prop_map(|(op, (text, cross), (t1, t2), flipped)| {
        let [t1, t2] = [&t1[usize::from(text)], &t2[usize::from(text != cross)]];
        let (left, right) = if flipped { (t2, t1) } else { (t1, t2) };
        Atom {
            op,
            left: left.clone(),
            right: right.clone(),
        }
    })
}

/// `tᵢ.x op k` — `k` a string for the text column — or nothing.
fn dc_single_atom() -> impl Strategy<Value = Option<Atom>> {
    let cell = (
        any::<bool>(),
        rarely(),
        dc_cells(DcSide::T1),
        dc_cells(DcSide::T2),
    );
    let text = prop_oneof![Just(""), Just("b"), Just("abcdefgh1"), Just("abcdefgh2")];
    (any::<bool>(), dc_op(), cell, 0i64..3, text).prop_map(
        |(present, op, (right_side, text_cell, t1, t2), k, s)| {
            let side = if right_side { t2 } else { t1 };
            let (left, right) = if text_cell {
                (side[1].clone(), Value::str(s))
            } else {
                (side[0].clone(), Value::Int(k))
            };
            present.then_some(Atom {
                op,
                left,
                right: Term::Const(right),
            })
        },
    )
}

/// A session holding `rows` as table `t`: one registration and appends of
/// `batch` rows, the last two rows together in a final append — the last
/// one with its fields in reverse order when `ragged`, so that append
/// does not columnarize.
fn dc_session(
    profile: &EngineProfile,
    workers: usize,
    rows: &[Value],
    batch: usize,
    ragged: bool,
) -> CleanDb {
    let ctx = cleanm::exec::ExecContext::new(workers, 2 * workers);
    let mut db = CleanDb::with_context(profile.clone(), ctx);
    db.set_tracing(true);
    let (head, tail) = rows.split_at(rows.len().saturating_sub(2));
    let mut batches = head.chunks(batch);
    db.register_values("t", batches.next().unwrap_or_default().to_vec());
    for more in batches {
        db.append_values("t", more.to_vec()).unwrap();
    }
    let mut tail = tail.to_vec();
    if let (true, Some(last)) = (ragged, tail.last_mut()) {
        let fields = last.as_struct().unwrap().iter().rev();
        *last = Value::record(fields.map(|(n, v)| (n.to_string(), v.clone())));
    }
    db.append_values("t", tail).unwrap();
    db
}

/// The violating pairs of operator `op`, in output order.
fn pairs_in_order(report: &CleaningReport, op: usize) -> Vec<(i64, i64)> {
    let id = |pair: &Value, side| {
        pair.field(side)
            .unwrap()
            .field(ROWID_FIELD)
            .unwrap()
            .as_int()
            .unwrap()
    };
    report.ops[op]
        .output
        .iter()
        .map(|p| (id(p, "left"), id(p, "right")))
        .collect()
}

/// Each op's output reads the same kept as built: its ids, its id pairs
/// and its length, read before its records, equal what the walk over the
/// records finds. Under CleanDB (`clean_db`) a DEDUP or DC in a run that
/// grouped blocks has kept its pairs and built no record to read them.
fn outputs_read_as_their_records(report: &CleaningReport, clean_db: bool) {
    for (i, op) in report.ops.iter().enumerate() {
        let output = &op.output;
        let pair_op = matches!(op.kind, OpKind::Dedup | OpKind::Dc);
        let (ids, pairs, len) = (output.rowids(), output.pairs(), output.len());
        if clean_db && groups_blocks(report) && pair_op {
            assert!(!output.is_built(), "{} built its records", op.label);
        }
        let records: &[Value] = output;
        let mut walked = Vec::new();
        records.iter().for_each(|v| collect_rowids(v, &mut walked));
        walked.sort_unstable();
        walked.dedup();
        assert_eq!(ids, walked, "{}", op.label);
        assert_eq!(len, records.len(), "{}", op.label);
        if pair_op {
            assert_eq!(pairs, pairs_in_order(report, i), "{}", op.label);
        }
    }
}

/// Did the run group a `Nest` as grouped blocks?
fn groups_blocks(report: &CleaningReport) -> bool {
    report
        .metrics
        .stages
        .iter()
        .any(|s| s.operator == "group_blocks")
}

/// The theta join's node, if the plan has one: did it run by column, and
/// how many rows did it join?
fn theta_route(report: &CleaningReport) -> Option<(bool, u64)> {
    let node = report
        .profiles
        .iter()
        .find_map(|p| p.root.find("ThetaJoin"))?;
    Some((node.flags.iter().any(|f| f == "vectorized"), node.rows_in))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(72))]

    #[test]
    fn dc_text_typed_rule_and_nested_loop_agree(
        rows in dc_rows(),
        batch in 1usize..5,
        single in dc_single_atom(),
        pairwise in proptest::collection::vec(dc_pair_atom(), 1..4),
        filter in dc_single_atom(),
        other_single in dc_single_atom(),
        other_pairwise in proptest::collection::vec(dc_pair_atom(), 1..4),
    ) {
        let atoms: Vec<Atom> = single.into_iter().chain(pairwise).collect();
        let text = |atoms: &[Atom]| {
            atoms.iter().map(|a| a.text("t1", "t2")).collect::<Vec<_>>().join(" AND ")
        };
        let pred = text(&atoms);
        let other: Vec<Atom> = other_single.into_iter().chain(other_pairwise).collect();
        let other_pred = text(&other);
        let rule = InequalityDc { table: "t".into(), pred: pred.clone() };
        let plain: Option<Vec<DcAtom>> = atoms.iter().map(Atom::plain).collect();
        prop_assert_eq!(rule.atoms(), plain, "{}", pred);
        // WHERE reads the table's alias, so both sides of a WHERE atom
        // render as the one row it filters.
        let where_text = filter
            .as_ref()
            .map(|f| format!(" WHERE {}", f.text("t", "t")))
            .unwrap_or_default();
        let sql = format!("SELECT * FROM t{where_text} DC({pred})");
        let other_sql = format!("SELECT * FROM t{where_text} DC({other_pred})");
        let both_sql = format!("SELECT * FROM t{where_text} DC({pred}) DC({other_pred})");

        let stored: Vec<Value> = rows
            .iter()
            .enumerate()
            .map(|(i, [a, b, c, s])| {
                Value::record([
                    (ROWID_FIELD, Value::Int(i as i64)),
                    ("a", a.clone()),
                    ("b", b.clone()),
                    ("c", c.clone()),
                    ("s", s.clone()),
                ])
            })
            .collect();
        let kept = |r: &&Value| filter.as_ref().is_none_or(|f| f.holds(r, r));
        let mut expected = Vec::new();
        for (i, r1) in stored.iter().enumerate().filter(|(_, r)| kept(r)) {
            for (j, r2) in stored.iter().enumerate().filter(|(_, r)| kept(r)) {
                if i != j && atoms.iter().all(|a| a.holds(r1, r2)) {
                    expected.push((i as i64, j as i64));
                }
            }
        }
        // Column sides need every comparison to be numeric or textual
        // on both sides, and every column it reads typed — a column with
        // no non-NULL cell pivots untyped.
        let all_atoms = || atoms.iter().chain(&filter);
        let typed = |col: &str| stored.iter().any(|r| !r.field(col).unwrap().is_null());
        let lowers = !all_atoms().any(Atom::cross_type)
            && all_atoms().flat_map(Atom::columns).all(typed);

        for profile in policy_space() {
            let fuses = profile.planner != Planner::OperatorAtATime;
            for workers in [1, 2] {
                let mut db = dc_session(&profile, workers, &stored, batch, false);
                let report = db.run(&sql).unwrap();
                outputs_read_as_their_records(&report, is_clean_db(&profile));
                let mut got = pair_ids(&report.ops[0].output);
                got.sort_unstable();
                prop_assert_eq!(&got, &expected, "{} under {}", sql, profile.name);
                if let Some((by_column, joined)) = theta_route(&report) {
                    prop_assert_eq!(
                        by_column,
                        fuses && lowers && joined > 0,
                        "{} under {}",
                        sql,
                        profile.name
                    );
                }

                // The same rows with a ragged append: row sides, the same
                // pairs, the same comparisons — in the same order wherever
                // both runs take one route. An equality-blocked rule over
                // grouped blocks (a `group_blocks` stage) visits its blocks
                // in first-appearance order, materialized groups in the
                // grouping driver's order.
                if fuses && stored.len() >= 2 {
                    let ragged = dc_session(&profile, workers, &stored, batch, true).run(&sql).unwrap();
                    prop_assert_eq!(theta_route(&ragged).is_some_and(|(v, _)| v), false, "{}", sql);
                    prop_assert!(!groups_blocks(&ragged), "{}", sql);
                    let (mut by_row, mut typed) = (pairs_in_order(&ragged, 0), pairs_in_order(&report, 0));
                    if groups_blocks(&report) {
                        by_row.sort_unstable();
                        typed.sort_unstable();
                    }
                    prop_assert_eq!(by_row, typed, "{} under {}", sql, profile.name);
                    prop_assert_eq!(
                        ragged.metrics.comparisons,
                        report.metrics.comparisons,
                        "{} under {}",
                        sql,
                        profile.name
                    );
                }

                // A second rule beside the first: each operator has the
                // pairs, in the order, and the comparisons it has alone.
                if other_pred != pred {
                    let session = || dc_session(&profile, workers, &stored, batch, false);
                    let alone = session().run(&other_sql).unwrap();
                    let both = session().run(&both_sql).unwrap();
                    prop_assert_eq!(pairs_in_order(&both, 0), pairs_in_order(&report, 0), "{} under {}", both_sql, profile.name);
                    prop_assert_eq!(pairs_in_order(&both, 1), pairs_in_order(&alone, 0), "{} under {}", both_sql, profile.name);
                    prop_assert_eq!(
                        both.metrics.comparisons,
                        report.metrics.comparisons + alone.metrics.comparisons,
                        "{} under {}",
                        both_sql,
                        profile.name
                    );
                    // Two theta joins read the same two scans: by row.
                    let joins: Vec<_> = both
                        .profiles
                        .iter()
                        .filter_map(|p| p.root.find("ThetaJoin"))
                        .collect();
                    let by_column = joins.iter().any(|j| j.flags.iter().any(|f| f == "vectorized"));
                    prop_assert!(joins.len() < 2 || !by_column, "{} under {}", both_sql, profile.name);
                }

                if filter.is_none() {
                    let (outcome, described) = rule.run_detailed(&mut db).unwrap();
                    let DcOutcome::Completed { violations, .. } = outcome else {
                        panic!("{outcome:?}")
                    };
                    prop_assert_eq!(violations, expected.len());
                    let described: Vec<_> = described.iter().map(|v| (v.t1, v.t2)).collect();
                    prop_assert_eq!(&described, &expected, "{}", pred);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pair pipelines (DEDUP, blocked DC, CLUSTER BY): the block sweep at
// every point of the policy space and worker count names the pairs the
// reference evaluator finds on the normalized comprehension.
// ---------------------------------------------------------------------

/// Rows `(k, name, x)`: a skewed block key (most rows share key 0, the
/// others sit in blocks of one or two, some have none), names that are
/// NULL, empty, one edit apart, non-ASCII, or longer than the bit-vector
/// kernel's 64 characters, and an int column with NULLs. The small pools
/// make exact duplicate rows common.
fn pair_rows() -> impl Strategy<Value = Vec<Row>> {
    let long = |tail: &str| Value::str(format!("{}{tail}", "abcdefgh".repeat(9)));
    let k = prop_oneof![
        Just(Value::Int(0)),
        Just(Value::Int(0)),
        Just(Value::Int(0)),
        (1i64..6).prop_map(Value::Int),
        Just(Value::Null),
    ];
    let name = prop_oneof![
        Just(Value::Null),
        Just(Value::str("")),
        Just(Value::str("anderson")),
        Just(Value::str("andersen")),
        Just(Value::str("anderssen")),
        Just(Value::str("zoë brandt")),
        Just(Value::str("zoe brandt")),
        Just(Value::str("日本語の名前")),
        Just(long("xy")),
        Just(long("xz")),
    ];
    let x = prop_oneof![Just(Value::Null), (-2i64..4).prop_map(Value::Int)];
    let row = (k, name, x).prop_map(|(k, name, x)| Row::new(vec![k, name, x]));
    proptest::collection::vec(row, 0..28)
}

/// FD statements, alone (a lone fold) and beside a DEDUP (a shared
/// `Nest`): their outputs are not checked against the reference, only
/// read kept and built.
const FD_QUERIES: [&str; 2] = [
    "SELECT * FROM t c FD(c.k | c.x)",
    "SELECT * FROM t c FD(c.k | c.x) DEDUP(exact, LD, 0.8, c.k, c.name)",
];

const PAIR_QUERIES: [&str; 4] = [
    "SELECT * FROM t c DEDUP(exact, LD, 0.8, c.k, c.name)",
    "SELECT * FROM t c DEDUP(token_filtering(2), LD, 0.7, c.name)",
    "SELECT * FROM t DC(t1.k = t2.k AND t1.x > t2.x + 1)",
    "SELECT * FROM t c, dict w CLUSTER BY(token_filtering(2), LD, 0.75, c.name)",
];

/// What the calculus says `sql`'s only operator means over the session's
/// tables: the reference evaluator on the normalized comprehension.
fn reference_output(db: &CleanDb, sql: &str) -> Vec<Value> {
    use cleanm::core::calculus::{desugar_query, eval, normalize, EvalCtx};
    let query = cleanm::core::parse_query(sql).unwrap();
    let op = desugar_query(&query, 42).unwrap().ops.remove(0);
    let (comp, _) = normalize(&op.comp);
    let mut ctx = EvalCtx::new();
    for table in ["t", "dict"] {
        let rows = db.table_rows(table).unwrap();
        ctx = ctx.with_table(table, Value::list(rows.iter().cloned()));
    }
    ctx.prepare_blockers(&comp, &[]);
    let mut out = eval(&comp, &vec![], &ctx)
        .unwrap()
        .as_list()
        .unwrap()
        .to_vec();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pair_sweep_agrees_with_the_reference_evaluator(
        rows in pair_rows(),
        batch in 1usize..9,
    ) {
        let schema = Schema::of([
            ("k", DataType::Int),
            ("name", DataType::Str),
            ("x", DataType::Int),
        ]);
        let dict = Table::new(
            Schema::of([("term", DataType::Str)]),
            ["anderson", "zoë brandt", "日本語の名前", "", "brandt"]
                .map(|t| Row::new(vec![Value::str(t)]))
                .to_vec(),
        );
        let session = |profile: EngineProfile, workers: usize| {
            let ctx = cleanm::exec::ExecContext::new(workers, 2 * workers);
            let mut db = CleanDb::with_context(profile, ctx);
            let mut batches = rows.chunks(batch);
            let first = batches.next().unwrap_or_default().to_vec();
            db.register("t", Table::new(schema.clone(), first));
            for more in batches {
                db.append("t", Table::new(schema.clone(), more.to_vec())).unwrap();
            }
            db.register("dict", dict.clone());
            db
        };
        // The reference reads the stored rows, the same in every session.
        let stored = session(EngineProfile::clean_db(), 1);
        let expected = PAIR_QUERIES.map(|sql| reference_output(&stored, sql));
        for profile in policy_space() {
            for workers in [1, 2] {
                let mut db = session(profile.clone(), workers);
                let clean_db = is_clean_db(&profile);
                for sql in FD_QUERIES {
                    outputs_read_as_their_records(&db.run(sql).unwrap(), clean_db);
                }
                for (sql, expected) in PAIR_QUERIES.iter().zip(&expected) {
                    let report = db.run(sql).unwrap();
                    outputs_read_as_their_records(&report, clean_db);
                    prop_assert_eq!(report.exprs.interpreted, 0, "{}", sql);
                    let mut got = report.ops[0].output.to_vec();
                    got.sort();
                    prop_assert_eq!(
                        &got,
                        expected,
                        "{} under {} with {} worker(s)",
                        sql,
                        profile.name,
                        workers
                    );
                }
            }
        }
    }
}

/// A pair predicate that cannot be evaluated on the pairs that reach it (a
/// column the rows do not have) fails the query with the typed value
/// error, under every profile — and does not when no pair gets that far.
#[test]
fn pair_predicate_errors_surface_as_typed_errors() {
    let schema = Schema::of([("k", DataType::Int), ("x", DataType::Int)]);
    let table = |ks: &[i64]| {
        let rows = ks
            .iter()
            .map(|&k| Row::new(vec![Value::Int(k), Value::Int(k)]));
        Table::new(schema.clone(), rows.collect())
    };
    let sql = "SELECT * FROM t DC(t1.k = t2.k AND t1.x > t2.missing)";
    for profile in profiles() {
        let mut db = CleanDb::new(profile.clone());
        db.register("t", table(&[1, 1, 2]));
        let err = db.run(sql).unwrap_err().to_string();
        assert!(err.contains("missing"), "{}: {err}", profile.name);
        // One-member blocks only: the row-id test rejects every pair
        // before the broken conjunct is reached.
        db.register("t", table(&[1, 2, 3]));
        assert!(
            db.run(sql).unwrap().ops[0].output.is_empty(),
            "{}",
            profile.name
        );
    }
}
