//! Differential idempotence properties: for every repair family and every
//! engine profile, planning repairs, applying them, and re-running the
//! query yields **zero violations**, and a second repair pass is a no-op —
//! including tables with NULL cells, NaN cells, and no rows at all.

use cleanm_core::calculus::desugar::ROWID_FIELD;
use cleanm_core::engine::CleanDb;
use cleanm_core::ops::{DcOutcome, InequalityDc};
use cleanm_core::physical::EngineProfile;
use cleanm_repair::RepairEngine;
use cleanm_values::Value;
use proptest::prelude::*;

fn profiles() -> [EngineProfile; 3] {
    [
        EngineProfile::clean_db(),
        EngineProfile::spark_sql_like(),
        EngineProfile::big_dansing_like(),
    ]
}

/// A generated cell that may be dirty in interesting ways.
#[derive(Debug, Clone)]
enum Cell {
    Int(i64),
    Float(f64),
    Nan,
    Null,
}

impl Cell {
    fn value(&self) -> Value {
        match self {
            Cell::Int(v) => Value::Int(*v),
            Cell::Float(v) => Value::Float(*v),
            Cell::Nan => Value::Float(f64::NAN),
            Cell::Null => Value::Null,
        }
    }
}

fn cell() -> impl Strategy<Value = Cell> {
    // Weighted by hand (the shimmed prop_oneof is unweighted): mostly
    // small numerics, with a steady trickle of NaN and NULL.
    (0u8..9, 0i64..4, 0u8..40).prop_map(|(pick, int, q)| match pick {
        0..=4 => Cell::Int(int),
        5 | 6 => Cell::Float(f64::from(q) / 4.0),
        7 => Cell::Nan,
        _ => Cell::Null,
    })
}

// ---------------------------------------------------------------- FD ----

const FD_SQL: &str = "SELECT * FROM t x FD(x.addr, x.nation)";

fn fd_table(rows: &[(u8, Cell)]) -> Vec<Value> {
    rows.iter()
        .enumerate()
        .map(|(i, (lhs, rhs))| {
            Value::record([
                (ROWID_FIELD, Value::Int(i as i64)),
                ("addr", Value::str(format!("street-{lhs}"))),
                ("nation", rhs.value()),
            ])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fd_repair_is_idempotent_under_every_profile(
        rows in proptest::collection::vec((0u8..4, cell()), 0..32),
    ) {
        for profile in profiles() {
            let name = profile.name.clone();
            let mut db = CleanDb::new(profile);
            db.register_values("t", fd_table(&rows));
            let engine = RepairEngine::default();

            let report = engine.run(&mut db, FD_SQL).unwrap();
            let section = report.repair.clone().unwrap();
            prop_assert_eq!(section.unrepaired, 0, "profile {}", &name);
            db.apply_repairs(&section).unwrap();

            let clean = db.run(FD_SQL).unwrap();
            prop_assert_eq!(clean.violations(), 0, "profile {}", &name);

            // Second pass: nothing left to fix.
            let again = engine.run(&mut db, FD_SQL).unwrap();
            prop_assert!(
                again.repair.as_ref().unwrap().is_empty(),
                "profile {}: {:?}", &name, again.repair
            );
        }
    }
}

// ------------------------------------------------------------- DEDUP ----

const DEDUP_SQL: &str = "SELECT * FROM t x DEDUP(exact, LD, 0.8, x.blk, x.name)";

/// Names drawn from two near-identical spellings (Levenshtein similarity
/// 7/8 ≥ 0.8 — a duplicate) and one distant one.
fn dedup_name(choice: u8) -> &'static str {
    match choice {
        0 => "abcdefgh",
        1 => "abcdefgx",
        _ => "zzzzzzzz",
    }
}

fn dedup_table(rows: &[(u8, u8, Cell)]) -> Vec<Value> {
    rows.iter()
        .enumerate()
        .map(|(i, (blk, name, extra))| {
            Value::record([
                (ROWID_FIELD, Value::Int(i as i64)),
                ("blk", Value::str(format!("b{blk}"))),
                ("name", Value::str(dedup_name(*name))),
                ("bal", extra.value()),
            ])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dedup_repair_is_idempotent_under_every_profile(
        rows in proptest::collection::vec((0u8..3, 0u8..3, cell()), 0..24),
    ) {
        for profile in profiles() {
            let name = profile.name.clone();
            let mut db = CleanDb::new(profile);
            db.register_values("t", dedup_table(&rows));
            // keep_canonical (the default) is the policy that guarantees a
            // clean re-run: survivors are untouched originals.
            let engine = RepairEngine::default();

            let report = engine.run(&mut db, DEDUP_SQL).unwrap();
            let section = report.repair.clone().unwrap();
            prop_assert_eq!(section.unrepaired, 0, "profile {}", &name);
            prop_assert!(section.fixes.is_empty(), "keep_canonical never rewrites");
            db.apply_repairs(&section).unwrap();

            let clean = db.run(DEDUP_SQL).unwrap();
            prop_assert_eq!(clean.violations(), 0, "profile {}", &name);

            let again = engine.run(&mut db, DEDUP_SQL).unwrap();
            prop_assert!(again.repair.as_ref().unwrap().is_empty(), "profile {}", &name);
        }
    }
}

// ---------------------------------------------------------------- DC ----

fn lineitem_table(rows: &[(Cell, Cell)]) -> Vec<Value> {
    rows.iter()
        .enumerate()
        .map(|(i, (price, discount))| {
            Value::record([
                (ROWID_FIELD, Value::Int(i as i64)),
                ("extendedprice", price.value()),
                ("discount", discount.value()),
            ])
        })
        .collect()
}

fn dc_violations(db: &mut CleanDb, dc: &InequalityDc) -> usize {
    match dc.run(db).unwrap() {
        DcOutcome::Completed { violations, .. } => violations,
        other => panic!("tiny table exceeded budget: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dc_repair_is_idempotent_under_every_profile(
        rows in proptest::collection::vec((cell(), cell()), 0..20),
    ) {
        let dc = InequalityDc::rule_psi("lineitem", 6.0);
        for profile in profiles() {
            let name = profile.name.clone();
            let mut db = CleanDb::new(profile);
            db.register_values("lineitem", lineitem_table(&rows));
            let engine = RepairEngine::default();

            let report = engine.run(&mut db, &dc.to_sql()).unwrap();
            let section = report.repair.unwrap();
            // The plan is simulation-verified: nothing may remain.
            prop_assert_eq!(section.unrepaired, 0, "profile {}", &name);
            db.apply_repairs(&section).unwrap();

            prop_assert_eq!(dc_violations(&mut db, &dc), 0, "profile {}", &name);

            // Second pass: clean table plans no further fixes.
            let again = engine.run(&mut db, &dc.to_sql()).unwrap().repair.unwrap();
            prop_assert!(again.is_empty(), "profile {}: {:?}", &name, again);
        }
    }
}
