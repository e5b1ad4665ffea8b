//! Differential idempotence properties: for every repair family and every
//! engine profile, planning repairs, applying them, and re-running the
//! query yields **zero violations**, and a second repair pass is a no-op —
//! including tables with NULL cells, NaN cells, and no rows at all.

use cleanm_core::calculus::desugar::ROWID_FIELD;
use cleanm_core::engine::CleanDb;
use cleanm_core::ops::{DcOutcome, InequalityDc, TermValidation};
use cleanm_core::physical::EngineProfile;
use cleanm_repair::RepairEngine;
use cleanm_text::Metric;
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

// -------------------------------------------------------- CLUSTER BY ----

const TERM_SQL: &str = "SELECT * FROM t x, dict w CLUSTER BY(token_filtering(2), LD, 0.7, x.name)";

/// Near-miss pairs (`smith`/`smyth`, `miller`/`millar`) so that clean
/// dictionary terms are each other's candidates.
const VOCABULARY: [&str; 6] = ["smith", "smyth", "miller", "millar", "anderson", "zhang"];

/// A vocabulary word, clean or with a typo: the last letter replaced, or
/// the first dropped.
fn term(word: u8, typo: u8) -> String {
    let w = VOCABULARY[usize::from(word)];
    match typo {
        0 => w.to_string(),
        1 => format!("{}x", &w[..w.len() - 1]),
        _ => w[1..].to_string(),
    }
}

fn term_table(terms: &[String]) -> Vec<Value> {
    terms
        .iter()
        .enumerate()
        .map(|(i, t)| Value::record([(ROWID_FIELD, Value::Int(i as i64)), ("name", Value::str(t))]))
        .collect()
}

#[test]
fn cluster_by_leaves_clean_dictionary_terms_alone() {
    let terms = ["smith", "smyth", "smitx"].map(String::from);
    for profile in profiles() {
        let name = profile.name.clone();
        let mut db = CleanDb::new(profile);
        db.register_values("t", term_table(&terms));
        db.register_dictionary("dict", vec!["smith".into(), "smyth".into()]);
        let report = RepairEngine::default().run(&mut db, TERM_SQL).unwrap();
        let section = report.repair.unwrap();
        let fixes: Vec<_> = (section.fixes.iter())
            .map(|f| (f.row_id, f.original.clone(), f.repaired.clone()))
            .collect();
        assert_eq!(
            fixes,
            vec![(2, Value::str("smitx"), Value::str("smith"))],
            "profile {name}: only the term outside the dictionary is rewritten"
        );
        assert!((section.fixes[0].confidence - 0.8).abs() < 1e-9);
    }
}

#[test]
fn cluster_by_repair_ranks_by_the_clauses_metric() {
    // Under Jaro-Winkler `jonhson` is nearer `johnson`; under Levenshtein
    // `johnsen` is. Repair must pick what term validation picks.
    let tv = TermValidation::new("t", "dict", "token_filtering(2)", "t.name")
        .metric(Metric::JaroWinkler, 0.8);
    for profile in profiles() {
        let name = profile.name.clone();
        let mut db = CleanDb::new(profile);
        db.register_values("t", term_table(&["johnson".to_string()]));
        db.register_dictionary("dict", vec!["jonhson".into(), "johnsen".into()]);
        let (_, best) = tv.run(&mut db).unwrap();
        assert_eq!(best["johnson"], "jonhson", "profile {name}");
        let report = RepairEngine::default().run(&mut db, &tv.to_sql()).unwrap();
        let fixes = report.repair.unwrap().fixes;
        assert_eq!(fixes.len(), 1, "profile {name}");
        assert_eq!(fixes[0].repaired, Value::str("jonhson"), "profile {name}");
        let jw = Metric::JaroWinkler.similarity("johnson", "jonhson");
        assert!((fixes[0].confidence - jw).abs() < 1e-9, "profile {name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cluster_by_repair_is_idempotent_under_every_profile(
        words in proptest::collection::vec((0u8..6, 0u8..3), 0..16),
        dictionary in 0u8..64,
    ) {
        let terms: Vec<String> = words.iter().map(|&(w, typo)| term(w, typo)).collect();
        let dict: Vec<String> = (VOCABULARY.iter().enumerate())
            .filter(|(i, _)| dictionary & (1 << i) != 0)
            .map(|(_, w)| w.to_string())
            .collect();
        for profile in profiles() {
            let name = profile.name.clone();
            let mut db = CleanDb::new(profile);
            db.register_values("t", term_table(&terms));
            db.register_dictionary("dict", dict.clone());
            let engine = RepairEngine::default();

            let report = engine.run(&mut db, TERM_SQL).unwrap();
            let section = report.repair.clone().unwrap();
            prop_assert_eq!(section.unrepaired, 0, "profile {}", &name);
            for fix in &section.fixes {
                let repaired = fix.repaired.as_str().unwrap().to_string();
                prop_assert!(dict.contains(&repaired), "profile {}: {:?}", &name, fix);
            }
            db.apply_repairs(&section).unwrap();

            // Second pass: every term left is clean or has no candidate.
            let again = engine.run(&mut db, TERM_SQL).unwrap();
            prop_assert!(
                again.repair.as_ref().unwrap().is_empty(),
                "profile {}: {:?}", &name, again.repair
            );
        }
    }
}
