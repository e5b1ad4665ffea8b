//! DC repair end-to-end: relaxation moves offending cells to the
//! constraint boundary, the plan is simulation-verified, applying it
//! leaves zero violations, and non-numeric offenders fall back to
//! low-confidence null-outs — for a `DC(...)` clause alone or beside
//! other clauses of one statement.

use cleanm_core::engine::{CleanDb, RepairSection};
use cleanm_core::ops::{DcOutcome, InequalityDc};
use cleanm_core::physical::EngineProfile;
use cleanm_repair::RepairEngine;
use cleanm_values::{DataType, Row, Schema, Table, Value};

/// The ψ corpus of the core DC tests: discount monotone in price, plus one
/// poisoned cheap row with a huge discount.
fn lineitem(n: i64) -> Table {
    let schema = Schema::of([
        ("extendedprice", DataType::Float),
        ("discount", DataType::Float),
    ]);
    let mut rows: Vec<Row> = (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Float(100.0 + i as f64),
                Value::Float((i as f64) / (n as f64)),
            ])
        })
        .collect();
    rows.push(Row::new(vec![Value::Float(50.0), Value::Float(0.99)]));
    Table::new(schema, rows)
}

fn violations(db: &mut CleanDb, dc: &InequalityDc) -> usize {
    match dc.run(db).unwrap() {
        DcOutcome::Completed { violations, .. } => violations,
        other => panic!("unexpected outcome: {other:?}"),
    }
}

/// The repair section the engine plans for `sql`.
fn repair(db: &mut CleanDb, sql: &str) -> RepairSection {
    let report = RepairEngine::default().run(db, sql).unwrap();
    report.repair.expect("the engine attaches a section")
}

#[test]
fn relaxation_repairs_the_poisoned_row_to_zero_violations() {
    let dc = InequalityDc::rule_psi("lineitem", 60.0);
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register("lineitem", lineitem(100));
    assert_eq!(violations(&mut db, &dc), 99, "poisoned corpus baseline");

    let section = repair(&mut db, &dc.to_sql());
    assert_eq!(section.unrepaired, 0, "simulation must verify the plan");
    assert!(!section.fixes.is_empty());
    // The minimal adjustment touches only the single poisoned row (id 100):
    // every fix lands there, whichever cell the cost model picked.
    assert!(section.fixes.iter().all(|f| f.row_id == 100), "{section:?}");
    for fix in &section.fixes {
        assert!(fix.rule == "dc:relax" || fix.rule == "dc:null_out");
        if fix.rule == "dc:relax" {
            assert!(
                fix.confidence > 0.15 && fix.confidence <= 0.9,
                "relaxation confidence decays with distance: {fix:?}"
            );
        }
    }

    let applied = db.apply_repairs(&section).unwrap();
    assert_eq!(applied.stale(), 0);
    assert_eq!(violations(&mut db, &dc), 0);
}

#[test]
fn non_numeric_offenders_fall_back_to_null_out() {
    // The poisoned row's cells are non-numeric: strings sort above numbers
    // and bools below them in the canonical order, so the pair predicate
    // holds against both clean rows — yet no numeric boundary exists on
    // *either* atom, relaxation cannot plan, and the verified fallback
    // nulls offending cells instead.
    let mk = |id: i64, price: Value, discount: Value| {
        Value::record([
            ("__rowid", Value::Int(id)),
            ("extendedprice", price),
            ("discount", discount),
        ])
    };
    let rows = vec![
        mk(0, Value::Float(100.0), Value::Float(0.10)),
        mk(1, Value::Float(200.0), Value::Float(0.20)),
        mk(2, Value::str("n/a"), Value::Bool(false)),
    ];
    let dc = InequalityDc::rule_psi("lineitem", 600.0);
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register_values("lineitem", rows);
    assert_eq!(violations(&mut db, &dc), 2);

    let section = repair(&mut db, &dc.to_sql());
    assert_eq!(section.unrepaired, 0);
    let null_outs: Vec<_> = section
        .fixes
        .iter()
        .filter(|f| f.rule == "dc:null_out")
        .collect();
    assert!(!null_outs.is_empty(), "{section:?}");
    for f in &null_outs {
        assert_eq!(f.repaired, Value::Null);
        assert!(f.confidence <= 0.15, "null-outs carry low confidence");
    }

    db.apply_repairs(&section).unwrap();
    assert_eq!(violations(&mut db, &dc), 0);
}

#[test]
fn clean_table_plans_nothing() {
    let dc = InequalityDc::rule_psi("lineitem", 60.0);
    let mut db = CleanDb::new(EngineProfile::clean_db());
    // Monotone corpus without the poisoned row.
    let schema = Schema::of([
        ("extendedprice", DataType::Float),
        ("discount", DataType::Float),
    ]);
    let rows: Vec<Row> = (0..50)
        .map(|i| {
            Row::new(vec![
                Value::Float(100.0 + i as f64),
                Value::Float(f64::from(i) / 50.0),
            ])
        })
        .collect();
    db.register("lineitem", Table::new(schema, rows));

    let section = repair(&mut db, &dc.to_sql());
    assert!(section.is_empty(), "{section:?}");
}

#[test]
fn a_dc_clause_beside_an_fd_repairs_like_the_clause_alone() {
    let dc = InequalityDc::rule_psi("lineitem", 60.0);
    let mut alone = CleanDb::new(EngineProfile::clean_db());
    alone.register("lineitem", lineitem(100));
    let want = repair(&mut alone, &dc.to_sql()).fixes;
    assert!(!want.is_empty());

    let sql = format!(
        "SELECT * FROM lineitem l FD(l.extendedprice, l.discount) DC({})",
        dc.pred
    );
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register("lineitem", lineitem(100));
    let section = repair(&mut db, &sql);
    let dc_fixes: Vec<_> = (section.fixes.iter())
        .filter(|f| f.rule.starts_with("dc:"))
        .cloned()
        .collect();
    assert_eq!(dc_fixes, want);
    assert_eq!(section.unrepaired, 0);

    db.apply_repairs(&section).unwrap();
    assert_eq!(violations(&mut db, &dc), 0);
}
