//! Fix-ordering determinism: the same dirty data must plan the **same
//! fixes in the same order** — sorted by `(table, row_id, column)` — no
//! matter which engine profile runs detection or how many partitions the
//! runtime splits tables into. Downstream consumers (reports, diffs, CI
//! gates) depend on byte-stable repair plans.

use cleanm_core::engine::{CleanDb, Fix};
use cleanm_core::physical::EngineProfile;
use cleanm_datagen::customer::CustomerGen;
use cleanm_exec::ExecContext;
use cleanm_repair::{MergeFn, MergePolicy, RepairConfig, RepairEngine};

const QUERY: &str = "SELECT * FROM customer c \
                     FD(c.address, c.nationkey) \
                     DEDUP(exact, LD, 0.8, c.address, c.name)";

/// Fig. 5's unified query: two FDs and a DEDUP over one table.
const FIG5: &str = "SELECT * FROM customer c \
                    FD(c.address, prefix(c.phone)) \
                    FD(c.address, c.nationkey) \
                    DEDUP(exact, LD, 0.8, c.address, c.name)";

/// A session over 600 dirty customer rows.
fn customer_db(profile: EngineProfile, partitions: usize) -> CleanDb {
    let data = CustomerGen::new(11)
        .rows(600)
        .duplicate_fraction(0.12)
        .fd_noise_fraction(0.05)
        .generate();
    let mut db = CleanDb::with_context(profile, ExecContext::new(2, partitions));
    db.register("customer", data.table);
    db
}

/// A rewriting merge policy so DEDUP contributes fixes, not just drops.
fn engine() -> RepairEngine {
    RepairEngine::new(RepairConfig {
        merge: MergePolicy::keep_canonical().with_column("name", MergeFn::Longest),
    })
}

fn plan_fixes(profile: EngineProfile, partitions: usize) -> (Vec<Fix>, Vec<(String, i64)>) {
    let mut db = customer_db(profile, partitions);
    let report = engine().run(&mut db, QUERY).unwrap();
    let section = report.repair.unwrap();
    (section.fixes, section.dropped_rows)
}

#[test]
fn fixes_are_identical_across_profiles_and_partition_counts() {
    let baseline = plan_fixes(EngineProfile::clean_db(), 2);
    assert!(!baseline.0.is_empty(), "corpus must produce fixes");
    assert!(!baseline.1.is_empty(), "corpus must produce merges");

    // Shuffle strategy varies by profile, data placement by partition
    // count; the planned fixes may not.
    for profile in [
        EngineProfile::clean_db(),
        EngineProfile::spark_sql_like(),
        EngineProfile::big_dansing_like(),
    ] {
        for partitions in [1, 3, 7] {
            let name = profile.name.clone();
            let got = plan_fixes(profile.clone(), partitions);
            assert_eq!(
                got, baseline,
                "profile {name} with {partitions} partition(s) diverged"
            );
        }
    }
}

#[test]
fn fixes_come_out_sorted_by_table_row_column() {
    let (fixes, dropped) = plan_fixes(EngineProfile::clean_db(), 4);
    let keys: Vec<(&str, i64, &str)> = fixes
        .iter()
        .map(|f| (f.table.as_str(), f.row_id, f.column.as_str()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    let mut dropped_sorted = dropped.clone();
    dropped_sorted.sort();
    assert_eq!(dropped, dropped_sorted);
}

/// Planning repairs for a report does not depend on the query's plan still
/// being cached: after more distinct queries than the plan cache holds,
/// the same report plans the same section.
#[test]
fn a_repair_plan_survives_plan_cache_eviction() {
    let mut db = customer_db(EngineProfile::clean_db(), 2);
    let engine = engine();
    let report = db.run(FIG5).unwrap();
    let before = engine.plan_for_report(&db, FIG5, &report).unwrap();
    assert!(!before.fixes.is_empty(), "corpus must produce fixes");
    assert!(
        !before.dropped_rows.is_empty(),
        "corpus must produce merges"
    );
    for i in 0..150 {
        let sql = format!("SELECT c.name AS n FROM customer c WHERE c.nationkey = {i}");
        assert!(!db.run(&sql).unwrap().plan_cache.hit);
    }
    let after = engine.plan_for_report(&db, FIG5, &report).unwrap();
    assert_eq!(after.fixes, before.fixes);
    assert_eq!(after.dropped_rows, before.dropped_rows);
    assert_eq!(after.unrepaired, before.unrepaired);
}
