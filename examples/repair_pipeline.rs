//! The full clean-loop: register a dirty table, detect violations, plan
//! confidence-scored repairs, apply them in place, and let a standing
//! incremental query confirm the table now re-validates clean.
//!
//! ```sh
//! cargo run --release --example repair_pipeline
//! ```

use cleanm::core::{CleanDb, EngineProfile};
use cleanm::datagen::customer::CustomerGen;
use cleanm::incr::IncrementalSession;
use cleanm::repair::{MergeFn, MergePolicy, RepairConfig, RepairEngine};

fn main() {
    // A customer table seeded with FD noise (address no longer determines
    // nationkey) and fuzzy duplicates.
    let data = CustomerGen::new(7)
        .rows(2_000)
        .duplicate_fraction(0.08)
        .fd_noise_fraction(0.03)
        .generate();

    let query = "SELECT * FROM customer c \
                 FD(c.address, c.nationkey) \
                 DEDUP(exact, LD, 0.8, c.address, c.name)";

    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register("customer", data.table);

    // Install the query as a *standing* query so re-validation after the
    // repair is the same incremental machinery production would use.
    let mut session = IncrementalSession::new(db);
    let (id, baseline) = session.install(query).expect("install");
    println!("== detection ==");
    println!("{}", baseline.summary());

    // Plan repairs: FD groups vote on their right-hand side, duplicate
    // clusters collapse onto canonical records (longest name survives).
    let engine = RepairEngine::new(RepairConfig {
        merge: MergePolicy::keep_canonical().with_column("name", MergeFn::Longest),
    });
    let section = engine
        .plan_for_report(session.db(), query, &baseline)
        .expect("plan repairs");
    println!("== repair plan ==");
    for line in section.render().lines() {
        println!("  {line}");
    }
    for fix in section.fixes.iter().take(5) {
        println!(
            "  e.g. {}.{}[row {}]: {} -> {}  (confidence {:.2}, {})",
            fix.table, fix.column, fix.row_id, fix.original, fix.repaired, fix.confidence, fix.rule
        );
    }

    // Apply: cells rewritten, merged rows dropped, table re-registered
    // through the columnar path.
    let applied = session.db().apply_repairs(&section).expect("apply");
    println!("== applied ==");
    for t in &applied.tables {
        println!(
            "  {}: {} cell(s) changed, {} row(s) dropped, {} row(s) remain",
            t.table, t.cells_changed, t.rows_dropped, t.rows_after
        );
    }

    // The standing query notices the re-registration and re-validates.
    let refreshed = session.refresh(id).expect("refresh");
    println!("== re-validation ==");
    println!("{}", refreshed.summary());
    assert_eq!(refreshed.violations(), 0, "repaired table must be clean");
    println!("repaired table re-validates with zero violations");
}
