//! End-to-end guarantees for the cost-based profile: `EngineProfile::
//! adaptive()` is a *physical* policy like the fixed three, so it must
//! produce identical logical results on the quickstart workloads — while
//! collecting its statistics in a single pass and explaining its choices.

use cleanm::core::physical::NestStrategy;
use cleanm::core::{CleanDb, EngineProfile, Planner};
use cleanm::datagen::customer::CustomerGen;
use cleanm::datagen::mag::MagGen;

fn all_profiles() -> Vec<EngineProfile> {
    vec![
        EngineProfile::clean_db(),
        EngineProfile::spark_sql_like(),
        EngineProfile::big_dansing_like(),
        EngineProfile::adaptive(),
    ]
}

const QUICKSTART: &str = "SELECT c.name, c.address FROM customer c \
     FD(c.address, c.nationkey) \
     DEDUP(exact, LD, 0.8, c.address, c.name)";

#[test]
fn adaptive_agrees_with_every_fixed_profile_on_quickstart() {
    let data = CustomerGen::new(42)
        .rows(500)
        .duplicate_fraction(0.1)
        .generate();
    let mut results = Vec::new();
    for profile in all_profiles() {
        let mut db = CleanDb::new(profile.clone());
        db.register("customer", data.table.clone());
        let report = db.run(QUICKSTART).unwrap();
        assert!(report.violations() > 0, "{}", profile.name);
        results.push((profile.name.clone(), report.violating_ids));
    }
    for pair in results.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "{} and {} disagree",
            pair[0].0, pair[1].0
        );
    }
}

#[test]
fn adaptive_agrees_on_skewed_mag_workload() {
    let data = MagGen::new(7).papers(1_200).authors(30).generate();
    let mut results = Vec::new();
    for profile in all_profiles() {
        let mut db = CleanDb::new(profile.clone());
        db.register("mag", data.table.clone());
        let report = db
            .run("SELECT * FROM mag t DEDUP(exact, LD, 0.8, t.authorid, t.title)")
            .unwrap();
        results.push((profile.name.clone(), report.violating_ids));
    }
    for pair in results.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "{} and {} disagree",
            pair[0].0, pair[1].0
        );
    }
}

#[test]
fn stats_collection_is_a_single_pass() {
    // Acceptance: TableStats collection is one summarize_partitions pass —
    // it sees every row exactly once and shuffles exactly one partial per
    // partition, verified by the exec stage counters.
    let data = CustomerGen::new(9)
        .rows(2_000)
        .duplicate_fraction(0.05)
        .generate();
    let rows = data.table.len();
    let mut db = CleanDb::new(EngineProfile::adaptive());
    db.register("customer", data.table);
    let report = db
        .run("SELECT * FROM customer c FD(c.address, c.nationkey)")
        .unwrap();

    let stat_stages: Vec<_> = report
        .metrics
        .stages
        .iter()
        .filter(|s| s.operator == "summarize_partitions")
        .collect();
    assert_eq!(stat_stages.len(), 1, "exactly one collection pass");
    assert_eq!(
        stat_stages[0].records_in as usize, rows,
        "every row seen once"
    );
    let partitions = db.context().default_partitions() as u64;
    assert_eq!(
        stat_stages[0].records_shuffled, partitions,
        "only one partial summary per partition moves"
    );
}

#[test]
fn adaptive_decisions_are_visible_and_stat_driven() {
    // Zipf-skewed MAG: authorid has heavy hitters, so grouping on it must
    // avoid the sort shuffle and say why.
    let data = MagGen::new(11).papers(2_000).authors(25).generate();
    let mut db = CleanDb::new(EngineProfile::adaptive());
    db.register("mag", data.table);
    let report = db
        .run("SELECT * FROM mag t DEDUP(exact, LD, 0.8, t.authorid, t.title)")
        .unwrap();
    let nest_decisions: Vec<_> = report
        .decisions
        .iter()
        .filter(|d| d.operator == "nest")
        .collect();
    assert!(!nest_decisions.is_empty());
    for d in &nest_decisions {
        assert_ne!(d.reason, "fixed profile", "{d}");
        assert_ne!(
            d.strategy,
            format!("{:?}", NestStrategy::SortShuffle),
            "sort shuffle must not be chosen under skew: {d}"
        );
    }
    // The consulted statistics are part of the report.
    assert!(report.table_stats.contains_key("mag"));
}

#[test]
fn only_the_adaptive_profile_plans_cost_based() {
    let a = EngineProfile::adaptive();
    assert_eq!(a.planner, Planner::CostBased);
    assert!(a.planner.unified(), "cost-based is the unified planner");
    // It is CleanDB in everything but the level.
    let clean_db = EngineProfile::clean_db();
    assert_eq!((a.nest, a.theta), (clean_db.nest, clean_db.theta));
    for fixed in [
        clean_db,
        EngineProfile::spark_sql_like(),
        EngineProfile::big_dansing_like(),
    ] {
        assert_ne!(fixed.planner, Planner::CostBased, "{}", fixed.name);
    }
}
