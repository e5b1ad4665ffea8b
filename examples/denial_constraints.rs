//! General denial constraints with inequalities (§8.3, Table 5): rule ψ —
//! "an item cannot have a bigger discount than a more expensive item".
//!
//! ```sh
//! cargo run --release --example denial_constraints
//! ```

use cleanm::core::ops::{DcOutcome, InequalityDc};
use cleanm::core::{CleanDb, EngineProfile};
use cleanm::datagen::tpch::{LineitemGen, NoiseColumn};
use cleanm::exec::ExecContext;

fn main() {
    let data = LineitemGen::new(5)
        .rows(20_000)
        .noise_column(NoiseColumn::Discount)
        .generate();
    println!(
        "lineitem: {} rows, {} discount-corrupted\n",
        data.table.len(),
        data.corrupted_rows.len()
    );

    // ψ is a CleanM query: t1.price < 12 ∧ t1.price < t2.price ∧
    // t1.discount > t2.discount. The filter keeps ~0.01% of t1 — the paper's
    // selectivity. With no equality to block on, it plans as a theta join.
    let psi = "SELECT * FROM lineitem DC(t1.extendedprice < 12.0 \
               AND t1.extendedprice < t2.extendedprice AND t1.discount > t2.discount)";
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register("lineitem", data.table.clone());
    let report = db.run(psi).expect("psi as text");
    println!("{psi}\n{}", report.plan_text);
    println!(
        "{} violating pairs, {} rows involved\n",
        report.ops[0].output.len(),
        report.violating_ids.len()
    );

    // The typed front door renders the same text (`dc.to_sql()`) and reads
    // the outcome off the report.
    let dc = InequalityDc::rule_psi("lineitem", 12.0);

    // A fixed work budget stands in for cluster time/memory limits: a plan
    // whose comparison count explodes is reported as non-terminating, as in
    // Table 5.
    let budget = 40_000_000u64;
    for profile in [
        EngineProfile::clean_db(),
        EngineProfile::spark_sql_like(),
        EngineProfile::big_dansing_like(),
    ] {
        let name = profile.name.clone();
        let ctx = ExecContext::with_budget(4, 8, budget);
        let mut db = CleanDb::with_context(profile, ctx);
        db.register("lineitem", data.table.clone());
        match dc.run(&mut db).expect("dc run") {
            DcOutcome::Completed {
                violations,
                duration,
                comparisons,
            } => println!(
                "{name:<12} completed: {violations} violating pairs in {duration:?} \
                 ({comparisons} comparisons)"
            ),
            DcOutcome::BudgetExceeded {
                operator, needed, ..
            } => println!(
                "{name:<12} DID NOT TERMINATE within budget \
                 ({operator} needed {needed} work units > {budget})"
            ),
        }
    }

    println!("\nCleanDB pushes the selective filter below the join (monoid-level");
    println!("normalization) and runs a statistics-aware M-Bucket theta join; the");
    println!("baselines face the full cross product — Table 5's shape.");
}
