//! The paper's running example (§1, §8.2): one query that validates names
//! against a dictionary, checks a functional dependency, and detects
//! duplicates — executed under all three engine profiles.
//!
//! ```sh
//! cargo run --release --example unified_cleaning
//! ```

use cleanm::core::{CleanDb, EngineProfile, PhaseSplit};
use cleanm::datagen::customer::CustomerGen;
use cleanm::datagen::names;

fn main() {
    let data = CustomerGen::new(2017)
        .rows(3_000)
        .duplicate_fraction(0.10)
        .max_duplicates(15)
        .fd_noise_fraction(0.02)
        .generate();
    // A name dictionary for the CLUSTER BY part of the running example.
    let dictionary = names::dictionary(800, 99);

    let query = "SELECT c.name, c.address FROM customer c, dictionary d \
                 FD(c.address | prefix(c.phone)) \
                 DEDUP(exact, LD, 0.8, c.address, c.name) \
                 CLUSTER BY(token_filtering(3), LD, 0.8, c.name)";
    println!("running example query:\n  {query}\n");

    for profile in [
        EngineProfile::clean_db(),
        EngineProfile::spark_sql_like(),
        EngineProfile::big_dansing_like(),
    ] {
        let name = profile.name.clone();
        let mut db = CleanDb::new(profile);
        // Traced, so the report carries the plan tree the split is read off.
        db.set_tracing(true);
        db.register("customer", data.table.clone());
        db.register_dictionary("dictionary", dictionary.clone());
        match db.run(query) {
            Ok(report) => {
                let phases = PhaseSplit::of(&report.profiles);
                println!("== {name} ==");
                println!(
                    "  total {:?}  (grouping {:?}, similarity {:?})",
                    report.total, phases.grouping, phases.similarity
                );
                println!(
                    "  {} violating entities, {} repair candidates, \
                     {} shared plan nodes, {} records shuffled",
                    report.violations(),
                    report.repairs.len(),
                    report.rewrite_stats.total_shared(),
                    report.metrics.records_shuffled,
                );
            }
            Err(e) => println!("== {name} == failed: {e}"),
        }
    }
    println!("\nCleanDB shares the address grouping between FD and DEDUP and shuffles");
    println!("pre-aggregated groups; the baselines regroup per operation.");
}
