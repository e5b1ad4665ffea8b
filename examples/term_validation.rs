//! Term validation (§8.1): repair misspelled author names against a
//! dictionary, comparing token filtering and k-means blocking.
//!
//! ```sh
//! cargo run --release --example term_validation
//! ```

use cleanm::core::ops::TermValidation;
use cleanm::core::quality::term_validation_accuracy;
use cleanm::core::{CleanDb, EngineProfile, PhaseSplit};
use cleanm::datagen::dblp::DblpGen;
use cleanm::formats::flatten;
use cleanm::text::Metric;

fn main() {
    // DBLP-shaped publications; 10% of author occurrences get 20% edits.
    let data = DblpGen::new(7)
        .publications(1_000)
        .dictionary_size(600)
        .author_noise_fraction(0.10)
        .edit_rate(0.20)
        .generate();
    let flat = flatten::flatten(&data.table).expect("flatten");
    println!(
        "{} publications -> {} author occurrences; dictionary of {} names",
        data.table.len(),
        flat.len(),
        data.dictionary.len()
    );

    // Ground truth aligned with the flat view.
    let author_col = flat.schema.index_of("authors").unwrap();
    let dirty: Vec<String> = flat
        .rows
        .iter()
        .map(|r| r.values()[author_col].to_text())
        .collect();
    let clean: Vec<String> = data
        .clean_authors
        .iter()
        .flat_map(|a| a.iter().cloned())
        .collect();

    for block_op in [
        "token_filtering(2)",
        "token_filtering(3)",
        "kmeans(5)",
        "kmeans(20)",
    ] {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        // Traced, so the report carries the plan tree the split is read off.
        db.set_tracing(true);
        db.register("dblp", flat.clone());
        db.register_dictionary("dict", data.dictionary.clone());

        let tv = TermValidation::new("dblp", "dict", block_op, "t.authors")
            .metric(Metric::Levenshtein, 0.70);
        let (report, best) = tv.run(&mut db).expect("term validation");
        let acc = term_validation_accuracy(&dirty, &clean, &best);
        let phases = PhaseSplit::of(&report.profiles);
        println!(
            "{block_op:<20} precision {:5.1}%  recall {:5.1}%  F {:5.1}%  \
             (grouping {:?}, similarity {:?}, {} comparisons)",
            acc.precision * 100.0,
            acc.recall * 100.0,
            acc.f_score * 100.0,
            phases.grouping,
            phases.similarity,
            report.metrics.comparisons,
        );
    }

    println!("\nAs in Table 3: token filtering keeps recall high (a dirty name still");
    println!("shares clean tokens with its dictionary entry), while more k-means");
    println!("clusters save comparisons but start splitting similar words apart.");
}
