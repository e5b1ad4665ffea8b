//! The experiments of §8, one function per table/figure.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cleanm_core::ops::{
    apply_transforms, DcOutcome, Dedup, FdCheck, InequalityDc, TermValidation, Transform,
    TransformMode,
};
use cleanm_core::physical::EngineProfile;
use cleanm_core::quality::{term_validation_accuracy, Accuracy};
use cleanm_datagen::customer::CustomerGen;
use cleanm_datagen::dblp::{DblpData, DblpGen};
use cleanm_datagen::mag::MagGen;
use cleanm_datagen::tpch::{LineitemGen, NoiseColumn};
use cleanm_formats::{colbin, csv, flatten, json};
use cleanm_text::Metric;

use cleanm_core::{CleanDb, CleaningReport, PhaseSplit};
use cleanm_incr::IncrementalSession;
use cleanm_repair::RepairEngine;
use cleanm_values::{Table, Value};

use crate::harness::{
    all_profiles, best_of_interleaved, budgeted_session, gate, local_context, session, Scale,
};

pub const SEED: u64 = 20170801;

/// Rounds of every [`best_of_interleaved`] timing.
const ROUNDS: usize = 5;

// ====================================================================
// §8.1 — Term validation: Table 3 (accuracy), Figure 3 (runtime split),
// Figure 4 (accuracy vs noise).
// ====================================================================

/// The term-validation configurations of Table 3 / Figure 3, as
/// `(display label, CleanM blocking op)`.
pub const TERMVAL_CONFIGS: [(&str, &str); 6] = [
    ("tf q=2", "token_filtering(2)"),
    ("tf q=3", "token_filtering(3)"),
    ("tf q=4", "token_filtering(4)"),
    ("kmeans k=5", "kmeans(5)"),
    ("kmeans k=10", "kmeans(10)"),
    ("kmeans k=20", "kmeans(20)"),
];

/// One measured term-validation run. `phases` is Figure 3's split, read
/// off the run's traced plan tree.
#[derive(Debug, Clone)]
pub struct TermvalRow {
    pub config: String,
    pub phases: PhaseSplit,
    pub total: Duration,
    pub accuracy: Accuracy,
    pub comparisons: u64,
}

/// Generate the DBLP workload once (shared across configs).
pub fn dblp_for_termval(scale: Scale, edit_rate: f64) -> DblpData {
    DblpGen::new(SEED)
        .publications(scale.dblp_publications())
        .dictionary_size(scale.dictionary_size())
        .author_noise_fraction(0.10)
        .edit_rate(edit_rate)
        .generate()
}

/// Run term validation under one blocking configuration; powers Table 3,
/// Figure 3 and Figure 4.
pub fn run_termval(data: &DblpData, (label, block_op): (&str, &str), theta: f64) -> TermvalRow {
    // The experiment validates author names of the *flat* representation
    // (§8.1 uses "the flat Parquet version of DBLP").
    let flat = flatten::flatten(&data.table).expect("flatten DBLP");
    let author_col = flat.schema.index_of("authors").expect("authors column");

    let mut db = session(EngineProfile::clean_db());
    db.set_seed(SEED);
    db.set_tracing(true);
    db.register("dblp", flat.clone());
    db.register_dictionary("dict", data.dictionary.clone());

    let tv = TermValidation::new("dblp", "dict", block_op, "t.authors")
        .metric(Metric::Levenshtein, theta);
    let start = Instant::now();
    let (report, best) = tv.run(&mut db).expect("term validation");
    let total = start.elapsed();

    // Ground truth, aligned with the flat view.
    let dirty: Vec<String> = flat
        .rows
        .iter()
        .map(|r| r.values()[author_col].to_text())
        .collect();
    let clean: Vec<String> = data
        .clean_authors
        .iter()
        .flat_map(|authors| authors.iter().cloned())
        .collect();
    assert_eq!(dirty.len(), clean.len(), "flatten alignment");
    let accuracy = term_validation_accuracy(&dirty, &clean, &best);

    TermvalRow {
        config: label.to_string(),
        phases: PhaseSplit::of(&report.profiles),
        total,
        accuracy,
        comparisons: report.metrics.comparisons,
    }
}

/// Table 3 + Figure 3: all configurations at 20% noise.
pub fn table3_fig3(scale: Scale) -> Vec<TermvalRow> {
    let data = dblp_for_termval(scale, 0.20);
    TERMVAL_CONFIGS
        .iter()
        .map(|&c| run_termval(&data, c, 0.70))
        .collect()
}

/// Figure 4: accuracy as noise grows 20% → 40%, threshold lowered with it
/// (the paper lowers θ so the pruning algorithm is isolated).
pub fn fig4(scale: Scale) -> Vec<(f64, Vec<TermvalRow>)> {
    [0.20f64, 0.30, 0.40]
        .into_iter()
        .map(|noise| {
            let data = dblp_for_termval(scale, noise);
            let theta = (0.90 - noise).max(0.4);
            let rows = TERMVAL_CONFIGS
                .iter()
                .map(|&c| run_termval(&data, c, theta))
                .collect();
            (noise, rows)
        })
        .collect()
}

// ====================================================================
// §8.2 — Figure 5: unified cleaning on customer.
// ====================================================================

#[derive(Debug, Clone)]
pub struct UnifiedRow {
    pub system: String,
    pub fd1: Option<Duration>,
    pub fd2: Duration,
    pub dedup: Duration,
    /// Sum of standalone runs.
    pub separate_total: Duration,
    /// One query carrying all supported ops.
    pub combined: Option<Duration>,
    pub combined_violations: usize,
    pub shared_nests: usize,
}

/// Figure 5: FD1 (address → prefix(phone)), FD2 (address → nationkey), and
/// DEDUP on address, run standalone and as a single query, on all systems.
pub fn fig5(scale: Scale) -> Vec<UnifiedRow> {
    // The §8.2 experiment reuses the customer dedup workload (Zipf
    // duplicate counts), which is also what makes the shared grouping
    // worthwhile: addresses repeat.
    let data = CustomerGen::new(SEED)
        .rows(scale.customer_rows())
        .duplicate_fraction(0.10)
        .max_duplicates(50)
        .fd_noise_fraction(0.02)
        .generate();

    let fd1_sql = "SELECT * FROM customer c FD(c.address | prefix(c.phone))";
    let fd2_sql = "SELECT * FROM customer c FD(c.address | c.nationkey)";
    let dedup_sql = "SELECT * FROM customer c DEDUP(exact, LD, 0.8, c.address, c.name)";
    let combined_sql = "SELECT * FROM customer c \
                        FD(c.address | prefix(c.phone)) \
                        FD(c.address | c.nationkey) \
                        DEDUP(exact, LD, 0.8, c.address, c.name)";

    let mut rows = Vec::new();
    for profile in all_profiles() {
        let big_dansing = profile.name == "BigDansing";
        let mut db = session(profile.clone());
        db.register("customer", data.table.clone());

        let timed = |db: &mut CleanDb, sql: &str| {
            let start = Instant::now();
            let report = db.run(sql).expect("query");
            (start.elapsed(), report)
        };

        // BigDansing "lacks support for values not belonging to the
        // original attributes (i.e., the result of prefix() in FD1)" — §8.2.
        let fd1 = if big_dansing {
            None
        } else {
            Some(timed(&mut db, fd1_sql).0)
        };
        let (fd2, _) = timed(&mut db, fd2_sql);
        let (dedup, _) = timed(&mut db, dedup_sql);
        let separate_total = fd1.unwrap_or(Duration::ZERO) + fd2 + dedup;

        // BigDansing "can only apply one operation at a time".
        let (combined, combined_violations, shared_nests) = if big_dansing {
            (None, 0, 0)
        } else {
            let (d, report) = timed(&mut db, combined_sql);
            (
                Some(d),
                report.violations(),
                report.rewrite_stats.shared_nests,
            )
        };
        rows.push(UnifiedRow {
            system: profile.name.clone(),
            fd1,
            fd2,
            dedup,
            separate_total,
            combined,
            combined_violations,
            shared_nests,
        });
    }
    rows
}

// ====================================================================
// §8.2 — Table 4: syntactic transformations.
// ====================================================================

#[derive(Debug, Clone)]
pub struct TransformRow {
    pub operation: String,
    pub duration: Duration,
    pub slowdown: f64,
}

/// Table 4: overhead of split-date / fill-missing vs a plain traversal,
/// separately and fused.
pub fn table4(scale: Scale) -> Vec<TransformRow> {
    let rows = scale.lineitem_scales().last().unwrap().1;
    let data = LineitemGen::new(SEED)
        .rows(rows)
        .noise_column(NoiseColumn::None)
        .missing_quantity_fraction(0.05)
        .generate();
    let ctx = local_context();
    let split = Transform::SplitDate {
        column: "receiptdate".into(),
    };
    let fill = Transform::FillMissing {
        column: "quantity".into(),
    };
    let both = [split.clone(), fill.clone()];
    let run = |transforms: &[Transform], mode: TransformMode| {
        apply_transforms(&ctx, &data.table, transforms, mode).expect("transform");
    };
    let best = best_of_interleaved(
        ROUNDS,
        &mut [
            &mut || {
                cleanm_core::ops::transform::baseline_scan(&ctx, &data.table);
            },
            &mut || run(std::slice::from_ref(&split), TransformMode::Separate),
            &mut || run(std::slice::from_ref(&fill), TransformMode::Separate),
            &mut || run(&both, TransformMode::Separate),
            &mut || run(&both, TransformMode::Fused),
        ],
    );
    let operations = [
        "Plain query (baseline)",
        "Split date",
        "Fill values",
        "Split date & Fill values (two steps)",
        "Split date & Fill values (one step)",
    ];
    operations
        .iter()
        .zip(&best)
        .map(|(operation, &ms)| TransformRow {
            operation: operation.to_string(),
            duration: Duration::from_secs_f64(ms / 1e3),
            slowdown: ms / best[0],
        })
        .collect()
}

// ====================================================================
// §8.3 — Figure 6: FD φ over TPC-H (CSV and colbin) as scale grows.
// ====================================================================

#[derive(Debug, Clone)]
pub struct FdScaleRow {
    pub sf: u32,
    pub format: String,
    pub system: String,
    pub read: Duration,
    pub clean: Duration,
    pub violations: usize,
    pub records_shuffled: u64,
}

/// Figure 6(a)/(b): rule φ `(orderkey, linenumber) → suppkey` over growing
/// scales, from CSV and from the columnar binary format.
pub fn fig6(scale: Scale) -> Vec<FdScaleRow> {
    let scales = scale.lineitem_scales();
    let base_rows = scales[0].1;
    let dir = std::env::temp_dir().join("cleanm_fig6");
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut rows = Vec::new();
    for &(sf, n) in &scales {
        let data = LineitemGen::new(SEED)
            .rows(n)
            .base_rows(base_rows)
            .noise_column(NoiseColumn::OrderKey)
            .generate();
        let csv_path = dir.join(format!("lineitem_sf{sf}.csv"));
        let bin_path = dir.join(format!("lineitem_sf{sf}.colbin"));
        csv::write_path(&csv_path, &data.table, &csv::CsvOptions::default()).expect("csv");
        colbin::write_path(&bin_path, &data.table).expect("colbin");
        let schema = data.table.schema.clone();

        for profile in all_profiles() {
            // Figure 6(b): "Parquet is only supported by CleanDB and Spark
            // SQL; we omit BigDansing".
            let formats: Vec<&str> = if profile.name == "BigDansing" {
                vec!["CSV"]
            } else {
                vec!["CSV", "colbin"]
            };
            for format in formats {
                let read_start = Instant::now();
                let table = match format {
                    "CSV" => csv::read_path(&csv_path, &schema, &csv::CsvOptions::default())
                        .expect("read csv"),
                    _ => colbin::read_path(&bin_path).expect("read colbin"),
                };
                let read = read_start.elapsed();

                let mut db = session(profile.clone());
                db.register("lineitem", table);
                let clean_start = Instant::now();
                let report =
                    FdCheck::columns("lineitem", &["orderkey", "linenumber"], &["suppkey"])
                        .run(&mut db)
                        .expect("fd");
                rows.push(FdScaleRow {
                    sf,
                    format: format.to_string(),
                    system: profile.name.clone(),
                    read,
                    clean: clean_start.elapsed(),
                    violations: report.violations(),
                    records_shuffled: report.metrics.records_shuffled,
                });
            }
        }
    }
    rows
}

// ====================================================================
// §8.3 — Table 5: the inequality DC ψ; only CleanDB terminates.
// ====================================================================

#[derive(Debug, Clone)]
pub struct DcRow {
    pub sf: u32,
    pub system: String,
    pub outcome: DcOutcome,
}

/// The `1/denominator` quantile of lineitem's extendedprice (at least the
/// ninth-cheapest): rule ψ's price cap `X`.
fn low_price(lineitem: &Table, denominator: usize) -> f64 {
    let mut prices: Vec<f64> = lineitem
        .rows
        .iter()
        .map(|r| r.values()[5].as_float().unwrap())
        .collect();
    prices.sort_by(f64::total_cmp);
    prices[(prices.len() / denominator).max(8).min(prices.len() - 1)]
}

/// Table 5: rule ψ (`t1.price < t2.price ∧ t1.discount > t2.discount ∧
/// t1.price < X`, X at ≈0.01% selectivity) under a fixed work budget.
pub fn table5(scale: Scale) -> Vec<DcRow> {
    let scales = scale.lineitem_scales();
    let mut rows = Vec::new();
    for &(sf, n) in &scales {
        let data = LineitemGen::new(SEED)
            .rows(n)
            .base_rows(scales[0].1)
            .noise_column(NoiseColumn::Discount)
            .generate();
        // X = ~0.01% quantile of extendedprice (the paper's selectivity).
        let cap = low_price(&data.table, 10_000);

        for profile in all_profiles() {
            let mut db = budgeted_session(profile.clone(), scale.dc_budget());
            db.register("lineitem", data.table.clone());
            let outcome = InequalityDc::rule_psi("lineitem", cap)
                .run(&mut db)
                .expect("dc run");
            rows.push(DcRow {
                sf,
                system: profile.name.clone(),
                outcome,
            });
        }
    }
    rows
}

// ====================================================================
// §8.3 — Figure 7: dedup over DBLP representations.
// ====================================================================

#[derive(Debug, Clone)]
pub struct DedupFormatRow {
    pub scale_label: String,
    pub format: String,
    pub system: String,
    pub read: Duration,
    pub clean: Duration,
    pub input_rows: usize,
    pub pairs: usize,
}

/// Figure 7: duplicate elimination over the nested JSON / nested colbin /
/// flat CSV / flat colbin representations of DBLP, CleanDB vs Spark SQL.
pub fn fig7(scale: Scale) -> Vec<DedupFormatRow> {
    let base = scale.dblp_publications();
    let dir = std::env::temp_dir().join("cleanm_fig7");
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut out = Vec::new();
    for (label, pubs) in [("S".to_string(), base), ("L".to_string(), base * 2)] {
        let data = DblpGen::new(SEED)
            .publications(pubs)
            .dictionary_size(scale.dictionary_size())
            .author_noise_fraction(0.05)
            .duplicate_fraction(0.10)
            .scale_up_factor(0.3)
            .generate();
        let nested = &data.table;
        let flat = flatten::flatten(nested).expect("flatten");

        // Materialize the four representations as real files.
        let json_path = dir.join(format!("dblp_{label}.jsonl"));
        std::fs::write(&json_path, json::write_table(nested)).expect("json");
        let bin_path = dir.join(format!("dblp_{label}.colbin"));
        colbin::write_path(&bin_path, nested).expect("colbin");
        let csv_path = dir.join(format!("dblp_{label}_flat.csv"));
        csv::write_path(&csv_path, &flat, &csv::CsvOptions::default()).expect("csv");
        let bin_flat_path = dir.join(format!("dblp_{label}_flat.colbin"));
        colbin::write_path(&bin_flat_path, &flat).expect("colbin flat");

        for profile in [EngineProfile::clean_db(), EngineProfile::spark_sql_like()] {
            for format in ["JSON", "colbin", "CSV_flat", "colbin_flat"] {
                let read_start = Instant::now();
                let table = match format {
                    "JSON" => {
                        let text = std::fs::read_to_string(&json_path).expect("read json");
                        json::read_table(&text, &nested.schema).expect("parse json")
                    }
                    "colbin" => colbin::read_path(&bin_path).expect("read colbin"),
                    "CSV_flat" => {
                        csv::read_path(&csv_path, &flat.schema, &csv::CsvOptions::default())
                            .expect("read csv")
                    }
                    _ => colbin::read_path(&bin_flat_path).expect("read colbin flat"),
                };
                let read = read_start.elapsed();
                let input_rows = table.len();

                let mut db = session(profile.clone());
                db.register("dblp", table);
                // Two publications are duplicates if they share journal and
                // title and their authors are >80% similar (§8.3).
                let dedup = Dedup::new("dblp", "exact", "concat(t.journal, t.title)")
                    .metric(Metric::Levenshtein, 0.8)
                    .similarity_on(&["t.authors"]);
                let clean_start = Instant::now();
                let (_, pairs) = dedup.run(&mut db).expect("dedup");
                out.push(DedupFormatRow {
                    scale_label: label.clone(),
                    format: format.to_string(),
                    system: profile.name.clone(),
                    read,
                    clean: clean_start.elapsed(),
                    input_rows,
                    pairs: pairs.len(),
                });
            }
        }
    }
    out
}

// ====================================================================
// §8.3 — Figure 8a: customer dedup with Zipf duplicates.
// ====================================================================

#[derive(Debug, Clone)]
pub struct DedupCustomerRow {
    pub interval: String,
    pub system: String,
    pub duration: Duration,
    pub pairs: usize,
    pub accuracy: Accuracy,
    pub records_shuffled: u64,
}

/// Figure 8a: duplicate elimination over customer with duplicate counts
/// drawn from Zipf over [1-50] and [1-100].
pub fn fig8a(scale: Scale) -> Vec<DedupCustomerRow> {
    let mut out = Vec::new();
    for max_dup in [50usize, 100] {
        let data = CustomerGen::new(SEED)
            .rows(scale.customer_rows())
            .duplicate_fraction(0.10)
            .max_duplicates(max_dup)
            .fd_noise_fraction(0.0)
            .generate();
        for profile in all_profiles() {
            let mut db = session(profile.clone());
            db.register("customer", data.table.clone());
            let dedup = Dedup::new("customer", "exact", "t.address")
                .metric(Metric::Levenshtein, 0.7)
                .similarity_on(&["t.name"]);
            let start = Instant::now();
            let (report, pairs) = dedup.run(&mut db).expect("dedup");
            let duration = start.elapsed();
            // Row ids equal generator custkeys here (registration preserves
            // order and the generator shuffles before returning) — map via
            // custkey for correctness.
            let truth = custkey_groups_to_rowids(&data);
            let accuracy = cleanm_core::quality::dedup_accuracy(&pairs, &truth);
            out.push(DedupCustomerRow {
                interval: format!("[1-{max_dup}]"),
                system: profile.name.clone(),
                duration,
                pairs: pairs.len(),
                accuracy,
                records_shuffled: report.metrics.records_shuffled,
            });
        }
    }
    out
}

fn custkey_groups_to_rowids(data: &cleanm_datagen::customer::CustomerData) -> Vec<Vec<i64>> {
    let key_col = data.table.schema.index_of("custkey").expect("custkey");
    let mut pos_of: HashMap<i64, i64> = HashMap::new();
    for (i, row) in data.table.rows.iter().enumerate() {
        pos_of.insert(row.values()[key_col].as_int().unwrap(), i as i64);
    }
    data.duplicate_groups
        .iter()
        .map(|g| g.iter().map(|k| pos_of[k]).collect())
        .collect()
}

// ====================================================================
// §8.3 — Figure 8b: MAG dedup under heavy skew.
// ====================================================================

#[derive(Debug, Clone)]
pub struct DedupMagRow {
    pub dataset: String,
    pub system: String,
    pub duration: Duration,
    pub pairs: usize,
    pub records_shuffled: u64,
    pub max_imbalance: f64,
}

/// Figure 8b: dedup over the MAG stand-in — a 2014 subset and the full,
/// highly skewed set; CleanDB vs Spark SQL.
pub fn fig8b(scale: Scale) -> Vec<DedupMagRow> {
    let full = MagGen::new(SEED)
        .papers(scale.mag_papers())
        .authors(scale.mag_papers() / 30)
        .duplicate_fraction(0.10)
        .generate();
    let subset = MagGen::new(SEED ^ 1)
        .papers(scale.mag_papers() / 5)
        .authors(scale.mag_papers() / 30)
        .duplicate_fraction(0.10)
        .year_range(2014, 2014)
        .generate();

    let mut out = Vec::new();
    for (name, data) in [("MAG2014", &subset), ("MAGtotal", &full)] {
        for profile in [EngineProfile::clean_db(), EngineProfile::spark_sql_like()] {
            let mut db = session(profile.clone());
            db.register("mag", data.table.clone());
            // Duplicates: same year + author, titles >80% similar (§8.3).
            let dedup = Dedup::new("mag", "exact", "concat(t.year, t.authorid)")
                .metric(Metric::Levenshtein, 0.8)
                .similarity_on(&["t.title"]);
            let start = Instant::now();
            let (report, pairs) = dedup.run(&mut db).expect("dedup");
            out.push(DedupMagRow {
                dataset: name.to_string(),
                system: profile.name.clone(),
                duration: start.elapsed(),
                pairs: pairs.len(),
                records_shuffled: report.metrics.records_shuffled,
                max_imbalance: report.metrics.max_imbalance(),
            });
        }
    }
    out
}

// ====================================================================
// Ablation (beyond the paper's figures): blocking strategy trade-offs.
// ====================================================================

/// One ablation row: how a blocking choice trades comparisons for recall.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub strategy: String,
    pub comparisons: u64,
    pub recall: f64,
    pub total: Duration,
}

/// Blocking ablation on the term-validation workload: every blocker the
/// language exposes, plus the no-blocking cross product as the upper bound
/// and the classic multi-pass k-means as the quality reference the paper's
/// single-pass variant approximates (§4.3).
pub fn ablation_blocking(scale: Scale) -> Vec<AblationRow> {
    let data = dblp_for_termval(scale, 0.20);
    let mut rows = Vec::new();

    // Every blocker reachable through CleanM syntax.
    let configs = [
        ("tf q=2", "token_filtering(2)"),
        ("tf q=3", "token_filtering(3)"),
        ("kmeans k=10", "kmeans(10)"),
        ("length_band w=4", "length_band(4)"),
    ];
    for (label, op) in configs {
        let row = run_termval(&data, (label, op), 0.70);
        rows.push(AblationRow {
            strategy: label.to_string(),
            comparisons: row.comparisons,
            recall: row.accuracy.recall,
            total: row.total,
        });
    }

    // No blocking: the cartesian baseline §4.2 calls "very costly". Its
    // comparison count is |occurrences| × |dict| by definition; recall would
    // be the metric's ceiling among candidates — computed, not run.
    let occurrences: u64 = data.clean_authors.iter().map(|a| a.len() as u64).sum();
    rows.push(AblationRow {
        strategy: "no blocking (cross product, computed)".to_string(),
        comparisons: occurrences * data.dictionary.len() as u64,
        recall: 1.0,
        total: Duration::ZERO,
    });

    // Multi-pass k-means (the paper's "original k-means … hurts
    // scalability"): do the extra passes buy cluster quality? Metric:
    // fraction of dirty terms co-clustered with their clean entry.
    let sample: Vec<(String, String)> = data
        .corrupted
        .iter()
        .take(400)
        .map(|&(r, p)| {
            let dirty = data.table.rows[r].values()[4].as_list().unwrap()[p].to_text();
            (dirty, data.clean_authors[r][p].clone())
        })
        .collect();
    for (label, iterations) in [("kmeans 1 pass k=10", 1usize), ("kmeans 8 passes k=10", 8)] {
        let start = Instant::now();
        let mut corpus: Vec<String> = data.dictionary.clone();
        corpus.extend(sample.iter().map(|(d, _)| d.clone()));
        let clusters = cleanm_cluster::kmeans_multipass(&corpus, 10, iterations, SEED);
        let total = start.elapsed();
        let cluster_of = |term: &str| -> Option<usize> {
            let norm = cleanm_text::normalize(term);
            clusters
                .iter()
                .position(|c| c.iter().any(|m| cleanm_text::normalize(m) == norm))
        };
        let co_clustered = sample
            .iter()
            .filter(|(d, c)| {
                let cd = cluster_of(d);
                cd.is_some() && cd == cluster_of(c)
            })
            .count();
        let intra: u64 = clusters
            .iter()
            .map(|c| (c.len() * c.len() / 2) as u64)
            .sum();
        rows.push(AblationRow {
            strategy: label.to_string(),
            comparisons: intra,
            recall: co_clustered as f64 / sample.len().max(1) as f64,
            total,
        });
    }
    rows
}

// ====================================================================
// Incremental cleaning — re-clean cost after a 1% append vs a full
// re-run (repro's BENCH_incr.json trajectory).
// ====================================================================

/// One incremental-vs-batch measurement (a row of `BENCH_incr.json`).
#[derive(Debug, Clone)]
pub struct IncrRow {
    pub workload: String,
    /// Total rows after the append.
    pub rows: usize,
    pub delta_rows: usize,
    pub full_ms: f64,
    pub incremental_ms: f64,
    /// Violation/repair reports byte-identical between the two paths.
    pub identical: bool,
    /// A repeated query on the batch session hit the plan cache.
    pub plan_cache_hit: bool,
}

impl IncrRow {
    pub fn speedup(&self) -> f64 {
        self.full_ms / self.incremental_ms.max(1e-9)
    }

    /// The correctness gates this row fails: identical reports, and a
    /// plan-cache hit on the repeated query.
    pub fn unmet(&self) -> Vec<String> {
        let at = format!("incr {}", self.workload);
        let mut unmet = Vec::new();
        gate(&mut unmet, self.identical, format!("{at}: diverged"));
        gate(
            &mut unmet,
            self.plan_cache_hit,
            format!("{at}: plan-cache miss"),
        );
        unmet
    }
}

/// The cleaning outcome of a report as comparable bytes: the (sorted)
/// violating ids, the sorted repair pairs, and each op's output as a sorted
/// multiset with every list inside it sorted too (a group's partition is
/// order-free), so a wrong SELECT or GROUP BY output shows as well.
fn report_fingerprint(report: &CleaningReport) -> String {
    fn canonical(v: &Value) -> Value {
        match v {
            Value::List(items) => {
                let mut items: Vec<Value> = items.iter().map(canonical).collect();
                items.sort();
                Value::list(items)
            }
            Value::Struct(fields) => Value::Struct(
                fields
                    .iter()
                    .map(|(n, x)| (n.clone(), canonical(x)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }
    let mut repairs: Vec<(String, String)> = report
        .repairs
        .iter()
        .map(|r| (r.term.clone(), r.suggestion.clone()))
        .collect();
    repairs.sort();
    let ops: Vec<(&str, Vec<Value>)> = (report.ops.iter())
        .map(|op| {
            let mut output: Vec<Value> = op.output.iter().map(canonical).collect();
            output.sort();
            (op.label.as_str(), output)
        })
        .collect();
    format!("{:?}|{repairs:?}|{ops:?}", report.violating_ids)
}

/// The FD workload the `incr` and `faults` gates share.
const FD_SQL: &str = "SELECT * FROM customer c FD(c.address | c.nationkey)";

/// The unified FD + DEDUP query of §8.2, shared by `incr` and `repair`.
const FD_DEDUP_SQL: &str = "SELECT * FROM customer c \
                            FD(c.address | c.nationkey) \
                            DEDUP(exact, LD, 0.8, c.address, c.name)";

/// A DC with an equality conjunct: it blocks on the address and plans as
/// the pair pipeline DEDUP runs.
const DC_BLOCKED_SQL: &str =
    "SELECT * FROM customer c DC(t1.address = t2.address AND t1.nationkey < t2.nationkey)";

/// A grouped aggregate with a `HAVING`, over `Int` aggregates: a float sum
/// folded row by row may differ from the batch's chunked fold in the last
/// ulp.
const GROUP_BY_SQL: &str = "SELECT c.address AS a, count(*) AS n, sum(c.nationkey) AS s, \
                            max(c.nationkey) AS m FROM customer c \
                            GROUP BY c.address HAVING count(*) > 1";

/// `rows` customers with 2% FD noise and no duplicates: grouping dominates
/// the batch cost of [`FD_SQL`] over them.
fn fd_customers(rows: usize) -> Table {
    CustomerGen::new(SEED)
        .rows(rows)
        .duplicate_fraction(0.0)
        .fd_noise_fraction(0.02)
        .generate()
        .table
}

/// Time a standing query's append+`refresh` against the same query from
/// scratch on a fresh session over the same rows, and check the two agree:
/// identical violation/repair reports, no fallback op, and a plan-cache hit
/// when the batch session repeats the query. `table` splits into a base,
/// which the standing session `install`s over, and one ~1% delta per round
/// off its tail; each round the standing session absorbs the next delta and
/// a fresh batch session runs over everything appended so far.
fn run_incr_workload(workload: &str, table_name: &str, table: Table, sql: &str) -> IncrRow {
    let rows = table.rows.len();
    let delta_rows = (rows / 100).max(1);
    let mut base = table;
    let tail = base.rows.split_off(rows - ROUNDS * delta_rows);
    let deltas: Vec<Table> = tail
        .chunks(delta_rows)
        .map(|chunk| Table::new(base.schema.clone(), chunk.to_vec()))
        .collect();

    let fresh = |table: Table| {
        let mut db = session(EngineProfile::clean_db());
        db.set_seed(SEED);
        db.register(table_name, table);
        db
    };
    let mut incr = IncrementalSession::new(fresh(base.clone()));
    let id = incr.install(sql).expect("install standing query").0;
    let mut grown = base;
    let mut batch: Vec<CleanDb> = deltas
        .iter()
        .map(|delta| {
            grown.rows.extend(delta.rows.iter().cloned());
            fresh(grown.clone())
        })
        .collect();

    let (mut incremental, mut from_scratch) = (None, None);
    let (mut next_delta, mut next_batch) = (deltas.into_iter(), batch.iter_mut());
    let best = best_of_interleaved(
        ROUNDS,
        &mut [
            &mut || {
                let delta = next_delta.next().expect("one delta per round");
                incr.append(table_name, delta).expect("append");
                incremental = Some(incr.refresh(id).expect("refresh"));
            },
            &mut || {
                let db = next_batch.next().expect("one session per round");
                from_scratch = Some(db.run(sql).expect("full re-run"));
            },
        ],
    );
    let refreshed = incremental.expect("rounds > 0");
    assert_eq!(
        refreshed.incremental.as_ref().map(|i| i.fallback_ops),
        Some(0),
        "{workload}: all ops must revalidate from state"
    );
    let repeat = (batch.last_mut().expect("rounds > 0"))
        .run(sql)
        .expect("repeat run");
    IncrRow {
        workload: workload.to_string(),
        rows,
        delta_rows,
        full_ms: best[1],
        incremental_ms: best[0],
        identical: report_fingerprint(&refreshed)
            == report_fingerprint(&from_scratch.expect("rounds > 0")),
        plan_cache_hit: repeat.plan_cache.hit && repeat.plan_cache.hits > 0,
    }
}

/// The incremental-cleaning workloads: an FD check over a wide customer
/// table, the unified FD+DEDUP query of §8.2, a standing inequality DC over
/// lineitem (sorted join-key indexes), a blocked DC and a `GROUP BY …
/// HAVING` over customer.
pub fn incr_append(scale: Scale) -> Vec<IncrRow> {
    let mut out = Vec::new();
    let customer_rows = scale.pick(40_000, 160_000);

    out.push(run_incr_workload(
        "fd",
        "customer",
        fd_customers(customer_rows),
        FD_SQL,
    ));

    // The unified query: FD + dedup with similarity work inside blocks.
    let dedup_data = CustomerGen::new(SEED ^ 7)
        .rows(scale.customer_rows() * 2)
        .duplicate_fraction(0.10)
        .max_duplicates(50)
        .fd_noise_fraction(0.02)
        .generate();
    out.push(run_incr_workload(
        "fd_dedup",
        "customer",
        dedup_data.table,
        FD_DEDUP_SQL,
    ));

    // A standing inequality DC: delta rows probe the sorted key domain
    // instead of re-running the theta self-join.
    let dc_rows = scale.lineitem_scales()[0].1;
    let dc_data = LineitemGen::new(SEED)
        .rows(dc_rows)
        .noise_column(NoiseColumn::Discount)
        .generate();
    let cap = low_price(&dc_data.table, 100);
    let dc = InequalityDc::rule_psi("lineitem", cap);
    out.push(run_incr_workload(
        "dc_psi",
        "lineitem",
        dc_data.table,
        &dc.to_sql(),
    ));

    // A blocked DC: each delta row probes its address block.
    out.push(run_incr_workload(
        "dc_blocked",
        "customer",
        fd_customers(customer_rows),
        DC_BLOCKED_SQL,
    ));

    // A grouped aggregate: a delta folds into the groups it touches.
    out.push(run_incr_workload(
        "group_by",
        "customer",
        fd_customers(customer_rows),
        GROUP_BY_SQL,
    ));
    out
}

// ====================================================================
// Repair — fix throughput at seeded violation rates, and how fast the
// repaired table re-validates through the incremental path.
// ====================================================================

/// One seeded-violation-rate measurement of the repair pipeline.
pub struct RepairRow {
    /// Seeded dirt fraction (both FD noise and duplicate fraction).
    pub rate: f64,
    /// Table rows before the repair.
    pub rows: usize,
    /// Violating entities detection reported.
    pub violations: usize,
    /// Cell fixes planned.
    pub fixes: usize,
    /// Rows a DEDUP merge collapsed away.
    pub rows_dropped: usize,
    /// Violations the planner could not translate into fixes.
    pub unrepaired: usize,
    pub detect_ms: f64,
    pub plan_ms: f64,
    pub apply_ms: f64,
    /// Violations on the repaired table (the zero-violation contract).
    pub violations_after: usize,
    /// The refresh right after `apply_repairs`: the lineage bump forces a
    /// full re-run over the repaired table.
    pub revalidate_full_ms: f64,
    /// Steady state: a clean 1% append plus its refresh, the incremental
    /// path.
    pub revalidate_incr_ms: f64,
}

impl RepairRow {
    /// Repair actions (cell fixes + dropped rows) per second of plan+apply.
    pub fn actions_per_sec(&self) -> f64 {
        let secs = (self.plan_ms + self.apply_ms).max(1e-9) / 1e3;
        (self.fixes + self.rows_dropped) as f64 / secs
    }

    /// Full re-validation vs the incremental path.
    pub fn revalidation_speedup(&self) -> f64 {
        self.revalidate_full_ms / self.revalidate_incr_ms.max(1e-9)
    }

    /// The correctness gates this row fails: seeded dirt is found and fully
    /// translated into fixes, and the repaired table re-cleans with zero
    /// violations.
    pub fn unmet(&self) -> Vec<String> {
        let at = format!("repair {:.0}%", self.rate * 100.0);
        let repaired = self.fixes + self.rows_dropped > 0 && self.unrepaired == 0;
        let clean = self.violations_after == 0;
        let mut unmet = Vec::new();
        gate(&mut unmet, self.violations > 0, format!("{at}: no dirt"));
        gate(&mut unmet, repaired, format!("{at}: not fully repaired"));
        gate(&mut unmet, clean, format!("{at}: still dirty"));
        unmet
    }
}

/// Repair the unified FD + DEDUP customer workload at 1% / 5% / 20% seeded
/// violation rates: detect, plan, apply, then re-validate through the
/// standing-query machinery (full fallback after the re-registration, then
/// incremental after a 1% append).
pub fn repair_rates(scale: Scale) -> Vec<RepairRow> {
    repair_rates_at(scale.pick(20_000, 80_000))
}

fn repair_rates_at(n: usize) -> Vec<RepairRow> {
    let sql = FD_DEDUP_SQL;
    // A clean 1% append: the steady state after a repair.
    let delta = CustomerGen::new(SEED ^ 0x5eed)
        .rows(n / 100)
        .duplicate_fraction(0.0)
        .fd_noise_fraction(0.0)
        .generate()
        .table;
    let mut out = Vec::new();
    for rate in [0.01, 0.05, 0.20] {
        let data = CustomerGen::new(SEED ^ (rate * 1e3) as u64)
            .rows(n)
            .duplicate_fraction(rate)
            .max_duplicates(20)
            .fd_noise_fraction(rate)
            .generate();

        // One repaired session per timing round: only the first refresh
        // after `apply_repairs` is the full re-run its lineage bump forces.
        // The row's detect/plan/apply figures are the first round's.
        let mut first = None;
        let mut repaired = Vec::new();
        for _ in 0..ROUNDS {
            let mut db = session(EngineProfile::clean_db());
            db.set_seed(SEED);
            db.register("customer", data.table.clone());
            let mut incr = IncrementalSession::new(db);
            let (id, baseline) = incr.install(sql).expect("install");
            let section = RepairEngine::default()
                .plan_for_report(incr.db(), sql, &baseline)
                .expect("plan repairs");
            let start = Instant::now();
            let applied = incr.db().apply_repairs(&section).expect("apply");
            let apply_ms = start.elapsed().as_secs_f64() * 1e3;
            first.get_or_insert((baseline, section, applied.rows_dropped(), apply_ms));
            repaired.push((incr, id));
        }

        let repaired = std::cell::RefCell::new(repaired);
        let (mut full_round, mut incr_round) = (0, 0);
        let mut violations_after = 0;
        let best = best_of_interleaved(
            ROUNDS,
            &mut [
                &mut || {
                    let (incr, id) = &mut repaired.borrow_mut()[full_round];
                    full_round += 1;
                    let refreshed = incr.refresh(*id).expect("refresh after repair");
                    violations_after = refreshed.violations();
                },
                &mut || {
                    let (incr, id) = &mut repaired.borrow_mut()[incr_round];
                    incr_round += 1;
                    incr.append("customer", delta.clone()).expect("append");
                    incr.refresh(*id).expect("incremental refresh");
                },
            ],
        );

        let (baseline, section, rows_dropped, apply_ms) = first.expect("rounds > 0");
        out.push(RepairRow {
            rate,
            rows: n,
            violations: baseline.violations(),
            fixes: section.fixes.len(),
            rows_dropped,
            unrepaired: section.unrepaired,
            detect_ms: baseline.total.as_secs_f64() * 1e3,
            plan_ms: section.duration.as_secs_f64() * 1e3,
            apply_ms,
            violations_after,
            revalidate_full_ms: best[0],
            revalidate_incr_ms: best[1],
        });
    }
    out
}

// ====================================================================
// Fault tolerance — cancellation latency, retry overhead, and the cost
// of armed resource limits on the clean path.
// ====================================================================

/// One fault-tolerance measurement over the FD cleaning workload.
#[derive(Debug, Clone)]
pub struct FaultToleranceRow {
    pub workload: String,
    pub rows: usize,
    /// Best-of-N clean run, no limits armed.
    pub clean_ms: f64,
    /// Best-of-N with a generous deadline + work budget armed — measures
    /// what the per-operator interrupt/budget checks cost when live.
    pub armed_ms: f64,
    /// Best-of-N with one transient partition panic (retried once): the
    /// failed attempt dies at partition start, so recovery should cost
    /// little more than the catch/re-queue bookkeeping.
    pub retry_ms: f64,
    /// Cancellation latency samples: time from `CancelToken::cancel()` on
    /// another thread until the running query returned, sorted ascending.
    pub cancel_latency_ms: Vec<f64>,
}

impl FaultToleranceRow {
    /// Fractional slowdown of armed limits (`0.01` = 1% slower).
    pub fn armed_overhead(&self) -> f64 {
        self.armed_ms / self.clean_ms.max(1e-9) - 1.0
    }

    /// Fractional slowdown of the retried-panic run.
    pub fn retry_overhead(&self) -> f64 {
        self.retry_ms / self.clean_ms.max(1e-9) - 1.0
    }

    /// The `p` quantile (`0.99` = p99) of the cancellation latencies.
    pub fn cancel_latency_ms(&self, p: f64) -> f64 {
        let samples = &self.cancel_latency_ms;
        let idx = (samples.len().saturating_sub(1) as f64 * p).round() as usize;
        samples.get(idx).copied().unwrap_or(0.0)
    }
}

/// Measure the fault-tolerance machinery on the FD workload: clean vs
/// armed-limits vs retried-panic timings (interleaved best-of-rounds, so a
/// noise burst hits every mode equally) plus a cancellation-latency
/// distribution from repeated mid-run cancels.
pub fn fault_tolerance(scale: Scale) -> Vec<FaultToleranceRow> {
    use cleanm_core::RunLimits;
    use cleanm_exec::{FaultKind, FaultPlan, FaultSite};
    use std::sync::Arc;

    let n_rows = scale.pick(60_000, 240_000);
    let sql = FD_SQL;
    let mut db = session(EngineProfile::clean_db());
    db.set_seed(SEED);
    db.register("customer", fd_customers(n_rows));
    db.run(sql).expect("warm-up run");

    let generous = RunLimits {
        timeout: Some(Duration::from_secs(3600)),
        max_work: Some(u64::MAX / 2),
        max_retries: None,
    };
    // A transient panic on partition 0's first attempt per sweep: the
    // retry runs the partition's real work exactly once.
    let transient_panic =
        Arc::new(FaultPlan::new().arm(FaultSite::PartitionStart, 0, FaultKind::Panic, 1));

    let ctx = Arc::clone(db.context());
    let shared = std::cell::RefCell::new(db);
    let timed = |limits: RunLimits| {
        let report = shared
            .borrow_mut()
            .run_with_limits(sql, limits)
            .expect("timed run");
        assert!(
            report.failure.is_none(),
            "run must complete: {:?}",
            report.failure
        );
    };
    let best = best_of_interleaved(
        ROUNDS,
        &mut [
            &mut || timed(RunLimits::default()),
            &mut || timed(generous),
            &mut || {
                ctx.set_fault_plan(Some(Arc::clone(&transient_panic)));
                timed(RunLimits {
                    max_retries: Some(2),
                    ..RunLimits::default()
                });
                ctx.set_fault_plan(None);
            },
        ],
    );
    let mut db = shared.into_inner();

    // Cancellation latency: cancel from another thread mid-run and time
    // how long the query takes to come back. A delay arm on every
    // partition start guarantees the query is still in flight when the
    // cancel lands, without adding real work to unwind.
    let reps = scale.pick(40, 100);
    let slow_plan = Arc::new(FaultPlan::new().arm_all(
        FaultSite::PartitionStart,
        FaultKind::Delay(Duration::from_millis(20)),
        u32::MAX,
    ));
    let mut latencies = Vec::with_capacity(reps);
    for _ in 0..reps {
        ctx.set_fault_plan(Some(Arc::clone(&slow_plan)));
        let token = db.cancel_handle();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            let t = Instant::now();
            token.cancel();
            t
        });
        let report = db
            .run_with_limits(sql, RunLimits::default())
            .expect("cancelled run still reports");
        let returned = Instant::now();
        let cancelled_at = canceller.join().expect("canceller");
        ctx.set_fault_plan(None);
        let fail = report.failure.expect("cancel landed mid-run");
        assert_eq!(fail.kind, "cancelled");
        latencies.push((returned - cancelled_at).as_secs_f64() * 1e3);
    }
    latencies.sort_by(f64::total_cmp);

    vec![FaultToleranceRow {
        workload: "fd".to_string(),
        rows: n_rows,
        clean_ms: best[0],
        armed_ms: best[1],
        retry_ms: best[2],
        cancel_latency_ms: latencies,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tiny-scale smoke tests so `cargo test` exercises every experiment
    // path end-to-end; the repro binary runs them at full size.

    #[test]
    fn termval_accuracy_shape() {
        let data = DblpGen::new(SEED)
            .publications(150)
            .dictionary_size(120)
            .author_noise_fraction(0.10)
            .edit_rate(0.20)
            .generate();
        let tf2 = run_termval(&data, TERMVAL_CONFIGS[0], 0.70);
        assert!(tf2.accuracy.precision > 0.9, "{:?}", tf2.accuracy);
        assert!(tf2.accuracy.recall > 0.5, "{:?}", tf2.accuracy);
        assert!(tf2.comparisons > 0);
    }

    #[test]
    fn fig5_rows_shape() {
        let rows = fig5(Scale::Quick);
        assert_eq!(rows.len(), 3);
        let cleandb = rows.iter().find(|r| r.system == "CleanDB").unwrap();
        assert!(cleandb.combined.is_some());
        assert!(
            cleandb.shared_nests >= 1,
            "FD1/FD2/dedup share the address grouping"
        );
        let bd = rows.iter().find(|r| r.system == "BigDansing").unwrap();
        assert!(bd.fd1.is_none(), "BigDansing cannot run derived-value FDs");
        assert!(bd.combined.is_none());
    }

    #[test]
    fn fig6_rows_shape() {
        let rows = fig6(Scale::Quick);
        assert!(
            !rows
                .iter()
                .any(|r| r.system == "BigDansing" && r.format == "colbin"),
            "BigDansing does not read the columnar format"
        );
        for (sf, _) in Scale::Quick.lineitem_scales() {
            // Three systems on CSV, two of them on colbin as well.
            let at_sf: Vec<_> = rows.iter().filter(|r| r.sf == sf).collect();
            assert_eq!(at_sf.len(), 5, "SF{sf}");
            assert!(at_sf[0].violations > 0, "SF{sf}: no violations seeded");
            for r in &at_sf {
                assert_eq!(r.violations, at_sf[0].violations, "SF{sf}: {r:?}");
                let cleandb = at_sf
                    .iter()
                    .find(|c| c.system == "CleanDB" && c.format == r.format)
                    .unwrap();
                assert!(
                    cleandb.records_shuffled <= r.records_shuffled,
                    "SF{sf}: {cleandb:?} shuffles more than {r:?}"
                );
            }
        }
    }

    #[test]
    fn table5_outcomes() {
        let rows = table5(Scale::Quick);
        for row in &rows {
            match row.system.as_str() {
                "CleanDB" => assert!(
                    row.outcome.completed(),
                    "CleanDB must finish SF{}: {:?}",
                    row.sf,
                    row.outcome
                ),
                _ => assert!(
                    !row.outcome.completed(),
                    "{} should exceed the budget at SF{}",
                    row.system,
                    row.sf
                ),
            }
        }
    }

    #[test]
    fn incr_append_matches_batch_and_hits_plan_cache() {
        // Small-but-real scale: correctness (identical reports, cache
        // hits) asserted here; the ≥5x speedup gate is repro's, on a
        // release build.
        for row in incr_append(Scale::Quick) {
            assert_eq!(row.unmet(), Vec::<String>::new());
            assert!(row.delta_rows > 0 && row.delta_rows * 50 <= row.rows);
            assert!(
                row.speedup() > 1.0,
                "{}: incremental slower than batch ({:.2}ms vs {:.2}ms)",
                row.workload,
                row.incremental_ms,
                row.full_ms
            );
        }
    }

    #[test]
    fn repair_rates_repair_to_zero() {
        // Tiny-scale run of the repair experiment's correctness gates;
        // the throughput and ≥2x re-validation-speedup claims are
        // repro's at full workload size.
        for row in repair_rates_at(1_500) {
            assert_eq!(row.unmet(), Vec::<String>::new());
        }
    }

    #[test]
    fn fig8a_accuracy() {
        let rows = fig8a(Scale::Quick);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.accuracy.recall > 0.7, "{}: {:?}", r.system, r.accuracy);
            assert!(r.pairs > 0);
        }
        // CleanDB shuffles less than the baselines.
        let shuffled = |sys: &str| {
            rows.iter()
                .filter(|r| r.system == sys)
                .map(|r| r.records_shuffled)
                .sum::<u64>()
        };
        assert!(shuffled("CleanDB") < shuffled("SparkSQL"));
        assert!(shuffled("CleanDB") < shuffled("BigDansing"));
    }
}
