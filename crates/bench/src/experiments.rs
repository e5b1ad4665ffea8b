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

use cleanm_core::CleaningReport;
use cleanm_incr::IncrementalSession;
use cleanm_repair::RepairEngine;

use crate::harness::{all_profiles, budgeted_session, local_context, session, Scale};

pub const SEED: u64 = 20170801;

// ====================================================================
// §8.1 — Term validation: Table 3 (accuracy), Figure 3 (runtime split),
// Figure 4 (accuracy vs noise).
// ====================================================================

/// One term-validation configuration (a bar of Figure 3 / row of Table 3).
#[derive(Debug, Clone)]
pub struct TermvalConfig {
    /// Display label, e.g. `"tf q=2"`.
    pub label: String,
    /// CleanM blocking op text, e.g. `"token_filtering(2)"`.
    pub block_op: String,
}

impl TermvalConfig {
    pub fn paper_set() -> Vec<TermvalConfig> {
        let mut out = Vec::new();
        for q in [2usize, 3, 4] {
            out.push(TermvalConfig {
                label: format!("tf q={q}"),
                block_op: format!("token_filtering({q})"),
            });
        }
        for k in [5usize, 10, 20] {
            out.push(TermvalConfig {
                label: format!("kmeans k={k}"),
                block_op: format!("kmeans({k})"),
            });
        }
        out
    }
}

/// One measured term-validation run.
#[derive(Debug, Clone)]
pub struct TermvalRow {
    pub config: String,
    pub grouping: Duration,
    pub similarity: Duration,
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
pub fn run_termval(data: &DblpData, config: &TermvalConfig, theta: f64) -> TermvalRow {
    // The experiment validates author names of the *flat* representation
    // (§8.1 uses "the flat Parquet version of DBLP").
    let flat = flatten::flatten(&data.table).expect("flatten DBLP");
    let author_col = flat.schema.index_of("authors").expect("authors column");

    let mut db = session(EngineProfile::clean_db());
    db.set_seed(SEED);
    db.register("dblp", flat.clone());
    db.register_dictionary("dict", data.dictionary.clone());

    let tv = TermValidation::new("dblp", "dict", &config.block_op, "t.authors")
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
        config: config.label.clone(),
        grouping: report.timings.grouping,
        similarity: report.timings.similarity,
        total,
        accuracy,
        comparisons: report.metrics.comparisons,
    }
}

/// Table 3 + Figure 3: all configurations at 20% noise.
pub fn table3_fig3(scale: Scale) -> Vec<TermvalRow> {
    let data = dblp_for_termval(scale, 0.20);
    TermvalConfig::paper_set()
        .iter()
        .map(|c| run_termval(&data, c, 0.70))
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
            let rows = TermvalConfig::paper_set()
                .iter()
                .map(|c| run_termval(&data, c, theta))
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

        let timed = |db: &mut cleanm_core::CleanDb, sql: &str| {
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

    // Median of a few repetitions to stabilize the ratios.
    let median = |mut xs: Vec<Duration>| -> Duration {
        xs.sort();
        xs[xs.len() / 2]
    };
    let reps = 3;
    let baseline = median(
        (0..reps)
            .map(|_| cleanm_core::ops::transform::baseline_scan(&ctx, &data.table))
            .collect(),
    );
    let split = Transform::SplitDate {
        column: "receiptdate".into(),
    };
    let fill = Transform::FillMissing {
        column: "quantity".into(),
    };
    let run = |transforms: &[Transform], mode: TransformMode| -> Duration {
        median(
            (0..reps)
                .map(|_| {
                    apply_transforms(&ctx, &data.table, transforms, mode)
                        .expect("transform")
                        .duration
                })
                .collect(),
        )
    };

    let split_d = run(std::slice::from_ref(&split), TransformMode::Separate);
    let fill_d = run(std::slice::from_ref(&fill), TransformMode::Separate);
    let both = [split.clone(), fill.clone()];
    let two_step = run(&both, TransformMode::Separate);
    let one_step = run(&both, TransformMode::Fused);

    let ratio = |d: Duration| d.as_secs_f64() / baseline.as_secs_f64();
    vec![
        TransformRow {
            operation: "Plain query (baseline)".into(),
            duration: baseline,
            slowdown: 1.0,
        },
        TransformRow {
            operation: "Split date".into(),
            duration: split_d,
            slowdown: ratio(split_d),
        },
        TransformRow {
            operation: "Fill values".into(),
            duration: fill_d,
            slowdown: ratio(fill_d),
        },
        TransformRow {
            operation: "Split date & Fill values (two steps)".into(),
            duration: two_step,
            slowdown: ratio(two_step),
        },
        TransformRow {
            operation: "Split date & Fill values (one step)".into(),
            duration: one_step,
            slowdown: ratio(one_step),
        },
    ]
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
        let mut prices: Vec<f64> = data
            .table
            .rows
            .iter()
            .map(|r| r.values()[5].as_float().unwrap())
            .collect();
        prices.sort_by(f64::total_cmp);
        let cap_idx = (prices.len() / 10_000).max(8);
        let cap = prices[cap_idx.min(prices.len() - 1)];

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
        let row = run_termval(
            &data,
            &TermvalConfig {
                label: label.to_string(),
                block_op: op.to_string(),
            },
            0.70,
        );
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
// Compiled evaluation — interpreted vs compiled expression hot paths
// (benches/eval.rs and repro's BENCH_eval.json trajectory).
// ====================================================================

/// Row count for the eval / fusion micro-benches.
fn eval_rows(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 120_000,
        Scale::Full => 400_000,
    }
}

/// One TPC-H-wide customer-like row for the eval / fusion benches (wide
/// enough that field-name scans cost what they cost in real plans).
fn customer_env_row(i: usize, n: usize) -> cleanm_values::Value {
    use cleanm_values::Value;
    Value::record([
        ("__rowid", Value::Int(i as i64)),
        ("acctbal", Value::Float(((i * 37) % 10_000) as f64 / 10.0)),
        ("address", Value::str(format!("{} Main St", i % 997))),
        ("comment", Value::str("no comment")),
        ("creditlimit", Value::Int(((i * 53) % 900) as i64)),
        ("mktsegment", Value::str("BUILDING")),
        ("name", Value::str(format!("customer-{:06}", i * 7919 % n))),
        ("nationkey", Value::Int((i % 25) as i64)),
        ("phone", Value::str(format!("{:03}-{:07}", i % 500, i))),
    ])
}

/// One expression workload for the interpreted-vs-compiled comparison: a
/// row set plus the expression pipeline a physical operator evaluates per
/// row. The first expression acts as the filter (falsy rows skip the
/// rest); any further expressions are the map work of the operator (group
/// key, item) evaluated on surviving rows.
pub struct EvalWorkload {
    pub name: &'static str,
    pub rows: Vec<Vec<(String, cleanm_values::Value)>>,
    pub exprs: Vec<cleanm_core::calculus::CalcExpr>,
    pub ctx: cleanm_core::calculus::EvalCtx,
    /// The scope (environment layout) the expression compiles against.
    pub scope: Vec<String>,
    /// `> 0`: evaluate as a `(left, right)` environment pair split at this
    /// index — the theta-join predicate shape, where the executor's old
    /// path cloned and merged both environments per candidate pair while
    /// the compiled program addresses the pair in place.
    pub pair_split: usize,
    /// Materialize the per-row outputs, as the executor's map-shaped
    /// operators do (grouping keys, transforms). Predicate workloads only
    /// count truthy rows, as `filter` does — both engines get the same
    /// treatment either way.
    pub materialize: bool,
}

/// An [`EvalWorkload`] lowered for the compiled engine: one program per
/// pipeline expression, plus the rows as programs see them — slot values
/// only, in scope order (the names are the interpreter's input).
pub struct CompiledWorkload {
    programs: Vec<cleanm_core::calculus::Program>,
    slots: Vec<Vec<cleanm_values::Value>>,
}

impl EvalWorkload {
    /// Compile every pipeline expression against the workload's scope.
    pub fn compile(&self) -> CompiledWorkload {
        let programs = self
            .exprs
            .iter()
            .map(|e| {
                cleanm_core::calculus::Program::compile(e, &self.scope, &self.ctx)
                    .expect("workload expression compiles")
            })
            .collect();
        let slots = self
            .rows
            .iter()
            .map(|row| row.iter().map(|(_, v)| v.clone()).collect())
            .collect();
        CompiledWorkload { programs, slots }
    }

    /// One interpreted pass over every row; returns a checksum so the work
    /// cannot be optimized away. Pair workloads merge the environments per
    /// evaluation, exactly as the pre-compilation executor did.
    pub fn run_interpreted(&self) -> usize {
        use cleanm_core::calculus::eval;
        let mut live = 0usize;
        let mut outputs = self
            .materialize
            .then(|| Vec::with_capacity(self.rows.len()));
        for env in &self.rows {
            let merged;
            let env: &Vec<(String, cleanm_values::Value)> = if self.pair_split > 0 {
                let (l, r) = env.split_at(self.pair_split);
                let mut m = l.to_vec();
                m.extend(r.iter().cloned());
                merged = m;
                &merged
            } else {
                env
            };
            let first = eval(&self.exprs[0], env, &self.ctx).expect("workload evaluates");
            if first.is_null() || first == cleanm_values::Value::Bool(false) {
                continue;
            }
            live += 1;
            for e in &self.exprs[1..] {
                let v = eval(e, env, &self.ctx).expect("workload evaluates");
                if let Some(out) = &mut outputs {
                    out.push(v);
                }
            }
            if self.exprs.len() == 1 {
                if let Some(out) = &mut outputs {
                    out.push(first);
                }
            }
        }
        live
    }

    /// One compiled pass over every row: the batch entry point for
    /// single-expression materializing workloads, the shared-scratch
    /// per-row entry points otherwise.
    pub fn run_compiled(&self, compiled: &CompiledWorkload) -> usize {
        let CompiledWorkload { programs, slots } = compiled;
        let keep =
            |v: &cleanm_values::Value| !v.is_null() && *v != cleanm_values::Value::Bool(false);
        if self.materialize && programs.len() == 1 && self.pair_split == 0 {
            return programs[0]
                .eval_batch(slots, &self.ctx)
                .expect("compiled batch")
                .iter()
                .filter(|v| keep(v))
                .count();
        }
        let mut scratch = Vec::new();
        let mut live = 0usize;
        let mut outputs = self.materialize.then(|| Vec::with_capacity(slots.len()));
        for env in slots {
            let eval_one = |p: &cleanm_core::calculus::Program,
                            scratch: &mut Vec<cleanm_values::Value>| {
                if self.pair_split > 0 {
                    let (l, r) = env.split_at(self.pair_split);
                    p.eval_pair(l, r, &self.ctx, scratch)
                } else {
                    p.eval_with(env, &self.ctx, scratch)
                }
            };
            let first = eval_one(&programs[0], &mut scratch).expect("workload evaluates");
            if first.is_null() || first == cleanm_values::Value::Bool(false) {
                continue;
            }
            live += 1;
            for p in &programs[1..] {
                let v = eval_one(p, &mut scratch).expect("workload evaluates");
                if let Some(out) = &mut outputs {
                    out.push(v);
                }
            }
            if programs.len() == 1 {
                if let Some(out) = &mut outputs {
                    out.push(first);
                }
            }
        }
        live
    }
}

/// The eval-bench workloads over a customer-like table (≥ 100k rows even
/// at quick scale; rows are TPC-H-wide so field-name scans cost what they
/// cost in real plans):
///
/// * `filter` — a DC-style numeric Select predicate;
/// * `group_key` — an FD/DEDUP-style composite grouping key with a
///   banding conditional;
/// * `transform` — the paper's `prefix(phone)` / `lower(name)` shapes
///   (string-allocation-bound: both engines pay the same builtin work, so
///   the expected gain is smaller);
/// * `theta_pred` — an inequality-DC predicate over a row pair.
fn bench_col(var: &str, f: &str) -> cleanm_core::calculus::CalcExpr {
    use cleanm_core::calculus::CalcExpr;
    CalcExpr::proj(CalcExpr::var(var), f)
}

/// A Select predicate in denial-constraint shape (the paper's rules
/// carry several atoms): projections, arithmetic, comparisons, and
/// short-circuit logic.
fn bench_filter_expr() -> cleanm_core::calculus::CalcExpr {
    use cleanm_core::calculus::{BinOp, CalcExpr};
    let col = bench_col;
    let atom = |op, l, r| CalcExpr::bin(op, l, r);
    let conj = |a, b| CalcExpr::bin(BinOp::And, a, b);
    CalcExpr::bin(
        BinOp::Or,
        conj(
            conj(
                atom(BinOp::Lt, col("c", "nationkey"), CalcExpr::int(13)),
                atom(
                    BinOp::Gt,
                    CalcExpr::bin(BinOp::Mul, col("c", "acctbal"), CalcExpr::float(1.5)),
                    col("c", "creditlimit"),
                ),
            ),
            atom(
                BinOp::Ne,
                col("c", "mktsegment"),
                CalcExpr::str("MACHINERY"),
            ),
        ),
        conj(
            conj(
                atom(BinOp::Ge, col("c", "nationkey"), CalcExpr::int(20)),
                atom(
                    BinOp::Le,
                    CalcExpr::bin(BinOp::Add, col("c", "acctbal"), CalcExpr::int(250)),
                    col("c", "creditlimit"),
                ),
            ),
            atom(BinOp::Gt, col("c", "__rowid"), CalcExpr::int(1000)),
        ),
    )
}

/// A Nest grouping key: the composite record of column projections that
/// `tuple_key` desugars FD / DEDUP keys into.
fn bench_group_key_expr() -> cleanm_core::calculus::CalcExpr {
    use cleanm_core::calculus::CalcExpr;
    let col = bench_col;
    CalcExpr::record(vec![
        ("k0", col("c", "address")),
        ("k1", col("c", "nationkey")),
        ("k2", col("c", "name")),
        ("k3", col("c", "mktsegment")),
        ("k4", col("c", "creditlimit")),
    ])
}

/// The FD grouping key — `FD(address | nationkey)` desugars to grouping
/// on this record. Unlike [`bench_group_key_expr`] (which keys on the
/// near-unique `name` to stress per-row key *materialization*), this is
/// the shape grouping actually meets: many rows per group.
fn bench_fd_key_expr() -> cleanm_core::calculus::CalcExpr {
    use cleanm_core::calculus::CalcExpr;
    let col = bench_col;
    CalcExpr::record(vec![
        ("k0", col("c", "address")),
        ("k1", col("c", "nationkey")),
    ])
}

/// The paper's running-example transforms (string-function bound).
fn bench_transform_expr() -> cleanm_core::calculus::CalcExpr {
    use cleanm_core::calculus::{CalcExpr, Func};
    let col = bench_col;
    CalcExpr::record(vec![
        (
            "area",
            CalcExpr::call(Func::Prefix, vec![col("c", "phone")]),
        ),
        ("name", CalcExpr::call(Func::Lower, vec![col("c", "name")])),
    ])
}

/// An inequality-DC theta predicate over a (t1, t2) pair.
fn bench_theta_expr() -> cleanm_core::calculus::CalcExpr {
    use cleanm_core::calculus::{BinOp, CalcExpr};
    let col = bench_col;
    CalcExpr::bin(
        BinOp::And,
        CalcExpr::bin(BinOp::Lt, col("t1", "acctbal"), col("t2", "acctbal")),
        CalcExpr::bin(BinOp::Ge, col("t1", "nationkey"), col("t2", "nationkey")),
    )
}

pub fn eval_workloads(scale: Scale) -> Vec<EvalWorkload> {
    use cleanm_core::calculus::{CalcExpr, EvalCtx, Func};
    use cleanm_values::Value;

    let n = eval_rows(scale);
    let make_row = |i: usize| customer_env_row(i, n);
    let rows: Vec<Vec<(String, Value)>> = (0..n)
        .map(|i| vec![("c".to_string(), make_row(i))])
        .collect();
    let col = bench_col;

    let filter = bench_filter_expr();
    let group_key = bench_group_key_expr();
    let transform = bench_transform_expr();
    // A transform-heavy record: every string builtin the zero-copy work
    // targets, over mostly already-clean text (the case cleaning pipelines
    // actually meet — `lower` of lowercase names, `trim` of trimmed
    // addresses — where the old builtins still allocated per call).
    let transform_heavy = CalcExpr::record(vec![
        (
            "area",
            CalcExpr::call(Func::Prefix, vec![col("c", "phone")]),
        ),
        ("name", CalcExpr::call(Func::Lower, vec![col("c", "name")])),
        (
            "segment",
            CalcExpr::call(Func::Upper, vec![col("c", "mktsegment")]),
        ),
        (
            "address",
            CalcExpr::call(Func::Trim, vec![col("c", "address")]),
        ),
        (
            "comment",
            CalcExpr::call(Func::Lower, vec![col("c", "comment")]),
        ),
    ]);
    let theta_pred = bench_theta_expr();
    let pair_rows: Vec<Vec<(String, Value)>> = (0..n)
        .map(|i| {
            vec![
                ("t1".to_string(), make_row(i)),
                ("t2".to_string(), make_row((i * 31 + 7) % n)),
            ]
        })
        .collect();

    let scope_c = vec!["c".to_string()];
    vec![
        EvalWorkload {
            name: "filter",
            rows: rows.clone(),
            exprs: vec![filter.clone()],
            ctx: EvalCtx::new(),
            scope: scope_c.clone(),
            pair_split: 0,
            materialize: false,
        },
        EvalWorkload {
            name: "group_key",
            rows: rows.clone(),
            exprs: vec![group_key.clone()],
            ctx: EvalCtx::new(),
            scope: scope_c.clone(),
            pair_split: 0,
            materialize: true,
        },
        // The acceptance workload: a full FD-style operator pipeline per
        // row — filter predicate, then grouping key + item on survivors —
        // the per-row work a Select→Nest plan performs.
        EvalWorkload {
            name: "filter_group",
            rows: rows.clone(),
            exprs: vec![filter, group_key, CalcExpr::var("c")],
            ctx: EvalCtx::new(),
            scope: scope_c.clone(),
            pair_split: 0,
            materialize: true,
        },
        EvalWorkload {
            name: "transform",
            rows: rows.clone(),
            exprs: vec![transform],
            ctx: EvalCtx::new(),
            scope: scope_c.clone(),
            pair_split: 0,
            materialize: true,
        },
        EvalWorkload {
            name: "transform_heavy",
            rows,
            exprs: vec![transform_heavy],
            ctx: EvalCtx::new(),
            scope: scope_c,
            pair_split: 0,
            materialize: true,
        },
        EvalWorkload {
            name: "theta_pred",
            rows: pair_rows,
            exprs: vec![theta_pred],
            ctx: EvalCtx::new(),
            scope: vec!["t1".to_string(), "t2".to_string()],
            pair_split: 1,
            materialize: false,
        },
    ]
}

/// One interpreted-vs-compiled measurement (a row of `BENCH_eval.json`).
#[derive(Debug, Clone)]
pub struct EvalRow {
    pub workload: String,
    pub rows: usize,
    pub interpreted_rows_per_sec: f64,
    pub compiled_rows_per_sec: f64,
}

impl EvalRow {
    pub fn speedup(&self) -> f64 {
        self.compiled_rows_per_sec / self.interpreted_rows_per_sec.max(1e-9)
    }
}

/// Measure every eval workload: five interleaved full passes per engine
/// (interleaving cancels machine drift), best pass counts.
pub fn eval_compile(scale: Scale) -> Vec<EvalRow> {
    let mut out = Vec::new();
    for w in eval_workloads(scale) {
        let program = w.compile();
        let check_i = w.run_interpreted(); // warmup + checksum
        let check_c = w.run_compiled(&program);
        assert_eq!(check_i, check_c, "engines disagree on {}", w.name);
        let timed = |f: &dyn Fn() -> usize| -> f64 {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        };
        let (mut interp, mut compiled) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            interp = interp.min(timed(&|| w.run_interpreted()));
            compiled = compiled.min(timed(&|| w.run_compiled(&program)));
        }
        out.push(EvalRow {
            workload: w.name.to_string(),
            rows: w.rows.len(),
            interpreted_rows_per_sec: w.rows.len() as f64 / interp.max(1e-9),
            compiled_rows_per_sec: w.rows.len() as f64 / compiled.max(1e-9),
        });
    }
    out
}

// ====================================================================
// Columnar execution — whole-column kernel sweeps over typed
// `ColumnBatch`es vs the compiled row-at-a-time loops above, same
// expressions, same data (the `columnar` section of BENCH_eval.json).
// ====================================================================

/// One compiled-row-vs-columnar-kernel measurement (a row of
/// `BENCH_eval.json`'s `columnar` section).
#[derive(Debug, Clone)]
pub struct ColumnarRow {
    pub workload: String,
    pub rows: usize,
    pub row_rows_per_sec: f64,
    pub columnar_rows_per_sec: f64,
}

impl ColumnarRow {
    pub fn speedup(&self) -> f64 {
        self.columnar_rows_per_sec / self.row_rows_per_sec.max(1e-9)
    }
}

/// Measure the columnar kernels the executor calls against the compiled
/// row loops they replace, on three hot operator shapes — the filter
/// predicate ([`kernel::PredKernel`] refining a selection vector), the
/// composite grouping key ([`kernel::Groups::assign`] over a
/// [`kernel::ColumnProgram`]: key cells hashed into dense group ids, one
/// key `Value` per group — the sweep the columnar group fold runs per
/// chunk), and the theta-pair predicate — over the same customer rows and
/// the very same compiled [`Program`]s. Both engines see prebuilt inputs
/// (envs for the row loop, `ColumnBatch`es for the kernels — the scan
/// produces both for free); outputs are cross-checked outside the timed
/// region. Five interleaved passes per engine, best pass counts.
///
/// [`kernel::PredKernel`]: cleanm_core::physical::kernel::PredKernel
/// [`kernel::Groups::assign`]: cleanm_core::physical::kernel::Groups::assign
/// [`kernel::ColumnProgram`]: cleanm_core::physical::kernel::ColumnProgram
/// [`Program`]: cleanm_core::calculus::Program
pub fn columnar_eval(scale: Scale) -> Vec<ColumnarRow> {
    use cleanm_core::calculus::eval::EvalCtx;
    use cleanm_core::calculus::Program;
    use cleanm_core::physical::kernel::{ColumnProgram, Groups, PredKernel};
    use cleanm_values::{sel_all, ColumnBatch, FxHashMap, Value};

    type Env = Vec<Value>;

    let n = eval_rows(scale);
    let structs: Vec<Value> = (0..n).map(|i| customer_env_row(i, n)).collect();
    let envs: Vec<Env> = structs.iter().map(|s| vec![s.clone()]).collect();
    let batch = ColumnBatch::from_rows(&structs).expect("uniform customer layout");
    let ctx = EvalCtx::new();
    let scope = vec!["c".to_string()];
    let keep = |v: &Value| !v.is_null() && *v != Value::Bool(false);

    fn timed(f: &mut dyn FnMut() -> usize) -> f64 {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_secs_f64()
    }

    let mut out: Vec<ColumnarRow> = Vec::new();
    let mut push = |name: &str, row: &mut dyn FnMut() -> usize, col: &mut dyn FnMut() -> usize| {
        let (check_r, check_c) = (row(), col()); // warmup + checksum
        assert_eq!(check_r, check_c, "row vs columnar disagree on {name}");
        let (mut rt, mut ct) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            rt = rt.min(timed(row));
            ct = ct.min(timed(col));
        }
        out.push(ColumnarRow {
            workload: name.to_string(),
            rows: n,
            row_rows_per_sec: n as f64 / rt.max(1e-9),
            columnar_rows_per_sec: n as f64 / ct.max(1e-9),
        });
    };

    // filter: compiled per-row predicate vs selection-vector refinement.
    {
        let prog = Program::compile(&bench_filter_expr(), &scope, &ctx).expect("compiles");
        let kernel = PredKernel::compile(&prog, &[&batch]).expect("filter predicate vectorizes");
        // Cross-check the exact survivor set once, outside the timing.
        let mut scratch = Vec::new();
        let want: Vec<u32> = (0..n)
            .filter(|&i| keep(&prog.eval_with(&envs[i], &ctx, &mut scratch).unwrap()))
            .map(|i| i as u32)
            .collect();
        let mut sel = sel_all(n);
        assert!(kernel.filter(&[&batch], &mut sel));
        assert_eq!(sel, want, "filter kernel drifted from the row loop");
        push(
            "filter",
            &mut || {
                let mut scratch = Vec::new();
                envs.iter()
                    .filter(|env| keep(&prog.eval_with(env, &ctx, &mut scratch).unwrap()))
                    .count()
            },
            &mut || {
                let mut sel = sel_all(n);
                kernel.filter(&[&batch], &mut sel);
                sel.len()
            },
        );
    }

    // group_key: per-row key materialization + hash grouping vs the
    // grouping kernel (dense group ids from raw cells, one key Value per
    // distinct group), on the FD grouping key (clustered — many rows per
    // group).
    {
        let prog = Program::compile(&bench_fd_key_expr(), &scope, &ctx).expect("compiles");
        let batches = [std::sync::Arc::new(batch.clone())];
        let key = ColumnProgram::lower(&prog, &batches).expect("tuple key lowers to columns");
        let sel = sel_all(n);
        // `(key, count)` per group, as the fold's finish would read them.
        let group_counts = || {
            let (mut groups, mut gids) = (Groups::default(), Vec::new());
            groups.assign(&key, 0, &sel, &mut gids);
            let mut counts = vec![0u64; groups.len()];
            for g in gids {
                counts[g as usize] += 1;
            }
            let keys = (0..groups.len() as u32).map(|g| key.value(groups.rep(g)));
            keys.zip(counts).collect::<Vec<(Value, u64)>>()
        };
        let mut scratch = Vec::new();
        let mut want: FxHashMap<Value, u64> = FxHashMap::default();
        for env in &envs {
            *want
                .entry(prog.eval_with(env, &ctx, &mut scratch).unwrap())
                .or_insert(0) += 1;
        }
        for (k, c) in group_counts() {
            assert_eq!(want.get(&k), Some(&c), "group kernel drifted on {k}");
        }
        push(
            "group_key",
            &mut || {
                let mut scratch = Vec::new();
                let mut groups: FxHashMap<Value, u64> = FxHashMap::default();
                for env in &envs {
                    *groups
                        .entry(prog.eval_with(env, &ctx, &mut scratch).unwrap())
                        .or_insert(0) += 1;
                }
                groups.len()
            },
            &mut || group_counts().len(),
        );
    }

    // theta_pred: compiled pair evaluation vs the two-slot kernel sweep.
    {
        let rhs: Vec<Value> = (0..n)
            .map(|i| customer_env_row((i * 31 + 7) % n, n))
            .collect();
        let rb = ColumnBatch::from_rows(&rhs).expect("uniform customer layout");
        let l_envs: Vec<Env> = structs.iter().map(|s| vec![s.clone()]).collect();
        let r_envs: Vec<Env> = rhs.iter().map(|s| vec![s.clone()]).collect();
        let pair_scope = vec!["t1".to_string(), "t2".to_string()];
        let prog = Program::compile(&bench_theta_expr(), &pair_scope, &ctx).expect("compiles");
        let kernel = PredKernel::compile(&prog, &[&batch, &rb]).expect("pair predicate vectorizes");
        let mut scratch = Vec::new();
        let want: Vec<u32> = (0..n)
            .filter(|&i| {
                keep(
                    &prog
                        .eval_pair(&l_envs[i], &r_envs[i], &ctx, &mut scratch)
                        .unwrap(),
                )
            })
            .map(|i| i as u32)
            .collect();
        let mut sel = sel_all(n);
        assert!(kernel.filter(&[&batch, &rb], &mut sel));
        assert_eq!(sel, want, "theta kernel drifted from eval_pair");
        push(
            "theta_pred",
            &mut || {
                let mut scratch = Vec::new();
                (0..n)
                    .filter(|&i| {
                        keep(
                            &prog
                                .eval_pair(&l_envs[i], &r_envs[i], &ctx, &mut scratch)
                                .unwrap(),
                        )
                    })
                    .count()
            },
            &mut || {
                let mut sel = sel_all(n);
                kernel.filter(&[&batch, &rb], &mut sel);
                sel.len()
            },
        );
    }

    out
}

// ====================================================================
// Operator fusion — one-pass filter+consume (`filter_fold` /
// `filter_transform`) vs the operator-at-a-time pipeline the executor
// ran before fusion, over the same partitioned data with the same
// compiled programs (benches/eval.rs and the `fused` section of
// BENCH_eval.json).
// ====================================================================

/// One fused-vs-unfused pipeline measurement (a row of `BENCH_eval.json`'s
/// `fused` section).
#[derive(Debug, Clone)]
pub struct FusedRow {
    pub workload: String,
    pub rows: usize,
    pub unfused_rows_per_sec: f64,
    pub fused_rows_per_sec: f64,
}

impl FusedRow {
    pub fn speedup(&self) -> f64 {
        self.fused_rows_per_sec / self.unfused_rows_per_sec.max(1e-9)
    }
}

/// Measure the Select-fusion win on the two pipeline shapes it targets,
/// driving the *real* `Dataset` partition drivers with the *real* compiled
/// row programs on the worker pool — only the dataset construction (the
/// scan, identical either way) sits outside the timed region:
///
/// * `fused_filter_agg` — Select → Reduce(Sum). Unfused: a filter pass,
///   a head-evaluation pass materializing every surviving value, a
///   collect, and a driver-sequential monoid merge (the executor's
///   pre-fusion translation). Fused: one `filter_fold` pass per
///   partition, partials merged at the driver.
/// * `fused_filter_group` — Select → Nest. Unfused: a filter pass, then
///   the pair-emission pass, then the local-aggregate grouping. Fused:
///   pair emission filters in the same sweep.
pub fn fused_pipeline(scale: Scale) -> Vec<FusedRow> {
    use cleanm_core::calculus::eval::{merge_values, truthy, EvalCtx};
    use cleanm_core::calculus::{BinOp, CalcExpr, MonoidKind};
    use cleanm_core::physical::RowExpr;
    use cleanm_exec::{Dataset, Shuffle};
    use cleanm_values::Value;

    type Env = Vec<Value>;

    let n = eval_rows(scale);
    let envs: Vec<Env> = (0..n).map(|i| vec![customer_env_row(i, n)]).collect();
    let ctx = local_context();
    let eval_ctx = EvalCtx::new();
    let scope = vec!["c".to_string()];
    let col = |f: &str| CalcExpr::proj(CalcExpr::var("c"), f);

    // A chain of three mostly-passing validity filters — the stacked-
    // Select shape real cleaning plans carry (DEDUP's similarity + rowid
    // predicates, WHERE + pushed-down rule atoms). Unfused, each costs a
    // full pass over the surviving rows; fused, the chain runs inside the
    // consumer's single sweep.
    let pred_exprs = [
        CalcExpr::bin(BinOp::Lt, col("nationkey"), CalcExpr::int(24)),
        CalcExpr::bin(BinOp::Ge, col("acctbal"), CalcExpr::float(50.0)),
        CalcExpr::bin(BinOp::Ge, col("creditlimit"), CalcExpr::int(50)),
    ];
    let preds: Vec<RowExpr> = pred_exprs
        .iter()
        .map(|e| {
            let rx = RowExpr::compile(e, &scope, &eval_ctx);
            assert!(rx.is_compiled());
            rx
        })
        .collect();
    // The fused execution conjoins the chain into one program (a single
    // natively short-circuiting predicate tree), as the executor does.
    let conj_expr = pred_exprs
        .iter()
        .skip(1)
        .fold(pred_exprs[0].clone(), |acc, p| {
            CalcExpr::bin(BinOp::And, acc, p.clone())
        });
    let conj = RowExpr::compile(&conj_expr, &scope, &eval_ctx);
    assert!(conj.is_compiled());
    // …and for a scalar reduce the chain and the head compile into ONE
    // guarded program per row (`if pred then head else null`), as
    // `Executor::run_reduce` does.
    let guarded_expr = CalcExpr::If(
        Box::new(conj_expr.clone()),
        Box::new(col("acctbal")),
        Box::new(CalcExpr::Const(Value::Null)),
    );
    let guarded = RowExpr::compile(&guarded_expr, &scope, &eval_ctx);
    assert!(guarded.is_compiled());
    let head = RowExpr::compile(&col("acctbal"), &scope, &eval_ctx);
    let key_expr = CalcExpr::record(vec![("k0", col("address")), ("k1", col("nationkey"))]);
    let key = RowExpr::compile(&key_expr, &scope, &eval_ctx);

    let pred_keep = |rx: &RowExpr, env: &Env| {
        rx.eval_env(env, &eval_ctx)
            .map(|v| truthy(&v))
            .unwrap_or(false)
    };
    let keep = |env: &Env| pred_keep(&conj, env);
    let sum = MonoidKind::Sum;
    let fold_sum = |acc: Value, v: Value| merge_values(&sum, acc, v).expect("sum merges");

    // Each measurement rebuilds the dataset outside the timed region
    // (the scan is identical under both executions), times the pipeline,
    // and keeps the best of seven interleaved passes per engine.
    let measure = |run_unfused: &dyn Fn(Dataset<Env>) -> Value,
                   run_fused: &dyn Fn(Dataset<Env>) -> Value,
                   workload: &str|
     -> FusedRow {
        let make_ds = || Dataset::from_vec(&ctx, envs.clone());
        // Checksum: identical up to float-summation order (per-partition
        // folds associate differently than a sequential driver merge).
        let (a, b) = (run_unfused(make_ds()), run_fused(make_ds()));
        match (&a, &b) {
            (Value::Float(x), Value::Float(y)) => assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
                "pipelines disagree on {workload}: {x} vs {y}"
            ),
            _ => assert_eq!(a, b, "pipelines disagree on {workload}"),
        }
        let timed = |run: &dyn Fn(Dataset<Env>) -> Value| -> f64 {
            let ds = make_ds();
            let start = Instant::now();
            std::hint::black_box(run(ds));
            start.elapsed().as_secs_f64()
        };
        let (mut unfused, mut fused) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..7 {
            unfused = unfused.min(timed(run_unfused));
            fused = fused.min(timed(run_fused));
        }
        FusedRow {
            workload: workload.to_string(),
            rows: n,
            unfused_rows_per_sec: n as f64 / unfused.max(1e-9),
            fused_rows_per_sec: n as f64 / fused.max(1e-9),
        }
    };

    // Each unfused Select of the chain is its own filter pass over the
    // surviving rows — exactly the executor's operator-at-a-time
    // translation before fusion.
    let filter_chain = |mut ds: Dataset<Env>| -> Dataset<Env> {
        for rx in &preds {
            ds = ds
                .filter_partitions(|part| part.retain(|env| pred_keep(rx, env)))
                .expect("bench filter runs without faults");
        }
        ds
    };

    // --- Select chain → Reduce(Sum) ---
    let unfused_agg = |ds: Dataset<Env>| -> Value {
        let outputs: Vec<Value> = filter_chain(ds)
            .filter_transform(
                "map_partitions",
                |_| true,
                |env, out: &mut Vec<Value>| {
                    out.push(head.eval_env(&env, &eval_ctx).expect("head evaluates"))
                },
            )
            .expect("bench sweep runs without faults")
            .collect();
        outputs.into_iter().fold(sum.zero(), fold_sum)
    };
    // The fused fold inlines the hot merge cases (a filtered row's Null is
    // the identity; two floats add directly), as the executor's fused
    // scalar-reduce loop does — merge_values stays the fallback.
    let fused_add = |acc: Value, v: Value| -> Value {
        match (&acc, &v) {
            (Value::Float(a), Value::Float(b)) => Value::Float(a + b),
            (_, Value::Null) => acc,
            _ => merge_values(&sum, acc, v).expect("sum merges"),
        }
    };
    let fused_agg = |ds: Dataset<Env>| -> Value {
        let partials = ds.filter_fold(
            "fused_filter_fold",
            || sum.zero(),
            |_| true,
            |acc, env| {
                fused_add(
                    acc,
                    guarded
                        .eval_env(&env, &eval_ctx)
                        .expect("guarded evaluates"),
                )
            },
        );
        partials
            .expect("bench fold runs without faults")
            .into_iter()
            .fold(sum.zero(), fold_sum)
    };
    let agg = measure(&unfused_agg, &fused_agg, "fused_filter_agg");

    // --- Select chain → Nest → per-group count ---
    // The grouped-consumer pipeline: survivors group by a composite key and
    // each group reduces to its member count. Unfused, that is the
    // operator-at-a-time translation — filter passes, a pair-emission pass,
    // the materializing grouping (every member collected into its group's
    // `Vec`), then a per-group reduce over the lists. Fused, the whole
    // pipeline is ONE `group_fold` sweep: the filter chain and the key
    // program run per row and the count folds straight into the per-key
    // hash accumulator — no filtered intermediate, no pair collection, no
    // group lists, and only `(key, count)` partials cross the shuffle.
    let checksum_counts = |counts: Vec<(Value, i64)>| -> Value {
        let groups = counts.len() as i64;
        let total: i64 = counts.iter().map(|(_, n)| n).sum();
        Value::Int(groups * 1_000_003 + total)
    };
    let unfused_group = |ds: Dataset<Env>| -> Value {
        let emit_pair = |env: Env, out: &mut Vec<(Value, Value)>| {
            let k = key.eval_env(&env, &eval_ctx).expect("key evaluates");
            let item = env.into_iter().next().expect("row var");
            out.push((k, item));
        };
        let grouped = filter_chain(ds)
            .filter_transform("flat_map", |_| true, emit_pair)
            .expect("bench sweep runs without faults")
            .group_fold(
                Shuffle::LocalAggregate,
                "aggregate_by_key",
                |_| true,
                |pair, out| out.push(pair),
                Vec::new,
                |members, item| members.push(item),
                |members, mut more| members.append(&mut more),
            )
            .expect("bench grouping runs without faults");
        checksum_counts(
            grouped
                .map(|(k, members)| (k, members.len() as i64))
                .expect("bench map runs without faults")
                .collect(),
        )
    };
    let fused_group = |ds: Dataset<Env>| -> Value {
        let counts = ds.group_fold(
            Shuffle::LocalAggregate,
            "group_fold",
            keep,
            |env: Env, out: &mut Vec<(Value, i64)>| {
                let k = key.eval_env(&env, &eval_ctx).expect("key evaluates");
                out.push((k, 1));
            },
            || 0i64,
            |a, v| *a += v,
            |a, b| *a += b,
        );
        checksum_counts(counts.expect("bench fold runs without faults").collect())
    };
    let group = measure(&unfused_group, &fused_group, "fused_filter_group");

    vec![agg, group]
}

// ====================================================================
// Streaming grouped aggregation — fold-into-hash grouping vs the
// materializing grouped path, on the same partitioned data (benches/
// eval.rs and the `group_fold` section of BENCH_eval.json).
// ====================================================================

/// One materialize-vs-fold grouping measurement (a row of
/// `BENCH_eval.json`'s `group_fold` section).
#[derive(Debug, Clone)]
pub struct GroupFoldRow {
    pub workload: String,
    pub rows: usize,
    pub materialized_rows_per_sec: f64,
    pub fold_rows_per_sec: f64,
}

impl GroupFoldRow {
    pub fn speedup(&self) -> f64 {
        self.fold_rows_per_sec / self.materialized_rows_per_sec.max(1e-9)
    }
}

/// Measure fold-into-hash grouping against materialize-then-reduce on the
/// two grouped-consumer shapes the executor compiles:
///
/// * `group_fold` — a grouped sum (every cleaning aggregate's shape).
///   Materialized: `group_fold` with a `Vec` accumulator collects each group's values into
///   a `Vec`, then a per-group fold reduces it. Fold: each value is
///   absorbed into its key's accumulator on contact
///   (`group_fold` with a sum accumulator); only `(key, partial)` pairs shuffle.
/// * `fd_group` — the FD violation shape. Materialized: group every row by
///   the key, then test `distinct RHS > 1` per group over the member
///   lists. Fold: a per-partition probe folds cap-2 distinct-RHS sets,
///   partial maps merge tree-wise on the pool, and only the violating
///   keys' rows are grouped at all.
pub fn grouped_fold(scale: Scale) -> Vec<GroupFoldRow> {
    use cleanm_core::algebra::{lower_op, Alg};
    use cleanm_core::calculus::{desugar_query, EvalCtx};
    use cleanm_core::engine::storage::StoredTable;
    use cleanm_core::lang::parse_query;
    use cleanm_core::physical::Executor;
    use cleanm_values::Value;
    use std::sync::Arc;

    let n = eval_rows(scale);

    // Customer-shaped rows; ~997 addresses, ~1% of them FD-violating
    // (two distinct nationkeys). `mktsegment` feeds count_distinct.
    let rows: Vec<Value> = (0..n)
        .map(|i| {
            let addr = i % 997;
            let nation = if addr % 97 == 0 && i % 1009 == addr {
                1_000 + addr as i64
            } else {
                (addr % 25) as i64
            };
            Value::record([
                ("__rowid", Value::Int(i as i64)),
                ("address", Value::str(format!("{addr} Main St"))),
                ("nationkey", Value::Int(nation)),
                (
                    "mktsegment",
                    Value::str(["BUILDING", "MACHINERY", "AUTO"][i % 3]),
                ),
            ])
        })
        .collect();
    let mut tables = std::collections::HashMap::new();
    tables.insert("customer".to_string(), StoredTable::from_rows(rows));

    let plan_for = |sql: &str| -> Arc<Alg> {
        let q = parse_query(sql).expect("parses");
        let dq = desugar_query(&q, 1).expect("desugars");
        lower_op(&dq.ops[0].comp).expect("lowers")
    };
    // The *same* engine runs both sides — profiles differ only in
    // `fold_groups`, so the measured gap is materialization itself: the
    // materializing path collects every group's members into a `Vec` and
    // reduces the aggregates per group through the interpreter's
    // comprehension islands; the fold path absorbs each row into per-key
    // accumulators with compiled slot programs and shuffles partials only.
    let fold_profile = EngineProfile::clean_db();
    let materialize_profile = {
        let mut p = EngineProfile::clean_db();
        p.fold_groups = false;
        p
    };
    let run_plan = |plan: &Arc<Alg>, profile: &EngineProfile| -> Vec<Value> {
        let ctx = local_context();
        let mut ex = Executor::new(ctx, profile.clone(), &tables, Arc::new(EvalCtx::new()));
        ex.register_plans(std::slice::from_ref(plan));
        let mut out = ex.run_reduce(plan).expect("plan executes");
        out.sort();
        out
    };

    let measure = |sql: &str, workload: &str| -> GroupFoldRow {
        let plan = plan_for(sql);
        let check_m = run_plan(&plan, &materialize_profile);
        let check_f = run_plan(&plan, &fold_profile);
        assert_eq!(check_m, check_f, "paths disagree on {workload}");
        let timed = |profile: &EngineProfile| -> f64 {
            let start = Instant::now();
            std::hint::black_box(run_plan(&plan, profile));
            start.elapsed().as_secs_f64()
        };
        let (mut materialized, mut fold) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            materialized = materialized.min(timed(&materialize_profile));
            fold = fold.min(timed(&fold_profile));
        }
        GroupFoldRow {
            workload: workload.to_string(),
            rows: n,
            materialized_rows_per_sec: n as f64 / materialized.max(1e-9),
            fold_rows_per_sec: n as f64 / fold.max(1e-9),
        }
    };

    vec![
        measure(
            "SELECT c.address, count(*) AS n, sum(c.nationkey) AS s, \
             count_distinct(c.mktsegment) AS d \
             FROM customer c GROUP BY c.address",
            "group_fold",
        ),
        measure(
            "SELECT * FROM customer c FD(c.address | c.nationkey)",
            "fd_group",
        ),
    ]
}

// ====================================================================
// Incremental cleaning — re-clean cost after a 1% append vs a full
// re-run (benches/incr.rs and repro's BENCH_incr.json trajectory).
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
}

/// The violation/repair outcome of a report as comparable bytes: the
/// (sorted) violating ids plus the sorted repair pairs.
fn report_fingerprint(report: &CleaningReport) -> String {
    let mut repairs: Vec<(String, String)> = report
        .repairs
        .iter()
        .map(|r| (r.term.clone(), r.suggestion.clone()))
        .collect();
    repairs.sort();
    format!("{:?}|{repairs:?}", report.violating_ids)
}

/// Split a generated table into a ~99% base and ~1% append delta.
fn split_one_percent(table: cleanm_values::Table) -> (cleanm_values::Table, cleanm_values::Table) {
    let n = table.rows.len();
    let cut = n - (n / 100).max(1);
    let mut base_rows = table.rows;
    let delta_rows = base_rows.split_off(cut);
    (
        cleanm_values::Table::new(table.schema.clone(), base_rows),
        cleanm_values::Table::new(table.schema, delta_rows),
    )
}

/// Install `sql` as a standing query over the base table, append the delta
/// and refresh (timed), then run the same query from scratch over the
/// concatenated table (timed), asserting identical violation/repair
/// reports and a plan-cache hit on the repeat.
fn run_incr_workload(
    workload: &str,
    table_name: &str,
    table: cleanm_values::Table,
    sql: &str,
) -> IncrRow {
    let (base, delta) = split_one_percent(table);
    let delta_rows = delta.rows.len();
    let rows = base.rows.len() + delta_rows;

    // Incremental path: standing query installed once, then append+refresh.
    let mut db = session(EngineProfile::clean_db());
    db.set_seed(SEED);
    let mut full_table = base.clone();
    db.register(table_name, base);
    let mut incr = IncrementalSession::new(db);
    let (id, _) = incr.install(sql).expect("install standing query");
    let start = Instant::now();
    incr.append(table_name, delta.clone()).expect("append");
    let incr_report = incr.refresh(id).expect("refresh");
    let incremental_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        incr_report
            .incremental
            .as_ref()
            .map(|i| i.fallback_ops)
            .unwrap_or(usize::MAX),
        0,
        "{workload}: all ops must revalidate from state"
    );

    // Batch path: a fresh session re-cleans the concatenated table.
    full_table.rows.extend(delta.rows);
    let mut full_db = session(EngineProfile::clean_db());
    full_db.set_seed(SEED);
    full_db.register(table_name, full_table);
    let start = Instant::now();
    let full_report = full_db.run(sql).expect("full re-run");
    let full_ms = start.elapsed().as_secs_f64() * 1e3;

    // The same query again: planning must be served from the plan cache.
    let repeat = full_db.run(sql).expect("repeat run");

    IncrRow {
        workload: workload.to_string(),
        rows,
        delta_rows,
        full_ms,
        incremental_ms,
        identical: report_fingerprint(&incr_report) == report_fingerprint(&full_report),
        plan_cache_hit: repeat.plan_cache.hit && repeat.plan_cache.hits > 0,
    }
}

/// The incremental-cleaning workloads: an FD check over a wide customer
/// table, the unified FD+DEDUP query of §8.2, and a standing inequality
/// DC over lineitem (join-key-domain indexes).
pub fn incr_append(scale: Scale) -> Vec<IncrRow> {
    let mut out = Vec::new();

    // FD over a large customer table: grouping dominates the batch cost.
    let fd_rows = match scale {
        Scale::Quick => 40_000,
        Scale::Full => 160_000,
    };
    let fd_data = CustomerGen::new(SEED)
        .rows(fd_rows)
        .duplicate_fraction(0.0)
        .fd_noise_fraction(0.02)
        .generate();
    out.push(run_incr_workload(
        "fd",
        "customer",
        fd_data.table,
        "SELECT * FROM customer c FD(c.address | c.nationkey)",
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
        "SELECT * FROM customer c \
         FD(c.address | c.nationkey) \
         DEDUP(exact, LD, 0.8, c.address, c.name)",
    ));

    // A standing inequality DC: delta rows probe the sorted key domain
    // instead of re-running the theta self-join.
    let dc_rows = scale.lineitem_scales()[0].1;
    let dc_data = LineitemGen::new(SEED)
        .rows(dc_rows)
        .noise_column(NoiseColumn::Discount)
        .generate();
    let mut prices: Vec<f64> = dc_data
        .table
        .rows
        .iter()
        .map(|r| r.values()[5].as_float().unwrap())
        .collect();
    prices.sort_by(f64::total_cmp);
    let cap = prices[(prices.len() / 100).max(8).min(prices.len() - 1)];
    let (base, delta) = split_one_percent(dc_data.table);
    let delta_rows = delta.rows.len();
    let rows = base.rows.len() + delta_rows;
    let dc = InequalityDc::rule_psi("lineitem", cap);

    let mut db = session(EngineProfile::clean_db());
    let mut full_table = base.clone();
    db.register("lineitem", base);
    let mut incr = IncrementalSession::new(db);
    let (dc_id, _) = incr.install_dc(&dc).expect("install dc");
    let start = Instant::now();
    incr.append("lineitem", delta.clone()).expect("append");
    let incr_outcome = incr.refresh_dc(dc_id).expect("refresh dc");
    let incremental_ms = start.elapsed().as_secs_f64() * 1e3;

    full_table.rows.extend(delta.rows);
    let mut full_db = session(EngineProfile::clean_db());
    full_db.register("lineitem", full_table);
    let start = Instant::now();
    let full_outcome = dc.run(&mut full_db).expect("full dc");
    let full_ms = start.elapsed().as_secs_f64() * 1e3;
    let identical = match (&incr_outcome, &full_outcome) {
        (
            DcOutcome::Completed { violations: a, .. },
            DcOutcome::Completed { violations: b, .. },
        ) => a == b,
        _ => false,
    };
    out.push(IncrRow {
        workload: "dc_psi".to_string(),
        rows,
        delta_rows,
        full_ms,
        incremental_ms,
        identical,
        // The DC path builds plans directly and never consults the plan
        // cache; the cache-hit acceptance is carried by the SQL workloads.
        plan_cache_hit: false,
    });
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
    /// A steady-state refresh after a 1% append: the incremental path.
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
}

/// Repair the unified FD + DEDUP customer workload at 1% / 5% / 20% seeded
/// violation rates: detect, plan, apply, then re-validate through the
/// standing-query machinery (full fallback after the re-registration, then
/// incremental after a 1% append).
pub fn repair_rates(scale: Scale) -> Vec<RepairRow> {
    repair_rates_at(match scale {
        Scale::Quick => 20_000,
        Scale::Full => 80_000,
    })
}

fn repair_rates_at(n: usize) -> Vec<RepairRow> {
    let sql = "SELECT * FROM customer c \
               FD(c.address | c.nationkey) \
               DEDUP(exact, LD, 0.8, c.address, c.name)";
    let mut out = Vec::new();
    for rate in [0.01, 0.05, 0.20] {
        let data = CustomerGen::new(SEED ^ (rate * 1e3) as u64)
            .rows(n)
            .duplicate_fraction(rate)
            .max_duplicates(20)
            .fd_noise_fraction(rate)
            .generate();
        let mut db = session(EngineProfile::clean_db());
        db.set_seed(SEED);
        db.register("customer", data.table);
        let mut incr = IncrementalSession::new(db);
        let (id, baseline) = incr.install(sql).expect("install");
        let detect_ms = baseline.total.as_secs_f64() * 1e3;

        let engine = RepairEngine::default();
        let section = engine
            .plan_for_report(incr.db(), sql, &baseline)
            .expect("plan repairs");
        let plan_ms = section.duration.as_secs_f64() * 1e3;

        let start = Instant::now();
        let applied = incr.db().apply_repairs(&section).expect("apply");
        let apply_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let refreshed = incr.refresh(id).expect("refresh after repair");
        let revalidate_full_ms = start.elapsed().as_secs_f64() * 1e3;

        // Steady state: a clean 1% append re-validates incrementally.
        let delta = CustomerGen::new(SEED ^ 0x5eed)
            .rows(n / 100)
            .duplicate_fraction(0.0)
            .fd_noise_fraction(0.0)
            .generate();
        incr.append("customer", delta.table).expect("append");
        let start = Instant::now();
        incr.refresh(id).expect("incremental refresh");
        let revalidate_incr_ms = start.elapsed().as_secs_f64() * 1e3;

        out.push(RepairRow {
            rate,
            rows: n,
            violations: baseline.violations(),
            fixes: section.fixes.len(),
            rows_dropped: applied.rows_dropped(),
            unrepaired: section.unrepaired,
            detect_ms,
            plan_ms,
            apply_ms,
            violations_after: refreshed.violations(),
            revalidate_full_ms,
            revalidate_incr_ms,
        });
    }
    out
}

// ====================================================================
// Observability — tracing/profiling overhead on end-to-end cleaning
// queries, and a sample EXPLAIN ANALYZE artifact.
// ====================================================================

/// One workload timed with tracing (spans + per-node profiles) off vs on.
pub struct TraceOverheadRow {
    pub workload: String,
    pub rows: usize,
    pub untraced_ms: f64,
    pub traced_ms: f64,
}

impl TraceOverheadRow {
    /// Fractional slowdown of the traced run (`0.01` = 1% slower).
    pub fn overhead(&self) -> f64 {
        self.traced_ms / self.untraced_ms.max(1e-9) - 1.0
    }
}

/// Time the eval cleaning workloads with tracing off and on, interleaved
/// (best of `rounds` per mode, so a noise burst hits both modes equally).
pub fn trace_overhead(scale: Scale) -> Vec<TraceOverheadRow> {
    let fd_rows = match scale {
        Scale::Quick => 40_000,
        Scale::Full => 160_000,
    };
    let fd_data = CustomerGen::new(SEED)
        .rows(fd_rows)
        .duplicate_fraction(0.0)
        .fd_noise_fraction(0.02)
        .generate();
    let dedup_data = CustomerGen::new(SEED ^ 7)
        .rows(scale.customer_rows() * 2)
        .duplicate_fraction(0.10)
        .max_duplicates(50)
        .fd_noise_fraction(0.02)
        .generate();
    let workloads = [
        (
            "fd",
            fd_data.table,
            "SELECT * FROM customer c FD(c.address | c.nationkey)",
        ),
        (
            "fd_dedup",
            dedup_data.table,
            "SELECT * FROM customer c \
             FD(c.address | c.nationkey) \
             DEDUP(exact, LD, 0.8, c.address, c.name)",
        ),
    ];
    let mut out = Vec::new();
    for (workload, table, sql) in workloads {
        let rows = table.rows.len();
        let mut db = session(EngineProfile::clean_db());
        db.set_seed(SEED);
        db.register("customer", table);
        // Warm-up: populate the plan cache and touch the data once, so
        // both timed modes run the identical cached-plan path.
        db.run(sql).expect("warm-up run");
        let mut best = [f64::INFINITY; 2];
        for _ in 0..5 {
            for (slot, traced) in [(0, false), (1, true)] {
                db.set_tracing(traced);
                let start = Instant::now();
                db.run(sql).expect("timed run");
                best[slot] = best[slot].min(start.elapsed().as_secs_f64() * 1e3);
                if traced {
                    // Drain the span log between rounds, as a live
                    // consumer would.
                    db.context().tracer().take();
                }
            }
        }
        out.push(TraceOverheadRow {
            workload: workload.to_string(),
            rows,
            untraced_ms: best[0],
            traced_ms: best[1],
        });
    }
    out
}

/// One traced end-to-end run of the unified cleaning query: the per-node
/// EXPLAIN ANALYZE profiles and the session registry snapshot as one JSON
/// object (the CI observability artifact).
pub fn profile_artifact(scale: Scale) -> String {
    let data = CustomerGen::new(SEED ^ 7)
        .rows(scale.customer_rows())
        .duplicate_fraction(0.10)
        .max_duplicates(50)
        .fd_noise_fraction(0.02)
        .generate();
    let mut db = session(EngineProfile::clean_db());
    db.set_seed(SEED);
    db.register("customer", data.table);
    db.set_tracing(true);
    let report = db
        .run(
            "SELECT * FROM customer c \
             FD(c.address | c.nationkey) \
             DEDUP(exact, LD, 0.8, c.address, c.name)",
        )
        .expect("traced run");
    format!(
        "{{\n\"profiles\": {},\n\"registry\": {}\n}}\n",
        report.profiles_json(),
        db.metrics_registry().snapshot_json()
    )
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

    fn percentile(&self, p: f64) -> f64 {
        if self.cancel_latency_ms.is_empty() {
            return 0.0;
        }
        let idx = ((self.cancel_latency_ms.len() - 1) as f64 * p).round() as usize;
        self.cancel_latency_ms[idx]
    }

    pub fn cancel_p50_ms(&self) -> f64 {
        self.percentile(0.50)
    }

    pub fn cancel_p99_ms(&self) -> f64 {
        self.percentile(0.99)
    }
}

/// Measure the fault-tolerance machinery on the FD workload: clean vs
/// armed-limits vs retried-panic timings (interleaved best-of-rounds, so a
/// noise burst hits every mode equally) plus a cancellation-latency
/// distribution from repeated mid-run cancels.
pub fn fault_tolerance(scale: Scale) -> Vec<FaultToleranceRow> {
    use cleanm_core::RunLimits;
    use cleanm_exec::{FaultKind, FaultPlan, FaultSite};

    let n_rows = match scale {
        Scale::Quick => 60_000,
        Scale::Full => 240_000,
    };
    let data = CustomerGen::new(SEED)
        .rows(n_rows)
        .duplicate_fraction(0.0)
        .fd_noise_fraction(0.02)
        .generate();
    let sql = "SELECT * FROM customer c FD(c.address | c.nationkey)";
    let mut db = session(EngineProfile::clean_db());
    db.set_seed(SEED);
    db.register("customer", data.table);
    db.run(sql).expect("warm-up run");

    let generous = RunLimits {
        timeout: Some(Duration::from_secs(3600)),
        max_work: Some(u64::MAX / 2),
        max_retries: None,
    };
    // A transient panic on partition 0's first attempt per sweep: the
    // retry runs the partition's real work exactly once.
    let transient_panic = std::sync::Arc::new(FaultPlan::new().arm(
        FaultSite::PartitionStart,
        0,
        FaultKind::Panic,
        1,
    ));

    let mut best = [f64::INFINITY; 3];
    for _ in 0..5 {
        for (mode, slot) in best.iter_mut().enumerate() {
            let limits = match mode {
                0 => RunLimits::default(),
                1 => generous,
                _ => RunLimits {
                    max_retries: Some(2),
                    ..RunLimits::default()
                },
            };
            if mode == 2 {
                db.context()
                    .set_fault_plan(Some(std::sync::Arc::clone(&transient_panic)));
            }
            let start = Instant::now();
            let report = db.run_with_limits(sql, limits).expect("timed run");
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            db.context().set_fault_plan(None);
            assert!(
                report.failure.is_none(),
                "mode {mode} must complete: {:?}",
                report.failure
            );
            *slot = slot.min(elapsed);
        }
    }

    // Cancellation latency: cancel from another thread mid-run and time
    // how long the query takes to come back. A delay arm on every
    // partition start guarantees the query is still in flight when the
    // cancel lands, without adding real work to unwind.
    let reps = match scale {
        Scale::Quick => 40,
        Scale::Full => 100,
    };
    let slow_plan = std::sync::Arc::new(FaultPlan::new().arm_all(
        FaultSite::PartitionStart,
        FaultKind::Delay(Duration::from_millis(20)),
        u32::MAX,
    ));
    let mut latencies = Vec::with_capacity(reps);
    for _ in 0..reps {
        db.context()
            .set_fault_plan(Some(std::sync::Arc::clone(&slow_plan)));
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
        db.context().set_fault_plan(None);
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
        let tf2 = run_termval(
            &data,
            &TermvalConfig {
                label: "tf q=2".into(),
                block_op: "token_filtering(2)".into(),
            },
            0.70,
        );
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
        // hits) asserted here; the ≥5x speedup claim is repro's at full
        // workload size.
        for row in incr_append(Scale::Quick) {
            assert!(row.identical, "{}: reports diverged", row.workload);
            assert!(row.delta_rows > 0 && row.delta_rows * 50 <= row.rows);
            if row.workload != "dc_psi" {
                assert!(row.plan_cache_hit, "{}: repeat must hit", row.workload);
            }
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
            assert!(
                row.violations > 0,
                "rate {}: corpus started clean",
                row.rate
            );
            assert!(
                row.fixes + row.rows_dropped > 0,
                "rate {}: nothing repaired",
                row.rate
            );
            assert_eq!(
                row.unrepaired, 0,
                "rate {}: unrepaired violations",
                row.rate
            );
            assert_eq!(
                row.violations_after, 0,
                "rate {}: repaired table still dirty",
                row.rate
            );
        }
    }

    #[test]
    fn eval_workloads_agree_across_engines() {
        // Full-size equivalence is pinned by tests/compiled_eval.rs; here a
        // cheap smoke over the bench workload shapes.
        for mut w in eval_workloads(Scale::Quick) {
            w.rows.truncate(200);
            let program = w.compile();
            assert_eq!(w.run_interpreted(), w.run_compiled(&program), "{}", w.name);
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
