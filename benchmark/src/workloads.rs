//! The eight workloads: set-up (inputs from the seed, files, reference
//! answers) and one iteration of each.
//!
//! Every iteration starts from a fresh `CleanDb` on `EngineProfile::clean_db()`
//! and `ExecContext::new(workers, 4)`, so each query is plan-cache-cold: what
//! a one-shot `cleanm run` pays. Network cost stays at the context's default
//! of 0. The program only ever sees the generated inputs.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cleanm_cluster::{Blocker, ExactKey, TokenFilter};
use cleanm_core::algebra::{lower_op, rewrite_shared};
use cleanm_core::calculus::{desugar_query, normalize};
use cleanm_core::engine::EngineError;
use cleanm_core::ops::{DcOutcome, InequalityDc};
use cleanm_core::{parse_query, CleanDb, CleaningReport, EngineProfile};
use cleanm_datagen::customer::CustomerGen;
use cleanm_datagen::dblp::DblpGen;
use cleanm_datagen::tpch::{LineitemGen, NoiseColumn};
use cleanm_exec::ExecContext;
use cleanm_formats::{colbin, csv, flatten};
use cleanm_incr::IncrementalSession;
use cleanm_values::{Row, Schema, Table, Value};

use crate::layers::Layers;
use crate::reference::{self as naive, Expect, LdCost};
use crate::spans::Spans;

/// Partitions per dataset in every run: with one worker, shuffles, merges
/// and skew still execute.
const PARTITIONS: usize = 4;

/// What an iteration runs in: the worker count, and where spans and layer
/// numbers go. The run is the traced one exactly when the spans are on.
pub struct Ctx {
    pub workers: usize,
    pub spans: Spans,
    pub layers: Layers,
}

impl Ctx {
    pub fn new(workers: usize, traced: bool) -> Self {
        Ctx {
            workers,
            spans: Spans::new(traced),
            layers: Layers::default(),
        }
    }

    pub fn traced(&self) -> bool {
        self.spans.enabled()
    }

    fn fresh_db(&self, seed: u64) -> CleanDb {
        let mut db = CleanDb::with_context(
            EngineProfile::clean_db(),
            ExecContext::new(self.workers, PARTITIONS),
        );
        db.set_seed(seed);
        db.set_tracing(self.traced());
        db
    }
}

/// Iterations attempted and failed (an `Err`, a `report.failure`, or an
/// output that differs from the reference answer).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

pub trait Workload {
    /// Rows the timed region reads.
    fn input_rows(&self) -> usize;
    /// Iterations to discard before measuring.
    fn warmup(&self) -> usize {
        3
    }
    /// Run one iteration, pushing the wall-clock of each timed region in
    /// milliseconds.
    fn iterate(&mut self, cx: &mut Ctx, samples: &mut Vec<f64>, tally: &mut Tally);
    /// Layer numbers taken once, outside the iterations (traced run only).
    fn measure_layers(&self, _layers: &mut Layers) {}
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn report_ok(result: &Result<CleaningReport, EngineError>, expects: &[Expect]) -> bool {
    match result {
        Ok(report) => {
            report.failure.is_none()
                && report.ops.len() == expects.len()
                && report
                    .ops
                    .iter()
                    .zip(expects)
                    .all(|(op, e)| naive::matches(e, &op.output))
        }
        Err(_) => false,
    }
}

/// Drain the engine tracer and return the time its `execute` spans cover.
fn engine_execute_ns(db: &CleanDb) -> u64 {
    let log = db.context().tracer().take();
    log.spans
        .iter()
        .filter(|s| s.name == "execute")
        .map(|s| s.duration_ns)
        .sum()
}

/// Benchmark spans around each frontend phase for these query texts;
/// returns the time they cover.
fn frontend_spans(spans: &mut Spans, queries: &[&str], seed: u64) -> u64 {
    let start = Instant::now();
    spans.scope("frontend", |spans| {
        for sql in queries {
            let query = spans.scope("lang.parse", |_| parse_query(sql));
            let Ok(query) = query else { continue };
            let desugared = spans.scope("calculus.desugar", |_| desugar_query(&query, seed));
            let Ok(desugared) = desugared else { continue };
            let comps: Vec<_> = spans.scope("calculus.normalize", |_| {
                desugared
                    .ops
                    .iter()
                    .map(|op| normalize(&op.comp).0)
                    .collect()
            });
            spans.scope("algebra.lower_share", |_| {
                let plans: Result<Vec<_>, _> = comps.iter().map(lower_op).collect();
                let _ = std::hint::black_box(plans.map(|p| rewrite_shared(&p)));
            });
        }
    });
    start.elapsed().as_nanos() as u64
}

fn text(row: &Row, col: usize) -> &str {
    row.values()[col].as_str().expect("generated text column")
}

fn int(row: &Row, col: usize) -> i64 {
    row.values()[col]
        .as_int()
        .expect("generated integer column")
}

fn float(row: &Row, col: usize) -> f64 {
    row.values()[col]
        .as_float()
        .expect("generated float column")
}

/// Inputs generated per seed where the generator's size is heavy-tailed.
const CANDIDATES: u64 = 8;

/// A workload is defined by its size; the seed picks the instance. Where
/// the generator draws sizes from a heavy tail (Zipf duplicate counts, a
/// handful of noisy rows under a quantile), inputs of one nominal size differ
/// by 10–30 % in work from seed to seed, which would drown a 10 % change in
/// the program. So set-up generates `candidates` inputs from sub-seeds of the
/// seed and keeps the one whose size is closest to `target`. The choice is a
/// pure function of the seed, and its cost is part of `setup_s`.
fn closest_to<T>(seed: u64, target: f64, candidates: u64, make: impl Fn(u64) -> (T, f64)) -> T {
    (0..candidates)
        .map(|k| make(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k)))
        .min_by(|a, b| (a.1 - target).abs().total_cmp(&(b.1 - target).abs()))
        .expect("at least one candidate")
        .0
}

/// Same-address pairs in a customer table: what DEDUP enumerates.
fn address_pairs(table: &Table) -> f64 {
    let mut blocks: HashMap<&str, u64> = HashMap::new();
    for r in &table.rows {
        *blocks.entry(text(r, 2)).or_default() += 1;
    }
    blocks.values().map(|n| n * (n - 1) / 2).sum::<u64>() as f64
}

// ---------------------------------------------------------------------
// Workloads that register tables and run CleanM query texts.
// ---------------------------------------------------------------------

/// A table read back from disk inside the timed region.
struct CsvSource {
    table: &'static str,
    csv: PathBuf,
    colbin: PathBuf,
    schema: Schema,
    bytes: u64,
}

struct SqlWorkload {
    seed: u64,
    input_rows: usize,
    warmup: usize,
    tables: Vec<(&'static str, Table)>,
    dictionary: Option<(&'static str, Vec<String>)>,
    from_disk: Option<CsvSource>,
    queries: Vec<(&'static str, Vec<Expect>)>,
    /// Reference-side cost of the similarity metric, if the workload has one.
    ld: LdCost,
    /// The blocker the workload's pair operator uses, for the cluster layer.
    blocking: Option<Blocking>,
}

/// A `cleanm-cluster` blocker over one text column of the first table.
enum Blocking {
    /// `DEDUP(exact, …)`: pairs within blocks of equal keys.
    Exact { column: usize },
    /// `CLUSTER BY(token_filtering(q), …)`: pairs of a cell and a dictionary
    /// term, once per q-gram block they share.
    Tokens { column: usize, q: usize },
}

impl SqlWorkload {
    /// Time the blocker over the workload's terms and count the candidate
    /// pairs its blocks hold.
    fn block(&self, blocking: &Blocking) -> (Duration, u64) {
        let cells = |column: usize| self.tables[0].1.rows.iter().map(move |r| text(r, column));
        let start = Instant::now();
        // Per block key: cells of the table, terms of the dictionary.
        let mut blocks: HashMap<String, (u64, u64)> = HashMap::new();
        match blocking {
            Blocking::Exact { column } => {
                for cell in cells(*column) {
                    for key in ExactKey.keys(cell) {
                        blocks.entry(key).or_default().0 += 1;
                    }
                }
                (
                    start.elapsed(),
                    blocks.values().map(|(n, _)| n * (n - 1) / 2).sum(),
                )
            }
            Blocking::Tokens { column, q } => {
                let filter = TokenFilter::new(*q);
                for cell in cells(*column) {
                    for key in filter.keys(cell) {
                        blocks.entry(key).or_default().0 += 1;
                    }
                }
                for term in self.dictionary.iter().flat_map(|(_, terms)| terms) {
                    for key in filter.keys(term) {
                        blocks.entry(key).or_default().1 += 1;
                    }
                }
                (start.elapsed(), blocks.values().map(|(t, w)| t * w).sum())
            }
        }
    }
}

impl SqlWorkload {
    /// Register `tables` and run `queries` on them: no dictionary, no files,
    /// no similarity metric, three warm-up iterations.
    fn over(
        seed: u64,
        tables: Vec<(&'static str, Table)>,
        queries: Vec<(&'static str, Vec<Expect>)>,
    ) -> Self {
        SqlWorkload {
            seed,
            input_rows: tables.iter().map(|(_, t)| t.len()).sum(),
            warmup: 3,
            tables,
            dictionary: None,
            from_disk: None,
            queries,
            ld: LdCost::default(),
            blocking: None,
        }
    }
}

impl Workload for SqlWorkload {
    fn input_rows(&self) -> usize {
        self.input_rows
    }

    fn warmup(&self) -> usize {
        self.warmup
    }

    fn iterate(&mut self, cx: &mut Ctx, samples: &mut Vec<f64>, tally: &mut Tally) {
        // Before the session exists: the frontend phases on their own, not
        // behind the frees of a finished query.
        let traced = cx.traced();
        let frontend_ns = if traced {
            let texts: Vec<&str> = self.queries.iter().map(|(sql, _)| *sql).collect();
            frontend_spans(&mut cx.spans, &texts, self.seed)
        } else {
            0
        };
        let mut db = cx.fresh_db(self.seed);
        let mut timed = Duration::ZERO;
        let mut read_ok = true;
        let mut results = Vec::with_capacity(self.queries.len());
        cx.spans.scope("iteration", |spans| {
            if let Some(src) = &self.from_disk {
                let start = Instant::now();
                let table = spans.scope("csv_read", |_| {
                    csv::read_path(&src.csv, &src.schema, &csv::CsvOptions::default())
                });
                if traced {
                    let mb_per_s = src.bytes as f64 / 1e6 / start.elapsed().as_secs_f64();
                    cx.layers.sample("formats.csv_mb_per_s", mb_per_s);
                }
                match table {
                    Ok(table) => spans.scope("register", |_| db.register(src.table, table)),
                    Err(_) => read_ok = false,
                }
                timed += start.elapsed();
            }
            spans.scope("register", |_| {
                for (name, table) in &self.tables {
                    db.register(name, table.clone());
                }
                if let Some((name, terms)) = &self.dictionary {
                    db.register_dictionary(name, terms.clone());
                }
            });
            for (sql, _) in &self.queries {
                let start = Instant::now();
                let result = spans.scope("run", |_| db.run(sql));
                let run = start.elapsed();
                timed += run;
                if traced {
                    let execute_ns = engine_execute_ns(&db);
                    if let Ok(report) = &result {
                        cx.layers
                            .absorb_report(report, execute_ns, run.as_nanos() as u64);
                    }
                }
                results.push(result);
            }
        });
        let ok = read_ok
            && results
                .iter()
                .zip(&self.queries)
                .all(|(r, (_, expects))| report_ok(r, expects));
        drop(results);
        samples.push(ms(timed));
        tally.record(ok);

        if traced {
            // The same texts again on the same session: plan-cache text hits.
            cx.spans.scope("warm_run", |_| {
                for (sql, _) in &self.queries {
                    let _ = std::hint::black_box(db.run(sql));
                }
            });
            if let Some(src) = &self.from_disk {
                let _ = cx.spans.scope("colbin_read", |_| {
                    std::hint::black_box(colbin::read_path(&src.colbin))
                });
            }
            cx.layers.end_iteration(frontend_ns);
        }
    }

    fn measure_layers(&self, layers: &mut Layers) {
        if self.ld.pairs > 0 {
            layers.sample(
                "text.ld_ns_per_pair",
                self.ld.ns as f64 / self.ld.pairs as f64,
            );
        }
        if let Some(blocking) = &self.blocking {
            let (took, candidates) = self.block(blocking);
            layers.sample("cluster.block_ms", ms(took));
            layers.count("cluster.candidates", candidates);
        }
    }
}

const FD_LINEITEM: &str = "SELECT * FROM lineitem l FD(l.orderkey, l.linenumber | l.suppkey)";

fn lineitem(seed: u64, rows: usize, noise: NoiseColumn) -> Table {
    LineitemGen::new(seed)
        .rows(rows)
        .base_rows(rows)
        .noise_column(noise)
        .generate()
        .table
}

fn fd_lineitem_expect(table: &Table) -> Expect {
    // lineitem columns: 0 orderkey, 2 suppkey, 3 linenumber.
    naive::fd(
        &table.rows,
        |_| true,
        |r| (int(r, 0), int(r, 3)),
        |r| int(r, 2),
    )
}

fn fd_lineitem(seed: u64, rows: usize) -> SqlWorkload {
    let table = lineitem(seed, rows, NoiseColumn::OrderKey);
    let expect = fd_lineitem_expect(&table);
    SqlWorkload::over(
        seed,
        vec![("lineitem", table)],
        vec![(FD_LINEITEM, vec![expect])],
    )
}

fn ingest_lineitem_csv(seed: u64, rows: usize, dir: &Path) -> Result<SqlWorkload, String> {
    let table = lineitem(seed, rows, NoiseColumn::OrderKey);
    let expect = fd_lineitem_expect(&table);
    let (csv_path, colbin_path) = (dir.join("lineitem.csv"), dir.join("lineitem.colbin"));
    csv::write_path(&csv_path, &table, &csv::CsvOptions::default()).map_err(|e| e.to_string())?;
    colbin::write_path(&colbin_path, &table).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&csv_path)
        .map_err(|e| e.to_string())?
        .len();
    Ok(SqlWorkload {
        input_rows: table.len(),
        from_disk: Some(CsvSource {
            table: "lineitem",
            csv: csv_path,
            colbin: colbin_path,
            schema: table.schema,
            bytes,
        }),
        ..SqlWorkload::over(seed, Vec::new(), vec![(FD_LINEITEM, vec![expect])])
    })
}

const RELATIONAL_FILTER: &str = "SELECT l.orderkey, l.extendedprice FROM lineitem l \
     WHERE l.quantity > 45 AND l.discount < 0.02";
const RELATIONAL_GROUP: &str = "SELECT l.suppkey, count(*) AS n, avg(l.extendedprice) AS p \
     FROM lineitem l GROUP BY l.suppkey HAVING count(*) > 1";

fn relational_lineitem(seed: u64, rows: usize) -> SqlWorkload {
    let table = lineitem(seed, rows, NoiseColumn::OrderKey);
    // lineitem columns: 0 orderkey, 2 suppkey, 4 quantity, 5 extendedprice,
    // 6 discount.
    let filtered = naive::rows_expect(
        table
            .rows
            .iter()
            .filter(|r| float(r, 4) > 45.0 && float(r, 6) < 0.02)
            .map(|r| [&r.values()[0], &r.values()[5]]),
    );
    let mut groups: HashMap<i64, (i64, f64)> = HashMap::new();
    for r in &table.rows {
        let g = groups.entry(int(r, 2)).or_default();
        g.0 += 1;
        g.1 += float(r, 5);
    }
    let grouped: Vec<[Value; 3]> = groups
        .into_iter()
        .filter(|(_, (n, _))| *n > 1)
        .map(|(k, (n, sum))| [Value::Int(k), Value::Int(n), Value::Float(sum / n as f64)])
        .collect();
    let grouped = naive::rows_expect(grouped.iter().map(|r| r.iter()));
    SqlWorkload::over(
        seed,
        vec![("lineitem", table)],
        vec![
            (RELATIONAL_FILTER, vec![filtered]),
            (RELATIONAL_GROUP, vec![grouped]),
        ],
    )
}

const UNIFIED: &str = "SELECT * FROM customer c \
     FD(c.address | prefix(c.phone)) \
     FD(c.address | c.nationkey) \
     DEDUP(exact, LD, 0.8, c.address, c.name)";

/// Fig. 5 / fig. 8a's customer table: 10 % of the base rows duplicated, up
/// to 50 Zipf-many times, 2 % FD noise; about 14.4 same-address pairs per
/// base row.
fn customer(seed: u64, base_rows: usize) -> Table {
    closest_to(seed, 14.4 * base_rows as f64, CANDIDATES, |sub_seed| {
        let table = CustomerGen::new(sub_seed)
            .rows(base_rows)
            .duplicate_fraction(0.10)
            .max_duplicates(50)
            .fd_noise_fraction(0.02)
            .generate()
            .table;
        let pairs = address_pairs(&table);
        (table, pairs)
    })
}

/// Reference answers for [`UNIFIED`]'s three operators. Customer columns:
/// 1 name, 2 address, 3 nationkey, 4 phone, 5 acctbal.
fn unified_expects(rows: &[Row]) -> (Vec<Expect>, LdCost) {
    let (dedup, ld) = naive::dedup_exact(rows, |r| text(r, 2), |r| text(r, 1), 0.8);
    let expects = vec![
        naive::fd(
            rows,
            |_| true,
            |r| text(r, 2),
            |r| naive::prefix(text(r, 4)),
        ),
        naive::fd(rows, |_| true, |r| text(r, 2), |r| int(r, 3)),
        dedup,
    ];
    (expects, ld)
}

fn unified_customer(seed: u64, base_rows: usize) -> SqlWorkload {
    let table = customer(seed, base_rows);
    let (expects, ld) = unified_expects(&table.rows);
    SqlWorkload {
        ld,
        blocking: Some(Blocking::Exact { column: 2 }),
        ..SqlWorkload::over(seed, vec![("customer", table)], vec![(UNIFIED, expects)])
    }
}

/// The `authors` cell of every row of flattened DBLP.
fn author_terms(flat: &Table) -> Option<Vec<&str>> {
    let col = flat.schema.index_of("authors").ok()?;
    flat.rows
        .iter()
        .map(|r| r.values()[col].as_str().ok())
        .collect()
}

const TERMVAL: &str =
    "SELECT * FROM dblp t, dict w CLUSTER BY(token_filtering(3), LD, 0.8, t.authors)";

fn termval_dblp(seed: u64, publications: usize, dictionary: usize) -> Result<SqlWorkload, String> {
    // About 258 block-sharing (author, term) pairs per publication at this
    // dictionary-to-publication ratio.
    let target = 258.0 * publications as f64;
    let (flat, dictionary) = closest_to(seed, target, CANDIDATES, |sub_seed| {
        let data = DblpGen::new(sub_seed)
            .publications(publications)
            .dictionary_size(dictionary)
            .author_noise_fraction(0.10)
            .edit_rate(0.2)
            .generate();
        // §8.1 validates author names of the flat representation.
        let flat = flatten::flatten(&data.table);
        let size = flat.as_ref().map_or(f64::INFINITY, |flat| {
            let terms: Vec<&str> = author_terms(flat).unwrap_or_default();
            naive::qgram_candidates(&terms, &data.dictionary, 3) as f64
        });
        ((flat, data.dictionary), size)
    });
    let flat = flat.map_err(|e| e.to_string())?;
    let terms = author_terms(&flat).ok_or("flattened DBLP has no text `authors` column")?;
    let authors = flat.schema.index_of("authors").map_err(|e| e.to_string())?;
    let (expect, ld) = naive::termval(&terms, &dictionary, 3, 0.8);
    Ok(SqlWorkload {
        dictionary: Some(("dict", dictionary)),
        ld,
        blocking: Some(Blocking::Tokens {
            column: authors,
            q: 3,
        }),
        ..SqlWorkload::over(seed, vec![("dblp", flat)], vec![(TERMVAL, vec![expect])])
    })
}

const SMALL_TOKEN_DEDUP: &str =
    "SELECT * FROM customer c DEDUP(token_filtering(2), LD, 0.7, c.name)";
const SMALL_WHERE_FD: &str =
    "SELECT * FROM customer c WHERE c.acctbal > 0 FD(c.address | c.nationkey)";
const SMALL_GROUP: &str =
    "SELECT c.nationkey, count(*) AS n FROM customer c GROUP BY c.nationkey HAVING count(*) > 1";
const SMALL_DC: &str =
    "SELECT * FROM customer c DC(t1.nationkey = t2.nationkey AND t1.acctbal > t2.acctbal + 50)";
const SMALL_DISTINCT: &str = "SELECT DISTINCT c.nationkey FROM customer c";

/// Rows in the `smallq.mix` table: small enough that execution is
/// negligible beside the fixed per-query cost.
const SMALL_ROWS: usize = 20;

/// Pairs the six queries enumerate on a customer table: same-address and
/// same-nation pairs, and name pairs once per shared 2-gram.
fn small_pairs(table: &Table) -> f64 {
    let names: Vec<&str> = table.rows.iter().map(|r| text(r, 1)).collect();
    let mut nations: HashMap<i64, u64> = HashMap::new();
    for r in &table.rows {
        *nations.entry(int(r, 3)).or_default() += 1;
    }
    let same_nation: u64 = nations.values().map(|n| n * n).sum();
    naive::qgram_candidates(&names, &names, 2) as f64 + same_nation as f64 + address_pairs(table)
}

fn smallq_mix(seed: u64) -> SqlWorkload {
    // On twenty rows one more duplicate is 10 % more pairs, so choose among
    // candidates here too.
    smallq_mix_from(
        closest_to(seed, 880.0, CANDIDATES, |sub_seed| {
            let table = small_table(sub_seed);
            let pairs = small_pairs(&table);
            (table, pairs)
        }),
        seed,
    )
}

/// The generator shuffles, so the first twenty rows are a seeded sample that
/// still holds duplicates and FD violations.
fn small_table(seed: u64) -> Table {
    let mut table = CustomerGen::new(seed)
        .rows(SMALL_ROWS)
        .duplicate_fraction(0.1)
        .max_duplicates(3)
        .fd_noise_fraction(0.1)
        .generate()
        .table;
    table.rows.truncate(SMALL_ROWS);
    table
}

fn smallq_mix_from(table: Table, seed: u64) -> SqlWorkload {
    let rows = &table.rows;
    let (unified, _) = unified_expects(rows);
    let mut nations: HashMap<i64, i64> = HashMap::new();
    for r in rows {
        *nations.entry(int(r, 3)).or_default() += 1;
    }
    let grouped: Vec<[Value; 2]> = nations
        .iter()
        .filter(|(_, n)| **n > 1)
        .map(|(k, n)| [Value::Int(*k), Value::Int(*n)])
        .collect();
    let distinct: Vec<[Value; 1]> = nations.keys().map(|k| [Value::Int(*k)]).collect();
    let all = 0..rows.len();
    let queries = vec![
        (UNIFIED, unified),
        (
            SMALL_TOKEN_DEDUP,
            vec![naive::dedup_tokens(rows, |r| text(r, 1), 2, 0.7)],
        ),
        (
            SMALL_WHERE_FD,
            vec![naive::fd(
                rows,
                |r| float(r, 5) > 0.0,
                |r| text(r, 2),
                |r| int(r, 3),
            )],
        ),
        (
            SMALL_GROUP,
            vec![naive::rows_expect(grouped.iter().map(|r| r.iter()))],
        ),
        (
            SMALL_DC,
            vec![Expect::Pairs(naive::pairs_where(
                all.clone(),
                all,
                |a, b| {
                    int(&rows[a], 3) == int(&rows[b], 3)
                        && float(&rows[a], 5) > float(&rows[b], 5) + 50.0
                },
            ))],
        ),
        (
            SMALL_DISTINCT,
            vec![naive::rows_expect(distinct.iter().map(|r| r.iter()))],
        ),
    ];
    SqlWorkload {
        warmup: 50,
        ..SqlWorkload::over(seed, vec![("customer", table)], queries)
    }
}

// ---------------------------------------------------------------------
// dc.lineitem: rule ψ through the operator API.
// ---------------------------------------------------------------------

struct DcWorkload {
    seed: u64,
    table: Table,
    rule: InequalityDc,
    expect: naive::Answer,
    /// The pair digest is compared once (it needs `run_detailed`, whose cell
    /// descriptions are not part of the rule's cost); the count every time.
    pairs_checked: bool,
}

/// Rule ψ's price cap X (the 0.01 % quantile of extendedprice, the paper's
/// selectivity) and the violating pairs under it. lineitem columns:
/// 5 extendedprice, 6 discount.
fn psi_reference(table: &Table) -> (f64, naive::Answer) {
    let mut prices: Vec<f64> = table.rows.iter().map(|r| float(r, 5)).collect();
    prices.sort_by(f64::total_cmp);
    let cap = prices[(prices.len() / 10_000).max(8).min(prices.len() - 1)];
    let cheap: Vec<usize> = (0..table.len())
        .filter(|&i| float(&table.rows[i], 5) < cap)
        .collect();
    let violations = naive::pairs_where(cheap.into_iter(), 0..table.len(), |a, b| {
        let (t1, t2) = (&table.rows[a], &table.rows[b]);
        float(t1, 5) < float(t2, 5) && float(t1, 6) > float(t2, 6)
    });
    (cap, violations)
}

fn dc_lineitem(seed: u64, rows: usize) -> DcWorkload {
    // Only the handful of rows under X can violate, and only those the noise
    // hit, so the violation count jumps between 0 and a third of the table
    // from seed to seed: more candidates than elsewhere.
    let target = rows as f64 / 5.0;
    let (table, cap, expect) = closest_to(seed, target, 2 * CANDIDATES, |sub_seed| {
        let table = lineitem(sub_seed, rows, NoiseColumn::Discount);
        let (cap, expect) = psi_reference(&table);
        ((table, cap, expect), expect.count as f64)
    });
    DcWorkload {
        seed,
        rule: InequalityDc::rule_psi("lineitem", cap),
        table,
        expect,
        pairs_checked: false,
    }
}

impl Workload for DcWorkload {
    fn input_rows(&self) -> usize {
        self.table.len()
    }

    fn iterate(&mut self, cx: &mut Ctx, samples: &mut Vec<f64>, tally: &mut Tally) {
        let mut db = cx.fresh_db(self.seed);
        let (took, result) = cx.spans.scope("iteration", |spans| {
            spans.scope("register", |_| db.register("lineitem", self.table.clone()));
            let start = Instant::now();
            let result = spans.scope("run", |_| self.rule.run(&mut db));
            (start.elapsed(), result)
        });
        let mut ok = matches!(
            &result,
            Ok(DcOutcome::Completed { violations, .. }) if *violations as u64 == self.expect.count
        );
        if !self.pairs_checked {
            self.pairs_checked = true;
            ok &= self.rule.run_detailed(&mut db).is_ok_and(|(_, pairs)| {
                naive::pairs_answer(pairs.iter().map(|p| (p.t1, p.t2))) == self.expect
            });
        }
        samples.push(ms(took));
        tally.record(ok);

        if cx.traced() {
            let shuffled = db.context().metrics().snapshot().records_shuffled;
            if let Ok(DcOutcome::Completed { comparisons, .. }) = &result {
                cx.layers
                    .absorb_counts(shuffled, *comparisons, took.as_nanos() as u64);
            }
            cx.spans.scope("warm_run", |_| {
                let _ = std::hint::black_box(self.rule.run(&mut db));
            });
            cx.layers.end_iteration(0);
        }
    }
}

// ---------------------------------------------------------------------
// incr.customer: a standing query maintained under appends.
// ---------------------------------------------------------------------

const STANDING: &str = "SELECT * FROM customer c \
     FD(c.address | c.nationkey) \
     DEDUP(exact, LD, 0.8, c.address, c.name)";

/// Batches held back from the table and appended one by one.
const INCR_BATCHES: usize = 60;

struct IncrWorkload {
    seed: u64,
    initial: Table,
    batches: Vec<Table>,
    /// The answers after install and after each append.
    expects: Vec<[Expect; 2]>,
    total_rows: usize,
}

fn incr_customer(seed: u64, base_rows: usize) -> IncrWorkload {
    // The generator shuffles with its seed, so every prefix is a sample.
    let table = customer(seed, base_rows);
    let batch = (table.len() / 200).max(1); // 0.5 % of the table
    let initial = table.len() - INCR_BATCHES * batch;
    let expects = naive::incremental_fd_dedup(
        &table.rows,
        |r| text(r, 2),
        |r| int(r, 3),
        |r| text(r, 1),
        0.8,
        initial,
        batch,
    );
    assert_eq!(expects.len(), INCR_BATCHES + 1, "one answer per state");
    let slice = |rows: &[Row]| Table::new(table.schema.clone(), rows.to_vec());
    IncrWorkload {
        seed,
        initial: slice(&table.rows[..initial]),
        batches: table.rows[initial..].chunks(batch).map(slice).collect(),
        expects,
        total_rows: table.len(),
    }
}

impl Workload for IncrWorkload {
    fn input_rows(&self) -> usize {
        self.total_rows
    }

    /// One warm-up cycle.
    fn warmup(&self) -> usize {
        1
    }

    /// One cycle: rebuild the session (untimed), then sixty timed
    /// operations, each the append of one batch plus a refresh.
    fn iterate(&mut self, cx: &mut Ctx, samples: &mut Vec<f64>, tally: &mut Tally) {
        if cx.traced() {
            frontend_spans(&mut cx.spans, &[STANDING], self.seed);
        }
        let mut db = cx.fresh_db(self.seed);
        db.register("customer", self.initial.clone());
        let mut session = IncrementalSession::new(db);
        let installed = cx.spans.scope("install", |_| session.install(STANDING));
        let Ok((id, baseline)) = installed else {
            tally.record(false);
            return;
        };
        if !report_ok(&Ok(baseline), &self.expects[0]) {
            tally.record(false);
            return;
        }
        let mut fallbacks = 0u64;
        for (batch, expects) in self.batches.iter().zip(&self.expects[1..]) {
            let start = Instant::now();
            let result = cx.spans.scope("iteration", |spans| {
                spans
                    .scope("append", |_| session.append("customer", batch.clone()))
                    .and_then(|()| spans.scope("refresh", |_| session.refresh(id)))
            });
            samples.push(ms(start.elapsed()));
            if let Ok(report) = &result {
                fallbacks += report
                    .incremental
                    .as_ref()
                    .map_or(0, |i| i.fallback_ops as u64);
            }
            tally.record(report_ok(&result, expects));
        }
        if cx.traced() {
            cx.layers.count("incr.fallbacks", fallbacks);
        }
    }
}

// ---------------------------------------------------------------------

/// Build a workload from the seed: generate its inputs, write its files
/// under `dir`, compute its reference answers. `scale` shrinks the inputs
/// (1.0 is the benchmark's size; the smoke tests use 0.1).
pub fn setup(name: &str, seed: u64, scale: f64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    let scaled = |n: usize| ((n as f64 * scale) as usize).max(1);
    Ok(match name {
        "fd.lineitem" => Box::new(fd_lineitem(seed, scaled(30_000))),
        "dc.lineitem" => Box::new(dc_lineitem(seed, scaled(30_000))),
        "unified.customer" => Box::new(unified_customer(seed, scaled(4_000))),
        "termval.dblp" => Box::new(termval_dblp(seed, scaled(300), scaled(150))?),
        "relational.lineitem" => Box::new(relational_lineitem(seed, scaled(30_000))),
        "ingest.lineitem_csv" => Box::new(ingest_lineitem_csv(seed, scaled(30_000), dir)?),
        "smallq.mix" => Box::new(smallq_mix(seed)),
        "incr.customer" => Box::new(incr_customer(seed, scaled(8_000))),
        other => return Err(format!("unknown workload `{other}`")),
    })
}
