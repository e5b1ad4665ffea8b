//! `repro` — regenerate every table and figure of the CleanM paper.
//!
//! ```text
//! repro [table3|fig3|fig4|fig5|table4|fig6|table5|fig7|fig8a|fig8b|ablation|incr|repair|faults|all]
//! ```
//!
//! Set `CLEANM_SCALE=full` for the larger workloads (default: quick).
//! Three experiments are gates as well as tables: `incr` writes
//! `BENCH_incr.json` (incremental re-clean after a 1% append vs full
//! re-run), `repair` writes `BENCH_repair.json` (repair throughput at
//! seeded violation rates and the re-validation speedup through the
//! incremental path), and `faults` writes `BENCH_faults.json`
//! (cancellation latency distribution, retried-panic overhead, and the
//! clean-path cost of armed resource limits). Each judges its gates after
//! its artifact is on disk; every requested experiment runs, the failures
//! are listed at the end, and any failure exits 1.

use cleanm_bench::experiments as exp;
use cleanm_bench::harness::gate;
use cleanm_bench::{fmt_duration as ms, Scale};
use cleanm_core::ops::DcOutcome;
use cleanm_trace::json;

type Figure = fn(Scale);
type Gate = fn(Scale) -> Vec<String>;

/// The paper's tables and figures: print-only. `table3` and `fig3` are one
/// experiment under two names.
const FIGURES: &[(&[&str], Figure)] = &[
    (&["table3", "fig3"], table3_fig3),
    (&["fig4"], fig4),
    (&["fig5"], fig5),
    (&["table4"], table4),
    (&["fig6"], fig6),
    (&["table5"], table5),
    (&["fig7"], fig7),
    (&["fig8a"], fig8a),
    (&["fig8b"], fig8b),
    (&["ablation"], ablation),
];

/// The subsystem gates: each returns the acceptance gates it failed.
const GATES: &[(&str, Gate)] = &[
    ("incr", incr_bench),
    ("repair", repair_bench),
    ("faults", faults_bench),
];

fn main() {
    let scale = Scale::from_env();
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let known: Vec<&str> = FIGURES
        .iter()
        .flat_map(|(names, _)| names.iter().copied())
        .chain(GATES.iter().map(|(name, _)| *name))
        .chain(["all"])
        .collect();
    if !known.contains(&arg.as_str()) {
        eprintln!("unknown experiment `{arg}`; one of {}", known.join("|"));
        std::process::exit(2);
    }
    println!("# CleanM reproduction — scale {scale:?} (CLEANM_SCALE=full for larger runs)\n");
    let want = |name: &str| arg == name || arg == "all";

    for (names, figure) in FIGURES {
        if names.iter().any(|name| want(name)) {
            figure(scale);
        }
    }
    let mut failures = Vec::new();
    for (name, gate) in GATES {
        if want(name) {
            failures.extend(gate(scale));
        }
    }
    if !failures.is_empty() {
        eprintln!("{} acceptance gate(s) failed:", failures.len());
        for failure in &failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
}

/// One row of an experiment as ordered `(column, rendered value)` cells.
/// The gates render values as JSON, so the printed table and the artifact
/// come from the same cells.
type Cells = Vec<(&'static str, String)>;

/// Print `rows` under `title`, every column as wide as its widest cell
/// (JSON strings shown without their quotes).
fn print_table(title: &str, rows: &[Cells]) {
    println!("## {title}");
    let Some(first) = rows.first() else { return };
    let header: Vec<&str> = first.iter().map(|(name, _)| *name).collect();
    let body = rows
        .iter()
        .map(|row| row.iter().map(|(_, v)| v.trim_matches('"')).collect());
    let table: Vec<Vec<&str>> = std::iter::once(header).chain(body).collect();
    let width = |col: usize| table.iter().map(|line| line[col].chars().count()).max();
    let widths: Vec<usize> = (0..first.len()).filter_map(width).collect();
    for line in &table {
        let cells = line.iter().zip(&widths);
        let padded: Vec<String> = cells.map(|(cell, &w)| format!("{cell:>w$}")).collect();
        println!("{}", padded.join("  "));
    }
    println!();
}

/// Write `rows` to `path` as a JSON array of flat objects, one per line.
fn write_json(path: &str, rows: &[Cells]) {
    let objects = rows.iter().map(|row| json::object(row.iter().cloned()));
    match std::fs::write(path, json::lines(objects)) {
        Ok(()) => println!("wrote {path}\n"),
        Err(e) => eprintln!("could not write {path}: {e}\n"),
    }
}

fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

fn faults_bench(scale: Scale) -> Vec<String> {
    let rows = exp::fault_tolerance(scale);
    let cells: Vec<Cells> = rows
        .iter()
        .map(|r| {
            vec![
                ("workload", json::string(&r.workload)),
                ("rows", r.rows.to_string()),
                ("clean_ms", format!("{:.3}", r.clean_ms)),
                ("armed_ms", format!("{:.3}", r.armed_ms)),
                ("armed_overhead", format!("{:.4}", r.armed_overhead())),
                ("retry_ms", format!("{:.3}", r.retry_ms)),
                ("retry_overhead", format!("{:.4}", r.retry_overhead())),
                ("cancel_p50_ms", format!("{:.3}", r.cancel_latency_ms(0.50))),
                ("cancel_p99_ms", format!("{:.3}", r.cancel_latency_ms(0.99))),
            ]
        })
        .collect();
    print_table(
        "Faults — cancellation latency, retry overhead, armed-limit overhead",
        &cells,
    );
    write_json("BENCH_faults.json", &cells);

    // Acceptance gates: armed limits cost ≤2% on the clean path, a retried
    // partition panic ≤5% (the failed attempt dies at partition start,
    // before any real work), and a mid-run cancel returns well under a
    // second even at p99. Sub-millisecond baselines get an absolute floor
    // so scheduler jitter cannot fail the ratio.
    let mut failures = Vec::new();
    for r in &rows {
        let floor_ms = 2.0;
        gate(
            &mut failures,
            r.armed_ms <= r.clean_ms * 1.02 + floor_ms,
            format!(
                "faults {}: armed limits cost {:.2}% (clean {:.2}ms, armed {:.2}ms)",
                r.workload,
                r.armed_overhead() * 100.0,
                r.clean_ms,
                r.armed_ms
            ),
        );
        gate(
            &mut failures,
            r.retry_ms <= r.clean_ms * 1.05 + floor_ms,
            format!(
                "faults {}: retried panic cost {:.2}% (clean {:.2}ms, retry {:.2}ms)",
                r.workload,
                r.retry_overhead() * 100.0,
                r.clean_ms,
                r.retry_ms
            ),
        );
        gate(
            &mut failures,
            r.cancel_latency_ms(0.99) < 1000.0,
            format!(
                "faults {}: cancellation p99 {:.2}ms",
                r.workload,
                r.cancel_latency_ms(0.99)
            ),
        );
    }
    failures
}

fn incr_bench(scale: Scale) -> Vec<String> {
    let rows = exp::incr_append(scale);
    let cells: Vec<Cells> = rows
        .iter()
        .map(|r| {
            vec![
                ("workload", json::string(&r.workload)),
                ("rows", r.rows.to_string()),
                ("delta_rows", r.delta_rows.to_string()),
                ("full_ms", format!("{:.3}", r.full_ms)),
                ("incremental_ms", format!("{:.3}", r.incremental_ms)),
                ("speedup", format!("{:.3}", r.speedup())),
                ("identical", r.identical.to_string()),
                ("plan_cache_hit", r.plan_cache_hit.to_string()),
            ]
        })
        .collect();
    print_table(
        "Incr — re-clean after a 1% append: standing query vs full re-run",
        &cells,
    );
    write_json("BENCH_incr.json", &cells);

    // Acceptance gates: each row's correctness gates, and ≥5x on the FD
    // workload.
    let mut failures: Vec<String> = rows.iter().flat_map(|r| r.unmet()).collect();
    let fd = rows.iter().find(|r| r.workload == "fd").expect("fd row");
    gate(
        &mut failures,
        fd.speedup() >= 5.0,
        format!(
            "incr fd: incremental re-clean must be ≥5x a full re-run, got {:.2}x",
            fd.speedup()
        ),
    );
    failures
}

fn repair_bench(scale: Scale) -> Vec<String> {
    let rows = exp::repair_rates(scale);
    let cells: Vec<Cells> = rows
        .iter()
        .map(|r| {
            vec![
                ("rate", format!("{:.2}", r.rate)),
                ("rows", r.rows.to_string()),
                ("violations", r.violations.to_string()),
                ("fixes", r.fixes.to_string()),
                ("rows_dropped", r.rows_dropped.to_string()),
                ("unrepaired", r.unrepaired.to_string()),
                ("detect_ms", format!("{:.3}", r.detect_ms)),
                ("plan_ms", format!("{:.3}", r.plan_ms)),
                ("apply_ms", format!("{:.3}", r.apply_ms)),
                ("actions_per_sec", format!("{:.1}", r.actions_per_sec())),
                ("violations_after", r.violations_after.to_string()),
                ("revalidate_full_ms", format!("{:.3}", r.revalidate_full_ms)),
                ("revalidate_incr_ms", format!("{:.3}", r.revalidate_incr_ms)),
                (
                    "revalidation_speedup",
                    format!("{:.3}", r.revalidation_speedup()),
                ),
            ]
        })
        .collect();
    print_table(
        "Repair — plan+apply throughput and re-validation at seeded violation rates",
        &cells,
    );
    write_json("BENCH_repair.json", &cells);

    // Acceptance gates: each row's correctness gates, and the incremental
    // path beats a full re-validation.
    let mut failures: Vec<String> = rows.iter().flat_map(|r| r.unmet()).collect();
    let best = rows
        .iter()
        .map(|r| r.revalidation_speedup())
        .fold(0.0f64, f64::max);
    gate(
        &mut failures,
        best >= 2.0,
        format!(
            "repair: incremental re-validation must be ≥2x a full re-run somewhere, got {best:.2}x"
        ),
    );
    failures
}

fn ablation(scale: Scale) {
    let rows: Vec<Cells> = exp::ablation_blocking(scale)
        .into_iter()
        .map(|row| {
            let time = if row.total.is_zero() {
                "-".to_string()
            } else {
                ms(row.total)
            };
            vec![
                ("strategy", row.strategy),
                ("comparisons", row.comparisons.to_string()),
                ("recall", pct(row.recall)),
                ("time", time),
            ]
        })
        .collect();
    print_table(
        "Ablation — blocking strategies (comparisons vs recall)",
        &rows,
    );
}

fn table3_fig3(scale: Scale) {
    let rows: Vec<Cells> = exp::table3_fig3(scale)
        .into_iter()
        .map(|row| {
            vec![
                ("config", row.config),
                ("grouping", ms(row.phases.grouping)),
                ("similarity", ms(row.phases.similarity)),
                ("total", ms(row.total)),
                ("precision", pct(row.accuracy.precision)),
                ("recall", pct(row.accuracy.recall)),
                ("F-score", pct(row.accuracy.f_score)),
                ("comparisons", row.comparisons.to_string()),
            ]
        })
        .collect();
    print_table(
        "Table 3 — term validation accuracy (DBLP) + Figure 3 — runtime split",
        &rows,
    );
}

fn fig4(scale: Scale) {
    let rows: Vec<Cells> = exp::fig4(scale)
        .into_iter()
        .flat_map(|(noise, rows)| {
            rows.into_iter().map(move |row| {
                vec![
                    ("noise", format!("{:.0}%", noise * 100.0)),
                    ("config", row.config),
                    ("precision", pct(row.accuracy.precision)),
                    ("recall", pct(row.accuracy.recall)),
                    ("F-score", pct(row.accuracy.f_score)),
                ]
            })
        })
        .collect();
    print_table("Figure 4 — term validation accuracy vs noise", &rows);
}

fn fig5(scale: Scale) {
    let rows: Vec<Cells> = exp::fig5(scale)
        .into_iter()
        .map(|row| {
            vec![
                ("system", row.system),
                (
                    "FD1",
                    row.fd1.map(ms).unwrap_or_else(|| "unsupported".into()),
                ),
                ("FD2", ms(row.fd2)),
                ("DEDUP", ms(row.dedup)),
                ("sep.total", ms(row.separate_total)),
                (
                    "combined",
                    row.combined.map(ms).unwrap_or_else(|| "one-op-only".into()),
                ),
                ("shared", row.shared_nests.to_string()),
            ]
        })
        .collect();
    print_table(
        "Figure 5 — unified cleaning on customer (FD1, FD2, DEDUP)",
        &rows,
    );
}

fn table4(scale: Scale) {
    let rows: Vec<Cells> = exp::table4(scale)
        .into_iter()
        .map(|row| {
            vec![
                ("operation", row.operation),
                ("time", ms(row.duration)),
                ("slowdown", format!("{:.2}x", row.slowdown)),
            ]
        })
        .collect();
    print_table(
        "Table 4 — syntactic transformation overhead (vs plain traversal)",
        &rows,
    );
}

fn fig6(scale: Scale) {
    let rows: Vec<Cells> = exp::fig6(scale)
        .into_iter()
        .map(|row| {
            vec![
                ("SF", row.sf.to_string()),
                ("format", row.format),
                ("system", row.system),
                ("read", ms(row.read)),
                ("clean", ms(row.clean)),
                ("violations", row.violations.to_string()),
                ("shuffled", row.records_shuffled.to_string()),
            ]
        })
        .collect();
    print_table(
        "Figure 6 — FD φ (orderkey,linenumber → suppkey) over TPC-H",
        &rows,
    );
}

fn table5(scale: Scale) {
    let rows: Vec<Cells> = exp::table5(scale)
        .into_iter()
        .map(|row| {
            let (outcome, time, comparisons) = match row.outcome {
                DcOutcome::Completed {
                    violations,
                    duration,
                    comparisons,
                } => (
                    format!("{violations} violations"),
                    ms(duration),
                    comparisons.to_string(),
                ),
                DcOutcome::BudgetExceeded { needed, .. } => (
                    ">budget".to_string(),
                    "-".to_string(),
                    format!("needs {needed}"),
                ),
            };
            vec![
                ("SF", row.sf.to_string()),
                ("system", row.system),
                ("outcome", outcome),
                ("time", time),
                ("comparisons", comparisons),
            ]
        })
        .collect();
    print_table(
        "Table 5 — inequality DC ψ (budgeted; `>budget` = paper's `fails to terminate`)",
        &rows,
    );
}

fn fig7(scale: Scale) {
    let rows: Vec<Cells> = exp::fig7(scale)
        .into_iter()
        .map(|row| {
            vec![
                ("scale", row.scale_label),
                ("format", row.format),
                ("system", row.system),
                ("read", ms(row.read)),
                ("clean", ms(row.clean)),
                ("rows", row.input_rows.to_string()),
                ("pairs", row.pairs.to_string()),
            ]
        })
        .collect();
    print_table(
        "Figure 7 — dedup over DBLP representations (nested vs flat)",
        &rows,
    );
}

fn fig8a(scale: Scale) {
    let rows: Vec<Cells> = exp::fig8a(scale)
        .into_iter()
        .map(|row| {
            vec![
                ("interval", row.interval),
                ("system", row.system),
                ("time", ms(row.duration)),
                ("pairs", row.pairs.to_string()),
                ("precision", pct(row.accuracy.precision)),
                ("recall", pct(row.accuracy.recall)),
                ("shuffled", row.records_shuffled.to_string()),
            ]
        })
        .collect();
    print_table(
        "Figure 8a — customer dedup with Zipf duplicate counts",
        &rows,
    );
}

fn fig8b(scale: Scale) {
    let rows: Vec<Cells> = exp::fig8b(scale)
        .into_iter()
        .map(|row| {
            vec![
                ("dataset", row.dataset),
                ("system", row.system),
                ("time", ms(row.duration)),
                ("pairs", row.pairs.to_string()),
                ("shuffled", row.records_shuffled.to_string()),
                ("imbalance", format!("{:.2}x", row.max_imbalance)),
            ]
        })
        .collect();
    print_table("Figure 8b — MAG dedup under heavy skew", &rows);
}
