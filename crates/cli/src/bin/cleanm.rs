//! The `cleanm` command-line tool.
//!
//! ```text
//! cleanm check <file.cm> [--format]
//! cleanm explain <file.cm|query> [--profile <p>] [--table name=file.csv]...
//!                [--seed <n>] [--timeout <secs>] [--max-work <units>]
//! cleanm run <file.cm|query> [--profile <p>] [--table name=file.csv]...
//!            [--seed <n>] [--timeout <secs>] [--max-work <units>]
//! cleanm bench [experiment]
//! ```
//!
//! `check` parses and desugars every `;`-separated statement and prints all
//! span-carrying diagnostics (exit 1 when any). `explain` executes with
//! tracing and prints the physical plan, strategy decisions, compilation
//! counters, and the EXPLAIN ANALYZE tree. `run` executes and prints the
//! cleaning report. `bench` delegates to the `repro` harness binary.
//!
//! Exit codes: 0 success, 1 diagnostics or execution failure, 2 usage
//! error, 3 resource limit hit (`--timeout` deadline, `--max-work` budget,
//! or external cancellation) — the paper's "unable to terminate" outcome,
//! distinguishable by wrappers from a real failure.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cleanm_cli::schema::read_csv_file;
use cleanm_cli::{parse_profile, session, DEFAULT_SEED};
use cleanm_core::lang::diag::render_all;
use cleanm_core::{analyze, pretty_query, CleanDb, EngineProfile, RunLimits};

const USAGE: &str = "usage: cleanm <command> [args]

commands:
  check <file.cm> [--format]
      Parse + desugar every statement; print all diagnostics with caret
      underlines to stderr. With --format, print the canonical
      pretty-printed statements to stdout. Exit 1 on any diagnostic.
  explain <file.cm|query> [--profile <p>] [--table name=file.csv]... [--seed <n>]
          [--timeout <secs>] [--max-work <units>]
      Execute with tracing and print the physical plan, strategy decisions,
      compilation counters, and the EXPLAIN ANALYZE profile.
  run <file.cm|query> [--profile <p>] [--table name=file.csv]... [--seed <n>]
      [--timeout <secs>] [--max-work <units>]
      Execute and print the cleaning report.
  bench [table3|fig3|fig4|fig5|table4|fig6|table5|fig7|fig8a|fig8b|ablation|incr|repair|faults|all]
      Delegate to the `repro` harness binary (default: all): the paper's
      tables and figures, then the incr / repair / faults gates, which each
      write BENCH_<name>.json and make the exit code 1 if a gate fails.

profiles: clean_db (default), spark, bigdansing

exit codes: 0 success; 1 diagnostics or execution failure; 2 usage error;
3 resource limit (--timeout deadline, --max-work budget, or cancellation)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "check" => check(&args[1..]),
        "explain" => execute(&args[1..], true),
        "run" => execute(&args[1..], false),
        "bench" => bench(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// `<file.cm|query>` plus the shared `--profile/--table/--seed` options.
struct ExecArgs {
    source: String,
    origin: String,
    profile: EngineProfile,
    tables: Vec<(String, PathBuf)>,
    seed: u64,
    format: bool,
    limits: RunLimits,
}

fn parse_exec_args(args: &[String]) -> Result<ExecArgs, String> {
    let mut input: Option<String> = None;
    let mut profile = EngineProfile::clean_db();
    let mut tables = Vec::new();
    let mut seed = DEFAULT_SEED;
    let mut format = false;
    let mut limits = RunLimits::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--timeout" => {
                let v = it.next().ok_or("--timeout needs seconds")?;
                let secs: f64 = v
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad timeout `{v}` (want positive seconds)"))?;
                limits.timeout = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--max-work" => {
                let v = it.next().ok_or("--max-work needs a unit count")?;
                let units: u64 = v
                    .parse()
                    .map_err(|_| format!("bad work limit `{v}` (want a unit count)"))?;
                limits.max_work = Some(units);
            }
            "--profile" => {
                let name = it.next().ok_or("--profile needs a name")?;
                profile = parse_profile(name).ok_or_else(|| {
                    format!("unknown profile `{name}` (accepted: clean_db, spark, bigdansing)")
                })?;
            }
            "--table" => {
                let spec = it.next().ok_or("--table needs name=file.csv")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--table `{spec}`: expected name=file.csv"))?;
                tables.push((name.to_string(), PathBuf::from(path)));
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--format" => format = true,
            other if input.is_none() && !other.starts_with("--") => {
                input = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let input = input.ok_or("missing <file.cm|query> argument")?;
    // A .cm path (or any existing file) is read; anything else is inline
    // query text.
    let (source, origin) = if Path::new(&input).is_file() {
        let text = std::fs::read_to_string(&input).map_err(|e| format!("{input}: {e}"))?;
        (text, input)
    } else if input.ends_with(".cm") {
        return Err(format!("{input}: file not found"));
    } else {
        (input, "<query>".to_string())
    };
    Ok(ExecArgs {
        source,
        origin,
        profile,
        tables,
        seed,
        format,
        limits,
    })
}

fn check(args: &[String]) -> ExitCode {
    let parsed = match parse_exec_args(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let analysis = analyze(&parsed.source, parsed.seed);
    if parsed.format {
        for stmt in &analysis.statements {
            if let Some(q) = &stmt.query {
                println!("{};", pretty_query(q));
            }
        }
    }
    if analysis.is_clean() {
        if !parsed.format {
            println!(
                "ok: {} statement(s), no diagnostics",
                analysis.statements.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprint!(
            "{}",
            render_all(&analysis.diagnostics, &parsed.source, &parsed.origin)
        );
        ExitCode::FAILURE
    }
}

fn load_tables(db: &mut CleanDb, tables: &[(String, PathBuf)]) -> Result<(), String> {
    for (name, path) in tables {
        db.register(name, read_csv_file(path)?);
    }
    Ok(())
}

fn execute(args: &[String], explain: bool) -> ExitCode {
    let parsed = match parse_exec_args(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    // Report frontend errors with spans before touching the engine.
    let analysis = analyze(&parsed.source, parsed.seed);
    if !analysis.is_clean() {
        eprint!(
            "{}",
            render_all(&analysis.diagnostics, &parsed.source, &parsed.origin)
        );
        return ExitCode::FAILURE;
    }
    let mut db = session(parsed.profile);
    db.set_seed(parsed.seed);
    db.set_tracing(explain);
    if let Err(e) = load_tables(&mut db, &parsed.tables) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // Runtime failures come back as a report with `failure` set (partial
    // progress intact) rather than an `Err`; planning errors still `Err`.
    match db.run_with_limits(parsed.source.trim_end(), parsed.limits) {
        Ok(report) => {
            if let Some(fail) = &report.failure {
                // The partial report goes to stdout, the verdict to
                // stderr; resource limits get their own exit code so
                // wrappers can tell "took too long" from "broke".
                print!("{}", report.summary());
                eprintln!("error: {}", fail.error);
                return if fail.resource_limit {
                    ExitCode::from(3)
                } else {
                    ExitCode::FAILURE
                };
            }
            if explain {
                print!("{}", cleanm_cli::render::render_plan(&report));
                let tree = report.profile_tree();
                if !tree.is_empty() {
                    println!("--- EXPLAIN ANALYZE ---");
                    print!("{tree}");
                }
            } else {
                print!("{}", report.summary());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Delegate to the `repro` harness binary living next to this executable
/// (both are workspace bins and land in the same target directory).
fn bench(args: &[String]) -> ExitCode {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("repro")))
        .filter(|p| p.is_file());
    let Some(repro) = sibling else {
        eprintln!(
            "error: `repro` binary not found next to cleanm; build it with \
             `cargo build -p cleanm-bench --bin repro` or run \
             `cargo run -p cleanm-bench --bin repro` directly"
        );
        return ExitCode::FAILURE;
    };
    match std::process::Command::new(&repro).args(args).status() {
        Ok(status) => ExitCode::from(status.code().unwrap_or(1).clamp(0, 255) as u8),
        Err(e) => {
            eprintln!("error: failed to launch {}: {e}", repro.display());
            ExitCode::FAILURE
        }
    }
}
