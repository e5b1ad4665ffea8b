//! `cleanm-e2e`: the repository's end-to-end benchmark.
//!
//! ```text
//! cleanm-e2e [--workload NAME]… [--seed N] [--seconds S] [--trace 0|1]
//!            [--out FILE] [--scratch DIR]
//! cleanm-e2e compare A.json B.json
//! ```
//!
//! Without `--workload` all eight run, one after the other; without
//! `--trace` each gets a timed run and then a traced run. Every metric is
//! printed by name with its unit, and after each run one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`: the last line of a
//! single-workload, single-mode invocation is what the driver reads.
//! See `README.md` for the protocol and the glossary.

mod alloc;
mod compare;
mod json;
mod layers;
mod metrics;
mod reference;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    /// `None`: a timed run, then a traced run.
    trace: Option<bool>,
    out: Option<PathBuf>,
    scratch: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 10.0,
        trace: None,
        out: None,
        scratch: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !metrics::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workloads.push(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out" => args.out = Some(value()?.into()),
            "--scratch" => args.scratch = value()?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = metrics::WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(args)
}

/// A directory for this process's files, removed again on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(parent: &std::path::Path) -> Result<Self, String> {
        let dir = parent.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Returning `Ok` means "a result was printed"; whether the outputs were
/// correct is the result's `correct` field, which the driver and `compare`
/// read.
fn run(args: &Args) -> Result<(), String> {
    let dir = ScratchDir::create(&args.scratch)?;
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut records = Vec::new();
    for name in &args.workloads {
        for &traced in modes {
            let result = if traced {
                run::traced(name, args.seed, args.seconds, &dir.0)?
            } else {
                run::timed(name, args.seed, args.seconds, &dir.0)?
            };
            result.print();
            println!("{}", result.driver_line());
            records.push(result.to_json());
        }
    }
    if let Some(out) = &args.out {
        let file = Json::obj([
            ("schema", Json::Num(1.0)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            (
                "available_parallelism",
                Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("runs", Json::Arr(records)),
        ]);
        std::fs::write(out, file.render() + "\n").map_err(|e| format!("writing {out:?}: {e}"))?;
    }
    Ok(())
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let findings = compare::compare(&read(a)?, &read(b)?)?;
    for f in &findings {
        println!("{}", f.render());
    }
    let failed = findings.iter().filter(|f| f.violation.is_some()).count();
    println!("{} comparisons, {failed} out of bounds", findings.len());
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare_files(a, b),
            _ => Err("usage: cleanm-e2e compare A.json B.json".into()),
        },
        _ => parse_args(argv.into_iter()).and_then(|args| run(&args).map(|()| true)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A comparison beyond its bound.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cleanm-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
