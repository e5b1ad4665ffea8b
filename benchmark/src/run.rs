//! The run protocol: set-up, warm-up, the timed run and the traced run of
//! one workload, and the result records both produce.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::SpanRec;
use crate::stats::{floor, median, percentile, tail_percentile};
use crate::workloads::{setup, Ctx, Tally, Workload};

/// The gated configuration: one worker, so the number is CPU work and not
/// scheduler luck (two workers are bimodal on the unified query).
const WORKERS: usize = 1;

/// Set-ups per round. The timed run sets up in two rounds, before and after
/// its timed loop, so that a burst of interference cannot cover them all, and
/// `setup_s` is the fastest set-up of both. A set-up of a few hundred
/// microseconds is repeated until `SETUP_BUDGET` has passed.
const SETUP_REPEATS: usize = 3;
const MAX_SETUP_REPEATS: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_millis(250);

/// Slices of the timed loop `query_ms_floor` takes the fastest sample of.
const FLOOR_SLICES: usize = 5;

/// Iterations with the counting allocator on, after the timed or traced
/// loop and apart from it: counting costs a third of the unified query's
/// time, so it must not run while anything is timed.
const MEMORY_ITERATIONS: usize = 3;

/// Workloads that also run on two workers in the traced run (diagnostic).
const PARALLEL_DIAGNOSTIC: [&str; 2] = ["fd.lineitem", "unified.customer"];

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of one workload produced.
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub input_rows: usize,
    pub tally: Tally,
    /// False when an output mismatched or an exact count did not repeat.
    pub correct: bool,
    /// The metrics the driver reads: every end-to-end metric for the timed
    /// run, every per-layer metric for the traced run.
    pub metrics: Vec<Measured>,
    /// Reported beside them, not gated.
    pub extras: Vec<Measured>,
    /// Free-text notes printed under the metrics (tail percentile, top plan
    /// nodes, counts that did not repeat).
    pub notes: Vec<String>,
    pub spans: Vec<SpanRec>,
}

/// Iterate until `budget` has passed, at least twice.
fn iterate_for(
    w: &mut dyn Workload,
    cx: &mut Ctx,
    budget: Duration,
    samples: &mut Vec<f64>,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let mut iterations = 0;
    while iterations < 2 || start.elapsed() < budget {
        cx.spans.next_iteration();
        w.iterate(cx, samples, tally);
        iterations += 1;
    }
}

/// Medians over `MEMORY_ITERATIONS` untraced iterations.
struct Memory {
    /// Peak live heap above the level at the start of the iteration.
    peak_live_mb: f64,
    /// Allocations and allocated volume per timed sample of the iteration.
    count_per_query: f64,
    mb_per_query: f64,
}

fn measure_memory(w: &mut dyn Workload, tally: &mut Tally) -> Memory {
    let mut cx = Ctx::new(WORKERS, false);
    let (mut peaks, mut counts, mut volumes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..MEMORY_ITERATIONS {
        let mut samples = Vec::new();
        alloc::start();
        w.iterate(&mut cx, &mut samples, tally);
        let a = alloc::stop();
        let queries = samples.len().max(1) as f64;
        peaks.push(a.peak_live_bytes as f64 / 1e6);
        counts.push(a.count as f64 / queries);
        volumes.push(a.bytes as f64 / 1e6 / queries);
    }
    Memory {
        peak_live_mb: median(&mut peaks),
        count_per_query: median(&mut counts),
        mb_per_query: median(&mut volumes),
    }
}

fn warm_up(w: &mut dyn Workload, tally: &mut Tally) {
    let mut cx = Ctx::new(WORKERS, false);
    let mut discarded = Vec::new();
    for _ in 0..w.warmup() {
        w.iterate(&mut cx, &mut discarded, tally);
    }
}

/// One round of set-ups: pushes each one's seconds, returns the last workload.
fn set_up_round(
    name: &str,
    seed: u64,
    dir: &Path,
    seconds: &mut Vec<f64>,
) -> Result<Box<dyn Workload>, String> {
    let round = Instant::now();
    let mut repeats = 0;
    loop {
        let start = Instant::now();
        let w = setup(name, seed, 1.0, dir)?;
        seconds.push(start.elapsed().as_secs_f64());
        repeats += 1;
        let enough = repeats >= SETUP_REPEATS && round.elapsed() >= SETUP_BUDGET;
        if enough || repeats == MAX_SETUP_REPEATS {
            return Ok(w);
        }
    }
}

/// The timed run: tracing off, allocator counting off while timing.
pub fn timed(name: &str, seed: u64, seconds: f64, dir: &Path) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut w = set_up_round(name, seed, dir, &mut setups)?;

    let mut tally = Tally::default();
    warm_up(w.as_mut(), &mut tally);

    let mut samples = Vec::new();
    iterate_for(
        w.as_mut(),
        &mut Ctx::new(WORKERS, false),
        Duration::from_secs_f64(seconds),
        &mut samples,
        &mut tally,
    );

    let memory = measure_memory(w.as_mut(), &mut tally);
    set_up_round(name, seed, dir, &mut setups)?;
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);

    let n = samples.len();
    let floor = floor(&samples, FLOOR_SLICES);
    let p50 = median(&mut samples);
    let tail_pct = tail_percentile(n);
    let values = [floor, memory.peak_live_mb, setup_s];
    Ok(RunResult {
        workload: name.to_string(),
        traced: false,
        input_rows: w.input_rows(),
        tally,
        correct: tally.failed == 0,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Measured {
                name: m.name.to_string(),
                value,
                unit: m.unit,
            })
            .collect(),
        extras: vec![
            Measured {
                name: "query_ms_p50".into(),
                value: p50,
                unit: "ms",
            },
            Measured {
                name: "failed_share".into(),
                value: tally.failed as f64 / tally.attempted as f64,
                unit: "ratio",
            },
            Measured {
                name: "query_ms_tail".into(),
                value: percentile(&samples, tail_pct),
                unit: "ms",
            },
            Measured {
                name: "rows_per_s".into(),
                value: w.input_rows() as f64 / (p50 / 1e3),
                unit: "1/s",
            },
        ],
        notes: vec![format!("query_ms_tail is p{tail_pct} of {n} samples")],
        spans: Vec::new(),
    })
}

/// The traced run: an untraced baseline loop, the loop with the engine
/// tracer and the benchmark's spans on, the memory iterations, then (for two
/// workloads) a loop on two workers.
pub fn traced(name: &str, seed: u64, seconds: f64, dir: &Path) -> Result<RunResult, String> {
    let mut w = setup(name, seed, 1.0, dir)?;
    let mut tally = Tally::default();
    warm_up(w.as_mut(), &mut tally);

    let parallel = PARALLEL_DIAGNOSTIC.contains(&name);
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    let (baseline_share, traced_share, parallel_share) = if parallel {
        (0.2, 0.5, 0.3)
    } else {
        (0.25, 0.75, 0.0)
    };

    let mut baseline = Vec::new();
    iterate_for(
        w.as_mut(),
        &mut Ctx::new(WORKERS, false),
        share(baseline_share),
        &mut baseline,
        &mut tally,
    );

    let mut cx = Ctx::new(WORKERS, true);
    let mut traced_samples = Vec::new();
    iterate_for(
        w.as_mut(),
        &mut cx,
        share(traced_share),
        &mut traced_samples,
        &mut tally,
    );
    let Ctx {
        spans, mut layers, ..
    } = cx;
    w.measure_layers(&mut layers);
    let memory = measure_memory(w.as_mut(), &mut tally);
    layers.sample("alloc.count_per_query", memory.count_per_query);
    layers.sample("alloc.mb_per_query", memory.mb_per_query);

    let baseline_p50 = median(&mut baseline);
    layers.sample(
        "trace.overhead_pct",
        100.0 * (median(&mut traced_samples) / baseline_p50 - 1.0),
    );
    layers.sample("trace.samples", traced_samples.len() as f64);
    if parallel {
        let mut two = Vec::new();
        iterate_for(
            w.as_mut(),
            &mut Ctx::new(2, false),
            share(parallel_share),
            &mut two,
            &mut tally,
        );
        layers.sample("exec.parallel_speedup", baseline_p50 / median(&mut two));
        layers.sample(
            "exec.w2_spread",
            percentile(&two, 90.0) / percentile(&two, 10.0),
        );
    }

    let mut notes: Vec<String> = layers
        .top_nodes(5)
        .into_iter()
        .enumerate()
        .map(|(i, (node, self_ms))| {
            format!(
                "physical.node_self_ms.top{} = {self_ms:.3} ms  {node}",
                i + 1
            )
        })
        .collect();
    let unstable = layers.unstable.clone();
    for name in &unstable {
        notes.push(format!("{name} did not repeat between iterations"));
    }
    let values: BTreeMap<String, f64> = layers.finish(spans.records());
    Ok(RunResult {
        workload: name.to_string(),
        traced: true,
        input_rows: w.input_rows(),
        tally,
        correct: tally.failed == 0 && unstable.is_empty(),
        metrics: PER_LAYER
            .iter()
            .map(|(metric, unit, _)| Measured {
                name: metric.to_string(),
                value: values.get(*metric).copied().unwrap_or(0.0),
                unit,
            })
            .collect(),
        extras: Vec::new(),
        notes,
        spans: spans.records().to_vec(),
    })
}

fn measured_json(ms: &[Measured]) -> Json {
    Json::obj(ms.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

impl RunResult {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", measured_json(&self.metrics)),
        ])
        .render()
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        let kind = if self.traced { "traced" } else { "timed" };
        println!(
            "# {} ({kind} run, {} input rows, {} attempted, {} failed)",
            self.workload, self.input_rows, self.tally.attempted, self.tally.failed
        );
        for m in self.metrics.iter().chain(&self.extras) {
            println!(
                "{:<22} {:<32} {:>16.6} {}",
                self.workload, m.name, m.value, m.unit
            );
        }
        for note in &self.notes {
            println!("{:<22} note: {note}", self.workload);
        }
    }

    /// The record kept in the `--out` file.
    pub fn to_json(&self) -> Json {
        let mut all = self.metrics.clone();
        all.extend(self.extras.iter().cloned());
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("input_rows", Json::Num(self.input_rows as f64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", measured_json(&all)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("iter", Json::Num(f64::from(s.iter))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    /// Five untraced and two traced iterations of every workload at a tenth
    /// of its size: every output must equal its reference answer.
    #[test]
    fn every_workload_is_correct_at_a_tenth_of_the_size() {
        let dir = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in WORKLOADS {
            let mut w = setup(name, 7, 0.1, &dir).unwrap();
            let mut tally = Tally::default();
            let mut samples = Vec::new();
            let mut off = Ctx::new(WORKERS, false);
            for _ in 0..5 {
                w.iterate(&mut off, &mut samples, &mut tally);
            }
            let mut cx = Ctx::new(WORKERS, true);
            for _ in 0..2 {
                cx.spans.next_iteration();
                w.iterate(&mut cx, &mut samples, &mut tally);
            }
            assert!(tally.attempted >= 7, "{name}: {tally:?}");
            assert_eq!(tally.failed, 0, "{name}: {tally:?}");
            assert!(samples.iter().all(|ms| *ms > 0.0), "{name}");
            assert!(
                cx.layers.unstable.is_empty(),
                "{name}: {:?}",
                cx.layers.unstable
            );
            let values = cx.layers.finish(cx.spans.records());
            // The spans under an iteration account for it.
            assert!(values["trace.accounted_pct"] > 98.0, "{name}: {values:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `BENCHMARK.json` states the same workloads, metrics, units and bounds
    /// as the tables this binary reports from.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = crate::json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (entry, m) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some("lower"));
        }
        for (entry, m) in doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.1));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(m.2));
        }
    }
}
