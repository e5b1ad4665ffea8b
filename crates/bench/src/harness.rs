//! Shared harness utilities: scales, session construction, formatting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cleanm_core::physical::EngineProfile;
use cleanm_core::CleanDb;
use cleanm_exec::ExecContext;

/// How big to run the experiments. `Quick` keeps `cargo test` and CI
/// snappy; `Full` approximates the paper's relative scale span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    pub fn from_env() -> Self {
        match std::env::var("CLEANM_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// `quick` or `full`, whichever this scale is.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// TPC-H lineitem row counts standing in for SF 15..70 (paper: 90M–420M
    /// rows; here ÷3000 under `Full`, ÷15000 under `Quick`).
    pub fn lineitem_scales(&self) -> Vec<(u32, usize)> {
        let divisor = self.pick(15_000, 3_000);
        [
            (15u32, 90_000_000usize),
            (30, 180_000_000),
            (45, 270_000_000),
            (60, 360_000_000),
            (70, 420_000_000),
        ]
        .into_iter()
        .map(|(sf, rows)| (sf, rows / divisor))
        .collect()
    }

    /// DBLP publication counts for the term-validation experiments.
    pub fn dblp_publications(&self) -> usize {
        self.pick(1_500, 8_000)
    }

    /// Dictionary size for term validation.
    pub fn dictionary_size(&self) -> usize {
        self.pick(800, 4_000)
    }

    /// Customer row count for Figure 5 / Figure 8a.
    pub fn customer_rows(&self) -> usize {
        self.pick(4_000, 20_000)
    }

    /// MAG paper count (full set; the 2014 subset is generated separately).
    pub fn mag_papers(&self) -> usize {
        self.pick(6_000, 30_000)
    }

    /// Work budget standing in for "the job ran out of time/memory on the
    /// cluster" (Table 5's non-terminating entries).
    pub fn dc_budget(&self) -> u64 {
        self.pick(20_000_000, 400_000_000)
    }
}

/// Build a session with a local context for a profile.
pub fn session(profile: EngineProfile) -> CleanDb {
    CleanDb::with_context(profile, local_context())
}

/// Build a session with a bounded work budget.
pub fn budgeted_session(profile: EngineProfile, budget: u64) -> CleanDb {
    let workers = workers();
    let ctx = ExecContext::with_budget(workers, workers * 2, budget);
    ctx.set_network_cost_ns(network_cost_ns());
    CleanDb::with_context(profile, ctx)
}

pub fn local_context() -> Arc<ExecContext> {
    let w = workers();
    let ctx = ExecContext::new(w, w * 2);
    ctx.set_network_cost_ns(network_cost_ns());
    ctx
}

/// Simulated per-record network cost for the experiment harness. The
/// paper's cluster pays serialization + wire time for every shuffled
/// record; the laptop runtime pays nothing, which would hide exactly the
/// shuffle-volume differences §6 optimizes. Default 1µs/record (≈ a 10GbE
/// cluster's per-record overhead for small tuples); override with
/// `CLEANM_NET_NS`, 0 disables.
pub fn network_cost_ns() -> u64 {
    std::env::var("CLEANM_NET_NS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000)
}

fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// Millisecond rendering with sub-ms precision for tables.
pub fn fmt_duration(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}ms")
    } else {
        format!("{ms:.2}ms")
    }
}

/// Run every closure once per round, in slice order, and return each
/// closure's fastest wall time in milliseconds. Interleaving means a noise
/// burst on the host hits every side of a ratio, not just one of them.
pub fn best_of_interleaved(rounds: usize, runs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; runs.len()];
    for _ in 0..rounds {
        for (run, slot) in runs.iter_mut().zip(&mut best) {
            let start = Instant::now();
            run();
            *slot = slot.min(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

/// Record `failure` unless `ok`: `assert!`'s shape, but the run goes on.
pub fn gate(failures: &mut Vec<String>, ok: bool, failure: String) {
    if !ok {
        failures.push(failure);
    }
}

/// The three compared systems, in the paper's order.
pub fn all_profiles() -> Vec<EngineProfile> {
    vec![
        EngineProfile::clean_db(),
        EngineProfile::spark_sql_like(),
        EngineProfile::big_dansing_like(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineitem_scales_grow() {
        let s = Scale::Quick.lineitem_scales();
        assert_eq!(s.len(), 5);
        assert!(s.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(s[0].0, 15);
        assert_eq!(s[4].0, 70);
        let f = Scale::Full.lineitem_scales();
        assert!(f[0].1 > s[0].1);
    }

    #[test]
    fn format_durations() {
        assert_eq!(fmt_duration(Duration::from_millis(250)), "250ms");
        assert!(fmt_duration(Duration::from_micros(1500)).starts_with("1.50"));
    }

    #[test]
    fn best_of_interleaved_alternates_and_keeps_the_minimum() {
        let order = std::cell::RefCell::new(String::new());
        let mut naps = [30u64, 1, 30].into_iter();
        let mut slow = || {
            order.borrow_mut().push('a');
            std::thread::sleep(Duration::from_millis(naps.next().unwrap()));
        };
        let best = best_of_interleaved(3, &mut [&mut slow, &mut || order.borrow_mut().push('b')]);
        assert_eq!(order.into_inner(), "ababab");
        assert!(best[1] < best[0] && best[0] < 30.0, "{best:?}");
    }

    #[test]
    fn sessions_construct() {
        let db = session(EngineProfile::clean_db());
        assert_eq!(db.profile().name, "CleanDB");
        let db = budgeted_session(EngineProfile::spark_sql_like(), 100);
        assert_eq!(db.context().budget_remaining(), 100);
    }
}
