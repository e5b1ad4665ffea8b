//! Runtime metrics: shuffle volume, comparison counts, per-worker load.
//!
//! The experiments report not just wall-clock but *why* a strategy wins:
//! CleanDB's `aggregateByKey` shuffles pre-aggregated groups (few records),
//! Spark SQL's sort-based shuffle moves every record and concentrates skewed
//! keys on one node. These counters make that visible and testable.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-stage report, recorded by shuffles and theta joins.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Operator name, e.g. `"aggregate_by_key"`.
    pub operator: &'static str,
    /// Records entering the stage.
    pub records_in: u64,
    /// Records physically moved between partitions.
    pub records_shuffled: u64,
    /// Busy nanoseconds per worker for the stage's parallel phase.
    pub worker_busy_ns: Vec<u64>,
    /// Wall-clock nanoseconds for the whole stage (partitioning, the
    /// parallel phase, and the merge). 0 when the driver did not measure.
    pub wall_ns: u64,
}

impl StageReport {
    /// Load imbalance: max worker busy time over mean busy time **among
    /// workers that did any work**. 1.0 is perfectly balanced; large values
    /// mean one straggler dominated. Because idle (zero-busy) workers are
    /// excluded from the mean, this metric understates skew when most
    /// workers never got a partition — pair it with [`Self::idle_fraction`],
    /// which counts them. A stage with no busy workers at all (zero-worker
    /// or empty snapshot) has no skew to report and returns 0.0.
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<u64> = self
            .worker_busy_ns
            .iter()
            .copied()
            .filter(|&b| b > 0)
            .collect();
        let Some(&max) = busy.iter().max() else {
            return 0.0;
        };
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max as f64 / mean
        }
    }

    /// Fraction of the stage's total worker-time capacity
    /// (`workers × wall_ns`) that was spent idle: `1 − Σbusy / (w × wall)`.
    /// Unlike [`Self::imbalance`] this counts workers that recorded *zero*
    /// work, so a stage where one straggler ran alone while three workers
    /// idled reports ≈0.75 here even though max/mean-of-nonzero is 1.0.
    /// Returns 0.0 when the stage was not timed or had no workers.
    pub fn idle_fraction(&self) -> f64 {
        if self.wall_ns == 0 || self.worker_busy_ns.is_empty() {
            return 0.0;
        }
        let capacity = self.wall_ns as f64 * self.worker_busy_ns.len() as f64;
        let busy: f64 = self.worker_busy_ns.iter().map(|&b| b as f64).sum();
        (1.0 - busy / capacity).clamp(0.0, 1.0)
    }
}

/// Shared, thread-safe counters for one execution context.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    records_shuffled: AtomicU64,
    comparisons: AtomicU64,
    partition_retries: AtomicU64,
    partition_panics: AtomicU64,
    faults_injected: AtomicU64,
    stages: Mutex<Vec<StageReport>>,
}

impl ExecMetrics {
    pub(crate) fn add_shuffled(&self, n: u64) {
        self.records_shuffled.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_comparisons(&self, n: u64) {
        self.comparisons.fetch_add(n, Ordering::Relaxed);
    }

    /// Count a panicked partition task being re-run by the pool.
    pub(crate) fn add_partition_retries(&self, n: u64) {
        self.partition_retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Count a partition task panic caught by the pool (whether or not a
    /// retry followed).
    pub(crate) fn add_partition_panics(&self, n: u64) {
        self.partition_panics.fetch_add(n, Ordering::Relaxed);
    }

    /// Count a fault-injection arm firing (any kind, any site).
    pub(crate) fn add_faults_injected(&self, n: u64) {
        self.faults_injected.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn push_stage(&self, report: StageReport) {
        self.stages.lock().push(report);
    }

    /// Number of stages recorded so far. Paired with [`Self::stages_since`],
    /// this lets the executor attribute stage reports to the plan node that
    /// produced them without cloning the whole snapshot per node.
    pub fn stage_count(&self) -> usize {
        self.stages.lock().len()
    }

    /// Copy of the stages recorded at index `lo` and later.
    pub fn stages_since(&self, lo: usize) -> Vec<StageReport> {
        let stages = self.stages.lock();
        stages.get(lo..).map(<[_]>::to_vec).unwrap_or_default()
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            records_shuffled: self.records_shuffled.load(Ordering::Relaxed),
            comparisons: self.comparisons.load(Ordering::Relaxed),
            partition_retries: self.partition_retries.load(Ordering::Relaxed),
            partition_panics: self.partition_panics.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            stages: self.stages.lock().clone(),
        }
    }

    /// Reset all counters (between benchmark runs).
    pub fn reset(&self) {
        self.records_shuffled.store(0, Ordering::Relaxed);
        self.comparisons.store(0, Ordering::Relaxed);
        self.partition_retries.store(0, Ordering::Relaxed);
        self.partition_panics.store(0, Ordering::Relaxed);
        self.faults_injected.store(0, Ordering::Relaxed);
        self.stages.lock().clear();
    }
}

/// Immutable copy of the counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub records_shuffled: u64,
    pub comparisons: u64,
    /// Panicked partition tasks re-run by the pool.
    pub partition_retries: u64,
    /// Partition task panics caught by the pool.
    pub partition_panics: u64,
    /// Fault-injection arms fired (chaos runs only; 0 in production).
    pub faults_injected: u64,
    pub stages: Vec<StageReport>,
}

impl MetricsSnapshot {
    /// Worst imbalance across recorded stages.
    pub fn max_imbalance(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.imbalance())
            .fold(1.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ExecMetrics::default();
        m.add_shuffled(10);
        m.add_shuffled(5);
        m.add_comparisons(7);
        let s = m.snapshot();
        assert_eq!(s.records_shuffled, 15);
        assert_eq!(s.comparisons, 7);
        m.reset();
        assert_eq!(m.snapshot().records_shuffled, 0);
    }

    #[test]
    fn imbalance_math() {
        let r = StageReport {
            operator: "x",
            records_in: 0,
            records_shuffled: 0,
            worker_busy_ns: vec![100, 100, 100, 100],
            wall_ns: 0,
        };
        assert!((r.imbalance() - 1.0).abs() < 1e-9);
        let skewed = StageReport {
            worker_busy_ns: vec![400, 100, 100, 100],
            ..r.clone()
        };
        assert!((skewed.imbalance() - 400.0 / 175.0).abs() < 1e-9);
        // A zero-worker/empty-busy snapshot has no skew: 0.0, not a panic.
        let empty = StageReport {
            worker_busy_ns: vec![],
            ..r.clone()
        };
        assert_eq!(empty.imbalance(), 0.0);
        let all_idle = StageReport {
            worker_busy_ns: vec![0, 0],
            ..r
        };
        assert_eq!(all_idle.imbalance(), 0.0);
    }

    #[test]
    fn fault_counters_accumulate_and_reset() {
        let m = ExecMetrics::default();
        m.add_partition_retries(2);
        m.add_partition_panics(3);
        m.add_faults_injected(4);
        let s = m.snapshot();
        assert_eq!(s.partition_retries, 2);
        assert_eq!(s.partition_panics, 3);
        assert_eq!(s.faults_injected, 4);
        m.reset();
        assert_eq!(m.snapshot().partition_panics, 0);
    }

    #[test]
    fn stage_reports_collect() {
        let m = ExecMetrics::default();
        m.push_stage(StageReport {
            operator: "a",
            records_in: 1,
            records_shuffled: 1,
            worker_busy_ns: vec![1],
            wall_ns: 0,
        });
        m.push_stage(StageReport {
            operator: "b",
            records_in: 2,
            records_shuffled: 2,
            worker_busy_ns: vec![9, 1],
            wall_ns: 0,
        });
        let s = m.snapshot();
        assert_eq!(s.stages.len(), 2);
        assert!(s.max_imbalance() > 1.5);
        assert_eq!(m.stage_count(), 2);
        let tail = m.stages_since(1);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].operator, "b");
        assert!(m.stages_since(5).is_empty());
    }

    #[test]
    fn idle_fraction_counts_zero_busy_workers() {
        // One straggler ran for the whole stage while three workers idled:
        // max/mean over *non-zero* workers reports a perfectly balanced 1.0,
        // which is exactly the blind spot idle_fraction() closes.
        let straggler = StageReport {
            operator: "x",
            records_in: 0,
            records_shuffled: 0,
            worker_busy_ns: vec![1_000, 0, 0, 0],
            wall_ns: 1_000,
        };
        assert!((straggler.imbalance() - 1.0).abs() < 1e-9);
        assert!((straggler.idle_fraction() - 0.75).abs() < 1e-9);

        let balanced = StageReport {
            worker_busy_ns: vec![1_000, 1_000, 1_000, 1_000],
            ..straggler.clone()
        };
        assert!(balanced.idle_fraction() < 1e-9);

        // Untimed stages (wall_ns = 0) report no idleness rather than junk.
        let untimed = StageReport {
            wall_ns: 0,
            ..straggler
        };
        assert_eq!(untimed.idle_fraction(), 0.0);
    }
}
