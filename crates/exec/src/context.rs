//! Execution context: cluster shape, metrics, work budget, cancellation,
//! deadlines, fault injection, tracer.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cleanm_trace::Tracer;
use parking_lot::Mutex;

use crate::error::{ExecError, ExecResult};
use crate::faults::{FaultKind, FaultPlan, FaultSite};
use crate::metrics::{ExecMetrics, StageReport};

/// Handle for cancelling a running query from another thread.
///
/// Obtained from [`ExecContext::cancel_token`]; calling
/// [`CancelToken::cancel`] makes every cooperative check point in the
/// runtime (partition claims, kernel chunks, shuffle scatters) fail with
/// [`ExecError::Cancelled`]. Cancellation is sticky until
/// [`ExecContext::reset_cancel`].
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Request cancellation. Idempotent; takes effect at the next
    /// cooperative check point of any query running on the context.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }
}

/// Shared context for a "cluster": how many worker threads, how many
/// partitions new datasets get, the metric counters, and the work budget.
///
/// A context is cheap to share (`Arc`) and every [`crate::Dataset`] carries
/// one; operations on datasets from different contexts panic, matching the
/// Spark rule that RDDs belong to one `SparkContext`.
#[derive(Debug)]
pub struct ExecContext {
    workers: usize,
    default_partitions: usize,
    metrics: ExecMetrics,
    /// Remaining work units (comparisons). Saturating; `u64::MAX` = unlimited.
    budget_remaining: AtomicU64,
    budget_limited: AtomicBool,
    /// External cancellation flag, shared with every [`CancelToken`].
    cancel: Arc<AtomicBool>,
    /// Reference instant for the deadline clock (context creation time).
    created: Instant,
    /// Deadline as nanoseconds since `created`; `u64::MAX` = unarmed.
    deadline_ns: AtomicU64,
    /// How many times the pool re-runs a panicked partition task before
    /// failing the query with [`ExecError::PartitionPanic`]. 0 (default)
    /// keeps the clean path clone-free.
    retry_max: AtomicU32,
    /// Fast-path guard: true iff a fault plan is installed.
    faults_armed: AtomicBool,
    /// Deterministic fault-injection plan (chaos testing); `None` normally.
    fault_plan: Mutex<Option<Arc<FaultPlan>>>,
    /// Simulated network cost per shuffled record, in nanoseconds. A real
    /// cluster pays serialization + wire time per record moved; a
    /// single-machine simulator pays nothing, which would hide exactly the
    /// cost the paper's `aggregateByKey` optimization removes. When
    /// non-zero, shuffles spin for `records × cost` to model it. Default 0
    /// (off) so unit tests measure pure compute.
    network_ns_per_record: AtomicU64,
    /// Span tracer shared by every layer running on this context. Disabled
    /// by default: instrumented sites pay one atomic load until a session
    /// enables it (`CleanDb::set_tracing` / `explain`).
    tracer: Arc<Tracer>,
}

impl ExecContext {
    fn build(workers: usize, partitions: usize, budget: Option<u64>) -> Arc<Self> {
        assert!(workers > 0 && partitions > 0);
        Arc::new(ExecContext {
            workers,
            default_partitions: partitions,
            metrics: ExecMetrics::default(),
            budget_remaining: AtomicU64::new(budget.unwrap_or(u64::MAX)),
            budget_limited: AtomicBool::new(budget.is_some()),
            cancel: Arc::new(AtomicBool::new(false)),
            created: Instant::now(),
            deadline_ns: AtomicU64::new(u64::MAX),
            retry_max: AtomicU32::new(0),
            faults_armed: AtomicBool::new(false),
            fault_plan: Mutex::new(None),
            network_ns_per_record: AtomicU64::new(0),
            tracer: Arc::new(Tracer::new()),
        })
    }

    /// A context with `workers` threads and `partitions` partitions per
    /// dataset, unlimited budget.
    pub fn new(workers: usize, partitions: usize) -> Arc<Self> {
        ExecContext::build(workers, partitions, None)
    }

    /// A context whose expensive operators may consume at most `budget`
    /// work units (one unit ≈ one pairwise comparison or one materialized
    /// cartesian pair) before failing with [`ExecError::BudgetExceeded`].
    pub fn with_budget(workers: usize, partitions: usize, budget: u64) -> Arc<Self> {
        ExecContext::build(workers, partitions, Some(budget))
    }

    /// Sensible local default: one worker per available core, 2 partitions
    /// per worker.
    pub fn local() -> Arc<Self> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ExecContext::new(workers, workers * 2)
    }

    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    pub fn default_partitions(&self) -> usize {
        self.default_partitions
    }

    pub fn metrics(&self) -> &ExecMetrics {
        &self.metrics
    }

    /// The context's span tracer. Disabled by default; shared so sessions,
    /// the incremental service, and the drivers all record into one log.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Record a finished stage: pushes the [`StageReport`] onto the metric
    /// counters and, when tracing is enabled, emits an exec-layer span named
    /// after the operator with the stage's wall time. Every dataset driver
    /// reports through here so the trace and the metrics stay in lockstep.
    pub(crate) fn record_stage(&self, report: StageReport) {
        if self.tracer.is_enabled() {
            self.tracer
                .record_complete(report.operator, Duration::from_nanos(report.wall_ns));
        }
        self.metrics.push_stage(report);
    }

    /// Remaining budget (for reporting). `u64::MAX` when unlimited.
    pub fn budget_remaining(&self) -> u64 {
        self.budget_remaining.load(Ordering::Relaxed)
    }

    /// A handle that cancels queries running on this context.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            flag: Arc::clone(&self.cancel),
        }
    }

    /// Clear a previous cancellation so the context can run new queries.
    pub fn reset_cancel(&self) {
        self.cancel.store(false, Ordering::Relaxed);
    }

    /// Arm (or move) the wall-clock deadline: cooperative check points fail
    /// with [`ExecError::DeadlineExceeded`] once `deadline` has elapsed
    /// from now.
    pub fn set_deadline(&self, deadline: Duration) {
        let ns = self
            .created
            .elapsed()
            .saturating_add(deadline)
            .as_nanos()
            .min(u64::MAX as u128 - 1) as u64;
        self.deadline_ns.store(ns, Ordering::Relaxed);
    }

    /// Disarm the deadline.
    pub fn clear_deadline(&self) {
        self.deadline_ns.store(u64::MAX, Ordering::Relaxed);
    }

    /// Cooperative check point: fails if the context was cancelled or its
    /// deadline expired. Called at partition-sweep and kernel-chunk
    /// granularity throughout the runtime; two relaxed atomic loads on the
    /// clean path.
    #[inline]
    pub fn check_interrupt(&self, operator: &'static str) -> ExecResult<()> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(ExecError::Cancelled { operator });
        }
        let deadline = self.deadline_ns.load(Ordering::Relaxed);
        if deadline != u64::MAX && self.created.elapsed().as_nanos() as u64 >= deadline {
            return Err(ExecError::DeadlineExceeded { operator });
        }
        Ok(())
    }

    /// How many times the pool re-runs a panicked partition task before
    /// failing the query. Deterministic: retries replay the same partition
    /// data on the same inputs.
    pub(crate) fn retry_max(&self) -> u32 {
        self.retry_max.load(Ordering::Relaxed)
    }

    /// Configure the partition retry bound (default 0: fail on first
    /// panic; the clean path then never clones partition data).
    pub fn set_retry_max(&self, retries: u32) {
        self.retry_max.store(retries, Ordering::Relaxed);
    }

    /// Install (or with `None` remove) a deterministic fault-injection
    /// plan. Chaos tests only; the clean path pays one relaxed load per
    /// instrumented site.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.faults_armed.store(plan.is_some(), Ordering::Relaxed);
        *self.fault_plan.lock() = plan;
    }

    /// Indexed fault-injection point (parallel sites: partition/batch
    /// `key`, retry `attempt`). May panic (that is the point — callers sit
    /// under `catch_unwind`), sleep, or return
    /// [`ExecError::FaultInjected`]. No-op without an installed plan.
    #[inline]
    pub fn fault_point(&self, site: FaultSite, key: u64, attempt: u32) -> ExecResult<()> {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return Ok(());
        }
        let Some(plan) = self.fault_plan.lock().clone() else {
            return Ok(());
        };
        let Some(kind) = plan.check(site, key, attempt) else {
            return Ok(());
        };
        self.metrics.add_faults_injected(1);
        if self.tracer.is_enabled() {
            self.tracer.event(
                "fault_injected",
                format!("{} key={key} attempt={attempt}", site.name()),
            );
        }
        match kind {
            FaultKind::Panic => panic!("injected fault at {}", site.name()),
            FaultKind::Error => Err(ExecError::FaultInjected { site: site.name() }),
            FaultKind::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
        }
    }

    /// Driver-thread fault-injection point: like
    /// [`ExecContext::fault_point`] but keyed by the site's visit ordinal
    /// (deterministic on a single thread of control).
    #[inline]
    pub fn fault_visit(&self, site: FaultSite) -> ExecResult<()> {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return Ok(());
        }
        let Some(plan) = self.fault_plan.lock().clone() else {
            return Ok(());
        };
        let visit = plan.next_visit(site);
        self.fault_point(site, visit, 0)
    }

    /// Run a driver-thread region (shuffle scatter, batch columnarization,
    /// incr refresh) under panic isolation: a panic inside `f` — injected
    /// or genuine — becomes a typed [`ExecError`] instead of unwinding the
    /// thread of control that owns the session.
    pub fn catch_driver<T>(
        &self,
        region: &'static str,
        f: impl FnOnce() -> ExecResult<T>,
    ) -> ExecResult<T> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(payload) => {
                self.metrics.add_partition_panics(1);
                if self.tracer.is_enabled() {
                    self.tracer.event("driver_panic", region);
                }
                Err(ExecError::Other(format!(
                    "{region} panicked: {}",
                    crate::error::panic_cause(payload)
                )))
            }
        }
    }

    /// Reserve `units` of work for `operator`, failing if the budget cannot
    /// cover them. Expensive operators call this *before* doing the work, so
    /// a hopeless plan fails fast — the analogue of a job that would run for
    /// hours being reported as non-terminating.
    pub fn consume_budget(&self, operator: &'static str, units: u64) -> ExecResult<()> {
        if !self.budget_limited.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut current = self.budget_remaining.load(Ordering::Relaxed);
        loop {
            if current < units {
                return Err(ExecError::BudgetExceeded {
                    operator,
                    needed: units,
                    remaining: current,
                });
            }
            match self.budget_remaining.compare_exchange_weak(
                current,
                current - units,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Arm the work budget at `budget` units on a context built without
    /// one — per-query resource limits (`CleanDb::run_with_limits`) use
    /// this to cap a single run.
    pub fn limit_budget(&self, budget: u64) {
        self.budget_remaining.store(budget, Ordering::Relaxed);
        self.budget_limited.store(true, Ordering::Relaxed);
    }

    /// Disarm the work budget (queries run unmetered again).
    pub fn unlimit_budget(&self) {
        self.budget_remaining.store(u64::MAX, Ordering::Relaxed);
        self.budget_limited.store(false, Ordering::Relaxed);
    }

    /// Enable network-cost simulation: every shuffled record costs `ns`
    /// nanoseconds of (spun) wall time. 0 disables.
    pub fn set_network_cost_ns(&self, ns: u64) {
        self.network_ns_per_record.store(ns, Ordering::Relaxed);
    }

    /// Account `records` crossing the simulated network: bumps the shuffle
    /// counter and, when network simulation is on, spins for the modelled
    /// transfer time. Called by every wide operator.
    pub(crate) fn charge_shuffle(&self, records: u64) {
        self.metrics.add_shuffled(records);
        let ns = self.network_ns_per_record.load(Ordering::Relaxed);
        if ns > 0 && records > 0 {
            let budget = std::time::Duration::from_nanos(ns.saturating_mul(records));
            let start = std::time::Instant::now();
            while start.elapsed() < budget {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_fails() {
        let ctx = ExecContext::new(2, 4);
        ctx.consume_budget("t", u64::MAX).unwrap();
        ctx.consume_budget("t", u64::MAX).unwrap();
    }

    #[test]
    fn limited_budget_depletes() {
        let ctx = ExecContext::with_budget(2, 4, 100);
        ctx.consume_budget("t", 60).unwrap();
        ctx.consume_budget("t", 40).unwrap();
        let err = ctx.consume_budget("t", 1).unwrap_err();
        assert!(matches!(
            err,
            ExecError::BudgetExceeded { remaining: 0, .. }
        ));
    }

    #[test]
    fn oversized_request_fails_without_draining() {
        let ctx = ExecContext::with_budget(1, 1, 50);
        assert!(ctx.consume_budget("t", 100).is_err());
        // The failed request did not consume the budget.
        ctx.consume_budget("t", 50).unwrap();
    }

    #[test]
    #[should_panic]
    fn zero_workers_panics() {
        let _ = ExecContext::new(0, 1);
    }

    #[test]
    fn cancel_token_trips_check_interrupt() {
        let ctx = ExecContext::new(2, 4);
        ctx.check_interrupt("t").unwrap();
        let token = ctx.cancel_token();
        token.cancel();
        assert_eq!(
            ctx.check_interrupt("t").unwrap_err(),
            ExecError::Cancelled { operator: "t" }
        );
        // Sticky until reset; then the context runs again.
        ctx.reset_cancel();
        ctx.check_interrupt("t").unwrap();
    }

    #[test]
    fn deadline_expires_and_clears() {
        let ctx = ExecContext::new(1, 1);
        ctx.set_deadline(Duration::ZERO);
        assert_eq!(
            ctx.check_interrupt("t").unwrap_err(),
            ExecError::DeadlineExceeded { operator: "t" }
        );
        ctx.clear_deadline();
        ctx.check_interrupt("t").unwrap();
        ctx.set_deadline(Duration::from_secs(3600));
        ctx.check_interrupt("t").unwrap();
    }

    #[test]
    fn budget_arms_and_disarms_dynamically() {
        let ctx = ExecContext::new(1, 1);
        ctx.consume_budget("t", u64::MAX).unwrap();
        ctx.limit_budget(10);
        assert!(ctx.consume_budget("t", 11).is_err());
        ctx.consume_budget("t", 10).unwrap();
        ctx.unlimit_budget();
        ctx.consume_budget("t", u64::MAX).unwrap();
    }

    #[test]
    fn fault_point_is_inert_without_a_plan() {
        use crate::faults::{FaultKind, FaultPlan, FaultSite};
        let ctx = ExecContext::new(1, 1);
        ctx.fault_point(FaultSite::PartitionStart, 0, 0).unwrap();
        ctx.fault_visit(FaultSite::ShuffleScatter).unwrap();
        // Install an error arm: the matching key fails, others pass.
        let plan =
            Arc::new(FaultPlan::new().arm(FaultSite::KernelEntry, 3, FaultKind::Error, u32::MAX));
        ctx.set_fault_plan(Some(Arc::clone(&plan)));
        ctx.fault_point(FaultSite::KernelEntry, 2, 0).unwrap();
        assert_eq!(
            ctx.fault_point(FaultSite::KernelEntry, 3, 0).unwrap_err(),
            ExecError::FaultInjected {
                site: "kernel_entry"
            }
        );
        assert_eq!(plan.injected_at(FaultSite::KernelEntry), 1);
        ctx.set_fault_plan(None);
        ctx.fault_point(FaultSite::KernelEntry, 3, 0).unwrap();
    }
}
