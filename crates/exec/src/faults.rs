//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] installed on an [`crate::ExecContext`] (via
//! [`crate::ExecContext::set_fault_plan`]) flips chosen executions at fixed
//! instrumentation sites into panics, typed errors, or delays. Arms are
//! keyed by *(site, key)* where the key is the partition/batch index at
//! parallel sites and the visit ordinal at driver-thread sites, so a plan
//! fires at exactly the same execution point every run regardless of worker
//! scheduling — the chaos suite relies on this to pin deterministic
//! outcomes under a fixed seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Where a fault arm can fire. Each variant is one instrumented site in the
/// runtime or the layers above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Entry of a partition task in the worker pool (`run_partitions`);
    /// keyed by partition index.
    PartitionStart,
    /// The scatter step of a shuffle, on the driver thread; keyed by visit
    /// ordinal.
    ShuffleScatter,
    /// Entry of a columnar kernel sweep; keyed by batch index.
    KernelEntry,
    /// Storage batch columnarization (row → column pivot); keyed by visit
    /// ordinal.
    Columnarize,
    /// Start of an incremental standing-query refresh; keyed by visit
    /// ordinal.
    IncrRefresh,
}

impl FaultSite {
    /// Every instrumented site, for exhaustive chaos sweeps.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::PartitionStart,
        FaultSite::ShuffleScatter,
        FaultSite::KernelEntry,
        FaultSite::Columnarize,
        FaultSite::IncrRefresh,
    ];

    /// Stable name, used in error messages, trace events, and counters.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::PartitionStart => "partition_start",
            FaultSite::ShuffleScatter => "shuffle_scatter",
            FaultSite::KernelEntry => "kernel_entry",
            FaultSite::Columnarize => "columnarize",
            FaultSite::IncrRefresh => "incr_refresh",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::PartitionStart => 0,
            FaultSite::ShuffleScatter => 1,
            FaultSite::KernelEntry => 2,
            FaultSite::Columnarize => 3,
            FaultSite::IncrRefresh => 4,
        }
    }
}

/// What an arm does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with an "injected fault" payload — exercises `catch_unwind`
    /// isolation and the retry policy.
    Panic,
    /// Return [`crate::ExecError::FaultInjected`] — exercises typed error
    /// propagation.
    Error,
    /// Sleep for the given duration, then continue — exercises deadlines
    /// and cancellation latency without failing the site.
    Delay(Duration),
}

/// One injection arm: fire `kind` at `site` when the site's key equals
/// `key`, for the first `fail_attempts` attempts of that execution point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultArm {
    /// The instrumented site this arm watches.
    pub site: FaultSite,
    /// Partition/batch index (parallel sites) or visit ordinal
    /// (driver-thread sites) at which to fire; [`FaultArm::ANY_KEY`]
    /// matches every key.
    pub key: u64,
    /// What to do when the arm fires.
    pub kind: FaultKind,
    /// Fire while `attempt < fail_attempts`; a retried partition passes the
    /// site with a higher attempt number, so `1` means "fail once, succeed
    /// on retry" and `u32::MAX` means "always fail".
    pub fail_attempts: u32,
}

impl FaultArm {
    /// Sentinel key matching every partition/batch/visit of a site.
    pub const ANY_KEY: u64 = u64::MAX;
}

/// A deterministic set of injection arms ([`FaultPlan::arm`]) plus
/// per-site counters of how often they fired. Cheap to share; install on a context with
/// [`crate::ExecContext::set_fault_plan`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    arms: Vec<FaultArm>,
    /// Per-site count of arms fired (any kind).
    injected: [AtomicU64; 5],
    /// Per-site visit ordinals for driver-thread sites.
    visits: [AtomicU64; 5],
}

impl FaultPlan {
    /// An empty plan (no arms; nothing fires).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder: add one arm.
    pub fn arm(mut self, site: FaultSite, key: u64, kind: FaultKind, fail_attempts: u32) -> Self {
        self.arms.push(FaultArm {
            site,
            key,
            kind,
            fail_attempts,
        });
        self
    }

    /// Builder: add one arm that fires at *every* key of `site` — e.g. a
    /// delay on each partition start, to stretch a whole sweep for
    /// cancellation-latency measurements.
    pub fn arm_all(self, site: FaultSite, kind: FaultKind, fail_attempts: u32) -> Self {
        self.arm(site, FaultArm::ANY_KEY, kind, fail_attempts)
    }

    /// A seeded plan with one always-firing arm per site in `sites`: the
    /// key is drawn deterministically from `seed` in `0..modulus` and the
    /// kind cycles through panic/error/delay by seed. Two plans built from
    /// the same arguments are identical.
    pub fn seeded(seed: u64, sites: &[FaultSite], modulus: u64) -> Self {
        let mut plan = FaultPlan::new();
        for (i, site) in sites.iter().enumerate() {
            let h = splitmix64(seed.wrapping_add(i as u64 + 1));
            let kind = match h % 3 {
                0 => FaultKind::Panic,
                1 => FaultKind::Error,
                _ => FaultKind::Delay(Duration::from_millis(1)),
            };
            plan = plan.arm(*site, (h >> 8) % modulus.max(1), kind, u32::MAX);
        }
        plan
    }

    /// Next visit ordinal for a driver-thread site (monotone per plan).
    pub(crate) fn next_visit(&self, site: FaultSite) -> u64 {
        self.visits[site.index()].fetch_add(1, Ordering::Relaxed)
    }

    /// The arm kind to apply at `(site, key, attempt)`, if any; bumps the
    /// site's injected counter when an arm fires.
    pub(crate) fn check(&self, site: FaultSite, key: u64, attempt: u32) -> Option<FaultKind> {
        let arm = self.arms.iter().find(|a| {
            a.site == site
                && (a.key == key || a.key == FaultArm::ANY_KEY)
                && attempt < a.fail_attempts
        })?;
        self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        Some(arm.kind)
    }

    /// How many times arms fired at `site`.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }
}

/// SplitMix64: the standard 64-bit finalizer, good enough to derive
/// deterministic-but-scrambled keys from a seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_fires_at_its_key_only() {
        let plan = FaultPlan::new().arm(FaultSite::PartitionStart, 2, FaultKind::Error, u32::MAX);
        assert_eq!(plan.check(FaultSite::PartitionStart, 1, 0), None);
        assert_eq!(
            plan.check(FaultSite::PartitionStart, 2, 0),
            Some(FaultKind::Error)
        );
        assert_eq!(plan.check(FaultSite::ShuffleScatter, 2, 0), None);
        assert_eq!(plan.injected_at(FaultSite::PartitionStart), 1);
    }

    #[test]
    fn fail_attempts_bounds_retries() {
        let plan = FaultPlan::new().arm(FaultSite::PartitionStart, 0, FaultKind::Panic, 2);
        assert!(plan.check(FaultSite::PartitionStart, 0, 0).is_some());
        assert!(plan.check(FaultSite::PartitionStart, 0, 1).is_some());
        assert!(plan.check(FaultSite::PartitionStart, 0, 2).is_none());
    }

    #[test]
    fn visit_ordinals_are_monotone_per_site() {
        let plan = FaultPlan::new();
        assert_eq!(plan.next_visit(FaultSite::ShuffleScatter), 0);
        assert_eq!(plan.next_visit(FaultSite::ShuffleScatter), 1);
        assert_eq!(plan.next_visit(FaultSite::Columnarize), 0);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(7, &FaultSite::ALL, 4);
        let b = FaultPlan::seeded(7, &FaultSite::ALL, 4);
        assert_eq!(a.arms, b.arms);
        assert_eq!(a.arms.len(), 5);
        let c = FaultPlan::seeded(8, &FaultSite::ALL, 4);
        assert_ne!(a.arms, c.arms);
    }
}
