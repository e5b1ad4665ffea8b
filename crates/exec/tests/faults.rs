//! Chaos suite for the runtime: every injected fault becomes a typed
//! error (never a process abort), retried panics recover byte-identically,
//! cancellation and deadlines interrupt mid-run with the context staying
//! reusable, and seeded plans reproduce the same outcome run after run.

use std::sync::Arc;
use std::time::Duration;

use cleanm_exec::{Dataset, ExecContext, ExecError, FaultKind, FaultPlan, FaultSite, Shuffle};
use proptest::prelude::*;

fn ctx() -> Arc<ExecContext> {
    ExecContext::new(4, 5)
}

/// Hash-shuffle grouping into member lists (the wide operator under attack).
fn group_hash(ds: Dataset<(i64, i64)>) -> Result<Dataset<(i64, Vec<i64>)>, ExecError> {
    ds.group_by_key(Shuffle::HashShuffle, "group_by_key_hash")
}

fn nums(n: i64) -> Vec<i64> {
    (0..n).collect()
}

/// The reference pipeline the chaos arms attack: a narrow map plus a
/// shuffle, touching both the worker pool (PartitionStart) and the driver
/// scatter (ShuffleScatter).
fn pipeline(c: &Arc<ExecContext>, data: Vec<i64>) -> Result<Vec<(i64, Vec<i64>)>, ExecError> {
    let mut out = group_hash(Dataset::from_vec(c, data).map(|x| (x % 7, x * 2))?)?.collect();
    out.sort();
    for (_, vs) in &mut out {
        vs.sort_unstable();
    }
    Ok(out)
}

#[test]
fn injected_panic_becomes_typed_error_and_pool_survives() {
    let c = ctx();
    let plan =
        Arc::new(FaultPlan::new().arm(FaultSite::PartitionStart, 2, FaultKind::Panic, u32::MAX));
    c.set_fault_plan(Some(Arc::clone(&plan)));
    let err = pipeline(&c, nums(100)).unwrap_err();
    assert!(matches!(
        err,
        ExecError::PartitionPanic { partition: 2, .. }
    ));
    assert!(plan.injected_at(FaultSite::PartitionStart) >= 1);
    // The process survived and the pool is reusable: disarm and run clean.
    c.set_fault_plan(None);
    let clean = pipeline(&c, nums(100)).unwrap();
    assert_eq!(clean.len(), 7);
}

#[test]
fn retried_panic_recovers_byte_identically() {
    let clean = pipeline(&ctx(), nums(200)).unwrap();
    let c = ctx();
    // Fail partition 1 twice; the third attempt passes.
    c.set_retry_max(3);
    c.set_fault_plan(Some(Arc::new(FaultPlan::new().arm(
        FaultSite::PartitionStart,
        1,
        FaultKind::Panic,
        2,
    ))));
    let recovered = pipeline(&c, nums(200)).unwrap();
    assert_eq!(recovered, clean);
    let m = c.metrics().snapshot();
    assert!(m.partition_retries >= 2, "retries: {}", m.partition_retries);
    assert!(m.partition_panics >= 2);
}

#[test]
fn injected_error_propagates_without_retry() {
    let c = ctx();
    // Retries are armed, but typed errors are not retried: the fault's
    // injection count stays at one.
    c.set_retry_max(5);
    let plan =
        Arc::new(FaultPlan::new().arm(FaultSite::PartitionStart, 0, FaultKind::Error, u32::MAX));
    c.set_fault_plan(Some(Arc::clone(&plan)));
    let err = pipeline(&c, nums(50)).unwrap_err();
    assert_eq!(
        err,
        ExecError::FaultInjected {
            site: "partition_start"
        }
    );
    assert_eq!(plan.injected_at(FaultSite::PartitionStart), 1);
}

#[test]
fn shuffle_scatter_fault_fails_the_wide_op_only() {
    let c = ctx();
    c.set_fault_plan(Some(Arc::new(FaultPlan::new().arm(
        FaultSite::ShuffleScatter,
        0,
        FaultKind::Error,
        u32::MAX,
    ))));
    // The narrow map succeeds; the shuffle's scatter fails typed.
    let ds = Dataset::from_vec(&c, nums(40)).map(|x| (x % 3, x)).unwrap();
    let err = group_hash(ds).unwrap_err();
    assert_eq!(
        err,
        ExecError::FaultInjected {
            site: "shuffle_scatter"
        }
    );
    c.set_fault_plan(None);
    assert_eq!(pipeline(&c, nums(40)).unwrap().len(), 7);
}

#[test]
fn delay_arm_trips_an_armed_deadline() {
    let c = ctx();
    c.set_fault_plan(Some(Arc::new(FaultPlan::new().arm(
        FaultSite::PartitionStart,
        0,
        FaultKind::Delay(Duration::from_millis(50)),
        u32::MAX,
    ))));
    c.set_deadline(Duration::from_millis(5));
    let err = pipeline(&c, nums(100)).unwrap_err();
    assert!(matches!(
        err,
        ExecError::DeadlineExceeded { .. } | ExecError::Cancelled { .. }
    ));
    assert!(err.is_resource_limit());
    // Disarm; the context runs clean again.
    c.clear_deadline();
    c.set_fault_plan(None);
    pipeline(&c, nums(100)).unwrap();
}

#[test]
fn cancellation_interrupts_and_context_is_reusable() {
    let c = ctx();
    let token = c.cancel_token();
    token.cancel();
    let err = pipeline(&c, nums(100)).unwrap_err();
    assert!(matches!(err, ExecError::Cancelled { .. }));
    c.reset_cancel();
    pipeline(&c, nums(100)).unwrap();
}

#[test]
fn mid_run_cancellation_from_another_thread() {
    let c = ExecContext::new(2, 64);
    let token = c.cancel_token();
    let cancel = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        token.cancel();
    });
    // Partitions sleep long enough that the cancel lands mid-sweep; the
    // per-claim check point stops the remaining partitions.
    let result = Dataset::from_vec(&c, nums(64)).map(|x| {
        std::thread::sleep(Duration::from_millis(2));
        x
    });
    cancel.join().unwrap();
    assert!(matches!(
        result.unwrap_err(),
        ExecError::Cancelled { operator: "map" }
    ));
    c.reset_cancel();
}

#[test]
fn seeded_plans_reproduce_the_same_outcome() {
    let run = |seed: u64| {
        let c = ctx();
        c.set_fault_plan(Some(Arc::new(FaultPlan::seeded(
            seed,
            &[FaultSite::PartitionStart, FaultSite::ShuffleScatter],
            5,
        ))));
        pipeline(&c, nums(100))
    };
    for seed in 0..10u64 {
        assert_eq!(run(seed), run(seed), "seed {seed} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under an arbitrary seeded plan over the pool sites, the pipeline
    /// either completes byte-identically to the clean run (delay arms) or
    /// fails with a typed error — never an abort, never corrupt output.
    #[test]
    fn any_seeded_fault_yields_typed_error_or_clean_result(
        seed in any::<u64>(),
        n in 1i64..200,
    ) {
        let clean = pipeline(&ctx(), nums(n)).unwrap();
        let c = ctx();
        c.set_retry_max(1);
        c.set_fault_plan(Some(Arc::new(FaultPlan::seeded(
            seed,
            &[FaultSite::PartitionStart, FaultSite::ShuffleScatter],
            8,
        ))));
        match pipeline(&c, nums(n)) {
            Ok(out) => prop_assert_eq!(out, clean),
            Err(e) => prop_assert!(matches!(
                e,
                ExecError::PartitionPanic { .. } | ExecError::FaultInjected { .. }
            )),
        }
        // The context stays usable either way.
        c.set_fault_plan(None);
        prop_assert_eq!(pipeline(&c, nums(n)).unwrap(), pipeline(&ctx(), nums(n)).unwrap());
    }
}
