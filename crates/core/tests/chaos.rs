//! Chaos suite for the engine: deterministic fault injection across every
//! instrumented site and engine profile.
//!
//! Pins, per the fault-tolerance design rules:
//! 1. **No abort, typed outcome**: an injected panic/error at any site
//!    under any profile either leaves the report byte-identical to a clean
//!    run (the arm never fired on that profile's plan shape) or surfaces
//!    as a typed [`FailureInfo`] — the process and the session survive.
//! 2. **Resource limits as data**: cancellation, deadlines, and work
//!    budgets come back through `run_with_limits` as `failure.resource_limit`
//!    reports with partial-progress counters, and the session runs clean
//!    afterwards.
//! 3. **All-or-nothing repairs**: a fault mid-`apply_repairs` leaves every
//!    table untouched.
//! 4. **Determinism**: the same seeded plan produces the same outcome on
//!    fresh sessions.

use std::sync::Arc;
use std::time::Duration;

use cleanm_core::engine::{CleaningReport, Fix, RepairSection};
use cleanm_core::{CleanDb, EngineProfile, RunLimits};
use cleanm_exec::{ExecError, FaultKind, FaultPlan, FaultSite};
use cleanm_values::{DataType, Row, Schema, Table, Value};

const NAMES: [&str; 6] = ["anderson", "andersen", "zhang", "zheng", "miller", "mellor"];
const ADDRS: [&str; 4] = ["a st", "b st", "c st", "d st"];

fn customer_table(n: usize) -> Table {
    let schema = Schema::of([
        ("name", DataType::Str),
        ("address", DataType::Str),
        ("nationkey", DataType::Int),
    ]);
    let rows = (0..n)
        .map(|i| {
            Row::new(vec![
                Value::str(NAMES[i % NAMES.len()]),
                Value::str(ADDRS[i % ADDRS.len()]),
                Value::Int((i % 5) as i64),
            ])
        })
        .collect();
    Table::new(schema, rows)
}

fn session(profile: EngineProfile) -> CleanDb {
    let mut db = CleanDb::new(profile);
    db.register("customer", customer_table(40));
    db
}

fn profiles() -> Vec<EngineProfile> {
    vec![
        EngineProfile::clean_db(),
        EngineProfile::spark_sql_like(),
        EngineProfile::big_dansing_like(),
    ]
}

const UNIFIED_SQL: &str = "SELECT * FROM customer c \
     FD(c.address, c.nationkey) \
     DEDUP(exact, LD, 0.7, c.address, c.name)";
const SELECT_SQL: &str = "SELECT c.name, c.nationkey FROM customer c WHERE c.nationkey > 1";
// An unshared FD and a grouped aggregate: under the vectorizing profiles
// both fold the table's columns (`group_fold*` stages over chunks), so the
// columnarize / kernel-entry / partition-start sites sit on that sweep.
const FD_SQL: &str = "SELECT * FROM customer c WHERE c.nationkey > 0 FD(c.address | c.name)";
const GROUP_SQL: &str = "SELECT c.address, count(*) AS n, avg(c.nationkey) AS k \
     FROM customer c GROUP BY c.address HAVING count(*) > 1";

/// The semantically meaningful parts of a report, for identical-recovery
/// assertions. Op outputs are compared as sorted multisets: within-op
/// order varies with partition interleaving even on clean runs, so it is
/// not part of the contract a recovery must reproduce.
fn fingerprint(r: &CleaningReport) -> (Vec<i64>, Vec<(String, Vec<String>)>) {
    (
        r.violating_ids.clone(),
        r.ops
            .iter()
            .map(|o| {
                let mut out: Vec<String> = o.output.iter().map(|v| format!("{v:?}")).collect();
                out.sort_unstable();
                (o.label.clone(), out)
            })
            .collect(),
    )
}

#[test]
fn every_site_and_profile_survives_with_typed_outcome() {
    for profile in profiles() {
        for sql in [UNIFIED_SQL, SELECT_SQL, FD_SQL, GROUP_SQL] {
            let clean = fingerprint(&session(profile.clone()).run(sql).unwrap());
            for site in FaultSite::ALL {
                for kind in [FaultKind::Panic, FaultKind::Error] {
                    let mut db = session(profile.clone());
                    db.context()
                        .set_fault_plan(Some(Arc::new(FaultPlan::new().arm(
                            site,
                            0,
                            kind,
                            u32::MAX,
                        ))));
                    let report = db
                        .run_with_limits(sql, RunLimits::default())
                        .unwrap_or_else(|e| {
                            panic!(
                                "{}/{}/{kind:?}: planning error {e}",
                                profile.name,
                                site.name()
                            )
                        });
                    match &report.failure {
                        Some(f) => {
                            assert!(!f.error.is_empty());
                            assert!(!f.kind.is_empty());
                            // Injected panics/errors are never classified
                            // as resource limits.
                            assert!(
                                !f.resource_limit,
                                "{}/{}: {:?}",
                                profile.name,
                                site.name(),
                                f
                            );
                        }
                        // The arm never fired on this plan shape: the
                        // report must be byte-identical to the clean run.
                        None => assert_eq!(fingerprint(&report), clean),
                    }
                    // The session survives: disarm and run clean.
                    db.context().set_fault_plan(None);
                    let again = db.run(sql).unwrap();
                    assert_eq!(
                        fingerprint(&again),
                        clean,
                        "{}/{}/{kind:?}: post-fault run diverged",
                        profile.name,
                        site.name()
                    );
                }
            }
        }
    }
}

#[test]
fn columnar_fault_sites_fire_under_the_vectorizing_profile() {
    for (sql, op) in [
        (SELECT_SQL, "SELECT"),
        (FD_SQL, "FD#0"),
        (GROUP_SQL, "SELECT"),
    ] {
        for site in [
            FaultSite::Columnarize,
            FaultSite::KernelEntry,
            FaultSite::PartitionStart,
        ] {
            let mut db = session(EngineProfile::clean_db());
            let plan = Arc::new(FaultPlan::new().arm(site, 0, FaultKind::Error, u32::MAX));
            db.context().set_fault_plan(Some(Arc::clone(&plan)));
            let report = db.run_with_limits(sql, RunLimits::default()).unwrap();
            let fail = report
                .failure
                .unwrap_or_else(|| panic!("{} arm did not fire on `{sql}`", site.name()));
            assert_eq!(fail.kind, "fault_injected");
            assert!(fail.error.contains(site.name()));
            assert_eq!(fail.failed_op.as_deref(), Some(op), "`{sql}`");
            assert!(plan.injected_at(site) >= 1);
        }
    }
}

#[test]
fn retried_partition_panic_recovers_identically() {
    for sql in [UNIFIED_SQL, FD_SQL, GROUP_SQL] {
        let clean = fingerprint(&session(EngineProfile::clean_db()).run(sql).unwrap());
        let mut db = session(EngineProfile::clean_db());
        // Fail partition 0 once per sweep; the retry passes.
        db.context()
            .set_fault_plan(Some(Arc::new(FaultPlan::new().arm(
                FaultSite::PartitionStart,
                0,
                FaultKind::Panic,
                1,
            ))));
        let limits = RunLimits {
            max_retries: Some(2),
            ..RunLimits::default()
        };
        let report = db.run_with_limits(sql, limits).unwrap();
        assert!(report.failure.is_none(), "`{sql}`: {:?}", report.failure);
        assert_eq!(fingerprint(&report), clean, "`{sql}`");
        assert!(report.metrics.partition_retries >= 1);
        let (retries, panics, _) = db.metrics_registry().fault_counts();
        assert!(retries >= 1 && panics >= 1);

        // Without retries the same panic is a typed failure naming the op.
        let report = db.run_with_limits(sql, RunLimits::default()).unwrap();
        let fail = report.failure.expect("no retry budget: the panic surfaces");
        assert_eq!(fail.kind, "partition_panic", "`{sql}`: {}", fail.error);
        assert!(fail.failed_op.is_some(), "`{sql}`");
        db.context().set_fault_plan(None);
        assert_eq!(fingerprint(&db.run(sql).unwrap()), clean, "`{sql}`");
    }
}

/// A cancel raised while the columnar fold is mid-sweep stops it at the
/// next claim (a chunk of the fold, or of the stage after it): the query
/// comes back as cancelled well inside the cancellation-latency gate
/// (`BENCH_faults.json`: p99 < 1 s).
#[test]
fn cancel_mid_fold_returns_within_the_latency_bound() {
    for sql in [FD_SQL, GROUP_SQL] {
        let mut db = session(EngineProfile::clean_db());
        db.context()
            .set_fault_plan(Some(Arc::new(FaultPlan::new().arm(
                FaultSite::PartitionStart,
                0,
                FaultKind::Delay(Duration::from_millis(40)),
                u32::MAX,
            ))));
        let token = db.cancel_handle();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            token.cancel();
            std::time::Instant::now()
        });
        let report = db.run_with_limits(sql, RunLimits::default()).unwrap();
        let returned = std::time::Instant::now();
        let cancelled_at = canceller.join().unwrap();
        let fail = report.failure.expect("cancel landed mid-fold");
        assert_eq!(fail.kind, "cancelled", "`{sql}`");
        assert!(fail.resource_limit);
        assert!(
            returned.saturating_duration_since(cancelled_at) < Duration::from_secs(1),
            "`{sql}`"
        );
        db.context().set_fault_plan(None);
        assert!(db.run(sql).is_ok());
    }
}

#[test]
fn cancelled_query_reports_partial_progress_and_session_recovers() {
    // Plain `run` keeps the `Err` contract.
    let mut db = session(EngineProfile::clean_db());
    db.cancel_handle().cancel();
    let err = db.run(UNIFIED_SQL).unwrap_err();
    assert!(matches!(
        err,
        cleanm_core::engine::EngineError::Exec(ExecError::Cancelled { .. })
    ));
    db.context().reset_cancel();

    // `run_with_limits` reports the cancellation as data. A delay arm
    // stretches every partition sweep so the cancel from another thread
    // lands mid-query deterministically.
    let mut db = session(EngineProfile::clean_db());
    db.context()
        .set_fault_plan(Some(Arc::new(FaultPlan::new().arm(
            FaultSite::PartitionStart,
            0,
            FaultKind::Delay(Duration::from_millis(40)),
            u32::MAX,
        ))));
    let token = db.cancel_handle();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        token.cancel();
    });
    let report = db
        .run_with_limits(UNIFIED_SQL, RunLimits::default())
        .unwrap();
    canceller.join().unwrap();
    let fail = report.failure.expect("cancel landed mid-query");
    assert_eq!(fail.kind, "cancelled");
    assert!(fail.resource_limit);
    // Partial-progress counters are present and consistent.
    assert_eq!(fail.ops_completed, report.ops.len());
    assert!(fail.last_stage.is_some() || fail.rows_processed == 0);
    // run_with_limits cleared the sticky cancel: the session runs clean.
    db.context().set_fault_plan(None);
    assert!(db.run(UNIFIED_SQL).is_ok());
    assert_eq!(
        db.metrics_registry().failures_by_kind().get("cancelled"),
        Some(&1)
    );
}

#[test]
fn deadline_and_budget_limits_surface_as_resource_failures() {
    let mut db = session(EngineProfile::clean_db());
    let report = db
        .run_with_limits(
            UNIFIED_SQL,
            RunLimits {
                timeout: Some(Duration::ZERO),
                ..RunLimits::default()
            },
        )
        .unwrap();
    let fail = report.failure.expect("zero deadline expires immediately");
    assert_eq!(fail.kind, "deadline_exceeded");
    assert!(fail.resource_limit);

    // Table 5 from one statement: the FD completes, then the DC's theta
    // join asks for its comparisons up front — the whole product under the
    // cartesian baseline, the unpruned half of the matrix under clean_db.
    const FD_DC_SQL: &str = "SELECT * FROM customer c \
         FD(c.address | c.nationkey) DC(t1.nationkey > t2.nationkey + 2)";
    for profile in [EngineProfile::clean_db(), EngineProfile::spark_sql_like()] {
        let mut db = session(profile);
        let report = db
            .run_with_limits(
                FD_DC_SQL,
                RunLimits {
                    max_work: Some(1),
                    ..RunLimits::default()
                },
            )
            .unwrap();
        let fail = report
            .failure
            .expect("one work unit cannot cover the DC pair scan");
        assert_eq!(fail.kind, "budget_exceeded");
        assert!(fail.resource_limit);
        assert_eq!(fail.failed_op.as_deref(), Some("DC#1"));
        assert_eq!((fail.ops_completed, report.ops.len()), (1, 1));
        assert!(fail.rows_processed > 0);

        // The limit was disarmed: unlimited runs succeed.
        let report = db.run_with_limits(FD_DC_SQL, RunLimits::default()).unwrap();
        assert!(report.failure.is_none());
        let report = db
            .run_with_limits(UNIFIED_SQL, RunLimits::default())
            .unwrap();
        assert!(report.failure.is_none());
    }
}

/// Skew: one block holds every row, so its pair enumeration is quadratic
/// in the table. The sweep charges a block its `|A|·|B|` before it
/// enumerates, so a budget a tenth of that stops the operator up front —
/// for DEDUP and for a blocked DC, fused profile or not.
#[test]
fn a_quadratic_block_trips_the_work_budget_before_it_is_enumerated() {
    const MEMBERS: usize = 3_000;
    let one_block = || {
        let mut table = customer_table(MEMBERS);
        for row in &mut table.rows {
            let mut values = row.values().to_vec();
            values[1] = Value::str(ADDRS[0]);
            *row = Row::new(values);
        }
        table
    };
    for profile in [EngineProfile::clean_db(), EngineProfile::spark_sql_like()] {
        for (sql, op) in [
            (
                "SELECT * FROM customer c FD(c.address, c.nationkey) \
                 DEDUP(exact, LD, 0.7, c.address, c.name)",
                "DEDUP#1",
            ),
            (
                "SELECT * FROM customer c FD(c.address, c.nationkey) \
                 DC(t1.address = t2.address AND t1.nationkey > t2.nationkey + 3)",
                "DC#1",
            ),
        ] {
            let mut db = CleanDb::new(profile.clone());
            db.register("customer", one_block());
            let limits = RunLimits {
                max_work: Some(1_000_000),
                ..RunLimits::default()
            };
            let report = db.run_with_limits(sql, limits).unwrap();
            let fail = report
                .failure
                .unwrap_or_else(|| panic!("{}: {op} ran 9 M pairs on a 1 M budget", profile.name));
            assert_eq!(fail.kind, "budget_exceeded", "{}", fail.error);
            assert!(fail.resource_limit);
            assert_eq!(fail.failed_op.as_deref(), Some(op));
            assert_eq!((fail.ops_completed, report.ops.len()), (1, 1));
            assert!(
                fail.error.contains(&(MEMBERS * MEMBERS).to_string()),
                "the block's whole pair count is what was asked for: {}",
                fail.error
            );
        }
    }
}

#[test]
fn apply_repairs_is_all_or_nothing_under_mid_apply_faults() {
    let fix_for = |table: &str| Fix {
        table: table.into(),
        column: "address".into(),
        row_id: 0,
        original: Value::str(ADDRS[0]),
        repaired: Value::str("fixed st"),
        confidence: 1.0,
        rule: "fd".into(),
    };
    let section = RepairSection {
        fixes: vec![fix_for("t1"), fix_for("t2")],
        dropped_rows: vec![],
        unrepaired: 0,
        duration: Duration::ZERO,
    };
    for kind in [FaultKind::Error, FaultKind::Panic] {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("t1", customer_table(8));
        db.register("t2", customer_table(8));
        let before_t1 = db.table_rows("t1").unwrap();
        let before_t2 = db.table_rows("t2").unwrap();
        // The repair path columnarizes per table in order (t1 visit 0,
        // t2 visit 1): fail the *second* table after the first staged.
        db.context()
            .set_fault_plan(Some(Arc::new(FaultPlan::new().arm(
                FaultSite::Columnarize,
                1,
                kind,
                u32::MAX,
            ))));
        assert!(db.apply_repairs(&section).is_err());
        // Neither table changed — not even the one that staged cleanly.
        assert_eq!(db.table_rows("t1").unwrap(), before_t1);
        assert_eq!(db.table_rows("t2").unwrap(), before_t2);
        // Disarm: the same section applies fully.
        db.context().set_fault_plan(None);
        let applied = db.apply_repairs(&section).unwrap();
        assert_eq!(applied.cells_changed(), 2);
        assert_ne!(db.table_rows("t1").unwrap(), before_t1);
        assert_ne!(db.table_rows("t2").unwrap(), before_t2);
    }
}

#[test]
fn seeded_chaos_is_deterministic_across_fresh_sessions() {
    let outcome = |seed: u64| {
        let mut db = session(EngineProfile::clean_db());
        db.context()
            .set_fault_plan(Some(Arc::new(FaultPlan::seeded(seed, &FaultSite::ALL, 4))));
        let report = db
            .run_with_limits(UNIFIED_SQL, RunLimits::default())
            .unwrap();
        (
            report
                .failure
                .as_ref()
                .map(|f| (f.kind.clone(), f.error.clone())),
            fingerprint(&report),
        )
    };
    for seed in 0..8u64 {
        assert_eq!(outcome(seed), outcome(seed), "seed {seed} diverged");
    }
}

#[test]
fn failure_counters_reach_the_registry_snapshot() {
    let mut db = session(EngineProfile::clean_db());
    db.context()
        .set_fault_plan(Some(Arc::new(FaultPlan::new().arm(
            FaultSite::PartitionStart,
            0,
            FaultKind::Error,
            u32::MAX,
        ))));
    let report = db
        .run_with_limits(UNIFIED_SQL, RunLimits::default())
        .unwrap();
    assert_eq!(report.failure.as_ref().unwrap().kind, "fault_injected");
    let json = db.metrics_registry().snapshot_json();
    assert!(
        json.contains("\"failures_by_kind\": {\"fault_injected\": 1}"),
        "{json}"
    );
    assert!(db
        .metrics_registry()
        .summary()
        .contains("failures[fault_injected]: 1"));
}
