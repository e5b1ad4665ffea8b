//! Differential tests: incremental ≡ batch.
//!
//! Interleave `append` + standing-query refreshes and assert every report
//! matches a from-scratch run over the concatenated data — violating ids,
//! repairs, and per-operator outputs (canonicalized: group partitions are
//! order-free multisets). Fallback paths (catalog-sampled k-means,
//! dictionary changes, replaced tables) are exercised too.

use cleanm_core::engine::CleaningReport;
use cleanm_core::ops::InequalityDc;
use cleanm_core::{CleanDb, EngineProfile};
use cleanm_incr::IncrementalSession;
use cleanm_values::{DataType, Row, Schema, Table, Value};
use proptest::prelude::*;

const NAMES: [&str; 6] = ["anderson", "andersen", "zhang", "zheng", "miller", "mellor"];
const ADDRS: [&str; 4] = ["a st", "b st", "c st", "d st"];

#[derive(Debug, Clone)]
struct RowSpec {
    name: usize,
    addr: usize,
    nation: i64,
}

fn row_spec() -> impl Strategy<Value = RowSpec> {
    (0usize..NAMES.len(), 0usize..ADDRS.len(), 0i64..3).prop_map(|(name, addr, nation)| RowSpec {
        name,
        addr,
        nation,
    })
}

fn schema() -> Schema {
    Schema::of([
        ("name", DataType::Str),
        ("address", DataType::Str),
        ("nationkey", DataType::Int),
    ])
}

fn make_table(rows: &[RowSpec]) -> Table {
    Table::new(
        schema(),
        rows.iter()
            .map(|r| {
                Row::new(vec![
                    Value::str(NAMES[r.name]),
                    Value::str(ADDRS[r.addr]),
                    Value::Int(r.nation),
                ])
            })
            .collect(),
    )
}

/// Deep-sort every list inside a value so member order is canonical.
fn deep_sort(v: &Value) -> Value {
    match v {
        Value::List(items) => {
            let mut xs: Vec<Value> = items.iter().map(deep_sort).collect();
            xs.sort();
            Value::list(xs)
        }
        Value::Struct(fields) => Value::Struct(
            fields
                .iter()
                .map(|(n, x)| (n.clone(), deep_sort(x)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The observable cleaning result, order-canonicalized: violating ids,
/// sorted `(term, repair)` pairs, and per-op canonical outputs.
type Canonical = (Vec<i64>, Vec<(String, String)>, Vec<(String, Vec<Value>)>);

fn canonical(report: &CleaningReport) -> Canonical {
    let mut repairs: Vec<(String, String)> = report
        .repairs
        .iter()
        .map(|r| (r.term.clone(), r.suggestion.clone()))
        .collect();
    repairs.sort();
    let ops = report
        .ops
        .iter()
        .map(|op| {
            let mut out: Vec<Value> = op.output.iter().map(deep_sort).collect();
            out.sort();
            (op.label.clone(), out)
        })
        .collect();
    (report.violating_ids.clone(), repairs, ops)
}

/// Run `sql` from scratch over the concatenation of all batches.
fn batch_run(sql: &str, batches: &[Vec<RowSpec>], dict: Option<&[&str]>) -> CleaningReport {
    let mut db = CleanDb::new(EngineProfile::clean_db());
    let all: Vec<RowSpec> = batches.iter().flatten().cloned().collect();
    db.register("customer", make_table(&all));
    if let Some(terms) = dict {
        db.register_dictionary("dict", terms.iter().map(|t| t.to_string()).collect());
    }
    db.run(sql).expect("batch run")
}

/// Drive an incremental session through the batches, asserting equivalence
/// after every refresh.
fn check_incremental(sql: &str, batches: &[Vec<RowSpec>], dict: Option<&[&str]>) {
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register("customer", make_table(&batches[0]));
    if let Some(terms) = dict {
        db.register_dictionary("dict", terms.iter().map(|t| t.to_string()).collect());
    }
    let mut session = IncrementalSession::new(db);
    let (id, baseline) = session.install(sql).expect("install");
    let expected0 = batch_run(sql, &batches[..1], dict);
    assert_eq!(canonical(&baseline), canonical(&expected0), "baseline");

    for upto in 1..batches.len() {
        session
            .append("customer", make_table(&batches[upto]))
            .expect("append");
        let got = session.refresh(id).expect("refresh");
        let want = batch_run(sql, &batches[..=upto], dict);
        assert_eq!(
            canonical(&got),
            canonical(&want),
            "after batch {upto} of {sql}"
        );
        let info = got.incremental.expect("incremental info present");
        assert_eq!(info.delta_rows, batches[upto].len());
        assert_eq!(
            info.fallback_ops, 0,
            "supported shapes must not fall back: {sql}"
        );
    }
}

fn batches_strategy() -> impl Strategy<Value = Vec<Vec<RowSpec>>> {
    (
        proptest::collection::vec(row_spec(), 1..20),
        proptest::collection::vec(proptest::collection::vec(row_spec(), 1..8), 1..3),
    )
        .prop_map(|(first, mut rest)| {
            let mut all = vec![first];
            all.append(&mut rest);
            all
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fd_incremental_equals_batch(batches in batches_strategy()) {
        check_incremental(
            "SELECT * FROM customer c FD(c.address, c.nationkey)",
            &batches,
            None,
        );
    }

    #[test]
    fn dedup_incremental_equals_batch(batches in batches_strategy()) {
        check_incremental(
            "SELECT * FROM customer c DEDUP(exact, LD, 0.7, c.address, c.name)",
            &batches,
            None,
        );
    }

    #[test]
    fn multikey_dedup_incremental_equals_batch(batches in batches_strategy()) {
        check_incremental(
            "SELECT * FROM customer c DEDUP(token_filtering(2), LD, 0.7, c.name)",
            &batches,
            None,
        );
    }

    #[test]
    fn unified_query_incremental_equals_batch(batches in batches_strategy()) {
        check_incremental(
            "SELECT * FROM customer c \
             FD(c.address, c.nationkey) \
             DEDUP(exact, LD, 0.7, c.address, c.name)",
            &batches,
            None,
        );
    }

    #[test]
    fn filtered_select_incremental_equals_batch(batches in batches_strategy()) {
        check_incremental(
            "SELECT c.name AS n FROM customer c WHERE c.nationkey = 1",
            &batches,
            None,
        );
    }

    #[test]
    fn distinct_select_incremental_equals_batch(batches in batches_strategy()) {
        check_incremental(
            "SELECT DISTINCT c.nationkey FROM customer c",
            &batches,
            None,
        );
    }

    #[test]
    fn termval_incremental_equals_batch(batches in batches_strategy()) {
        check_incremental(
            "SELECT * FROM customer c, dict w CLUSTER BY(token_filtering(2), LD, 0.7, c.name)",
            &batches,
            Some(&["anderson", "zhang", "miller"]),
        );
    }

    #[test]
    fn fd_dc_incremental_equals_batch(batches in batches_strategy()) {
        check_incremental(
            "SELECT * FROM customer c \
             FD(c.address, c.nationkey) \
             DC(t1.nationkey < t2.nationkey AND t1.name > t2.name)",
            &batches,
            None,
        );
    }

    #[test]
    fn blocked_dc_incremental_equals_batch(batches in batches_strategy()) {
        check_incremental(
            "SELECT * FROM customer c DC(t1.address = t2.address AND t1.nationkey < t2.nationkey)",
            &batches,
            None,
        );
    }

    #[test]
    fn group_by_having_incremental_equals_batch(batches in batches_strategy()) {
        // Integer aggregates: a float sum folded row by row may differ from
        // the batch's chunked fold in the last ulp.
        check_incremental(
            "SELECT c.address AS a, count(*) AS n, sum(c.nationkey) AS s, max(c.nationkey) AS m \
             FROM customer c GROUP BY c.address HAVING count(*) > 1",
            &batches,
            None,
        );
    }

    #[test]
    fn fd_with_where_incremental_equals_batch(batches in batches_strategy()) {
        check_incremental(
            "SELECT * FROM customer c WHERE c.nationkey < 2 FD(c.address, c.name)",
            &batches,
            None,
        );
    }
}

#[test]
fn group_by_is_maintained_from_its_group_fold() {
    // GROUP BY lowers to a grouped Reduce the batch group fold accepts: its
    // groups are kept and folded into.
    let sql = "SELECT c.address AS a, count(*) AS n FROM customer c GROUP BY c.address";
    let batches = vec![
        vec![
            RowSpec {
                name: 0,
                addr: 0,
                nation: 1,
            },
            RowSpec {
                name: 1,
                addr: 0,
                nation: 2,
            },
        ],
        vec![RowSpec {
            name: 2,
            addr: 1,
            nation: 1,
        }],
    ];
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register("customer", make_table(&batches[0]));
    let mut session = IncrementalSession::new(db);
    let (id, _) = session.install(sql).expect("install");
    session
        .append("customer", make_table(&batches[1]))
        .expect("append");
    let got = session.refresh(id).expect("refresh");
    let info = got.incremental.clone().expect("incremental info");
    assert_eq!(info.fallback_ops, 0, "GROUP BY op must be maintained");
    assert_eq!(info.incremental_ops, 1);
    let want = batch_run(sql, &batches, None);
    assert_eq!(canonical(&got), canonical(&want));
}

#[test]
fn catalog_sampled_kmeans_blocking_falls_back_to_stay_correct() {
    // With no dictionary, k-means centers are sampled from the catalog and
    // re-sample whenever it changes — retained block indexes would
    // diverge from a from-scratch run, so such ops must fall back.
    let sql = "SELECT * FROM customer c DEDUP(kmeans(3), LD, 0.7, c.name)";
    let batches = vec![
        (0..10)
            .map(|i| RowSpec {
                name: i % NAMES.len(),
                addr: i % ADDRS.len(),
                nation: 0,
            })
            .collect::<Vec<_>>(),
        vec![RowSpec {
            name: 1,
            addr: 2,
            nation: 1,
        }],
    ];
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register("customer", make_table(&batches[0]));
    let mut session = IncrementalSession::new(db);
    let (id, _) = session.install(sql).expect("install");
    session
        .append("customer", make_table(&batches[1]))
        .expect("append");
    let got = session.refresh(id).expect("refresh");
    let info = got.incremental.clone().expect("incremental info");
    assert!(
        info.fallback_ops > 0,
        "catalog-sampled k-means must not keep state"
    );
    assert_eq!(info.delta_rows, 1, "a fallback op's tables are tracked");
    let want = batch_run(sql, &batches, None);
    assert_eq!(canonical(&got), canonical(&want));
}

#[test]
fn dictionary_table_appends_are_revalidated_incrementally() {
    // Appending rows to the dictionary *table* (same lineage, dict_gen
    // unchanged) must compare the new entries against all existing data
    // terms — not be silently dropped.
    let sql = "SELECT * FROM customer c, dict w CLUSTER BY(token_filtering(2), LD, 0.7, c.name)";
    let first = vec![RowSpec {
        name: 1, // "andersen"
        addr: 0,
        nation: 0,
    }];
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register("customer", make_table(&first));
    db.register_dictionary("dict", vec!["zhang".into()]);
    let mut session = IncrementalSession::new(db);
    let (id, baseline) = session.install(sql).expect("install");
    assert!(baseline.repairs.is_empty(), "{:?}", baseline.repairs);

    // New dictionary rows arrive as an append to the dict table.
    let dict_schema = Schema::of([("term", DataType::Str)]);
    session
        .db()
        .append(
            "dict",
            Table::new(dict_schema, vec![Row::new(vec![Value::str("anderson")])]),
        )
        .expect("append dict rows");
    let got = session.refresh(id).expect("refresh");
    let info = got.incremental.clone().expect("incremental info");
    assert_eq!(info.fallback_ops, 0, "dict appends are maintainable");
    assert_eq!(info.delta_rows, 1);
    assert!(
        got.repairs
            .iter()
            .any(|r| r.term == "andersen" && r.suggestion == "anderson"),
        "new dictionary entry must validate existing terms: {:?}",
        got.repairs
    );
    // And it matches a from-scratch run over the same final state.
    let mut fresh = CleanDb::new(EngineProfile::clean_db());
    fresh.register("customer", make_table(&first));
    fresh.register_dictionary("dict", vec!["zhang".into()]);
    fresh
        .append(
            "dict",
            Table::new(
                Schema::of([("term", DataType::Str)]),
                vec![Row::new(vec![Value::str("anderson")])],
            ),
        )
        .expect("append");
    let want = fresh.run(sql).expect("batch");
    assert_eq!(canonical(&got), canonical(&want));
}

#[test]
fn refresh_metrics_do_not_accumulate_across_refreshes() {
    let sql = "SELECT * FROM customer c DEDUP(exact, LD, 0.7, c.address, c.name)";
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register(
        "customer",
        make_table(&[
            RowSpec {
                name: 0,
                addr: 0,
                nation: 0,
            },
            RowSpec {
                name: 1,
                addr: 0,
                nation: 0,
            },
        ]),
    );
    let mut session = IncrementalSession::new(db);
    let (id, _) = session.install(sql).expect("install");
    session
        .append(
            "customer",
            make_table(&[RowSpec {
                name: 0,
                addr: 0,
                nation: 0,
            }]),
        )
        .expect("append");
    let first = session.refresh(id).expect("refresh");
    // A refresh with no new rows does no comparison work — and must not
    // re-report the previous refresh's (or the install run's) counters.
    let idle = session.refresh(id).expect("idle refresh");
    assert_eq!(idle.metrics.comparisons, 0, "{:?}", idle.metrics);
    assert!(first.metrics.comparisons > 0);
}

#[test]
fn dictionary_change_forces_full_rebuild() {
    let sql = "SELECT * FROM customer c, dict w CLUSTER BY(token_filtering(2), LD, 0.7, c.name)";
    let first = vec![RowSpec {
        name: 1,
        addr: 0,
        nation: 0,
    }];
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register("customer", make_table(&first));
    db.register_dictionary("dict", vec!["anderson".into()]);
    let mut session = IncrementalSession::new(db);
    let (id, baseline) = session.install(sql).expect("install");
    assert!(baseline
        .repairs
        .iter()
        .any(|r| r.term == "andersen" && r.suggestion == "anderson"));

    // Re-registering the dictionary invalidates the standing state: the
    // next refresh is a counted full rebuild against the new terms.
    session
        .db()
        .register_dictionary("dict", vec!["zhang".into()]);
    let got = session.refresh(id).expect("refresh");
    let info = got.incremental.clone().expect("incremental info");
    assert!(info.fallback_ops > 0, "dictionary change must fall back");
    assert!(
        !got.repairs.iter().any(|r| r.suggestion == "anderson"),
        "stale dictionary state must not leak: {:?}",
        got.repairs
    );

    // And the rebuilt state keeps validating appends incrementally.
    session
        .append(
            "customer",
            make_table(&[RowSpec {
                name: 3,
                addr: 0,
                nation: 0,
            }]),
        )
        .expect("append");
    let again = session.refresh(id).expect("refresh");
    assert_eq!(again.incremental.unwrap().fallback_ops, 0);
    assert!(again
        .repairs
        .iter()
        .any(|r| r.term == "zheng" && r.suggestion == "zhang"));
}

#[test]
fn table_replacement_forces_full_rebuild() {
    let sql = "SELECT * FROM customer c FD(c.address, c.nationkey)";
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register(
        "customer",
        make_table(&[
            RowSpec {
                name: 0,
                addr: 0,
                nation: 0,
            },
            RowSpec {
                name: 1,
                addr: 0,
                nation: 1,
            },
        ]),
    );
    let mut session = IncrementalSession::new(db);
    let (id, baseline) = session.install(sql).expect("install");
    assert_eq!(baseline.violating_ids, vec![0, 1]);

    // Replace the table wholesale: retained groups are garbage now.
    session.db().register(
        "customer",
        make_table(&[RowSpec {
            name: 2,
            addr: 1,
            nation: 2,
        }]),
    );
    let got = session.refresh(id).expect("refresh");
    assert!(got.incremental.unwrap().fallback_ops > 0);
    assert!(got.violating_ids.is_empty(), "{:?}", got.violating_ids);
}

fn lineitem(rows: &[(f64, Value)]) -> Table {
    let schema = Schema::of([
        ("extendedprice", DataType::Float),
        ("discount", DataType::Float),
    ]);
    let rows = rows
        .iter()
        .map(|(p, d)| Row::new(vec![Value::Float(*p), d.clone()]));
    Table::new(schema, rows.collect())
}

#[test]
fn standing_dc_counts_new_pairs_like_batch() {
    let floats = |rows: &[(f64, f64)]| -> Vec<(f64, Value)> {
        rows.iter().map(|&(p, d)| (p, Value::Float(d))).collect()
    };
    let base = floats(
        &(0..40)
            .map(|i| (100.0 + i as f64, i as f64 / 40.0))
            .collect::<Vec<_>>(),
    );
    let delta = floats(&[(50.0, 0.99), (120.5, 0.01)]);

    let rule = |pred: &str| InequalityDc {
        table: "lineitem".into(),
        pred: pred.into(),
    };
    // (rule, does its hint prune?) — ψ; ψ read from the other tuple (the
    // join's sides swap); a filter on the unindexed side; and a predicate
    // with no strict inequality to index by.
    let rules = [
        (InequalityDc::rule_psi("lineitem", 130.0), true),
        (
            rule("t1.discount > 0.5 AND t1.extendedprice > t2.extendedprice"),
            true,
        ),
        (
            rule("t1.extendedprice < t2.extendedprice AND t2.discount < 0.5 AND t1.discount > t2.discount"),
            true,
        ),
        (
            rule("t1.extendedprice <= t2.extendedprice AND t1.discount >= t2.discount + 0.5"),
            false,
        ),
    ];
    for (dc, prunes) in rules {
        let sql = dc.to_sql();
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("lineitem", lineitem(&base));
        let mut session = IncrementalSession::new(db);
        let (id, baseline) = session.install(&sql).expect("install dc");
        session
            .append("lineitem", lineitem(&delta))
            .expect("append");
        let refreshed = session.refresh(id).expect("refresh dc");
        assert_eq!(
            refreshed.incremental.as_ref().unwrap().fallback_ops,
            0,
            "{sql}"
        );

        // Reference: batch run over the concatenated table.
        let all = [&base[..], &delta[..]].concat();
        let mut fresh = CleanDb::new(EngineProfile::clean_db());
        fresh.register("lineitem", lineitem(&all));
        let want = fresh.run(&sql).expect("batch dc");
        assert_eq!(canonical(&refreshed), canonical(&want), "{sql}");
        assert!(want.violations() > baseline.violations(), "{sql}");
        // The standing index is keyed by the hint lowering derived: with a
        // strict inequality the delta probes a key range, not both sides
        // whole (2 delta rows × 42 + 40 historic × 2).
        let probes = refreshed.metrics.comparisons;
        let unpruned = (2 * all.len() + 2 * base.len()) as u64;
        assert_eq!(probes < unpruned, prunes, "{sql}: {probes} probes");
    }
}

#[test]
fn standing_dc_fails_a_refresh_like_the_batch_run() {
    let sql = "SELECT * FROM lineitem DC(t1.extendedprice < t2.extendedprice \
               AND t1.discount > t2.discount + 0.5)";
    let base: Vec<(f64, Value)> = (0..20)
        .map(|i| (100.0 + i as f64, Value::Float(i as f64 / 20.0)))
        .collect();
    let delta = [(200.0, Value::str("n/a"))];
    for profile in [EngineProfile::clean_db(), EngineProfile::spark_sql_like()] {
        let mut db = CleanDb::new(profile.clone());
        db.register("lineitem", lineitem(&base));
        let mut session = IncrementalSession::new(db);
        let (id, _) = session.install(sql).expect("install dc");
        session
            .append("lineitem", lineitem(&delta))
            .expect("append");
        let got = session.refresh(id).expect_err("a string discount fails");

        let mut fresh = CleanDb::new(profile.clone());
        fresh.register("lineitem", lineitem(&[&base[..], &delta[..]].concat()));
        let want = fresh.run(sql).expect_err("the batch run fails");
        assert_eq!(got.to_string(), want.to_string(), "{}", profile.name);
    }
}

#[test]
fn repeated_install_hits_plan_cache() {
    let sql = "SELECT * FROM customer c FD(c.address, c.nationkey)";
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register(
        "customer",
        make_table(&[RowSpec {
            name: 0,
            addr: 0,
            nation: 0,
        }]),
    );
    let mut session = IncrementalSession::new(db);
    let (_, first) = session.install(sql).expect("install");
    assert!(!first.plan_cache.hit);
    // The same query text again (e.g. a second tenant): planning skipped.
    let again = session.db().run(sql).expect("re-run");
    assert!(again.plan_cache.hit);
    assert!(again.plan_cache.hits >= 1);
}

#[test]
fn refreshes_feed_the_session_registry_and_trace() {
    let sql = "SELECT * FROM customer c FD(c.address, c.nationkey)";
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register(
        "customer",
        make_table(&[RowSpec {
            name: 0,
            addr: 0,
            nation: 0,
        }]),
    );
    db.set_tracing(true);
    let mut session = IncrementalSession::new(db);
    let (id, _) = session.install(sql).expect("install");
    session.db().context().tracer().take(); // drop install-time spans
    for nation in 1..3 {
        session
            .append(
                "customer",
                make_table(&[RowSpec {
                    name: 0,
                    addr: 0,
                    nation,
                }]),
            )
            .expect("append");
        session.refresh(id).expect("refresh");
    }
    // Each refresh recorded its wall time in the session-wide registry,
    // separately from batch-query latencies (install ran exactly one).
    let reg = session.db().metrics_registry();
    assert_eq!(reg.refresh_latency().count(), 2);
    assert_eq!(reg.query_latency().count(), 1);
    assert!(reg.refresh_latency().percentiles().is_some());
    // And the tracer saw one `refresh` span per refresh, each split into
    // one `absorb` (delta work) and one `assemble` (report work) child.
    let log = session.db().context().tracer().take();
    let named = |name: &str| -> Vec<_> { log.spans.iter().filter(|s| s.name == name).collect() };
    let refreshes = named("refresh");
    assert_eq!(refreshes.len(), 2, "{:?}", log.render());
    for child in ["absorb", "assemble"] {
        let spans = named(child);
        assert_eq!(spans.len(), 2, "{child}: {:?}", log.render());
        for (span, refresh) in spans.iter().zip(&refreshes) {
            assert_eq!(span.parent, refresh.id, "{child}: {:?}", log.render());
        }
    }
}
