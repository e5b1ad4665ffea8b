//! End-to-end observability tests.
//!
//! Three obligations, per the observability design rules:
//! 1. **Differential**: tracing is read-only — a traced session produces
//!    byte-identical results (violations, repairs, outputs, stats, plan
//!    text) to an untraced one, for FD / DEDUP / CLUSTER BY / GROUP BY
//!    queries and programmatic DCs; the only difference is the new
//!    `profiles` field.
//! 2. **Fixture pins**: the profile tree of a known 3-row table has exact
//!    per-node row counts, the expected flags (`fold-groups`, `shared`,
//!    `cached`), and survives the JSON round-trip.
//! 3. **Session registry**: latency percentiles and cache hit ratios
//!    aggregate correctly over a multi-query session.

use cleanm_core::engine::CleaningReport;
use cleanm_core::ops::{DcOutcome, InequalityDc};
use cleanm_core::{CleanDb, EngineProfile};
use cleanm_values::{DataType, Row, Schema, Table, Value};
use proptest::prelude::*;

const NAMES: [&str; 6] = ["anderson", "andersen", "zhang", "zheng", "miller", "mellor"];
const ADDRS: [&str; 4] = ["a st", "b st", "c st", "d st"];

fn schema() -> Schema {
    Schema::of([
        ("name", DataType::Str),
        ("address", DataType::Str),
        ("nationkey", DataType::Int),
    ])
}

fn table_of(specs: &[(usize, usize, i64)]) -> Table {
    let rows = specs
        .iter()
        .map(|&(n, a, k)| {
            Row::new(vec![
                Value::str(NAMES[n % NAMES.len()]),
                Value::str(ADDRS[a % ADDRS.len()]),
                Value::Int(k),
            ])
        })
        .collect();
    Table::new(schema(), rows)
}

/// The fixed 3-row fixture used by the pinning tests: rows 0 and 1 share
/// `a st` with different nation keys (one FD violation pair, one fuzzy
/// dedup pair).
fn customer_table() -> Table {
    table_of(&[(0, 0, 1), (1, 0, 2), (2, 1, 3)])
}

const FD_SQL: &str = "SELECT * FROM customer c FD(c.address, c.nationkey)";
const UNIFIED_SQL: &str = "SELECT * FROM customer c \
     FD(c.address, c.nationkey) \
     DEDUP(exact, LD, 0.7, c.address, c.name)";
const GROUP_SQL: &str = "SELECT c.nationkey, count(*) AS n, max(c.name) AS m \
     FROM customer c GROUP BY c.nationkey";
const CLUSTER_SQL: &str = "SELECT * FROM customer c, dict d \
     CLUSTER BY(token_filtering(2), LD, 0.75, c.name)";

fn session(profile: EngineProfile, data: &Table, traced: bool) -> CleanDb {
    let mut db = CleanDb::new(profile);
    db.register("customer", data.clone());
    db.register_dictionary(
        "dict",
        vec!["anderson".into(), "zhang".into(), "miller".into()],
    );
    db.set_tracing(traced);
    db
}

/// Replace `node@0x<hex>` shared-plan-node markers with a fixed token so
/// plan text compares across sessions.
fn strip_addrs(s: &str) -> String {
    let mut out = String::new();
    let mut rest = s;
    while let Some(i) = rest.find("node@0x") {
        out.push_str(&rest[..i]);
        out.push_str("node@0x_");
        let tail = &rest[i + "node@0x".len()..];
        let skip = tail
            .find(|c: char| !c.is_ascii_hexdigit())
            .unwrap_or(tail.len());
        rest = &tail[skip..];
    }
    out.push_str(rest);
    out
}

/// Deep-sort every list inside a value so member order is canonical —
/// parallel hash aggregation emits groups in nondeterministic order
/// between runs, traced or not.
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

fn canon_output(vs: &[Value]) -> Vec<Value> {
    let mut out: Vec<Value> = vs.iter().map(deep_sort).collect();
    out.sort();
    out
}

/// Assert two reports are identical in everything except timings and the
/// `profiles` field (which only the traced run fills in).
fn assert_same_modulo_profiles(plain: &CleaningReport, traced: &CleaningReport, ctx: &str) {
    assert_eq!(plain.profile, traced.profile, "{ctx}: profile");
    assert_eq!(
        plain.violating_ids, traced.violating_ids,
        "{ctx}: violating ids"
    );
    let sorted_repairs = |r: &CleaningReport| {
        let mut rs = r.repairs.clone();
        rs.sort();
        rs
    };
    assert_eq!(
        sorted_repairs(plain),
        sorted_repairs(traced),
        "{ctx}: repairs"
    );
    assert_eq!(plain.ops.len(), traced.ops.len(), "{ctx}: op count");
    for (p, t) in plain.ops.iter().zip(&traced.ops) {
        assert_eq!(p.label, t.label, "{ctx}: op label");
        assert_eq!(p.kind, t.kind, "{ctx}: op kind");
        assert_eq!(
            canon_output(&p.output),
            canon_output(&t.output),
            "{ctx}: op `{}` output",
            p.label
        );
    }
    assert_eq!(
        plain.normalize_stats, traced.normalize_stats,
        "{ctx}: normalize stats"
    );
    assert_eq!(
        plain.rewrite_stats, traced.rewrite_stats,
        "{ctx}: rewrite stats"
    );
    // Plan text embeds shared-node addresses (`node@0x…`) that differ
    // between sessions; compare modulo those.
    assert_eq!(
        strip_addrs(&plain.plan_text),
        strip_addrs(&traced.plan_text),
        "{ctx}: plan text"
    );
    assert_eq!(plain.decisions, traced.decisions, "{ctx}: decisions");
    assert_eq!(plain.exprs, traced.exprs, "{ctx}: expr stats");
    assert_eq!(plain.plan_cache, traced.plan_cache, "{ctx}: plan cache");
    assert_eq!(
        plain.metrics.records_shuffled, traced.metrics.records_shuffled,
        "{ctx}: shuffled"
    );
    assert_eq!(
        plain.metrics.comparisons, traced.metrics.comparisons,
        "{ctx}: comparisons"
    );
    // Stage structure (operators, volumes) matches; only times may differ.
    let shape = |r: &CleaningReport| {
        r.metrics
            .stages
            .iter()
            .map(|s| (s.operator, s.records_in, s.records_shuffled))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(plain), shape(traced), "{ctx}: stage shape");
    // The one allowed difference: the traced run carries profiles.
    assert!(plain.profiles.is_empty(), "{ctx}: untraced has no profiles");
    assert!(
        traced.profiles.len() >= plain.ops.len(),
        "{ctx}: traced run profiles every op"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tracing changes no report output, on random tables, across a query
    /// sequence covering FD, unified FD+DEDUP (with a plan-cache repeat),
    /// CLUSTER BY, and GROUP BY.
    #[test]
    fn tracing_is_read_only(
        specs in proptest::collection::vec((0usize..6, 0usize..4, 0i64..3), 1..30),
    ) {
        let data = table_of(&specs);
        let mut plain = session(EngineProfile::clean_db(), &data, false);
        let mut traced = session(EngineProfile::clean_db(), &data, true);
        for (i, sql) in [FD_SQL, UNIFIED_SQL, UNIFIED_SQL, CLUSTER_SQL, GROUP_SQL]
            .iter()
            .enumerate()
        {
            let p = plain.run(sql).unwrap();
            let t = traced.run(sql).unwrap();
            assert_same_modulo_profiles(&p, &t, &format!("query #{i}"));
        }
    }
}

/// Tracing changes no DC outcome, and a typed DC run is visible where every
/// other operator is: layer spans, the registry, the plan cache, and a
/// report with the theta node's decision and profile tree.
#[test]
fn typed_dc_runs_are_traced_cached_and_read_only() {
    let lineitem = || {
        let schema = Schema::of([
            ("extendedprice", DataType::Float),
            ("discount", DataType::Float),
        ]);
        let mut rows: Vec<Row> = (0..80)
            .map(|i| {
                Row::new(vec![
                    Value::Float(100.0 + i as f64),
                    Value::Float(i as f64 / 80.0),
                ])
            })
            .collect();
        rows.push(Row::new(vec![Value::Float(50.0), Value::Float(0.99)]));
        Table::new(schema, rows)
    };
    let rule = InequalityDc::rule_psi("lineitem", 60.0);
    let run = |traced: bool| {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("lineitem", lineitem());
        db.set_tracing(traced);
        let outcome = rule.run(&mut db).unwrap();
        (outcome, db)
    };
    let (plain, _) = run(false);
    let (traced, mut db) = run(true);
    match (plain, traced) {
        (
            DcOutcome::Completed {
                violations: plain, ..
            },
            DcOutcome::Completed {
                violations: traced, ..
            },
        ) => assert_eq!(plain, traced),
        other => panic!("{other:?}"),
    }

    let log = db.context().tracer().take();
    for layer in ["parse", "desugar", "normalize", "plan", "execute"] {
        assert!(log.spans.iter().any(|s| s.name == layer), "no {layer} span");
    }
    assert_eq!(db.metrics_registry().query_latency().count(), 1);
    assert_eq!(db.metrics_registry().violations_by_op()["Dc"], 81);

    // The same rule again — typed or as text — is a plan-cache hit.
    rule.run(&mut db).unwrap();
    let report = db.run(&rule.to_sql()).unwrap();
    assert_eq!(db.plan_cache_counters(), (2, 1));
    let theta = report
        .decisions
        .iter()
        .find(|d| d.operator == "theta")
        .expect("a decision for the theta node");
    assert_eq!(theta.strategy, "MBucket");
    let tree = report.profile_tree();
    assert!(
        tree.contains("ThetaJoin") && tree.contains("Select"),
        "{tree}"
    );
}

/// Traced runs agree with untraced ones under every fixed engine profile,
/// not just CleanDB.
#[test]
fn tracing_is_read_only_across_profiles() {
    for profile in [
        EngineProfile::clean_db(),
        EngineProfile::spark_sql_like(),
        EngineProfile::big_dansing_like(),
    ] {
        let data = customer_table();
        let mut plain = session(profile.clone(), &data, false);
        let mut traced = session(profile.clone(), &data, true);
        let p = plain.run(UNIFIED_SQL).unwrap();
        let t = traced.run(UNIFIED_SQL).unwrap();
        assert_same_modulo_profiles(&p, &t, &profile.name);
    }
}

/// Pin the FD profile tree on the 3-row fixture: exact row counts per
/// node, the streaming-fold flag, and stage attribution.
#[test]
fn fd_profile_tree_pins_row_counts() {
    let mut db = session(EngineProfile::clean_db(), &customer_table(), true);
    let report = db.run(FD_SQL).unwrap();
    assert_eq!(report.profiles.len(), 1);
    let prof = &report.profiles[0];
    assert!(prof.op.contains("FD"), "op label: {}", prof.op);
    let root = &prof.root;

    // The scan feeds all 3 fixture rows into the tree (desugar renames
    // the row variable to `d0`).
    let scan = root.find("Scan").expect("scan node");
    assert_eq!(scan.rows_out, 3, "tree:\n{}", prof.render());
    assert_eq!(scan.detail, "customer as d0");

    // The fused grouping+filter+reduce pass emits only the violating
    // group (both `a st` rows, nation keys 1 and 2).
    assert_eq!(root.rows_in, 3, "tree:\n{}", prof.render());
    assert_eq!(root.rows_out, 1, "tree:\n{}", prof.render());
    assert_eq!(report.violating_ids, vec![0, 1]);

    // CleanDB folds grouping and reduction into one streaming pass.
    assert_eq!(root.op, "GroupFold", "tree:\n{}", prof.render());
    assert!(root.flags.iter().any(|f| f == "fold-groups"));

    // Wall time nests: the root's wall covers its children.
    for c in &root.children {
        assert!(root.wall_ns >= c.wall_ns, "tree:\n{}", prof.render());
    }

    // Rendered tree and JSON agree on the essentials.
    let text = report.profile_tree();
    assert!(text.contains("GroupFold"));
    assert!(text.contains("rows 3→1"), "{text}");
    let js = report.profiles_json();
    assert!(js.starts_with('[') && js.ends_with(']'));
    assert!(js.contains("\"op\": \"GroupFold\""));
    assert!(js.contains("\"rows_out\": 1"));
}

/// The unified FD+DEDUP query shares one grouping under CleanDB: its first
/// computation is flagged `shared`, the second operator's reuse `cached`.
#[test]
fn shared_plan_shows_shared_and_cached_nodes() {
    let mut db = session(EngineProfile::clean_db(), &customer_table(), true);
    let report = db.run(UNIFIED_SQL).unwrap();
    assert_eq!(report.rewrite_stats.shared_nests, 1);
    assert_eq!(report.profiles.len(), 2);
    let all_flags: Vec<&str> = report
        .profiles
        .iter()
        .flat_map(|p| {
            let mut stack = vec![&p.root];
            let mut flags = Vec::new();
            while let Some(n) = stack.pop() {
                flags.extend(n.flags.iter().map(String::as_str));
                stack.extend(&n.children);
            }
            flags
        })
        .collect();
    assert!(
        all_flags.contains(&"shared"),
        "flags {all_flags:?}\n{}",
        report.profile_tree()
    );
    assert!(
        all_flags.contains(&"cached"),
        "flags {all_flags:?}\n{}",
        report.profile_tree()
    );
}

/// `explain` forces tracing for one query, returns the rendered tree, and
/// restores the session's tracing flag.
#[test]
fn explain_renders_and_restores_flag() {
    let mut db = session(EngineProfile::clean_db(), &customer_table(), false);
    assert!(!db.tracing());
    let text = db.explain(FD_SQL).unwrap();
    assert!(!db.tracing(), "flag restored");
    assert!(text.contains("GroupFold"), "{text}");
    assert!(text.contains("Scan customer as d0"), "{text}");
    // An ordinary run afterwards is untraced again.
    let report = db.run(FD_SQL).unwrap();
    assert!(report.profiles.is_empty());

    // And explain on an already-tracing session leaves tracing on.
    db.set_tracing(true);
    db.explain(FD_SQL).unwrap();
    assert!(db.tracing());
}

/// The session registry aggregates latencies, cache ratios, and violation
/// counts across a multi-query session.
#[test]
fn registry_aggregates_across_queries() {
    let mut db = session(EngineProfile::clean_db(), &customer_table(), false);
    for _ in 0..3 {
        db.run(FD_SQL).unwrap();
    }
    db.run(GROUP_SQL).unwrap();
    let reg = db.metrics_registry();
    assert_eq!(reg.query_latency().count(), 4);
    let (p50, p90, p99) = reg.query_latency().percentiles().unwrap();
    assert!(p50 <= p90 && p90 <= p99);
    // Runs 2 and 3 of the FD query hit the plan cache; run 1 and the GROUP
    // BY query missed.
    assert_eq!(reg.plan_cache_hit_ratio(), Some(0.5));
    // FD violations were recorded under their op kind.
    assert!(reg.violations_by_op().contains_key("Fd"));
    // No refreshes ran in this batch-only session.
    assert_eq!(reg.refresh_latency().count(), 0);
    let js = reg.snapshot_json();
    assert!(js.contains("\"query_latency\": {\"count\": 4"));
    assert!(js.contains("\"plan_cache\": {\"hits\": 2, \"misses\": 2"));
    let summary = reg.summary();
    assert!(summary.contains("queries: 4 observed"));
    assert!(summary.contains("violations[Fd]"));
}

/// With tracing on, the pipeline layers record spans (parse, desugar,
/// normalize, plan, execute) and the plan cache announces hits as events.
#[test]
fn pipeline_layers_record_spans() {
    let mut db = session(EngineProfile::clean_db(), &customer_table(), true);
    db.run(FD_SQL).unwrap();
    let log = db.context().tracer().take();
    let names: Vec<&str> = log.spans.iter().map(|s| s.name).collect();
    for expected in ["parse", "desugar", "normalize", "plan", "execute"] {
        assert!(
            names.contains(&expected),
            "missing `{expected}` in {names:?}"
        );
    }
    // A repeat run takes the text fast path and says so.
    db.run(FD_SQL).unwrap();
    let log = db.context().tracer().take();
    assert!(
        log.spans.iter().any(|s| s.name == "plan_cache_text_hit"),
        "{:?}",
        log.spans.iter().map(|s| s.name).collect::<Vec<_>>()
    );
    // Disabled tracer records nothing.
    db.set_tracing(false);
    db.run(FD_SQL).unwrap();
    assert!(db.context().tracer().take().spans.is_empty());
}
