//! Every telemetry export is JSON a reader can parse — here, the
//! workspace's own `formats::json` — with its documented top-level keys.
//! All of them render through one writer (`cleanm_trace::json`); these
//! tests hold its escaping and `null` rules at each export.

use std::time::Duration;

use cleanm::core::engine::{Fix, RepairSection};
use cleanm::core::{CleanDb, EngineProfile, RunLimits};
use cleanm::formats::json::parse;
use cleanm::values::{DataType, Row, Schema, Table, Value};

const SPAN_KEYS: [&str; 6] = ["id", "parent", "name", "start_ns", "duration_ns", "thread"];
const NODE_KEYS: [&str; 16] = [
    "op",
    "detail",
    "rows_in",
    "rows_out",
    "wall_ns",
    "busy_ns",
    "shuffled",
    "max_imbalance",
    "idle_fraction",
    "compiled_exprs",
    "fused_selects",
    "vectorized_rows",
    "flags",
    "strategies",
    "stages",
    "children",
];
const SNAPSHOT_KEYS: [&str; 9] = [
    "query_latency",
    "refresh_latency",
    "plan_cache",
    "records_shuffled",
    "comparisons",
    "exprs",
    "violations_by_op",
    "faults",
    "repairs",
];
const LATENCY_KEYS: [&str; 4] = ["count", "p50_ms", "p90_ms", "p99_ms"];

fn customer() -> Table {
    let schema = Schema::of([
        ("name", DataType::Str),
        ("address", DataType::Str),
        ("nationkey", DataType::Int),
    ]);
    let row = |name: &str, address: &str, nation: i64| {
        Row::new(vec![
            Value::str(name),
            Value::str(address),
            Value::Int(nation),
        ])
    };
    let rows = vec![
        row("anderson", "a st", 1),
        row("andersen", "a st", 2),
        row("zhang", "b st", 3),
        row("zheng", "b st", 3),
    ];
    Table::new(schema, rows)
}

fn session() -> CleanDb {
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register("customer", customer());
    db
}

/// Parse `text` as an object with exactly `keys`, in order.
fn object(text: &str, keys: &[&str]) -> Value {
    let v = parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(names(&v), keys, "{text}");
    v
}

fn names(v: &Value) -> Vec<&str> {
    let fields = v
        .as_struct()
        .unwrap_or_else(|_| panic!("not an object: {v}"));
    fields.iter().map(|(name, _)| name.as_ref()).collect()
}

fn at<'v>(v: &'v Value, path: &str) -> &'v Value {
    path.split('.').fold(v, |v, name| v.field(name).unwrap())
}

#[test]
fn trace_log_escapes_span_details() {
    let mut db = session();
    db.set_tracing(true);
    db.run("SELECT * FROM customer c FD(c.address, c.nationkey)")
        .unwrap();
    let detail = "quote \" backslash \\ newline \n control \u{1}";
    db.context().tracer().event("probe", detail);
    let log = db.context().tracer().take();

    let js = object(&log.to_json(), &["spans", "counters"]);
    let spans = js.field("spans").unwrap().as_list().unwrap();
    assert_eq!(spans.len(), log.spans.len());
    for span in spans {
        let keys = names(span);
        assert_eq!(keys[..6], SPAN_KEYS, "{span}");
        assert!(keys.len() == 6 || keys[6..] == ["detail"], "{span}");
    }
    let probe = spans
        .iter()
        .find(|s| s.field("name").unwrap() == &Value::str("probe"))
        .expect("the event is a span");
    assert_eq!(probe.field("detail").unwrap(), &Value::str(detail));
    assert!(names(js.field("counters").unwrap()).is_empty());
}

#[test]
fn profiles_json_carries_every_node_key() {
    fn check(node: &Value) -> usize {
        assert_eq!(names(node), NODE_KEYS, "{node}");
        let children = node.field("children").unwrap().as_list().unwrap();
        1 + children.iter().map(check).sum::<usize>()
    }
    let mut db = session();
    db.set_tracing(true);
    for (sql, ops) in [
        (
            "SELECT * FROM customer c FD(c.address, c.nationkey) \
             DEDUP(exact, LD, 0.7, c.address, c.name)",
            2,
        ),
        (
            "SELECT c.address, count(*) AS n FROM customer c GROUP BY c.address",
            1,
        ),
    ] {
        let report = db.run(sql).unwrap();
        let js = parse(&report.profiles_json()).unwrap();
        let profiles = js.as_list().unwrap();
        assert_eq!(profiles.len(), ops, "{sql}");
        for (p, profile) in profiles.iter().zip(&report.profiles) {
            assert_eq!(names(p), ["op", "root"]);
            assert_eq!(p.field("op").unwrap(), &Value::str(&profile.op));
            assert_eq!(check(p.field("root").unwrap()), profile.root.size());
        }
    }
}

#[test]
fn fresh_snapshot_has_nulls_for_ratios_and_empty_maps() {
    let db = session();
    let js = object(&db.metrics_registry().snapshot_json(), &SNAPSHOT_KEYS);
    for track in ["query_latency", "refresh_latency", "repairs.plan_latency"] {
        let latency = at(&js, track);
        assert_eq!(names(latency), LATENCY_KEYS);
        assert_eq!(latency.field("count").unwrap(), &Value::Int(0));
        assert!(latency.field("p99_ms").unwrap().is_null(), "{track}");
    }
    assert_eq!(
        names(at(&js, "plan_cache")),
        ["hits", "misses", "hit_ratio"]
    );
    assert!(at(&js, "plan_cache.hit_ratio").is_null());
    assert_eq!(
        names(at(&js, "exprs")),
        ["compiled", "fused_selects", "rows_vectorized"]
    );
    for map in [
        "violations_by_op",
        "faults.failures_by_kind",
        "repairs.fixes_by_rule",
    ] {
        assert!(names(at(&js, map)).is_empty(), "{map}");
    }
}

#[test]
fn snapshot_after_a_failure_and_a_repair_counts_both() {
    let mut db = session();
    let dedup = "SELECT * FROM customer c DEDUP(exact, LD, 0.7, c.address, c.name)";
    let limits = RunLimits {
        max_work: Some(1),
        ..RunLimits::default()
    };
    let report = db.run_with_limits(dedup, limits).unwrap();
    assert_eq!(report.failure.unwrap().kind, "budget_exceeded");

    let section = RepairSection {
        fixes: vec![Fix {
            table: "customer".into(),
            column: "address".into(),
            row_id: 0,
            original: Value::str("a st"),
            repaired: Value::str("a street"),
            confidence: 1.0,
            rule: "fd".into(),
        }],
        dropped_rows: Vec::new(),
        unrepaired: 0,
        duration: Duration::from_millis(1),
    };
    db.record_repair_plan(&section);
    db.apply_repairs(&section).unwrap();

    let js = object(&db.metrics_registry().snapshot_json(), &SNAPSHOT_KEYS);
    assert_eq!(at(&js, "query_latency.count"), &Value::Int(1));
    assert_eq!(
        at(&js, "faults.failures_by_kind.budget_exceeded"),
        &Value::Int(1)
    );
    assert_eq!(at(&js, "repairs.applied"), &Value::Int(1));
    assert_eq!(at(&js, "repairs.fixes_by_rule.fd"), &Value::Int(1));
    let p50 = at(&js, "repairs.plan_latency.p50_ms").as_float().unwrap();
    assert!(p50 > 0.0, "{js}");
}
