//! Duplicate elimination (`DEDUP(op, metric, theta, attrs…)`).

use cleanm_text::Metric;
use cleanm_values::Value;

use crate::algebra::plan::Alg;
use crate::calculus::desugar::ROWID_FIELD;
use crate::calculus::{CalcExpr, FilterAlgo, MonoidKind};
use crate::engine::{CleanDb, CleaningReport, EngineError};

/// A duplicate-detection task: block on `block_attr`, compare `sim_attrs`
/// (or the block attribute itself when empty) under `metric` at `theta`.
#[derive(Debug, Clone)]
pub struct Dedup {
    pub table: String,
    /// Blocking spec as CleanM op text: `"exact"`, `"token_filtering(3)"`,
    /// `"kmeans(10)"`, `"length_band(4)"`.
    pub block_op: String,
    pub metric: Metric,
    pub theta: f64,
    /// Blocking attribute (CleanM expression over alias `t`).
    pub block_attr: String,
    /// Similarity attributes; empty = compare the blocking attribute.
    pub sim_attrs: Vec<String>,
}

impl Dedup {
    pub fn new(table: &str, block_op: &str, block_attr: &str) -> Self {
        Dedup {
            table: table.to_string(),
            block_op: block_op.to_string(),
            metric: Metric::Levenshtein,
            theta: 0.8,
            block_attr: block_attr.to_string(),
            sim_attrs: Vec::new(),
        }
    }

    pub fn metric(mut self, metric: Metric, theta: f64) -> Self {
        self.metric = metric;
        self.theta = theta;
        self
    }

    pub fn similarity_on(mut self, attrs: &[&str]) -> Self {
        self.sim_attrs = attrs.iter().map(|s| s.to_string()).collect();
        self
    }

    /// The CleanM query text for this task.
    pub fn to_sql(&self) -> String {
        let metric_name = match self.metric {
            Metric::Levenshtein => "LD",
            Metric::JaccardQgrams(_) => "jaccard",
            Metric::JaccardWords => "jaccard_words",
            Metric::JaroWinkler => "JW",
        };
        let mut attrs = vec![self.block_attr.clone()];
        attrs.extend(self.sim_attrs.iter().cloned());
        format!(
            "SELECT * FROM {} t DEDUP({}, {}, {}, {})",
            self.table,
            self.block_op,
            metric_name,
            self.theta,
            attrs.join(", "),
        )
    }

    /// Run, returning the report plus the distinct duplicate pairs (row id
    /// pairs, deduplicated across blocks).
    pub fn run(&self, db: &mut CleanDb) -> Result<(CleaningReport, Vec<(i64, i64)>), EngineError> {
        let report = db.run(&self.to_sql())?;
        let pairs = extract_pairs(&report);
        Ok((report, pairs))
    }
}

/// Distinct (left, right) row-id pairs from a dedup report. Multi-key
/// blocking can emit the same pair from several blocks; this dedups them —
/// the transitive-closure-free equivalent of the paper's "pairs of records
/// that are potential duplicates".
pub fn extract_pairs(report: &CleaningReport) -> Vec<(i64, i64)> {
    let mut pairs = Vec::new();
    for op in &report.ops {
        for v in &op.output {
            let (Ok(l), Ok(r)) = (v.field("left"), v.field("right")) else {
                continue;
            };
            let (Some(li), Some(ri)) = (rowid(l), rowid(r)) else {
                continue;
            };
            pairs.push((li.min(ri), li.max(ri)));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

fn rowid(v: &Value) -> Option<i64> {
    v.field(ROWID_FIELD).ok().and_then(|x| x.as_int().ok())
}

/// The recognized physical shape of a lowered DEDUP operator — what an
/// incremental maintainer needs to keep per-block state: evaluate
/// `filters`, assign rows to blocks via `key` (a scalar, or a list for
/// multi-key blockers), and for every same-block pair check `pair_preds`
/// (row-id ordering + similarity), emitting `{left, right}` records.
///
/// ```text
/// Reduce[Bag]{ {left: p1, right: p2} |
///   Select*{ pair_preds,
///     Unnest{ p2 ← g.partition,
///       Unnest{ p1 ← g.partition,
///         Nest[algo]{ key(d) → d, Select*{ filters, Scan table d } } } } } }
/// ```
#[derive(Debug, Clone)]
pub struct DedupPlanShape {
    pub table: String,
    pub scan_var: String,
    pub filters: Vec<CalcExpr>,
    /// Blocking algorithm of the grouping (exact / token filtering / …).
    pub algo: FilterAlgo,
    /// Block-key expression over `scan_var` (may be a `BlockKeys` call).
    pub key: CalcExpr,
    /// The two pair variables, in generator order (`p1` before `p2`).
    pub pair_vars: (String, String),
    /// Predicates over a candidate pair, **innermost first** (the row-id
    /// ordering predicate precedes the similarity check, so evaluation
    /// short-circuits cheaply).
    pub pair_preds: Vec<CalcExpr>,
}

impl DedupPlanShape {
    /// Recognize a lowered DEDUP plan; `None` means the plan does not have
    /// the maintainable shape.
    pub fn from_plan(plan: &Alg) -> Option<DedupPlanShape> {
        let Alg::Reduce {
            input,
            monoid: MonoidKind::Bag,
            head: CalcExpr::Record(fields),
        } = plan
        else {
            return None;
        };
        let [(left_name, CalcExpr::Var(p1)), (right_name, CalcExpr::Var(p2))] = fields.as_slice()
        else {
            return None;
        };
        if left_name != "left" || right_name != "right" {
            return None;
        }
        // Collect the pair predicates (outermost first), then reverse so
        // evaluation runs innermost-first (row-id order before similarity).
        let mut pair_preds = Vec::new();
        let mut node = &**input;
        while let Alg::Select { input, pred } = node {
            pair_preds.push(pred.clone());
            node = input;
        }
        pair_preds.reverse();
        let Alg::Unnest {
            input,
            path: path2,
            var: v2,
        } = node
        else {
            return None;
        };
        let Alg::Unnest {
            input,
            path: path1,
            var: v1,
        } = &**input
        else {
            return None;
        };
        if v1 != p1 || v2 != p2 {
            return None;
        }
        let Alg::Nest {
            input,
            algo,
            key,
            item: CalcExpr::Var(item_var),
            group_var,
        } = &**input
        else {
            return None;
        };
        let over_partition = |path: &CalcExpr| match path {
            CalcExpr::Proj(base, field) => {
                field == "partition" && matches!(&**base, CalcExpr::Var(v) if v == group_var)
            }
            _ => false,
        };
        if !over_partition(path1) || !over_partition(path2) {
            return None;
        }
        let (table, scan_var, filters) = input.scan_with_filters()?;
        if *item_var != scan_var {
            return None;
        }
        Some(DedupPlanShape {
            table,
            scan_var,
            filters,
            algo: algo.clone(),
            key: key.clone(),
            pair_vars: (p1.clone(), p2.clone()),
            pair_preds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::EngineProfile;
    use cleanm_values::{DataType, Row, Schema, Table};

    fn table() -> Table {
        let schema = Schema::of([("name", DataType::Str), ("city", DataType::Str)]);
        Table::new(
            schema,
            vec![
                Row::new(vec![Value::str("anderson"), Value::str("geneva")]),
                Row::new(vec![Value::str("andersen"), Value::str("geneva")]),
                Row::new(vec![Value::str("zhang"), Value::str("geneva")]),
                Row::new(vec![Value::str("anderson"), Value::str("zurich")]),
            ],
        )
    }

    #[test]
    fn token_filtering_dedup_finds_pair() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("people", table());
        let (report, pairs) = Dedup::new("people", "token_filtering(2)", "t.name")
            .metric(Metric::Levenshtein, 0.75)
            .run(&mut db)
            .unwrap();
        assert!(pairs.contains(&(0, 1)), "{pairs:?}");
        // anderson@geneva and anderson@zurich are identical names too.
        assert!(pairs.contains(&(0, 3)), "{pairs:?}");
        assert!(report.violations() >= 3);
    }

    #[test]
    fn exact_blocking_with_separate_sim_attrs() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("people", table());
        // Block on city; compare names.
        let (_, pairs) = Dedup::new("people", "exact", "t.city")
            .metric(Metric::Levenshtein, 0.75)
            .similarity_on(&["t.name"])
            .run(&mut db)
            .unwrap();
        assert_eq!(pairs, vec![(0, 1)], "only the geneva andersons");
    }

    #[test]
    fn dedup_plan_shape_round_trips_through_the_pipeline() {
        use crate::algebra::lower_op;
        use crate::calculus::{desugar_query, normalize};
        use crate::lang::parse_query;
        let q = parse_query("SELECT * FROM people t DEDUP(token_filtering(2), LD, 0.75, t.name)")
            .unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        let (comp, _) = normalize(&dq.ops[0].comp);
        let plan = lower_op(&comp).unwrap();
        let shape = DedupPlanShape::from_plan(&plan).expect("DEDUP shape recognized");
        assert_eq!(shape.table, "people");
        assert!(matches!(shape.algo, FilterAlgo::TokenFilter { q: 2 }));
        assert_eq!(shape.pair_preds.len(), 2);
        // Innermost-first: row-id ordering before similarity.
        assert!(shape.pair_preds[0].to_string().contains(ROWID_FIELD));
        assert!(shape.pair_preds[1].to_string().contains("Similar"));
    }

    #[test]
    fn pairs_are_unique_despite_multikey_blocking() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("people", table());
        let (_, pairs) = Dedup::new("people", "token_filtering(2)", "t.name")
            .metric(Metric::Levenshtein, 0.7)
            .run(&mut db)
            .unwrap();
        let mut sorted = pairs.clone();
        sorted.dedup();
        assert_eq!(sorted, pairs);
    }
}
