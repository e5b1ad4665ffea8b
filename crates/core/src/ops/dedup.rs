//! Duplicate elimination (`DEDUP(op, metric, theta, attrs…)`).

use cleanm_text::Metric;

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
/// that are potential duplicates". An op that kept its pairs as row indices
/// gives them without building a record ([`Output::pairs`]).
///
/// [`Output::pairs`]: crate::engine::Output::pairs
pub fn extract_pairs(report: &CleaningReport) -> Vec<(i64, i64)> {
    let mut pairs: Vec<(i64, i64)> = (report.ops.iter())
        .flat_map(|op| op.output.pairs())
        .map(|(l, r)| (l.min(r), l.max(r)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::EngineProfile;
    use cleanm_values::{DataType, Row, Schema, Table, Value};

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
