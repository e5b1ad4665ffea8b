//! Term validation (`CLUSTER BY(op, metric, theta, term)` + a dictionary).

use std::collections::HashMap;

use cleanm_text::Metric;

use crate::engine::{CleanDb, CleaningReport, EngineError};
use crate::quality::select_best_repairs;

/// Validate the values of `term_attr` against a registered dictionary,
/// suggesting the most similar dictionary entries as repairs (§4.4's
/// CLUSTER BY semantics; the experiment of §8.1).
#[derive(Debug, Clone)]
pub struct TermValidation {
    pub table: String,
    pub dict_table: String,
    /// Blocking spec text: `"token_filtering(2)"`, `"kmeans(5)"`, ….
    pub block_op: String,
    pub metric: Metric,
    pub theta: f64,
    /// The attribute to validate (CleanM expression over alias `t`).
    pub term_attr: String,
}

impl TermValidation {
    pub fn new(table: &str, dict_table: &str, block_op: &str, term_attr: &str) -> Self {
        TermValidation {
            table: table.to_string(),
            dict_table: dict_table.to_string(),
            block_op: block_op.to_string(),
            metric: Metric::Levenshtein,
            theta: 0.8,
            term_attr: term_attr.to_string(),
        }
    }

    pub fn metric(mut self, metric: Metric, theta: f64) -> Self {
        self.metric = metric;
        self.theta = theta;
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
        format!(
            "SELECT * FROM {} t, {} w CLUSTER BY({}, {}, {}, {})",
            self.table, self.dict_table, self.block_op, metric_name, self.theta, self.term_attr,
        )
    }

    /// Run, returning the report plus the selected best repair per term.
    pub fn run(
        &self,
        db: &mut CleanDb,
    ) -> Result<(CleaningReport, HashMap<String, String>), EngineError> {
        let report = db.run(&self.to_sql())?;
        let best = select_best_repairs(&report.repairs, self.metric);
        Ok((report, best.into_iter().map(|(t, (s, _))| (t, s)).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::EngineProfile;
    use cleanm_values::{DataType, Row, Schema, Table, Value};

    fn setup(block_op: &str) -> (CleanDb, TermValidation) {
        let schema = Schema::of([("name", DataType::Str)]);
        let table = Table::new(
            schema,
            vec![
                Row::new(vec![Value::str("andersen")]), // dirty: anderson
                Row::new(vec![Value::str("zhang")]),    // clean
                Row::new(vec![Value::str("millar")]),   // dirty: miller
            ],
        );
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("authors", table);
        db.register_dictionary(
            "dict",
            vec!["anderson".into(), "zhang".into(), "miller".into()],
        );
        let tv = TermValidation::new("authors", "dict", block_op, "t.name")
            .metric(Metric::Levenshtein, 0.70);
        (db, tv)
    }

    #[test]
    fn token_filtering_repairs() {
        let (mut db, tv) = setup("token_filtering(2)");
        let (_, best) = tv.run(&mut db).unwrap();
        assert_eq!(best.get("andersen").map(String::as_str), Some("anderson"));
        assert_eq!(best.get("millar").map(String::as_str), Some("miller"));
        // Clean terms suggest themselves (no update).
        assert_eq!(best.get("zhang").map(String::as_str), Some("zhang"));
    }

    #[test]
    fn kmeans_repairs() {
        let (mut db, tv) = setup("kmeans(2)");
        let (_, best) = tv.run(&mut db).unwrap();
        // With 2 centers sampled from a 3-entry dictionary the dirty term
        // may or may not share a cluster with its repair; at minimum the
        // clean term finds itself.
        assert_eq!(best.get("zhang").map(String::as_str), Some("zhang"));
    }

    #[test]
    fn sql_rendering() {
        let tv = TermValidation::new("authors", "dict", "token_filtering(3)", "t.name");
        assert_eq!(
            tv.to_sql(),
            "SELECT * FROM authors t, dict w CLUSTER BY(token_filtering(3), LD, 0.8, t.name)"
        );
    }
}
