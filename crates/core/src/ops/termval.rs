//! Term validation (`CLUSTER BY(op, metric, theta, term)` + a dictionary).

use std::collections::HashMap;

use cleanm_text::Metric;

use crate::algebra::plan::Alg;
use crate::calculus::{CalcExpr, FilterAlgo, MonoidKind};
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
        Ok((report, best))
    }
}

/// One side of a recognized CLUSTER BY plan: a blocked grouping over a
/// scanned table (the data side groups term occurrences, the dictionary
/// side groups its entries).
#[derive(Debug, Clone)]
pub struct TermvalSideShape {
    pub table: String,
    pub scan_var: String,
    pub filters: Vec<CalcExpr>,
    /// Block-key expression (a `BlockKeys` call over the term).
    pub key: CalcExpr,
    /// The term expression grouped into the partition.
    pub item: CalcExpr,
}

/// The recognized physical shape of a lowered CLUSTER BY (term validation)
/// operator: two blocked groupings joined on block key, unnested, and
/// similarity-filtered into `{term, repair}` records. Incrementally, the
/// dictionary side is indexed once and each appended data term probes the
/// matching dictionary blocks.
#[derive(Debug, Clone)]
pub struct TermvalPlanShape {
    pub data: TermvalSideShape,
    pub dict: TermvalSideShape,
    pub algo: FilterAlgo,
    /// The two pair variables `(t, w)` bound by the unnests.
    pub pair_vars: (String, String),
    /// Similarity predicates over `(t, w)`, innermost first.
    pub pair_preds: Vec<CalcExpr>,
}

impl TermvalPlanShape {
    /// Recognize a lowered CLUSTER BY plan; `None` means the plan does not
    /// have the maintainable shape.
    pub fn from_plan(plan: &Alg) -> Option<TermvalPlanShape> {
        let Alg::Reduce {
            input,
            monoid: MonoidKind::List,
            head: CalcExpr::Record(fields),
        } = plan
        else {
            return None;
        };
        let [(term_name, CalcExpr::Var(t)), (repair_name, CalcExpr::Var(w))] = fields.as_slice()
        else {
            return None;
        };
        if term_name != "term" || repair_name != "repair" {
            return None;
        }
        let mut pair_preds = Vec::new();
        let mut node = &**input;
        while let Alg::Select { input, pred } = node {
            pair_preds.push(pred.clone());
            node = input;
        }
        pair_preds.reverse();
        let Alg::Unnest {
            input,
            path: w_path,
            var: w_var,
        } = node
        else {
            return None;
        };
        let Alg::Unnest {
            input,
            path: t_path,
            var: t_var,
        } = &**input
        else {
            return None;
        };
        if t_var != t || w_var != w {
            return None;
        }
        let Alg::Join {
            left,
            right,
            left_key,
            right_key,
        } = &**input
        else {
            return None;
        };
        let side = |nest: &Alg| -> Option<(TermvalSideShape, FilterAlgo, String)> {
            let Alg::Nest {
                input,
                algo,
                key,
                item,
                group_var,
            } = nest
            else {
                return None;
            };
            let (table, scan_var, filters) = input.scan_with_filters()?;
            Some((
                TermvalSideShape {
                    table,
                    scan_var,
                    filters,
                    key: key.clone(),
                    item: item.clone(),
                },
                algo.clone(),
                group_var.clone(),
            ))
        };
        let (data, algo, g1) = side(left)?;
        let (dict, _, g2) = side(right)?;
        // The unnests must iterate the joined groups' partitions and the
        // join must be on block key.
        let over = |path: &CalcExpr, group: &str| match path {
            CalcExpr::Proj(base, field) => {
                field == "partition" && matches!(&**base, CalcExpr::Var(v) if v == group)
            }
            _ => false,
        };
        let keyed = |key: &CalcExpr, group: &str| match key {
            CalcExpr::Proj(base, field) => {
                field == "key" && matches!(&**base, CalcExpr::Var(v) if v == group)
            }
            _ => false,
        };
        if !over(t_path, &g1)
            || !over(w_path, &g2)
            || !keyed(left_key, &g1)
            || !keyed(right_key, &g2)
        {
            return None;
        }
        Some(TermvalPlanShape {
            data,
            dict,
            algo,
            pair_vars: (t.clone(), w.clone()),
            pair_preds,
        })
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

    #[test]
    fn termval_plan_shape_round_trips_through_the_pipeline() {
        use crate::algebra::lower_op;
        use crate::calculus::{desugar_query, normalize};
        use crate::lang::parse_query;
        let q = parse_query(
            "SELECT * FROM authors t, dict w CLUSTER BY(token_filtering(2), LD, 0.7, t.name)",
        )
        .unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        let (comp, _) = normalize(&dq.ops[0].comp);
        let plan = lower_op(&comp).unwrap();
        let shape = TermvalPlanShape::from_plan(&plan).expect("CLUSTER BY shape recognized");
        assert_eq!(shape.data.table, "authors");
        assert_eq!(shape.dict.table, "dict");
        assert!(matches!(shape.algo, FilterAlgo::TokenFilter { q: 2 }));
        assert_eq!(shape.pair_preds.len(), 1);
    }
}
