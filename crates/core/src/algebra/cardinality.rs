//! Cardinality estimation over algebra plans, driven by `cleanm-stats`.
//!
//! This is the cost-model half of the adaptive physical planner: given the
//! session's per-table [`TableStats`], estimate how many rows flow out of
//! each [`Alg`] node. Estimates use the collected statistics where a plan
//! expression resolves to a base-table column (distinct sketches for
//! grouping and equi-joins, equi-depth histograms for range predicates and
//! theta joins) and fall back to textbook constants elsewhere.

use std::collections::HashMap;
use std::sync::Arc;

use cleanm_stats::TableStats;

use crate::calculus::{BinOp, CalcExpr};

use super::plan::{Alg, HintKind};

/// Fallback row count for tables without statistics.
pub const DEFAULT_TABLE_ROWS: f64 = 1_000.0;
/// Fallback selectivity for a comparison predicate.
pub const DEFAULT_COMPARE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Fallback selectivity for an equality predicate.
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;
/// Fallback average nested-collection length for Unnest.
pub const DEFAULT_UNNEST_FANOUT: f64 = 4.0;

/// The per-table statistics catalog the estimator consumes.
pub type StatsCatalog = HashMap<String, Arc<TableStats>>;

/// `expr` as a single base-column reference `var.field`, if it is one.
pub fn column_of(expr: &CalcExpr) -> Option<(&str, &str)> {
    if let CalcExpr::Proj(inner, field) = expr {
        if let CalcExpr::Var(v) = &**inner {
            return Some((v.as_str(), field.as_str()));
        }
    }
    None
}

/// Every base-column reference inside `expr` (walks records, calls,
/// operators — the shapes grouping keys and blockers take after desugaring).
pub fn columns_in(expr: &CalcExpr) -> Vec<(String, String)> {
    fn walk(e: &CalcExpr, out: &mut Vec<(String, String)>) {
        if let Some((v, f)) = column_of(e) {
            out.push((v.to_string(), f.to_string()));
            return;
        }
        e.for_each_child(&mut |child| walk(child, out));
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// Column statistics for `expr` under the plan's `var → table` binding.
fn col_stats<'a>(
    expr: &CalcExpr,
    vars: &HashMap<String, String>,
    stats: &'a StatsCatalog,
) -> Option<&'a cleanm_stats::ColumnStats> {
    let (var, field) = column_of(expr)?;
    stats.get(vars.get(var)?)?.column(field)
}

/// Estimated selectivity of a predicate, using histograms for range
/// comparisons against constants and distinct counts for equalities.
fn selectivity(pred: &CalcExpr, vars: &HashMap<String, String>, stats: &StatsCatalog) -> f64 {
    match pred {
        CalcExpr::BinOp(BinOp::And, l, r) => {
            selectivity(l, vars, stats) * selectivity(r, vars, stats)
        }
        CalcExpr::BinOp(BinOp::Or, l, r) => {
            let (sl, sr) = (selectivity(l, vars, stats), selectivity(r, vars, stats));
            (sl + sr - sl * sr).clamp(0.0, 1.0)
        }
        CalcExpr::Not(inner) => 1.0 - selectivity(inner, vars, stats),
        CalcExpr::BinOp(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), l, r) => {
            // Column-vs-constant range predicate: read the histogram.
            let (col, konst, flipped) = match (col_stats(l, vars, stats), constant_f64(r)) {
                (Some(c), Some(k)) => (Some(c), k, false),
                _ => match (col_stats(r, vars, stats), constant_f64(l)) {
                    (Some(c), Some(k)) => (Some(c), k, true),
                    _ => (None, 0.0, false),
                },
            };
            if let Some(c) = col {
                if let Some(h) = c.histogram() {
                    let lt = h.selectivity_lt(konst);
                    let below = match op {
                        BinOp::Lt | BinOp::Le => lt,
                        _ => 1.0 - lt,
                    };
                    return if flipped { 1.0 - below } else { below }.clamp(0.01, 1.0);
                }
            }
            DEFAULT_COMPARE_SELECTIVITY
        }
        CalcExpr::BinOp(BinOp::Eq, l, r) => {
            let distinct = col_stats(l, vars, stats)
                .or_else(|| col_stats(r, vars, stats))
                .map(|c| c.distinct_estimate());
            match distinct {
                Some(d) if d >= 1.0 => (1.0 / d).clamp(1e-6, 1.0),
                _ => DEFAULT_EQ_SELECTIVITY,
            }
        }
        CalcExpr::BinOp(BinOp::Ne, ..) => 1.0 - DEFAULT_EQ_SELECTIVITY,
        CalcExpr::Const(v) => {
            if matches!(v, cleanm_values::Value::Bool(true)) {
                1.0
            } else {
                DEFAULT_COMPARE_SELECTIVITY
            }
        }
        _ => DEFAULT_COMPARE_SELECTIVITY,
    }
}

fn constant_f64(expr: &CalcExpr) -> Option<f64> {
    if let CalcExpr::Const(v) = expr {
        v.as_float().ok()
    } else {
        None
    }
}

/// A cardinality estimate for one plan node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardEstimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Whether table statistics informed the estimate (vs. pure defaults).
    pub from_stats: bool,
}

/// Estimate output rows for `plan`. Walks the DAG once, binding scan
/// variables to tables so column expressions deeper in the plan can be
/// resolved against the catalog.
pub fn estimate(plan: &Alg, stats: &StatsCatalog) -> CardEstimate {
    let mut vars = HashMap::new();
    estimate_with_vars(plan, stats, &mut vars)
}

fn estimate_with_vars(
    plan: &Alg,
    stats: &StatsCatalog,
    vars: &mut HashMap<String, String>,
) -> CardEstimate {
    match plan {
        Alg::Scan { table, var } => {
            vars.insert(var.clone(), table.clone());
            match stats.get(table) {
                Some(ts) => CardEstimate {
                    rows: ts.rows() as f64,
                    from_stats: true,
                },
                None => CardEstimate {
                    rows: DEFAULT_TABLE_ROWS,
                    from_stats: false,
                },
            }
        }
        Alg::Select { input, pred } => {
            let in_est = estimate_with_vars(input, stats, vars);
            CardEstimate {
                rows: in_est.rows * selectivity(pred, vars, stats),
                from_stats: in_est.from_stats,
            }
        }
        Alg::Unnest { input, .. } => {
            let in_est = estimate_with_vars(input, stats, vars);
            CardEstimate {
                rows: in_est.rows * DEFAULT_UNNEST_FANOUT,
                from_stats: in_est.from_stats,
            }
        }
        Alg::Nest { input, key, .. } => {
            let in_est = estimate_with_vars(input, stats, vars);
            // Output rows = number of groups = distinct keys.
            let (groups, from_stats) = group_count(key, in_est.rows, vars, stats);
            CardEstimate {
                rows: groups.min(in_est.rows.max(1.0)),
                from_stats: in_est.from_stats && from_stats,
            }
        }
        Alg::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let l = estimate_with_vars(left, stats, vars);
            let r = estimate_with_vars(right, stats, vars);
            let d = col_stats(left_key, vars, stats)
                .map(|c| c.distinct_estimate())
                .into_iter()
                .chain(col_stats(right_key, vars, stats).map(|c| c.distinct_estimate()))
                .fold(f64::NAN, f64::max);
            let rows = if d.is_finite() && d >= 1.0 {
                l.rows * r.rows / d
            } else {
                l.rows.min(r.rows)
            };
            CardEstimate {
                rows,
                from_stats: l.from_stats && r.from_stats,
            }
        }
        Alg::ThetaJoin {
            left, right, hint, ..
        } => {
            let l = estimate_with_vars(left, stats, vars);
            let r = estimate_with_vars(right, stats, vars);
            let frac = theta_pair_fraction(hint.kind, &hint.left_key, &hint.right_key, vars, stats)
                .unwrap_or(match hint.kind {
                    HintKind::LeftLessThanRight => 0.5,
                    HintKind::Any => 1.0,
                });
            CardEstimate {
                rows: l.rows * r.rows * frac,
                from_stats: l.from_stats && r.from_stats,
            }
        }
        Alg::Reduce { input, .. } => estimate_with_vars(input, stats, vars),
    }
}

/// Estimated number of groups for a Nest key, plus whether statistics were
/// used. A multi-column (record) key multiplies distinct counts, capped by
/// the input cardinality. Also the executor's group-cardinality source when
/// deciding the Nest strategy.
pub fn group_count(
    key: &CalcExpr,
    input_rows: f64,
    vars: &HashMap<String, String>,
    stats: &StatsCatalog,
) -> (f64, bool) {
    let cols = columns_in(key);
    if cols.is_empty() {
        return (input_rows / 10.0, false);
    }
    let mut product = 1.0;
    let mut any_stats = false;
    for (var, field) in &cols {
        let d = vars
            .get(var)
            .and_then(|t| stats.get(t))
            .and_then(|ts| ts.column(field))
            .map(|c| c.distinct_estimate().max(1.0));
        match d {
            Some(d) => {
                any_stats = true;
                product *= d;
            }
            None => product *= 10.0,
        }
    }
    (product.min(input_rows.max(1.0)), any_stats)
}

/// Fraction of the |L|×|R| comparison matrix that survives range pruning
/// under `kind`, from both key columns' equi-depth histograms — numeric
/// histograms for number columns, prefix-key histograms for text columns
/// (widened by the key resolution so prefix collisions stay sound).
/// `None` when the sides' histograms live in different key domains (one
/// numeric, one prefix-key): those are not comparable.
pub fn theta_pair_fraction(
    kind: HintKind,
    left_key: &CalcExpr,
    right_key: &CalcExpr,
    vars: &HashMap<String, String>,
    stats: &StatsCatalog,
) -> Option<f64> {
    let (lh, l_text) = col_stats(left_key, vars, stats)?.pruning_histogram()?;
    let (rh, r_text) = col_stats(right_key, vars, stats)?.pruning_histogram()?;
    if l_text != r_text {
        return None;
    }
    Some(lh.fraction_pairs(&rh, kind.compat_fn(super::plan::theta_widen(l_text))))
}

/// Resolve the `var → table` bindings of a plan's scans (used by the
/// executor to look up statistics when deciding strategies mid-plan).
pub fn scan_bindings(plan: &Alg, out: &mut HashMap<String, String>) {
    match plan {
        Alg::Scan { table, var } => {
            out.insert(var.clone(), table.clone());
        }
        Alg::Select { input, .. }
        | Alg::Nest { input, .. }
        | Alg::Unnest { input, .. }
        | Alg::Reduce { input, .. } => scan_bindings(input, out),
        Alg::Join { left, right, .. } | Alg::ThetaJoin { left, right, .. } => {
            scan_bindings(left, out);
            scan_bindings(right, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanm_stats::collect_table_stats;
    use cleanm_values::Value;

    fn catalog(rows: usize, distinct_addr: usize) -> StatsCatalog {
        let data: Vec<Value> = (0..rows)
            .map(|i| {
                Value::record([
                    ("address", Value::str(format!("addr-{}", i % distinct_addr))),
                    ("nationkey", Value::Int((i % 25) as i64)),
                    ("price", Value::Float(i as f64)),
                ])
            })
            .collect();
        let ctx = cleanm_exec::ExecContext::new(2, 4);
        let ts = collect_table_stats(&ctx, Arc::new(data)).unwrap();
        let mut m = HashMap::new();
        m.insert("customer".to_string(), Arc::new(ts));
        m
    }

    fn scan() -> Arc<Alg> {
        Arc::new(Alg::Scan {
            table: "customer".into(),
            var: "c".into(),
        })
    }

    #[test]
    fn scan_uses_stats_rows() {
        let stats = catalog(500, 50);
        let est = estimate(&scan(), &stats);
        assert_eq!(est.rows, 500.0);
        assert!(est.from_stats);
        let none = estimate(&scan(), &HashMap::new());
        assert_eq!(none.rows, DEFAULT_TABLE_ROWS);
        assert!(!none.from_stats);
    }

    #[test]
    fn nest_estimates_group_count_from_distinct_sketch() {
        let stats = catalog(1_000, 40);
        let nest = Alg::Nest {
            input: scan(),
            algo: crate::calculus::FilterAlgo::Exact,
            key: CalcExpr::proj(CalcExpr::var("c"), "address"),
            item: CalcExpr::var("c"),
            group_var: "g".into(),
        };
        let est = estimate(&nest, &stats);
        assert!(est.from_stats);
        assert!(
            (30.0..60.0).contains(&est.rows),
            "≈40 distinct addresses, got {}",
            est.rows
        );
    }

    #[test]
    fn select_uses_histogram_for_range_predicates() {
        let stats = catalog(1_000, 40);
        // price < 250 on uniform 0..1000 ⇒ ~25%.
        let sel = Alg::Select {
            input: scan(),
            pred: CalcExpr::bin(
                BinOp::Lt,
                CalcExpr::proj(CalcExpr::var("c"), "price"),
                CalcExpr::Const(Value::Float(250.0)),
            ),
        };
        let est = estimate(&sel, &stats);
        assert!(
            (150.0..350.0).contains(&est.rows),
            "expected ≈250 rows, got {}",
            est.rows
        );
    }

    #[test]
    fn theta_join_fraction_comes_from_histograms() {
        let stats = catalog(800, 40);
        let key = CalcExpr::proj(CalcExpr::var("c"), "price");
        let mut vars = HashMap::new();
        vars.insert("c".to_string(), "customer".to_string());
        let frac =
            theta_pair_fraction(HintKind::LeftLessThanRight, &key, &key, &vars, &stats).unwrap();
        // a < b over the same uniform column ⇒ about half the matrix.
        assert!((0.3..0.9).contains(&frac), "{frac}");
        assert_eq!(
            theta_pair_fraction(HintKind::Any, &key, &key, &vars, &stats),
            Some(1.0)
        );
    }

    #[test]
    fn columns_in_walks_records_and_calls() {
        let key = CalcExpr::record(vec![
            ("a", CalcExpr::proj(CalcExpr::var("c"), "address")),
            ("n", CalcExpr::proj(CalcExpr::var("c"), "nationkey")),
        ]);
        let cols = columns_in(&key);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0], ("c".to_string(), "address".to_string()));
    }
}
