//! Lowering: monoid comprehensions → nested relational algebra.
//!
//! The full Fegaras–Maier translation handles arbitrary comprehensions; this
//! implementation covers the (normalized) comprehension family that CleanM's
//! Monoid Rewriter emits — which is the family §4.4 defines for the cleaning
//! operators plus plain select-project comprehensions. Qualifiers are
//! processed left-to-right, each one extending the current plan:
//!
//! * `v ← table(t)`, alone or in a grouping body → `Scan`; two of them →
//!   `ThetaJoin` of the scans (`lower_scans`, over the whole qualifier list)
//! * `v ← filter{…| d ← t, p̄}`    → `Nest` over (`Select` over) `Scan`
//! * `v ← g.partition`             → `Unnest`
//! * a second filter-grouping generator followed by a key-equality
//!   predicate → `Join` of the two `Nest`s
//! * predicate                     → `Select`
//!
//! and the comprehension's `⊕`/head become the final `Reduce`.

use std::sync::Arc;

use cleanm_values::{Error, Result};

use crate::calculus::subst::free_vars;
use crate::calculus::{BinOp, CalcExpr, Comprehension, MonoidKind, Qual};

use super::plan::{Alg, ThetaHint};

fn select(input: Arc<Alg>, pred: &CalcExpr) -> Arc<Alg> {
    Arc::new(Alg::Select {
        input,
        pred: pred.clone(),
    })
}

/// Lower one desugared comprehension to an algebra plan.
pub fn lower_op(comp: &CalcExpr) -> Result<Arc<Alg>> {
    lower_op_with(comp, true)
}

/// [`lower_op`] as the session plans it. With `push_filters` off — the
/// operator-at-a-time planners — a theta join is planned the way the
/// black-box baselines of §8.3 run it: every predicate inside the pair
/// predicate, over the unfiltered inputs.
pub(crate) fn lower_op_with(comp: &CalcExpr, push_filters: bool) -> Result<Arc<Alg>> {
    let CalcExpr::Comp(c) = comp else {
        return Err(Error::Invalid(format!(
            "lowering expects a comprehension, got `{comp}`"
        )));
    };
    let mut plan = lower_scans(&c.quals, push_filters);
    let quals = if plan.is_some() { &[] } else { &c.quals[..] };
    // A grouped input lowered from a generator but not yet joined: set when
    // we see a second filter-grouping before its key-equality predicate.
    let mut pending_right: Option<Arc<Alg>> = None;

    for qual in quals {
        match qual {
            Qual::Gen(v, source) => match source {
                CalcExpr::Comp(inner) if matches!(inner.monoid, MonoidKind::Filter(_)) => {
                    let nest = lower_grouping(inner, v)?;
                    if plan.is_none() {
                        plan = Some(nest);
                    } else if pending_right.is_none() {
                        pending_right = Some(nest);
                    } else {
                        return Err(Error::Invalid(
                            "more than two grouped inputs in one comprehension".to_string(),
                        ));
                    }
                }
                CalcExpr::Proj(base, field) if field == "partition" => {
                    let input = plan
                        .take()
                        .ok_or_else(|| Error::Invalid("unnest before any input".to_string()))?;
                    plan = Some(Arc::new(Alg::Unnest {
                        input,
                        path: CalcExpr::Proj(base.clone(), field.clone()),
                        var: v.clone(),
                    }));
                }
                other => {
                    return Err(Error::Invalid(format!(
                        "unsupported generator source `{other}`"
                    )))
                }
            },
            Qual::Pred(p) => {
                // A key-equality predicate consumes the pending right side
                // as an equi-join.
                if let (Some(right), CalcExpr::BinOp(BinOp::Eq, lk, rk)) = (&pending_right, p) {
                    let left = plan.take().ok_or_else(|| {
                        Error::Invalid("join predicate before any input".to_string())
                    })?;
                    plan = Some(Arc::new(Alg::Join {
                        left,
                        right: right.clone(),
                        left_key: (**lk).clone(),
                        right_key: (**rk).clone(),
                    }));
                    pending_right = None;
                    continue;
                }
                let input = plan
                    .take()
                    .ok_or_else(|| Error::Invalid("predicate before any input".to_string()))?;
                plan = Some(select(input, p));
            }
            Qual::Bind(v, e) => {
                // Residual binds (rare after normalization) become Select-
                // style extensions; we inline them by substitution instead.
                return Err(Error::Invalid(format!(
                    "residual bind `{v} := {e}` — normalize before lowering"
                )));
            }
        }
    }
    if pending_right.is_some() {
        return Err(Error::Invalid(
            "grouped input never joined on a key".to_string(),
        ));
    }
    let input = plan.ok_or_else(|| Error::Invalid("empty comprehension body".to_string()))?;
    Ok(Arc::new(Alg::Reduce {
        input,
        monoid: c.monoid.clone(),
        head: (*c.head).clone(),
    }))
}

/// Base-table generators under predicates, in any order; `None` for any
/// other qualifier list. One table `a ← T, p̄` is a filtered scan. Two,
/// `a ← T, b ← U, p̄`, are a theta join: a predicate that reads one variable
/// only filters that side below the join (when filters are pushed at all),
/// the others form the join predicate, which decides hint and side order.
fn lower_scans(quals: &[Qual], push_filters: bool) -> Option<Arc<Alg>> {
    let mut sides: Vec<(&String, Arc<Alg>)> = Vec::new();
    let mut preds = Vec::new();
    for qual in quals {
        match qual {
            Qual::Gen(var, CalcExpr::TableRef(table)) => {
                let scan = Alg::Scan {
                    table: table.clone(),
                    var: var.clone(),
                };
                sides.push((var, Arc::new(scan)));
            }
            Qual::Pred(p) => preds.push(p),
            _ => return None,
        }
    }
    let (left_var, left, right_var, right) = match &mut sides[..] {
        [(_, scan)] => return Some(preds.into_iter().fold(Arc::clone(scan), select)),
        [(left_var, left), (right_var, right)] => (left_var, left, right_var, right),
        _ => return None,
    };
    let mut pair = Vec::new();
    for p in preds {
        let vars = free_vars(p);
        let reads_only = |var: &String| push_filters && vars.iter().all(|v| v == var);
        if reads_only(left_var) {
            *left = select(Arc::clone(left), p);
        } else if reads_only(right_var) {
            *right = select(Arc::clone(right), p);
        } else {
            pair.push(p.clone());
        }
    }
    let (hint, swapped) = ThetaHint::derive(&pair, left_var, right_var);
    if swapped {
        std::mem::swap(left, right);
    }
    let pred = pair
        .into_iter()
        .reduce(|all, p| CalcExpr::bin(BinOp::And, all, p));
    Some(Arc::new(Alg::ThetaJoin {
        left: Arc::clone(left),
        right: Arc::clone(right),
        pred: pred.unwrap_or_else(|| CalcExpr::boolean(true)),
        hint,
    }))
}

/// Lower the inner `filter{ {key, item} | d ← t, p̄ }` grouping.
fn lower_grouping(inner: &Comprehension, group_var: &str) -> Result<Arc<Alg>> {
    let MonoidKind::Filter(algo) = &inner.monoid else {
        unreachable!("caller checked the monoid");
    };
    let CalcExpr::Record(fields) = &*inner.head else {
        return Err(Error::Invalid(
            "filter-monoid head must be a {key, item} record".to_string(),
        ));
    };
    let key = fields
        .iter()
        .find(|(n, _)| n == "key")
        .map(|(_, e)| e.clone())
        .ok_or_else(|| Error::Invalid("filter head lacks `key`".to_string()))?;
    let item = fields
        .iter()
        .find(|(n, _)| n == "item")
        .map(|(_, e)| e.clone())
        .ok_or_else(|| Error::Invalid("filter head lacks `item`".to_string()))?;

    let input = lower_scans(&inner.quals, true)
        .filter(|body| body.scan_with_filters().is_some())
        .ok_or_else(|| {
            Error::Invalid("grouping body must be one table scan under predicates".to_string())
        })?;
    Ok(Arc::new(Alg::Nest {
        input,
        algo: algo.clone(),
        key,
        item,
        group_var: group_var.to_string(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculus::{desugar_query, FilterAlgo};
    use crate::lang::parse_query;

    fn lower_sql(sql: &str) -> Arc<Alg> {
        lower_with(sql, true)
    }

    fn lower_with(sql: &str, push_filters: bool) -> Arc<Alg> {
        let q = parse_query(sql).unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        lower_op_with(&dq.ops[0].comp, push_filters).unwrap()
    }

    #[test]
    fn fd_lowers_to_reduce_select_nest_scan() {
        let plan = lower_sql("SELECT * FROM customer c FD(c.address, c.nationkey)");
        let text = plan.explain();
        let order: Vec<&str> = text.lines().map(|l| l.trim_start()).collect();
        assert!(order[0].starts_with("Reduce"), "{text}");
        assert!(order[1].starts_with("Select"), "{text}");
        assert!(order[2].starts_with("Nest[exact]"), "{text}");
        assert!(order[3].starts_with("Scan customer"), "{text}");
    }

    #[test]
    fn dedup_lowers_with_double_unnest() {
        let plan = lower_sql("SELECT * FROM customer c DEDUP(token_filtering, LD, 0.8, c.name)");
        let text = plan.explain();
        assert_eq!(text.matches("Unnest").count(), 2, "{text}");
        assert!(text.contains("Nest[token_filtering(q=3)]"), "{text}");
        // Similarity + rowid predicates above the unnests.
        assert_eq!(text.matches("Select").count(), 2, "{text}");
    }

    #[test]
    fn cluster_by_lowers_to_join_of_two_nests() {
        let plan = lower_sql(
            "SELECT * FROM data x, dict w CLUSTER BY(token_filtering(2), LD, 0.8, x.name)",
        );
        let text = plan.explain();
        assert!(text.contains("Join on"), "{text}");
        assert_eq!(text.matches("Nest[").count(), 2, "{text}");
        assert_eq!(text.matches("Scan").count(), 2, "{text}");
    }

    fn theta_of(plan: &Alg) -> (&Alg, &Alg, &CalcExpr, &ThetaHint) {
        let Alg::Reduce { input, .. } = plan else {
            panic!("{}", plan.explain())
        };
        let Alg::ThetaJoin {
            left,
            right,
            pred,
            hint,
        } = &**input
        else {
            panic!("{}", plan.explain())
        };
        (left, right, pred, hint)
    }

    #[test]
    fn dc_without_equality_lowers_to_theta_join_with_derived_hint() {
        use crate::algebra::HintKind;
        // Rule ψ: the single-tuple conjunct is a Select under its side, the
        // hint is the first strict cross-tuple inequality.
        let plan = lower_sql(
            "SELECT * FROM lineitem DC(t1.extendedprice < 60.0 \
             AND t1.extendedprice < t2.extendedprice AND t1.discount > t2.discount)",
        );
        let (left, right, pred, hint) = theta_of(&plan);
        assert_eq!(left.scan_with_filters().unwrap().2.len(), 1);
        assert!(matches!(right, Alg::Scan { var, .. } if var == "p2"));
        assert!(!pred.to_string().contains("60"), "{pred}");
        assert_eq!(hint.kind, HintKind::LeftLessThanRight);
        assert_eq!(hint.left_key.to_string(), "p1.extendedprice");
        assert_eq!(hint.right_key.to_string(), "p2.extendedprice");

        // `e(t1) > e(t2)` reads as `e(t2) < e(t1)`: the sides swap so the
        // smaller key is the left one. WHERE filters both sides.
        let plan =
            lower_sql("SELECT * FROM orders o WHERE o.amount > 3 DC(t1.amount > t2.amount * 10)");
        let (left, right, _, hint) = theta_of(&plan);
        assert_eq!(left.scan_with_filters().unwrap().1, "p2");
        assert_eq!(right.scan_with_filters().unwrap().2.len(), 1);
        assert_eq!(hint.left_key.to_string(), "(p2.amount * 10)");
        assert_eq!(hint.right_key.to_string(), "p1.amount");

        // No strict inequality: nothing to prune by.
        let plan = lower_sql("SELECT * FROM orders DC(t1.amount <= t2.amount)");
        let (_, _, _, hint) = theta_of(&plan);
        assert_eq!(hint.kind, HintKind::Any);
    }

    #[test]
    fn unpushed_filters_stay_in_the_pair_predicate() {
        let psi = "SELECT * FROM lineitem DC(t1.extendedprice < 60.0 \
             AND t1.extendedprice < t2.extendedprice AND t2.discount > 0)";
        let baseline = lower_with(psi, false);
        let (left, right, pred, hint) = theta_of(&baseline);
        assert!(matches!(left, Alg::Scan { .. }) && matches!(right, Alg::Scan { .. }));
        assert!(
            pred.to_string()
                .starts_with("((((p1.extendedprice < 60.0) and (p1.extendedprice < p2."),
            "{pred}"
        );
        assert_eq!(hint, theta_of(&lower_sql(psi)).3);
        // Grouped plans have no theta join: the policy changes nothing.
        let fd = "SELECT * FROM customer c WHERE c.nationkey = 1 FD(c.address, c.phone)";
        assert_eq!(lower_with(fd, false), lower_sql(fd));
    }

    #[test]
    fn where_clause_pushes_into_grouping_scan() {
        let plan =
            lower_sql("SELECT * FROM customer c WHERE c.nationkey = 1 FD(c.address, c.phone)");
        let text = plan.explain();
        // The WHERE select sits *below* the Nest (filter pushdown into the
        // grouping input, not above the groups).
        let nest_line = text.lines().position(|l| l.contains("Nest")).unwrap();
        let where_line = text.lines().position(|l| l.contains("nationkey")).unwrap();
        assert!(where_line > nest_line, "{text}");
    }

    #[test]
    fn plain_select_lowers() {
        let plan = lower_sql("SELECT c.name FROM customer c WHERE c.nationkey = 1");
        let text = plan.explain();
        assert!(text.contains("Reduce[Bag]"), "{text}");
        assert!(text.contains("Select"), "{text}");
        assert!(text.contains("Scan customer"), "{text}");
    }

    #[test]
    fn nest_algo_is_parameterized() {
        let plan = lower_sql("SELECT * FROM t DEDUP(kmeans(7), LD, 0.8, t.name)");
        let found = find_nest_algo(&plan);
        assert_eq!(
            found,
            Some(FilterAlgo::KMeans {
                k: 7,
                delta: 0,
                seed: 1
            })
        );
    }

    fn find_nest_algo(plan: &Alg) -> Option<FilterAlgo> {
        match plan {
            Alg::Nest { algo, .. } => Some(algo.clone()),
            Alg::Select { input, .. } | Alg::Unnest { input, .. } | Alg::Reduce { input, .. } => {
                find_nest_algo(input)
            }
            Alg::Join { left, .. } | Alg::ThetaJoin { left, .. } => find_nest_algo(left),
            Alg::Scan { .. } => None,
        }
    }
}
