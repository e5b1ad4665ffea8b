//! The Monoid Rewriter: de-sugarize a CleanM AST into monoid comprehensions,
//! following the per-operator semantics given in §4.4 of the paper.
//!
//! Shapes emitted (and relied upon by `algebra::lower`):
//!
//! * **FD** — `bag{ g | g ← filter{ {key: lhs(d), item: d} | d ← t },
//!   count_distinct(bag{ rhs(x) | x ← g.partition }) > 1 }`
//! * **DEDUP** — `bag{ {left: p1, right: p2} | g ← filter{…}, p1 ←
//!   g.partition, p2 ← g.partition, p1.__rowid < p2.__rowid,
//!   similar(p1.atts, p2.atts) }`
//! * **CLUSTER BY** — two filter groupings (data and dictionary), joined on
//!   group key, unnested, similarity-checked:
//!   `list{ {term, repair} | g1 ← dataGroup, g2 ← dictGroup, g1.key = g2.key,
//!   t ← g1.partition, w ← g2.partition, similar(t, w) }`
//! * **DC** — the pairwise predicate is the user's denial predicate over
//!   `t1`/`t2`. With `t1.x = t2.x` equality conjuncts it is DEDUP's shape,
//!   blocked on them: `bag{ {left: p1, right: p2} | g ← filter{…},
//!   p1 ← g.partition, p2 ← g.partition, p1.__rowid ≠ p2.__rowid,
//!   pred(p1, p2) }`. Without one there is nothing to block on and both
//!   tuple variables range over the table — the comprehension of a theta
//!   self-join: `bag{ {left: p1, right: p2} | p1 ← t, p2 ← t, pred(p1, p2),
//!   p1.__rowid ≠ p2.__rowid }`
//!
//! Rows flow through the calculus as structs; the engine injects a
//! `__rowid` field so pair enumeration can break symmetry.
//!
//! Attribute conventions for `DEDUP(op, metric, θ, a₀, a₁, …)`: `a₀` is the
//! blocking attribute; similarity compares the concatenation of `a₁…`
//! (falling back to `a₀` when no others are given). The dictionary table of
//! CLUSTER BY exposes its term under the column `term`.
//!
//! Errors are span-carrying [`Diagnostic`]s ([`desugar_query_diag`]); the
//! plain [`desugar_query`] wrapper flattens them into `Error::Invalid` for
//! engine callers.

use cleanm_values::{Error, Result};

use crate::lang::ast::{BlockSpec, CleanOp, Expr, ExprKind, Query};
use crate::lang::diag::{
    Diagnostic, Phase, Span, E201_UNKNOWN_ALIAS, E202_UNKNOWN_FUNCTION, E203_MISPLACED_STAR,
    E204_GROUP_BY_WITH_CLEANING, E205_OPERATOR_SHAPE, E206_DC_VARS,
};

use super::expr::{BinOp, CalcExpr, FilterAlgo, Func, MonoidKind, Qual};
use super::subst::{free_vars, substitute};

/// The hidden row-identity field the engine injects into row structs.
pub const ROWID_FIELD: &str = "__rowid";
/// The dictionary term column CLUSTER BY expects.
pub const DICT_TERM_FIELD: &str = "term";

/// One desugared cleaning operation.
#[derive(Debug, Clone, PartialEq)]
pub struct DesugaredOp {
    /// Human-readable label for reports (`"FD#0"`).
    pub label: String,
    /// The §4.4 comprehension.
    pub comp: CalcExpr,
    pub kind: OpKind,
}

/// Which operator family a desugared comprehension implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Fd,
    Dedup,
    TermValidation,
    Dc,
    Select,
}

impl OpKind {
    /// The kind's name as `Debug` prints it (`"Fd"`, `"Dedup"`, …): what
    /// the session registry counts violations under.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Fd => "Fd",
            OpKind::Dedup => "Dedup",
            OpKind::TermValidation => "TermValidation",
            OpKind::Dc => "Dc",
            OpKind::Select => "Select",
        }
    }
}

/// The full desugared query: the plain select part (if meaningful) plus one
/// comprehension per cleaning operator.
#[derive(Debug, Clone, PartialEq)]
pub struct DesugaredQuery {
    pub ops: Vec<DesugaredOp>,
}

type DResult<T> = std::result::Result<T, Diagnostic>;

fn diag(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
    Diagnostic::new(code, Phase::Desugar, span, message)
}

/// Convert a surface expression to a calculus expression, resolving column
/// references against `row_vars`: alias → comprehension variable. The
/// public strict wrapper around `expr_calc` used by tests and tools.
pub fn expr_to_calc(e: &Expr, row_vars: &[(Option<&str>, &str)]) -> Result<CalcExpr> {
    expr_calc(e, row_vars).map_err(|d| Error::Invalid(d.message))
}

fn expr_calc(e: &Expr, row_vars: &[(Option<&str>, &str)]) -> DResult<CalcExpr> {
    match &e.kind {
        ExprKind::Literal(v) => Ok(CalcExpr::Const(v.clone())),
        ExprKind::Star => Err(diag(
            E203_MISPLACED_STAR,
            e.span,
            "`*` cannot appear in this position",
        )),
        ExprKind::Column { table, name } => {
            let var = match table {
                Some(alias) => row_vars
                    .iter()
                    .find(|(a, _)| a.as_deref() == Some(alias.as_str()))
                    .map(|(_, v)| *v)
                    .ok_or_else(|| {
                        diag(
                            E201_UNKNOWN_ALIAS,
                            e.span,
                            format!("unknown alias `{alias}`"),
                        )
                        .with_note(format!(
                            "tables in scope: {}",
                            row_vars
                                .iter()
                                .filter_map(|(a, _)| *a)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ))
                    })?,
                None => row_vars.first().map(|(_, v)| *v).ok_or_else(|| {
                    diag(E201_UNKNOWN_ALIAS, e.span, "no row in scope".to_string())
                })?,
            };
            Ok(CalcExpr::proj(CalcExpr::var(var), name))
        }
        ExprKind::Not(inner) => Ok(CalcExpr::Not(Box::new(expr_calc(inner, row_vars)?))),
        ExprKind::BinOp { op, left, right } => {
            let l = expr_calc(left, row_vars)?;
            let r = expr_calc(right, row_vars)?;
            let op = surface_binop(op, e.span)?;
            Ok(CalcExpr::bin(op, l, r))
        }
        ExprKind::Call { name, args } => {
            let calc_args: Vec<CalcExpr> = args
                .iter()
                .map(|a| expr_calc(a, row_vars))
                .collect::<DResult<_>>()?;
            let func = match name.to_lowercase().as_str() {
                "prefix" => Func::Prefix,
                "lower" => Func::Lower,
                "upper" => Func::Upper,
                "trim" => Func::Trim,
                "length" => Func::Length,
                "count" => Func::Count,
                "count_distinct" => Func::CountDistinct,
                "avg" => Func::Avg,
                "concat" => Func::Concat,
                "is_null" => Func::IsNull,
                "coalesce" => Func::Coalesce,
                "distinct" => Func::Distinct,
                "split" => {
                    // split(expr, 'sep') — the separator must be a literal.
                    let Some(Expr {
                        kind: ExprKind::Literal(sep),
                        ..
                    }) = args.get(1)
                    else {
                        return Err(diag(
                            E205_OPERATOR_SHAPE,
                            e.span,
                            "split() needs a literal separator",
                        ));
                    };
                    return Ok(CalcExpr::call(
                        Func::Split(sep.to_text()),
                        vec![calc_args.into_iter().next().ok_or_else(|| {
                            diag(E205_OPERATOR_SHAPE, e.span, "split() needs an argument")
                        })?],
                    ));
                }
                other => {
                    return Err(diag(
                        E202_UNKNOWN_FUNCTION,
                        e.span,
                        format!("unknown function `{other}`"),
                    )
                    .with_note(
                        "builtins: prefix, lower, upper, trim, length, concat, split, \
                         is_null, coalesce, distinct, count, count_distinct, sum, avg, \
                         min, max",
                    ))
                }
            };
            Ok(CalcExpr::call(func, calc_args))
        }
    }
}

fn surface_binop(op: &str, span: Span) -> DResult<BinOp> {
    Ok(match op {
        "+" => BinOp::Add,
        "-" => BinOp::Sub,
        "*" => BinOp::Mul,
        "/" => BinOp::Div,
        "=" => BinOp::Eq,
        "<>" | "!=" => BinOp::Ne,
        "<" => BinOp::Lt,
        "<=" => BinOp::Le,
        ">" => BinOp::Gt,
        ">=" => BinOp::Ge,
        "AND" => BinOp::And,
        "OR" => BinOp::Or,
        other => {
            return Err(diag(
                E205_OPERATOR_SHAPE,
                span,
                format!("unknown operator `{other}`"),
            ))
        }
    })
}

/// The inner grouping comprehension
/// `filter{ {key, item: d} | d ← table, where? }`.
fn grouping_comp(
    algo: FilterAlgo,
    table: &str,
    row_var: &str,
    key: CalcExpr,
    item: CalcExpr,
    where_pred: Option<CalcExpr>,
) -> CalcExpr {
    let mut quals = vec![Qual::Gen(
        row_var.to_string(),
        CalcExpr::TableRef(table.into()),
    )];
    if let Some(p) = where_pred {
        quals.push(Qual::Pred(p));
    }
    CalcExpr::comp(
        MonoidKind::Filter(algo),
        CalcExpr::Record(vec![("key".into(), key), ("item".into(), item)]),
        quals,
    )
}

fn block_spec_to_algo(spec: &BlockSpec, seed: u64) -> FilterAlgo {
    match spec {
        BlockSpec::TokenFiltering { q } => FilterAlgo::TokenFilter { q: *q },
        BlockSpec::KMeans { k } => FilterAlgo::KMeans {
            k: *k,
            delta: 0,
            seed,
        },
        BlockSpec::Exact => FilterAlgo::Exact,
        BlockSpec::LengthBand { width } => FilterAlgo::LengthBand { width: *width },
    }
}

/// Concatenate attribute expressions into one comparable text.
fn concat_attrs(attrs: &[CalcExpr]) -> CalcExpr {
    if attrs.len() == 1 {
        attrs[0].clone()
    } else {
        // Interpose a separator so ("ab","c") != ("a","bc").
        let mut args = Vec::with_capacity(attrs.len() * 2 - 1);
        for (i, a) in attrs.iter().enumerate() {
            if i > 0 {
                args.push(CalcExpr::str("\u{1}"));
            }
            args.push(a.clone());
        }
        CalcExpr::call(Func::Concat, args)
    }
}

/// A composite key from several expressions (single expr stays scalar).
fn tuple_key(exprs: &[CalcExpr]) -> CalcExpr {
    if exprs.len() == 1 {
        exprs[0].clone()
    } else {
        CalcExpr::Record(
            exprs
                .iter()
                .enumerate()
                .map(|(i, e)| (format!("k{i}"), e.clone()))
                .collect(),
        )
    }
}

/// Desugar a parsed query into per-operator comprehensions. `seed`
/// parameterizes randomized blockers (k-means center sampling). Strict
/// wrapper: the first diagnostic becomes `Error::Invalid`.
pub fn desugar_query(q: &Query, seed: u64) -> Result<DesugaredQuery> {
    desugar_query_diag(q, seed).map_err(|ds| {
        let d = ds.into_iter().next().expect("non-empty diagnostics");
        Error::Invalid(d.message)
    })
}

/// Desugar a parsed query, reporting *every* failing operator with a
/// span-carrying [`Diagnostic`] instead of stopping at the first.
pub fn desugar_query_diag(
    q: &Query,
    seed: u64,
) -> std::result::Result<DesugaredQuery, Vec<Diagnostic>> {
    let Some(primary) = q.primary_table() else {
        return Err(vec![diag(
            E205_OPERATOR_SHAPE,
            Span::default(),
            "query has no FROM table",
        )]);
    };
    let table = primary.name.clone();
    let alias = primary.alias.clone();
    let d = "d0"; // canonical row variable for the primary table
    let row_vars: Vec<(Option<&str>, &str)> = vec![(alias.as_deref().or(Some(&table)), d)];

    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    if !q.clean_ops.is_empty() && !q.group_by.is_empty() {
        let span = q
            .clean_ops
            .iter()
            .map(CleanOp::span)
            .fold(q.group_by[0].span, Span::join);
        return Err(vec![diag(
            E204_GROUP_BY_WITH_CLEANING,
            span,
            "GROUP BY cannot be combined with cleaning operators; run the \
             aggregation and the cleaning as separate queries",
        )]);
    }

    // Accept both the alias and the bare table name for unqualified columns.
    let where_pred = match q
        .where_clause
        .as_ref()
        .map(|w| expr_calc(w, &row_vars))
        .transpose()
    {
        Ok(p) => p,
        Err(d) => {
            diagnostics.push(d);
            None
        }
    };

    let mut ops = Vec::new();
    for (i, op) in q.clean_ops.iter().enumerate() {
        match desugar_clean_op(op, i, q, &table, alias.as_deref(), d, &where_pred, seed) {
            Ok(op) => ops.push(op),
            Err(d) => diagnostics.push(d),
        }
    }

    // Plain select part (used when no cleaning operators are present).
    if ops.is_empty() && diagnostics.is_empty() {
        let monoid = if q.distinct {
            MonoidKind::Set
        } else {
            MonoidKind::Bag
        };
        let comp = if q.group_by.is_empty() {
            match select_head(q, &row_vars) {
                Ok(head) => {
                    let mut quals =
                        vec![Qual::Gen(d.to_string(), CalcExpr::TableRef(table.clone()))];
                    if let Some(p) = where_pred {
                        quals.push(Qual::Pred(p));
                    }
                    Some(CalcExpr::comp(monoid, head, quals))
                }
                Err(d) => {
                    diagnostics.push(d);
                    None
                }
            }
        } else {
            match desugar_group_by(q, &table, d, where_pred, monoid, &row_vars) {
                Ok(c) => Some(c),
                Err(d) => {
                    diagnostics.push(d);
                    None
                }
            }
        };
        if let Some(comp) = comp {
            ops.push(DesugaredOp {
                label: "SELECT".to_string(),
                comp,
                kind: OpKind::Select,
            });
        }
    }

    if diagnostics.is_empty() {
        Ok(DesugaredQuery { ops })
    } else {
        Err(diagnostics)
    }
}

/// Desugar one cleaning operator clause.
#[allow(clippy::too_many_arguments)]
fn desugar_clean_op(
    op: &CleanOp,
    i: usize,
    q: &Query,
    table: &str,
    alias: Option<&str>,
    d: &str,
    where_pred: &Option<CalcExpr>,
    seed: u64,
) -> DResult<DesugaredOp> {
    let row_vars: Vec<(Option<&str>, &str)> = vec![(alias.or(Some(table)), d)];
    match op {
        CleanOp::Fd { lhs, rhs, .. } => {
            let lhs_calc: Vec<CalcExpr> = lhs
                .iter()
                .map(|e| expr_calc(e, &row_vars))
                .collect::<DResult<_>>()?;
            // RHS is evaluated over partition members bound to `x0`.
            let x_vars: Vec<(Option<&str>, &str)> = vec![(alias.or(Some(table)), "x0")];
            let rhs_calc: Vec<CalcExpr> = rhs
                .iter()
                .map(|e| expr_calc(e, &x_vars))
                .collect::<DResult<_>>()?;

            let groups = grouping_comp(
                FilterAlgo::Exact,
                table,
                d,
                tuple_key(&lhs_calc),
                CalcExpr::var(d),
                where_pred.clone(),
            );
            // count_distinct(bag{ rhs(x) | x <- g.partition }) > 1
            let rhs_bag = CalcExpr::comp(
                MonoidKind::Bag,
                tuple_key(&rhs_calc),
                vec![Qual::Gen(
                    "x0".into(),
                    CalcExpr::proj(CalcExpr::var("g"), "partition"),
                )],
            );
            let violation_pred = CalcExpr::bin(
                BinOp::Gt,
                CalcExpr::call(Func::CountDistinct, vec![rhs_bag]),
                CalcExpr::int(1),
            );
            let comp = CalcExpr::comp(
                MonoidKind::Bag,
                CalcExpr::var("g"),
                vec![Qual::Gen("g".into(), groups), Qual::Pred(violation_pred)],
            );
            Ok(DesugaredOp {
                label: format!("FD#{i}"),
                comp,
                kind: OpKind::Fd,
            })
        }
        CleanOp::Dedup {
            op,
            metric,
            theta,
            attributes,
            span,
        } => {
            if attributes.is_empty() {
                return Err(diag(
                    E205_OPERATOR_SHAPE,
                    *span,
                    "DEDUP needs at least one attribute",
                ));
            }
            let algo = block_spec_to_algo(op, seed);
            let attr_calc: Vec<CalcExpr> = attributes
                .iter()
                .map(|e| expr_calc(e, &row_vars))
                .collect::<DResult<_>>()?;
            let block_attr = attr_calc[0].clone();
            let key = match algo {
                FilterAlgo::Exact => block_attr,
                ref a => CalcExpr::call(Func::BlockKeys(a.clone()), vec![block_attr]),
            };
            let groups = grouping_comp(algo, table, d, key, CalcExpr::var(d), where_pred.clone());

            // Similarity attributes: the non-blocking attributes, or the
            // blocking one when it is alone. Rewritten over p1/p2.
            let sim_attrs: &[Expr] = if attributes.len() > 1 {
                &attributes[1..]
            } else {
                &attributes[..1]
            };
            let p1_vars: Vec<(Option<&str>, &str)> = vec![(alias.or(Some(table)), "p1")];
            let p2_vars: Vec<(Option<&str>, &str)> = vec![(alias.or(Some(table)), "p2")];
            let sim1: Vec<CalcExpr> = sim_attrs
                .iter()
                .map(|e| expr_calc(e, &p1_vars))
                .collect::<DResult<_>>()?;
            let sim2: Vec<CalcExpr> = sim_attrs
                .iter()
                .map(|e| expr_calc(e, &p2_vars))
                .collect::<DResult<_>>()?;

            let comp = CalcExpr::comp(
                MonoidKind::Bag,
                CalcExpr::record(vec![
                    ("left", CalcExpr::var("p1")),
                    ("right", CalcExpr::var("p2")),
                ]),
                vec![
                    Qual::Gen("g".into(), groups),
                    Qual::Gen("p1".into(), CalcExpr::proj(CalcExpr::var("g"), "partition")),
                    Qual::Gen("p2".into(), CalcExpr::proj(CalcExpr::var("g"), "partition")),
                    Qual::Pred(CalcExpr::bin(
                        BinOp::Lt,
                        CalcExpr::proj(CalcExpr::var("p1"), ROWID_FIELD),
                        CalcExpr::proj(CalcExpr::var("p2"), ROWID_FIELD),
                    )),
                    Qual::Pred(CalcExpr::call(
                        Func::Similar(*metric, *theta),
                        vec![concat_attrs(&sim1), concat_attrs(&sim2)],
                    )),
                ],
            );
            Ok(DesugaredOp {
                label: format!("DEDUP#{i}"),
                comp,
                kind: OpKind::Dedup,
            })
        }
        CleanOp::ClusterBy {
            op,
            metric,
            theta,
            term,
            span,
        } => {
            let dict = q.auxiliary_table().ok_or_else(|| {
                diag(
                    E205_OPERATOR_SHAPE,
                    *span,
                    "CLUSTER BY needs a dictionary as the second FROM table",
                )
                .with_note("write `FROM data x, dictionary w` and reference the data term")
            })?;
            let algo = block_spec_to_algo(op, seed);
            let term_calc = expr_calc(term, &row_vars)?;
            let data_group = grouping_comp(
                algo.clone(),
                table,
                d,
                CalcExpr::call(Func::BlockKeys(algo.clone()), vec![term_calc.clone()]),
                term_calc,
                where_pred.clone(),
            );
            let dict_term = CalcExpr::proj(CalcExpr::var("w0"), DICT_TERM_FIELD);
            let dict_group = grouping_comp(
                algo.clone(),
                &dict.name,
                "w0",
                CalcExpr::call(Func::BlockKeys(algo.clone()), vec![dict_term.clone()]),
                dict_term,
                None,
            );
            let comp = CalcExpr::comp(
                MonoidKind::List,
                CalcExpr::record(vec![
                    ("term", CalcExpr::var("t")),
                    ("repair", CalcExpr::var("w")),
                ]),
                vec![
                    Qual::Gen("g1".into(), data_group),
                    Qual::Gen("g2".into(), dict_group),
                    Qual::Pred(CalcExpr::bin(
                        BinOp::Eq,
                        CalcExpr::proj(CalcExpr::var("g1"), "key"),
                        CalcExpr::proj(CalcExpr::var("g2"), "key"),
                    )),
                    Qual::Gen("t".into(), CalcExpr::proj(CalcExpr::var("g1"), "partition")),
                    Qual::Gen("w".into(), CalcExpr::proj(CalcExpr::var("g2"), "partition")),
                    Qual::Pred(CalcExpr::call(
                        Func::Similar(*metric, *theta),
                        vec![CalcExpr::var("t"), CalcExpr::var("w")],
                    )),
                ],
            );
            Ok(DesugaredOp {
                label: format!("CLUSTERBY#{i}"),
                comp,
                kind: OpKind::TermValidation,
            })
        }
        CleanOp::Dc { pred, .. } => desugar_dc(pred, i, table, d, where_pred),
    }
}

/// Lower `DC(pred)` into a pairwise comprehension over distinct ordered
/// rows. The predicate's columns must be qualified with the tuple variables
/// `t1`/`t2`. Equality conjuncts whose two sides are the same expression on
/// opposite tuples (`t1.x = t2.x`) become a blocking key and pairs are
/// enumerated per block; a predicate without one ranges both tuple variables
/// over the table itself, which `algebra::lower` turns into a theta join.
fn desugar_dc(
    pred: &Expr,
    i: usize,
    table: &str,
    d: &str,
    where_pred: &Option<CalcExpr>,
) -> DResult<DesugaredOp> {
    let pred_calc = expr_calc(pred, &[(Some("t1"), "p1"), (Some("t2"), "p2")])?;
    let tuples = free_vars(&pred_calc);
    if !(tuples.contains("p1") && tuples.contains("p2")) {
        return Err(diag(
            E206_DC_VARS,
            pred.span,
            "a DC predicate must relate both tuple variables `t1` and `t2`",
        )
        .with_note("example: DC(t1.zip = t2.zip AND t1.city <> t2.city)"));
    }

    // `l = r` is a blocking key when reading `l` on one tuple and `r` on the
    // other as the same row gives the same expression, over that row alone.
    let on_row = |e: &CalcExpr, p: &str| substitute(e, p, &CalcExpr::var(d));
    let mut keys: Vec<CalcExpr> = Vec::new();
    let mut residual: Vec<Qual> = Vec::new();
    for conjunct in pred_calc.conjuncts() {
        let key = match conjunct {
            CalcExpr::BinOp(BinOp::Eq, l, r) => [("p1", "p2"), ("p2", "p1")]
                .into_iter()
                .map(|(a, b)| (on_row(l, a), on_row(r, b)))
                .find(|(l, r)| l == r && free_vars(l).iter().eq([d]))
                .map(|(key, _)| key),
            _ => None,
        };
        match key {
            Some(key) => keys.push(key),
            None => residual.push(Qual::Pred(conjunct.clone())),
        }
    }

    let distinct_rows = Qual::Pred(CalcExpr::bin(
        BinOp::Ne,
        CalcExpr::proj(CalcExpr::var("p1"), ROWID_FIELD),
        CalcExpr::proj(CalcExpr::var("p2"), ROWID_FIELD),
    ));
    let quals: Vec<Qual> = if keys.is_empty() {
        // The row-identity check goes last: the theta join evaluates the
        // conjunction per candidate pair, and almost every pair has already
        // failed the user's predicate by then.
        let side = |p: &str| {
            let scan = Qual::Gen(p.into(), CalcExpr::TableRef(table.to_string()));
            let filter = where_pred
                .as_ref()
                .map(|w| Qual::Pred(substitute(w, d, &CalcExpr::var(p))));
            std::iter::once(scan).chain(filter)
        };
        side("p1")
            .chain(side("p2"))
            .chain(residual)
            .chain([distinct_rows])
            .collect()
    } else {
        let groups = grouping_comp(
            FilterAlgo::Exact,
            table,
            d,
            tuple_key(&keys),
            CalcExpr::var(d),
            where_pred.clone(),
        );
        let partition = || CalcExpr::proj(CalcExpr::var("g"), "partition");
        [
            Qual::Gen("g".into(), groups),
            Qual::Gen("p1".into(), partition()),
            Qual::Gen("p2".into(), partition()),
            distinct_rows,
        ]
        .into_iter()
        .chain(residual)
        .collect()
    };
    let comp = CalcExpr::comp(
        MonoidKind::Bag,
        CalcExpr::record(vec![
            ("left", CalcExpr::var("p1")),
            ("right", CalcExpr::var("p2")),
        ]),
        quals,
    );
    Ok(DesugaredOp {
        label: format!("DC#{i}"),
        comp,
        kind: OpKind::Dc,
    })
}

/// Desugar `GROUP BY … [HAVING …]` into a filter-monoid grouping:
/// `⊕{ head(g) | g ← filter{ {key: gb(d), item: d} | d ← t, where }, having(g) }`
/// where aggregate calls in the head/HAVING become nested comprehensions
/// over `g.partition` and bare group-key expressions become key projections.
fn desugar_group_by(
    q: &Query,
    table: &str,
    d: &str,
    where_pred: Option<CalcExpr>,
    monoid: MonoidKind,
    row_vars: &[(Option<&str>, &str)],
) -> DResult<CalcExpr> {
    let key_exprs: Vec<CalcExpr> = q
        .group_by
        .iter()
        .map(|e| expr_calc(e, row_vars))
        .collect::<DResult<_>>()?;
    let groups = grouping_comp(
        FilterAlgo::Exact,
        table,
        d,
        tuple_key(&key_exprs),
        CalcExpr::var(d),
        where_pred,
    );

    let mut fields = Vec::with_capacity(q.select.len());
    for (i, item) in q.select.iter().enumerate() {
        let name = item.alias.clone().unwrap_or_else(|| match &item.expr.kind {
            ExprKind::Column { name, .. } => name.clone(),
            ExprKind::Call { name, .. } => name.clone(),
            _ => format!("col{i}"),
        });
        fields.push((name, grouped_expr(&item.expr, q, &key_exprs, row_vars)?));
    }
    let head = CalcExpr::Record(fields);

    let mut quals = vec![Qual::Gen("g".into(), groups)];
    if let Some(h) = &q.having {
        quals.push(Qual::Pred(grouped_expr(h, q, &key_exprs, row_vars)?));
    }
    Ok(CalcExpr::comp(monoid, head, quals))
}

const AGGREGATES: &[&str] = &["count", "count_distinct", "sum", "avg", "min", "max"];

/// Convert a select/HAVING expression in a grouped query: aggregates become
/// comprehensions over the group's partition; group-key expressions become
/// key projections; anything else referencing the row is an error, as in
/// SQL.
fn grouped_expr(
    e: &Expr,
    q: &Query,
    key_exprs: &[CalcExpr],
    row_vars: &[(Option<&str>, &str)],
) -> DResult<CalcExpr> {
    // A group-by expression is replaced by the matching key component.
    for (i, gb) in q.group_by.iter().enumerate() {
        if gb.kind == e.kind {
            let key = CalcExpr::proj(CalcExpr::var("g"), "key");
            return Ok(if key_exprs.len() == 1 {
                key
            } else {
                CalcExpr::Proj(Box::new(key), format!("k{i}"))
            });
        }
    }
    match &e.kind {
        ExprKind::Literal(v) => Ok(CalcExpr::Const(v.clone())),
        ExprKind::Call { name, args } if AGGREGATES.contains(&name.to_lowercase().as_str()) => {
            let lname = name.to_lowercase();
            // count(*) counts rows; other aggregates evaluate their
            // argument per partition member `x0`.
            let member_vars: Vec<(Option<&str>, &str)> =
                row_vars.iter().map(|(a, _)| (*a, "x0")).collect();
            let arg = match args.first() {
                None => CalcExpr::int(1),
                Some(a) if matches!(a.kind, ExprKind::Star) => CalcExpr::int(1),
                Some(a) => expr_calc(a, &member_vars)?,
            };
            let over_partition = |m: MonoidKind, head: CalcExpr| {
                CalcExpr::comp(
                    m,
                    head,
                    vec![Qual::Gen(
                        "x0".into(),
                        CalcExpr::proj(CalcExpr::var("g"), "partition"),
                    )],
                )
            };
            Ok(match lname.as_str() {
                "count" => over_partition(MonoidKind::Sum, CalcExpr::int(1)),
                "sum" => over_partition(MonoidKind::Sum, arg),
                "min" => over_partition(MonoidKind::Min, arg),
                "max" => over_partition(MonoidKind::Max, arg),
                "avg" => CalcExpr::call(Func::Avg, vec![over_partition(MonoidKind::Bag, arg)]),
                _ => CalcExpr::call(
                    Func::CountDistinct,
                    vec![over_partition(MonoidKind::Bag, arg)],
                ),
            })
        }
        ExprKind::BinOp { op, left, right } => {
            let l = grouped_expr(left, q, key_exprs, row_vars)?;
            let r = grouped_expr(right, q, key_exprs, row_vars)?;
            let op = surface_binop(op, e.span)?;
            Ok(CalcExpr::bin(op, l, r))
        }
        ExprKind::Not(inner) => Ok(CalcExpr::Not(Box::new(grouped_expr(
            inner, q, key_exprs, row_vars,
        )?))),
        ExprKind::Column { name, .. } => Err(diag(
            E205_OPERATOR_SHAPE,
            e.span,
            format!("column `{name}` must appear in GROUP BY or inside an aggregate"),
        )),
        other => Err(diag(
            E205_OPERATOR_SHAPE,
            e.span,
            format!("unsupported expression in grouped select: {other:?}"),
        )),
    }
}

fn select_head(q: &Query, row_vars: &[(Option<&str>, &str)]) -> DResult<CalcExpr> {
    // `SELECT *` keeps the whole row struct.
    if q.select.len() == 1 && matches!(q.select[0].expr.kind, ExprKind::Star) {
        return Ok(CalcExpr::var(row_vars[0].1));
    }
    let mut fields = Vec::with_capacity(q.select.len());
    for (i, item) in q.select.iter().enumerate() {
        if matches!(item.expr.kind, ExprKind::Star) {
            // Mixed star: keep the row under a reserved name.
            fields.push(("__row".to_string(), CalcExpr::var(row_vars[0].1)));
            continue;
        }
        let name = item.alias.clone().unwrap_or_else(|| match &item.expr.kind {
            ExprKind::Column { name, .. } => name.clone(),
            _ => format!("col{i}"),
        });
        fields.push((name, expr_calc(&item.expr, row_vars)?));
    }
    Ok(CalcExpr::Record(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculus::eval::{eval, EvalCtx};
    use crate::lang::parse_query;
    use cleanm_values::Value;

    fn row(id: i64, addr: &str, nation: i64, phone: &str, name: &str) -> Value {
        Value::record([
            (ROWID_FIELD, Value::Int(id)),
            ("address", Value::str(addr)),
            ("nationkey", Value::Int(nation)),
            ("phone", Value::str(phone)),
            ("name", Value::str(name)),
        ])
    }

    #[test]
    fn fd_comprehension_detects_violations() {
        let q = parse_query("SELECT * FROM customer c FD(c.address, c.nationkey)").unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        assert_eq!(dq.ops.len(), 1);
        assert_eq!(dq.ops[0].kind, OpKind::Fd);

        let data = Value::list([
            row(0, "a st", 1, "101-1", "ann"),
            row(1, "a st", 2, "101-2", "ann b"), // violates: a st -> {1, 2}
            row(2, "b st", 3, "103-1", "bob"),
            row(3, "b st", 3, "103-2", "bobby"),
        ]);
        let mut ctx = EvalCtx::new().with_table("customer", data);
        ctx.prepare_blockers(&dq.ops[0].comp, &[]);
        let v = eval(&dq.ops[0].comp, &vec![], &ctx).unwrap();
        let groups = v.as_list().unwrap();
        assert_eq!(groups.len(), 1, "only `a st` violates: {v}");
        assert_eq!(groups[0].field("key").unwrap(), &Value::str("a st"));
    }

    #[test]
    fn fd_with_derived_rhs() {
        // The running example: address -> prefix(phone).
        let q = parse_query("SELECT * FROM customer c FD(c.address, prefix(c.phone))").unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        let data = Value::list([
            row(0, "a st", 1, "101-111", "x"),
            row(1, "a st", 1, "102-222", "y"), // same nation, different prefix
        ]);
        let mut ctx = EvalCtx::new().with_table("customer", data);
        ctx.prepare_blockers(&dq.ops[0].comp, &[]);
        let v = eval(&dq.ops[0].comp, &vec![], &ctx).unwrap();
        assert_eq!(v.as_list().unwrap().len(), 1);
    }

    #[test]
    fn dedup_comprehension_finds_similar_pairs() {
        let q = parse_query("SELECT * FROM customer c DEDUP(exact, LD, 0.8, c.address, c.name)")
            .unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        assert_eq!(dq.ops[0].kind, OpKind::Dedup);
        let data = Value::list([
            row(0, "a st", 1, "101-1", "anderson"),
            row(1, "a st", 1, "101-2", "andersen"), // same address, similar name
            row(2, "a st", 1, "101-3", "zhang"),    // same address, dissimilar
            row(3, "b st", 1, "101-4", "anderson"), // different address
        ]);
        let mut ctx = EvalCtx::new().with_table("customer", data);
        ctx.prepare_blockers(&dq.ops[0].comp, &[]);
        let v = eval(&dq.ops[0].comp, &vec![], &ctx).unwrap();
        let pairs = v.as_list().unwrap();
        assert_eq!(pairs.len(), 1, "{v}");
        let left = pairs[0].field("left").unwrap();
        assert_eq!(left.field("name").unwrap(), &Value::str("anderson"));
    }

    #[test]
    fn dedup_pairs_are_asymmetric() {
        // No (x, x) self pairs and no (b, a) mirror of (a, b).
        let q = parse_query("SELECT * FROM t DEDUP(token_filtering(2), LD, 0.8, t.name)").unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        let data = Value::list([row(0, "x", 1, "1", "smith"), row(1, "x", 1, "1", "smyth")]);
        let mut ctx = EvalCtx::new().with_table("t", data);
        ctx.prepare_blockers(&dq.ops[0].comp, &[]);
        let v = eval(&dq.ops[0].comp, &vec![], &ctx).unwrap();
        // smith/smyth share tokens; exactly one ordered pair despite multi-
        // key blocking possibly co-locating them in several groups… the
        // rowid order kills mirrors but shared tokens may duplicate pairs;
        // both orders never appear.
        for p in v.as_list().unwrap() {
            let l = p.field("left").unwrap().field(ROWID_FIELD).unwrap();
            let r = p.field("right").unwrap().field(ROWID_FIELD).unwrap();
            assert!(l < r);
        }
        assert!(!v.as_list().unwrap().is_empty());
    }

    #[test]
    fn cluster_by_suggests_repairs() {
        let q = parse_query(
            "SELECT * FROM data x, dict w CLUSTER BY(token_filtering(2), LD, 0.75, x.name)",
        )
        .unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        assert_eq!(dq.ops[0].kind, OpKind::TermValidation);
        let data = Value::list([Value::record([
            (ROWID_FIELD, Value::Int(0)),
            ("name", Value::str("andersen")),
        ])]);
        let dict = Value::list([
            Value::record([("term", Value::str("anderson"))]),
            Value::record([("term", Value::str("zhang"))]),
        ]);
        let mut ctx = EvalCtx::new()
            .with_table("data", data)
            .with_table("dict", dict);
        ctx.prepare_blockers(&dq.ops[0].comp, &[]);
        let v = eval(&dq.ops[0].comp, &vec![], &ctx).unwrap();
        let repairs = v.as_list().unwrap();
        assert!(!repairs.is_empty());
        assert!(repairs
            .iter()
            .all(|r| r.field("repair").unwrap() == &Value::str("anderson")));
    }

    #[test]
    fn plain_select_desugars_to_bag() {
        let q = parse_query("SELECT c.name AS n FROM customer c WHERE c.nationkey = 1").unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        assert_eq!(dq.ops.len(), 1);
        assert_eq!(dq.ops[0].kind, OpKind::Select);
        let data = Value::list([row(0, "a", 1, "1", "ann"), row(1, "b", 2, "2", "bob")]);
        let ctx = EvalCtx::new().with_table("customer", data);
        let v = eval(&dq.ops[0].comp, &vec![], &ctx).unwrap();
        let rows = v.as_list().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].field("n").unwrap(), &Value::str("ann"));
    }

    #[test]
    fn unknown_alias_is_error() {
        let q = parse_query("SELECT zz.name FROM customer c").unwrap();
        assert!(desugar_query(&q, 1).is_err());
    }

    #[test]
    fn desugar_diagnostics_carry_spans() {
        let src = "SELECT zz.name FROM customer c";
        let q = parse_query(src).unwrap();
        let ds = desugar_query_diag(&q, 1).unwrap_err();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, E201_UNKNOWN_ALIAS);
        assert_eq!(
            &src[ds[0].span.start as usize..ds[0].span.end as usize],
            "zz.name"
        );
    }

    #[test]
    fn cluster_by_without_dictionary_is_error() {
        let q = parse_query("SELECT * FROM t CLUSTER BY(tf, LD, 0.8, t.name)").unwrap();
        assert!(desugar_query(&q, 1).is_err());
    }

    #[test]
    fn dc_desugars_to_pairwise_comprehension() {
        let q =
            parse_query("SELECT * FROM t DC(t1.region = t2.region AND t1.amount > t2.amount + 50)")
                .unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        assert_eq!(dq.ops[0].kind, OpKind::Dc);
        let mk = |id: i64, region: &str, amount: i64| {
            Value::record([
                (ROWID_FIELD, Value::Int(id)),
                ("region", Value::str(region)),
                ("amount", Value::Int(amount)),
            ])
        };
        let data = Value::list([
            mk(0, "east", 10),
            mk(1, "east", 100), // violates with row 0 (100 > 10 + 50)
            mk(2, "west", 100), // different region: no pair
        ]);
        let mut ctx = EvalCtx::new().with_table("t", data);
        ctx.prepare_blockers(&dq.ops[0].comp, &[]);
        let v = eval(&dq.ops[0].comp, &vec![], &ctx).unwrap();
        let pairs = v.as_list().unwrap();
        assert_eq!(pairs.len(), 1, "{v}");
        assert_eq!(
            pairs[0].field("left").unwrap().field(ROWID_FIELD).unwrap(),
            &Value::Int(1)
        );
    }

    #[test]
    fn dc_without_equality_ranges_both_variables_over_the_table() {
        let q = parse_query("SELECT * FROM t DC(t1.amount > t2.amount * 10)").unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        let CalcExpr::Comp(c) = &dq.ops[0].comp else {
            panic!("{}", dq.ops[0].comp)
        };
        let table = CalcExpr::TableRef("t".into());
        assert!(
            matches!(&c.quals[..2], [Qual::Gen(_, a), Qual::Gen(_, b)] if *a == table && *b == table),
            "{}",
            dq.ops[0].comp
        );
        let mk = |id: i64, amount: i64| {
            Value::record([
                (ROWID_FIELD, Value::Int(id)),
                ("amount", Value::Int(amount)),
            ])
        };
        let data = Value::list([mk(0, 1), mk(1, 5), mk(2, 100)]);
        let mut ctx = EvalCtx::new().with_table("t", data);
        ctx.prepare_blockers(&dq.ops[0].comp, &[]);
        let v = eval(&dq.ops[0].comp, &vec![], &ctx).unwrap();
        // 100 > 10*1 and 100 > 10*5: two ordered violating pairs.
        assert_eq!(v.as_list().unwrap().len(), 2, "{v}");
    }

    #[test]
    fn dc_requires_both_tuple_vars() {
        let q = parse_query("SELECT * FROM t DC(t1.amount > 10)").unwrap();
        let ds = desugar_query_diag(&q, 1).unwrap_err();
        assert_eq!(ds[0].code, E206_DC_VARS);
    }

    #[test]
    fn running_example_desugars_to_three_ops() {
        let q = parse_query(
            "SELECT c.name, c.address, * FROM customer c, dictionary d \
             FD(c.address, prefix(c.phone)) \
             DEDUP(token_filtering, LD, 0.8, c.address) \
             CLUSTER BY(token_filtering, LD, 0.8, c.name)",
        )
        .unwrap();
        let dq = desugar_query(&q, 7).unwrap();
        assert_eq!(dq.ops.len(), 3);
        assert_eq!(dq.ops[0].kind, OpKind::Fd);
        assert_eq!(dq.ops[1].kind, OpKind::Dedup);
        assert_eq!(dq.ops[2].kind, OpKind::TermValidation);
    }
}
