//! Expression IR of the monoid comprehension calculus.

use std::fmt;
use std::sync::Arc;

use cleanm_text::Metric;
use cleanm_values::Value;

/// A monoid: the ⊕ of a comprehension `⊕{ e | … }`.
///
/// Primitive monoids aggregate scalars; collection monoids build
/// collections; *filter monoids* (§4.3) group elements by blocker key —
/// they take `{key, item}` records and produce `{key, partition}` groups.
#[derive(Debug, Clone, PartialEq)]
pub enum MonoidKind {
    // --- primitive
    Sum,
    Prod,
    Min,
    Max,
    /// Logical OR (`some`).
    Any,
    /// Logical AND (`all`).
    All,
    // --- collection
    Bag,
    Set,
    List,
    /// Grouping monoid: groups head records `{key, item}` into
    /// `{key, partition}` groups, merging partitions per key. The blocking
    /// algorithm is carried for plan explanation; the *keys themselves* are
    /// produced by the head expression (see [`Func::BlockKeys`]).
    Filter(FilterAlgo),
}

impl MonoidKind {
    /// Zero element Z⊕.
    pub fn zero(&self) -> Value {
        match self {
            MonoidKind::Sum => Value::Int(0),
            MonoidKind::Prod => Value::Int(1),
            MonoidKind::Min => Value::Null, // identity of min over nullable domain
            MonoidKind::Max => Value::Null,
            MonoidKind::Any => Value::Bool(false),
            MonoidKind::All => Value::Bool(true),
            MonoidKind::Bag | MonoidKind::Set | MonoidKind::List | MonoidKind::Filter(_) => {
                Value::list([])
            }
        }
    }

    /// Is ⊕ commutative? (All of ours are except List.)
    pub fn commutative(&self) -> bool {
        !matches!(self, MonoidKind::List)
    }

    /// Is ⊕ idempotent? (x ⊕ x = x)
    pub fn idempotent(&self) -> bool {
        matches!(
            self,
            MonoidKind::Min | MonoidKind::Max | MonoidKind::Any | MonoidKind::All | MonoidKind::Set
        )
    }

    /// Collection monoids produce collections a generator can iterate.
    pub fn is_collection(&self) -> bool {
        matches!(
            self,
            MonoidKind::Bag | MonoidKind::Set | MonoidKind::List | MonoidKind::Filter(_)
        )
    }
}

/// The blocking algorithm of a filter monoid (the `<op>` of `DEDUP(op, …)`).
#[derive(Debug, Clone, PartialEq)]
pub enum FilterAlgo {
    /// Group by the exact (normalized) value — FD grouping.
    Exact,
    /// q-gram token filtering (§4.3).
    TokenFilter { q: usize },
    /// Single-pass k-means with reservoir-sampled centers (§4.3).
    KMeans { k: usize, delta: usize, seed: u64 },
    /// Length-band blocking (extensibility example).
    LengthBand { width: usize },
}

impl fmt::Display for FilterAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterAlgo::Exact => write!(f, "exact"),
            FilterAlgo::TokenFilter { q } => write!(f, "token_filtering(q={q})"),
            FilterAlgo::KMeans { k, delta, .. } => write!(f, "kmeans(k={k}, delta={delta})"),
            FilterAlgo::LengthBand { width } => write!(f, "length_band({width})"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Builtin functions — the "low-level operations" CleanM exposes as
/// first-class calculus citizens (§4.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Func {
    /// `prefix(s)` — the running example's `prefix(phone)`: chars before the
    /// first `-` (or the first 3).
    Prefix,
    /// `lower(s)`.
    Lower,
    /// `upper(s)`.
    Upper,
    /// `trim(s)` — strip leading/trailing whitespace.
    Trim,
    /// `length(x)` — string chars or collection size.
    Length,
    /// `count(coll)`.
    Count,
    /// `count_distinct(coll)`.
    CountDistinct,
    /// `avg(coll)` of numeric values, ignoring nulls.
    Avg,
    /// `similar(a, b)` under a metric/threshold.
    Similar(Metric, f64),
    /// `similarity(a, b)` — the raw score.
    Similarity(Metric),
    /// `block_keys(term)` — the blocker's group keys for a term (the unit
    /// function of the filter monoid, §4.3).
    BlockKeys(FilterAlgo),
    /// `split(s, sep)` → list of strings.
    Split(String),
    /// `concat(parts…)` → string.
    Concat,
    /// `is_null(x)`.
    IsNull,
    /// `coalesce(x, y)` — `y` if `x` is null.
    Coalesce,
    /// `distinct(coll)`.
    Distinct,
}

/// One qualifier of a comprehension body.
#[derive(Debug, Clone, PartialEq)]
pub enum Qual {
    /// `v ← e`: iterate a collection.
    Gen(String, CalcExpr),
    /// A filter predicate.
    Pred(CalcExpr),
    /// `v := e`: a local binding (removed by beta reduction).
    Bind(String, CalcExpr),
}

/// `⊕{ head | quals }`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comprehension {
    pub monoid: MonoidKind,
    pub head: Box<CalcExpr>,
    pub quals: Vec<Qual>,
}

/// The calculus expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum CalcExpr {
    Const(Value),
    /// A bound variable.
    Var(String),
    /// A named input collection (base table).
    TableRef(String),
    /// Record constructor.
    Record(Vec<(String, CalcExpr)>),
    /// Field projection `e.f`.
    Proj(Box<CalcExpr>, String),
    BinOp(BinOp, Box<CalcExpr>, Box<CalcExpr>),
    Not(Box<CalcExpr>),
    If(Box<CalcExpr>, Box<CalcExpr>, Box<CalcExpr>),
    Call(Func, Vec<CalcExpr>),
    /// `exists e` — true iff the collection `e` is non-empty.
    Exists(Box<CalcExpr>),
    Comp(Comprehension),
    /// Explicit merge `e₁ ⊕ e₂` (introduced by if-splitting).
    Merge(MonoidKind, Box<CalcExpr>, Box<CalcExpr>),
}

impl CalcExpr {
    // -- constructor helpers used across the crate and in tests ------------

    pub fn int(i: i64) -> Self {
        CalcExpr::Const(Value::Int(i))
    }
    pub fn float(f: f64) -> Self {
        CalcExpr::Const(Value::Float(f))
    }
    pub fn str(s: &str) -> Self {
        CalcExpr::Const(Value::str(s))
    }
    pub fn boolean(b: bool) -> Self {
        CalcExpr::Const(Value::Bool(b))
    }
    pub fn var(name: &str) -> Self {
        CalcExpr::Var(name.to_string())
    }
    pub fn proj(e: CalcExpr, field: &str) -> Self {
        CalcExpr::Proj(Box::new(e), field.to_string())
    }
    pub fn bin(op: BinOp, l: CalcExpr, r: CalcExpr) -> Self {
        CalcExpr::BinOp(op, Box::new(l), Box::new(r))
    }
    pub fn call(f: Func, args: Vec<CalcExpr>) -> Self {
        CalcExpr::Call(f, args)
    }
    pub fn comp(monoid: MonoidKind, head: CalcExpr, quals: Vec<Qual>) -> Self {
        CalcExpr::Comp(Comprehension {
            monoid,
            head: Box::new(head),
            quals,
        })
    }
    pub fn record(fields: Vec<(&str, CalcExpr)>) -> Self {
        CalcExpr::Record(
            fields
                .into_iter()
                .map(|(n, e)| (n.to_string(), e))
                .collect(),
        )
    }

    /// Visit every *direct* child expression. The match is exhaustive with
    /// no wildcard arm, so adding a `CalcExpr` variant forces this one place
    /// to be updated — and every tree walker built on it (table-reference
    /// collection, column extraction, similarity detection, …) stays
    /// complete for free.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a CalcExpr)) {
        match self {
            CalcExpr::Const(_) | CalcExpr::Var(_) | CalcExpr::TableRef(_) => {}
            CalcExpr::Record(fields) => fields.iter().for_each(|(_, e)| f(e)),
            CalcExpr::Proj(e, _) | CalcExpr::Not(e) | CalcExpr::Exists(e) => f(e),
            CalcExpr::BinOp(_, l, r) | CalcExpr::Merge(_, l, r) => {
                f(l);
                f(r);
            }
            CalcExpr::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            CalcExpr::Call(_, args) => args.iter().for_each(&mut *f),
            CalcExpr::Comp(c) => {
                f(&c.head);
                for q in &c.quals {
                    match q {
                        Qual::Gen(_, e) | Qual::Bind(_, e) | Qual::Pred(e) => f(e),
                    }
                }
            }
        }
    }

    /// The operands of the top-level `and` chain, left to right (the
    /// expression itself when it is not a conjunction).
    pub fn conjuncts(&self) -> Vec<&CalcExpr> {
        match self {
            CalcExpr::BinOp(BinOp::And, l, r) => [l.conjuncts(), r.conjuncts()].concat(),
            other => vec![other],
        }
    }

    /// Does any node in the tree (including `self`) satisfy `pred`?
    pub fn any_node(&self, pred: &mut impl FnMut(&CalcExpr) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        let mut found = false;
        self.for_each_child(&mut |child| {
            if !found && child.any_node(pred) {
                found = true;
            }
        });
        found
    }

    /// Number of nodes — used by the normalizer's fuel bound and by tests.
    pub fn size(&self) -> usize {
        match self {
            CalcExpr::Const(_) | CalcExpr::Var(_) | CalcExpr::TableRef(_) => 1,
            CalcExpr::Record(fields) => 1 + fields.iter().map(|(_, e)| e.size()).sum::<usize>(),
            CalcExpr::Proj(e, _) | CalcExpr::Not(e) | CalcExpr::Exists(e) => 1 + e.size(),
            CalcExpr::BinOp(_, l, r) | CalcExpr::Merge(_, l, r) => 1 + l.size() + r.size(),
            CalcExpr::If(c, t, e) => 1 + c.size() + t.size() + e.size(),
            CalcExpr::Call(_, args) => 1 + args.iter().map(|a| a.size()).sum::<usize>(),
            CalcExpr::Comp(c) => {
                1 + c.head.size()
                    + c.quals
                        .iter()
                        .map(|q| match q {
                            Qual::Gen(_, e) | Qual::Bind(_, e) | Qual::Pred(e) => e.size(),
                        })
                        .sum::<usize>()
            }
        }
    }
}

impl fmt::Display for CalcExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalcExpr::Const(v) => write!(f, "{v}"),
            CalcExpr::Var(n) => write!(f, "{n}"),
            CalcExpr::TableRef(t) => write!(f, "table({t})"),
            CalcExpr::Record(fields) => {
                write!(f, "{{")?;
                for (i, (n, e)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {e}")?;
                }
                write!(f, "}}")
            }
            CalcExpr::Proj(e, field) => write!(f, "{e}.{field}"),
            CalcExpr::BinOp(op, l, r) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Eq => "=",
                    BinOp::Ne => "!=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "and",
                    BinOp::Or => "or",
                };
                write!(f, "({l} {sym} {r})")
            }
            CalcExpr::Not(e) => write!(f, "not({e})"),
            CalcExpr::If(c, t, e) => write!(f, "if {c} then {t} else {e}"),
            CalcExpr::Call(func, args) => {
                write!(f, "{func:?}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            CalcExpr::Exists(e) => write!(f, "exists({e})"),
            CalcExpr::Comp(c) => {
                write!(f, "{:?}{{ {} | ", c.monoid, c.head)?;
                for (i, q) in c.quals.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match q {
                        Qual::Gen(v, e) => write!(f, "{v} <- {e}")?,
                        Qual::Pred(e) => write!(f, "{e}")?,
                        Qual::Bind(v, e) => write!(f, "{v} := {e}")?,
                    }
                }
                write!(f, " }}")
            }
            CalcExpr::Merge(m, l, r) => write!(f, "merge[{m:?}]({l}, {r})"),
        }
    }
}

/// Convert a [`FilterAlgo`] into a runnable blocker from `cleanm-cluster`.
/// K-means centers are sampled from the provided corpus (term validation
/// samples them from the dictionary, as in §8.1); an empty corpus (an empty
/// dictionary, or an empty table to sample) gives one center, the empty
/// string, so every term falls into one block.
pub fn make_blocker(
    algo: &FilterAlgo,
    center_corpus: &[String],
) -> Arc<dyn cleanm_cluster::Blocker> {
    use cleanm_cluster::{
        BlockerKind, CenterInit, ExactKey, KMeansBlocker, LengthBand, TokenFilter,
    };
    let kind = match algo {
        FilterAlgo::Exact => BlockerKind::Exact(ExactKey),
        FilterAlgo::TokenFilter { q } => BlockerKind::TokenFilter(TokenFilter::new(*q)),
        FilterAlgo::KMeans { k, delta, seed } => {
            let mut corpus: Vec<&str> = center_corpus.iter().map(|s| s.as_str()).collect();
            if corpus.is_empty() {
                corpus.push("");
            }
            BlockerKind::KMeans(KMeansBlocker::from_corpus(
                corpus,
                *k,
                CenterInit::Reservoir { seed: *seed },
                *delta,
            ))
        }
        FilterAlgo::LengthBand { width } => BlockerKind::LengthBand(LengthBand::new(*width)),
    };
    Arc::new(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monoid_properties() {
        assert!(MonoidKind::Set.idempotent());
        assert!(!MonoidKind::Bag.idempotent());
        assert!(MonoidKind::Sum.commutative());
        assert!(!MonoidKind::List.commutative());
        assert!(MonoidKind::Filter(FilterAlgo::Exact).is_collection());
        assert!(!MonoidKind::Max.is_collection());
    }

    #[test]
    fn zeros() {
        assert_eq!(MonoidKind::Sum.zero(), Value::Int(0));
        assert_eq!(MonoidKind::All.zero(), Value::Bool(true));
        assert_eq!(MonoidKind::Bag.zero(), Value::list([]));
    }

    #[test]
    fn size_counts_nodes() {
        let e = CalcExpr::bin(
            BinOp::Add,
            CalcExpr::int(1),
            CalcExpr::proj(CalcExpr::var("x"), "f"),
        );
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn display_comprehension() {
        let c = CalcExpr::comp(
            MonoidKind::Sum,
            CalcExpr::var("x"),
            vec![
                Qual::Gen("x".into(), CalcExpr::TableRef("t".into())),
                Qual::Pred(CalcExpr::bin(
                    BinOp::Lt,
                    CalcExpr::var("x"),
                    CalcExpr::int(5),
                )),
            ],
        );
        let s = c.to_string();
        assert!(s.contains("x <- table(t)"), "{s}");
        assert!(s.contains("(x < 5)"), "{s}");
    }

    #[test]
    fn blocker_construction() {
        let b = make_blocker(&FilterAlgo::TokenFilter { q: 2 }, &[]);
        assert!(!b.keys("anna").is_empty());
        let corpus: Vec<String> = vec!["alpha".into(), "beta".into(), "gamma".into()];
        let b = make_blocker(
            &FilterAlgo::KMeans {
                k: 2,
                delta: 0,
                seed: 1,
            },
            &corpus,
        );
        assert!(!b.keys("alpha").is_empty());
    }
}
