//! # cleanm-core — the paper's contribution
//!
//! This crate implements CleanM (the language) and the three-level
//! optimization pipeline of the paper, wired to the [`cleanm_exec`] runtime:
//!
//! 1. **Language** ([`lang`]): a SQL-extension parser for Listing 1's syntax
//!    (`SELECT … FROM … [FD(…)] [DEDUP(…)] [CLUSTER BY(…)]`), producing an
//!    AST that the *Monoid Rewriter* ([`calculus::desugar`]) de-sugarizes
//!    into monoid comprehensions, exactly as §4.4 specifies.
//! 2. **Monoid level** ([`calculus`]): the comprehension calculus — monoid
//!    kinds (primitive, collection, and the paper's grouping/"filter"
//!    monoids), a reference evaluator, and the normalization rewrites of
//!    §4.2 (beta reduction, comprehension unnesting, if-splitting,
//!    existential unnesting, filter pushdown, static simplification).
//! 3. **Algebra level** ([`algebra`]): the nested relational algebra of
//!    Table 1 (Select, Join, OuterJoin, Unnest, OuterUnnest, Reduce, Nest),
//!    lowering from comprehensions, and the §5 rewrites — coalescing Nest
//!    operators that share a grouping key (Plan BC) and shared-scan DAG
//!    construction (the "Overall Plan").
//! 4. **Physical level** ([`physical`]): translation to runtime operators
//!    per Table 2, parameterized by an [`physical::EngineProfile`] —
//!    `CleanDb` (aggregateByKey + M-Bucket theta joins), `SparkSqlLike`
//!    (sort-based shuffles + cartesian theta joins, no cross-operator
//!    rewrites), and `BigDansingLike` (hash shuffles + min-max block theta
//!    joins, one black-box operation at a time).
//!
//! The user-facing pieces are [`engine::CleanDb`] (register tables, run
//! CleanM queries, get a [`engine::CleaningReport`]), the direct operator
//! APIs in [`ops`] (FD, denial constraints, dedup, term validation,
//! transformations), and [`quality`] (precision/recall/F-score against
//! generator ground truth).

pub mod algebra;
pub mod calculus;
pub mod engine;
pub mod lang;
pub mod ops;
pub mod physical;
pub mod quality;

pub use calculus::desugar::OpKind;
pub use engine::{CleanDb, CleaningReport, FailureInfo, MetricsRegistry, RunLimits};
pub use lang::{analyze, parse_program, parse_query, pretty_query, Analysis, Diagnostic, Span};
pub use physical::{EngineProfile, PhaseSplit, Planner, ProfileNode, QueryProfile};
