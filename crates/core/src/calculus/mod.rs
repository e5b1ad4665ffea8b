//! The monoid comprehension calculus — the paper's first abstraction level.
//!
//! Cleaning operations are "first-class citizens of the language instead of
//! black-box UDFs" (§3.2) because they all translate into one IR: monoid
//! comprehensions `⊕{ e | q₁, …, qₙ }` (Fegaras & Maier). This module holds
//!
//! * [`expr`] — the expression IR ([`CalcExpr`], [`Comprehension`],
//!   [`Qual`]) and the monoid vocabulary ([`MonoidKind`], including the
//!   grouping "filter" monoids of §4.3);
//! * [`subst`] — capture-avoiding substitution and free-variable analysis;
//! * [`eval`](mod@eval) — a reference evaluator (single-node semantics; the oracle the
//!   property tests compare the normalizer and the distributed engine
//!   against);
//! * [`compile`](mod@compile) — ahead-of-time lowering of expressions to flat,
//!   slot-resolved [`Program`]s evaluated by a non-recursive register
//!   machine (the hot-path twin of the reference evaluator; every
//!   expression compiles, nested comprehensions included);
//! * [`normalize`](mod@normalize) — the §4.2 rewrites, applied bottom-up to fixpoint;
//! * [`desugar`] — the Monoid Rewriter: CleanM AST → comprehensions, per
//!   the semantics given in §4.4.

pub mod compile;
pub mod desugar;
pub mod eval;
pub mod expr;
pub mod normalize;
pub mod subst;

pub use compile::Program;
pub use desugar::desugar_query;
pub use eval::{eval, EvalCtx};
pub use expr::{BinOp, CalcExpr, Comprehension, FilterAlgo, Func, MonoidKind, Qual};
pub use normalize::{normalize, NormalizeStats};
