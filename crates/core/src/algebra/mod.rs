//! The nested relational algebra — the paper's second abstraction level.
//!
//! Comprehensions are lowered ([`lower`]) into the operators of Table 1
//! ([`plan::Alg`]): Scan, Select, Join, ThetaJoin, Unnest, Reduce and Nest.
//! The [`rewrite`] pass then performs the §5 inter-operator optimizations:
//! hash-consing the plan DAG so that identical sub-plans (same scan, same
//! grouping key) are *shared* — which is exactly how the paper's Plan BC
//! coalesces the two grouping passes of FD and DEDUP into one, and how the
//! "Overall Plan" scans the dataset once.

pub mod lower;
pub mod plan;
pub mod rewrite;

pub use lower::lower_op;
pub(crate) use lower::lower_op_with;
pub use plan::{env_layout, Alg, HintKind, PairShape, ThetaHint};
pub use rewrite::{rewrite_shared, RewriteStats};
