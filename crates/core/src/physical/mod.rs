//! Physical level — translation of algebra plans to runtime operators
//! (Table 2) under an [`EngineProfile`].
//!
//! The profile is the experimental control knob of §8: the *same* logical
//! plan executes under `CleanDb` (local-aggregate Nest, M-Bucket theta
//! join, shared plan DAG), `SparkSqlLike` (sort-shuffle Nest, cartesian
//! theta join, no cross-operator sharing), or `BigDansingLike` (hash-shuffle
//! Nest, min-max block theta join, one operation at a time), so measured
//! differences are attributable to exactly the paper's claims.

pub mod execute;
mod groupfold;
pub mod kernel;
mod pairs;
pub mod profile;
pub mod program;
pub mod qprofile;

pub use execute::{Executor, PhaseTimings, PlanDecision};
pub use profile::{EngineProfile, NestStrategy, ThetaStrategy};
pub use program::{env_layout, ProgramCache, RowEnv, RowExpr};
pub use qprofile::{ProfileNode, QueryProfile};
