//! Physical level — translation of algebra plans to runtime operators
//! (Table 2) under an [`EngineProfile`].
//!
//! The profile is the experimental control knob of §8: the *same* logical
//! plan executes under `CleanDb` (local-aggregate Nest, M-Bucket theta
//! join, shared plan DAG), `SparkSqlLike` (sort-shuffle Nest, cartesian
//! theta join, no cross-operator sharing), or `BigDansingLike` (hash-shuffle
//! Nest, min-max block theta join, one operation at a time), so measured
//! differences are attributable to exactly the paper's claims.
//!
//! The columnar kernels are an implementation detail of the executor and
//! stay private: timing them in isolation belongs to no harness (the
//! `physical.vectorized_rows` metric and the end-to-end workloads of
//! `BENCHMARK.json` show them at work), so nothing outside this module may
//! name them. Re-exporting `kernel` means deleting this check:
//!
//! ```compile_fail,E0603
//! use cleanm_core::physical::kernel;
//! ```

mod blocks;
pub mod execute;
mod groupfold;
mod kernel;
mod pairs;
pub mod profile;
pub mod program;
pub mod qprofile;
mod scan;
mod theta;

pub use execute::{Executor, PlanDecision};
pub use groupfold::{recognize as recognize_group_fold, AggFoldShape, AggKind, AggSlot, SlotAcc};
pub use profile::{EngineProfile, NestStrategy, Planner, ThetaStrategy};
pub use program::{env_layout, RowEnv, RowExpr};
pub use qprofile::{PhaseSplit, ProfileNode, QueryProfile};
