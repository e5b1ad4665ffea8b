//! Experiment library: one module per table/figure of the paper's §8.
//!
//! Each experiment is a plain function returning structured result rows,
//! which the `repro` binary prints as paper-style tables; it reaches the
//! engine only through `CleanDb` and `ops::*`. Scale factors are
//! laptop-sized by default; everything is seeded and deterministic.

pub mod experiments;
pub mod harness;

pub use harness::{fmt_duration, Scale};
