//! The CleanDB engine: catalog, query pipeline, reports.
//!
//! [`CleanDb`] mirrors Figure 2 of the paper: a query string goes through
//! the parser → Monoid Rewriter (desugar) → Monoid Optimizer (normalize) →
//! algebra lowering → plan rewriter (sharing) → physical execution under the
//! session's [`EngineProfile`](crate::physical::EngineProfile), producing a
//! [`CleaningReport`] with violations, suggested repairs, optimizer
//! statistics, runtime metrics and — when traced — per-node profiles.

pub mod output;
pub mod registry;
pub mod repair;
pub mod report;
pub mod session;
pub mod storage;

pub use output::{collect_rowids, Output};
pub use registry::{LatencyTrack, MetricsRegistry};
pub use repair::{AppliedRepairs, AppliedTable, Fix, RepairSection};
pub use report::{CleaningReport, FailureInfo, IncrementalInfo, OpResult, PlanCacheStats, Repair};
pub use session::{collect_repairs, CleanDb, EngineError, PlannedQuery, RunLimits};
pub use storage::StoredTable;
