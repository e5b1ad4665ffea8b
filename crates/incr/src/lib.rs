//! # cleanm-incr — incremental cleaning service
//!
//! CleanM's batch engine re-parses, re-plans, and rescans everything per
//! run. This crate turns violation detection into inference over *changes*:
//!
//! * **Append ingestion** — [`CleanDb::append`](cleanm_core::CleanDb)
//!   (re-exported session) adds row batches as new partitions and bumps
//!   the table's epoch.
//! * **Standing queries** — [`IncrementalSession::install`] runs a query
//!   once, takes its plan from `CleanDb::plan`, and keeps per-operator
//!   state read off each operator's plan by one of three rules — groups
//!   (FD, `GROUP BY … HAVING`), pairs (DEDUP, DC, CLUSTER BY) and map
//!   (`SELECT … WHERE`). Each appended batch is then validated
//!   delta-vs-delta and delta-vs-history, producing a
//!   [`CleaningReport`](cleanm_core::CleaningReport) with the same outputs,
//!   violations and repairs as a from-scratch run, at the cost of the delta
//!   and the violation count. A plan no rule fits, and a k-means blocker
//!   sampled from the catalog, fall back to a full re-run, counted in
//!   `report.incremental`.
//! * **Plan cache** — an exact textual repeat over unchanged tables skips
//!   parse/normalize/plan entirely; hits and misses are surfaced in every
//!   report's `plan_cache` field. A plan evicted from the cache is planned
//!   again on request, so no consumer has a missing-plan branch.

mod groups;
mod pairs;
mod session;
mod state;

pub use session::{IncrementalSession, QueryId};
