//! # cleanm-incr — incremental cleaning service
//!
//! CleanM's batch engine re-parses, re-plans, and rescans everything per
//! run. This crate turns violation detection into inference over *changes*:
//!
//! * **Append ingestion** — [`CleanDb::append`](cleanm_core::CleanDb)
//!   (re-exported session) adds row batches as new partitions and bumps
//!   the table's epoch.
//! * **Standing queries** — [`IncrementalSession::install`] runs a query
//!   once, takes its plan from `CleanDb::plan`, and retains
//!   per-operator state: FD group maps, DEDUP blocking indexes, CLUSTER BY
//!   dictionary indexes, sorted join-key indexes for a `DC(...)` clause
//!   that plans as a theta join. Each appended batch is then
//!   validated delta-vs-delta and delta-vs-history, producing a
//!   [`CleaningReport`](cleanm_core::CleaningReport) with the same
//!   violations and repairs as a from-scratch run — without rescanning old
//!   rows, and without walking the retained output: violating ids and FD
//!   violators are maintained as deltas arrive, so a refresh costs the
//!   delta and the violation count. Operators whose state cannot be
//!   maintained fall back to a full re-run, counted in
//!   `report.incremental`.
//! * **Plan cache** — an exact textual repeat over unchanged tables skips
//!   parse/normalize/plan entirely; hits and misses are surfaced in every
//!   report's `plan_cache` field. A plan evicted from the cache is planned
//!   again on request, so no consumer has a missing-plan branch.

mod dc;
mod session;
mod state;

pub use session::{IncrementalSession, QueryId};
