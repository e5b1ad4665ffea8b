#![warn(missing_docs)]

//! # cleanm-stats — mergeable dataset statistics
//!
//! The paper frames *queries* as monoid comprehensions; this crate extends
//! the same framing to *optimization*: every summary here is a *monoid* — it
//! has an identity (`new`), an associative, commutative `merge`, and
//! `observe` distributes over partitioning. That is exactly what makes the
//! statistics collectable in **one pass** on the `cleanm-exec` substrate:
//! each partition folds its rows into a partial summary where the data sits
//! ([`cleanm_exec::summarize_rows`]), and only the partials — one record per
//! partition — travel to the driver to be merged.
//!
//! Per column, a [`ColumnStats`] tracks:
//!
//! * exact **min / max / null count / row count** (trivially monoidal),
//! * a **distinct-count sketch** ([`Hll`], HyperLogLog with linear-counting
//!   correction; merge = register-wise max),
//! * a **reservoir sample** of the numeric projection ([`Reservoir`];
//!   weighted merge), from which **equi-depth histograms**
//!   ([`EquiDepthHistogram`]) are cut on demand, and
//! * **heavy hitters** ([`HeavyHitters`], Misra–Gries; merge = counter sum +
//!   re-truncation) for skew detection.
//!
//! [`TableStats`] is the column-wise product monoid plus a row count. The
//! planner consumes these through [`ColumnStats::distinct_estimate`],
//! [`ColumnStats::top_share`], [`ColumnStats::histogram`], and
//! [`EquiDepthHistogram::fraction_pairs`].

mod column;
mod heavy;
mod histogram;
mod hll;
mod reservoir;
mod strkey;
mod table;

pub use column::ColumnStats;
pub use heavy::HeavyHitters;
pub use histogram::{Bucket, EquiDepthHistogram};
pub use hll::Hll;
pub use reservoir::Reservoir;
pub use strkey::{string_key, STRING_KEY_BYTES, STRING_KEY_RESOLUTION};
pub use table::{collect_batch_stats, collect_table_stats, TableStats};

// Summary sizes: together they keep a per-column summary around a few
// KiB regardless of table size.
/// HyperLogLog precision (register count = `2^precision`).
const HLL_PRECISION: u8 = 12;
/// Reservoir capacity for the samples behind histograms.
const SAMPLE_CAPACITY: usize = 1024;
/// Misra–Gries counter capacity for heavy-hitter tracking.
const HEAVY_CAPACITY: usize = 16;
/// Bucket count when cutting equi-depth histograms.
const HISTOGRAM_BUCKETS: usize = 32;
