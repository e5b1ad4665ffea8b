//! Scale-out runtime substrate — the repository's stand-in for Spark.
//!
//! The paper's third optimization level (§6) is about *physical* choices on a
//! scale-out engine: how grouping shuffles data (sort-based vs hash-based vs
//! local-aggregate-then-merge) and how theta joins are executed (cartesian +
//! filter vs min-max block pruning vs statistics-aware matrix partitioning).
//! To reproduce those effects without a Spark cluster, this crate implements
//! a real shared-nothing runtime at laptop scale:
//!
//! * a **partitioned dataset** ([`Dataset`]) processed by a pool of worker
//!   threads, one logical "node" per partition;
//! * **narrow operators** (`map`, `filter_partitions`, `map_partitions`,
//!   and the fused `filter_transform` sweep) that never
//!   move data, and column-first stages that build a dataset or per-chunk
//!   partials from caller-described tasks ([`produce_partitions`],
//!   [`produce_partials`]);
//! * **one grouping operator**, [`Dataset::group_by_key`], that gathers
//!   each `(key, value)` pair into its key's member list and really moves
//!   records between partitions under the chosen [`Shuffle`]:
//!   `LocalAggregate` (CleanDB's map-side combine — only partial groups
//!   move), `SortShuffle` (Spark SQL's sort-based aggregation with sampled
//!   range partitioning — skew lands on one worker) or `HashShuffle`
//!   (BigDansing's — every record moves); keys are hashed exactly once by
//!   the seeded fast hasher, so output order is identical across runs;
//! * **equi-joins** ([`Dataset::join_hash`], [`Dataset::full_outer_join`])
//!   and three **theta joins**
//!   ([`theta::cartesian_filter`], [`theta::minmax_block_join`],
//!   [`theta::mbucket_join`]);
//! * **metrics** ([`ExecMetrics`], [`StageReport`]): records shuffled,
//!   comparisons performed, per-worker busy time (load imbalance), and
//! * a **work budget** so that plans whose comparison count explodes are
//!   reported as `BudgetExceeded` — the harness's analogue of the paper's
//!   ">10h / unable to terminate" entries — instead of melting the laptop.

mod context;
mod dataset;
mod error;
mod faults;
mod fold;
mod join;
mod metrics;
mod pool;
mod shuffle;
pub mod theta;

pub use context::{CancelToken, ExecContext};
pub use dataset::{produce_partials, produce_partitions, Data, Dataset, Key};
pub use error::{ExecError, ExecResult};
pub use faults::{FaultKind, FaultPlan, FaultSite};
pub use fold::Shuffle;
pub use metrics::{ExecMetrics, MetricsSnapshot, StageReport};
