//! # CleanM — an optimizable query language for unified scale-out data cleaning
//!
//! This is a Rust reproduction of the VLDB 2017 paper *"CleanM: An
//! Optimizable Query Language for Unified Scale-Out Data Cleaning"*
//! (Giannakopoulou et al.). The crate is a facade that re-exports the
//! workspace members; see each member crate for the detailed APIs:
//!
//! * [`values`] — the nested data model ([`values::Value`], [`values::Schema`], [`values::Row`]).
//! * [`formats`] — CSV / JSON / XML readers and writers plus the `colbin`
//!   columnar binary format (the repo's Parquet stand-in).
//! * [`text`] — string similarity metrics and q-gram tokenization.
//! * [`cluster`] — the blockers: exact keys, token filtering, length
//!   bands, single-pass & multi-pass k-means.
//! * [`exec`] — the scale-out runtime substrate: partitioned datasets,
//!   shuffles, equi-joins, and three theta-join algorithms.
//! * [`datagen`] — deterministic TPC-H / DBLP / MAG-shaped workload
//!   generators with ground-truth tracking.
//! * [`core`] — the paper's contribution: the CleanM language, the monoid
//!   comprehension calculus and its normalizer, the nested relational
//!   algebra and its rewriter, physical planning under three engine
//!   profiles, and the cleaning operators (FD, DC, DEDUP, CLUSTER BY,
//!   transformations).
//! * [`incr`] — the incremental cleaning service: append ingestion with
//!   monoid-maintained statistics, standing queries with delta-driven
//!   re-validation, and the session plan cache.
//! * [`repair`] — the repair engine: confidence-scored cell fixes for
//!   FD/DEDUP/CLUSTER BY/DC violations, applied through
//!   [`core::CleanDb::apply_repairs`] and re-validated incrementally.
//!
//! ## Quickstart
//!
//! ```
//! use cleanm::core::{CleanDb, EngineProfile};
//! use cleanm::datagen::customer::CustomerGen;
//!
//! // Generate a small dirty customer table and register it.
//! let data = CustomerGen::new(42).rows(500).duplicate_fraction(0.1).generate();
//! let mut db = CleanDb::new(EngineProfile::clean_db());
//! db.register("customer", data.table);
//!
//! // One CleanM query: an FD check plus duplicate detection, optimized as
//! // a single task.
//! let report = db
//!     .run(
//!         "SELECT c.name, c.address FROM customer c \
//!          FD(c.address, c.nationkey) \
//!          DEDUP(exact, LD, 0.8, c.address, c.name)",
//!     )
//!     .unwrap();
//! assert!(report.violations() > 0);
//! ```

pub use cleanm_cluster as cluster;
pub use cleanm_core as core;
pub use cleanm_datagen as datagen;
pub use cleanm_exec as exec;
pub use cleanm_formats as formats;
pub use cleanm_incr as incr;
pub use cleanm_repair as repair;
pub use cleanm_text as text;
pub use cleanm_values as values;
