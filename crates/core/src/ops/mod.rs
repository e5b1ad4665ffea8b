//! High-level cleaning operators — the typed front doors to the pipeline.
//!
//! Each operator renders the corresponding CleanM query text and runs it
//! through the session, so callers get §4.4 semantics — and the session's
//! plan cache, report, tracing and limits — without writing query strings by
//! hand. These are what the examples and the benchmark harness use.

pub mod dc;
pub mod dedup;
pub mod fd;
pub mod termval;
pub mod transform;

pub use dc::{DcAtom, DcCell, DcOutcome, DcSide, DcTerm, DcViolation, InequalityDc};
pub use dedup::Dedup;
pub use fd::FdCheck;
pub use termval::TermValidation;
pub use transform::{apply_transforms, Transform, TransformMode, TransformReport};
