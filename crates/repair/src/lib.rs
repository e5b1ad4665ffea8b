//! # cleanm-repair — from violation reports to applicable fixes
//!
//! The detection engine in `cleanm-core` reports *where* data is dirty;
//! this crate decides *what to write instead*. A [`RepairEngine`] consumes
//! the violation output of every cleaning operator and produces
//! confidence-scored cell fixes
//! ([`Fix`]`{table, column, row_id, original, repaired, confidence, rule}`),
//! collected into the [`RepairSection`] a
//! [`CleaningReport`](cleanm_core::engine::CleaningReport) carries. Each
//! operator is read from its own clause in the statement (the `i`-th
//! clause is the report's `i`-th op) over the statement's primary table;
//! no plan is consulted.
//!
//! Four repair families:
//!
//! * **FD repairs** — per violating LHS group, each column the clause's
//!   right-hand side names is set to the group's most frequent value
//!   (weighted in-group frequency), ties broken by the value's exact count
//!   in the whole table; confidence is the winner's in-group share. A
//!   derived right-hand side (`prefix(x.phone)`) stays unrepaired.
//! * **DEDUP merges** — duplicate clusters collapse onto their canonical
//!   record through matching-dependency-style [`MergeFn`]s per column
//!   (most-frequent, longest, non-null, mean/min/max, custom precedence).
//! * **CLUSTER BY term repairs** — terms in the column a CLUSTER BY's
//!   `term` names are rewritten to their best dictionary suggestion
//!   ([`select_best_repairs`](cleanm_core::quality::select_best_repairs))
//!   under the clause's own metric, which also scores the confidence,
//!   unless the term is itself a dictionary word.
//! * **DC repairs via relaxation** — for the `DC(...)` clause of any
//!   statement, the offending cell moves to the boundary the constraint
//!   implies (the minimal adjustment that exits the predicate), verified by
//!   re-running the clause over the patched table, with a low-confidence
//!   null-out fallback for anything that survives.
//!
//! Fixes are deterministic — sorted by `(table, row_id, column)` regardless
//! of shuffle strategy or partition count — and *applicable*:
//! [`CleanDb::apply_repairs`](cleanm_core::engine::CleanDb::apply_repairs)
//! rewrites the cells, drops merged rows, and re-registers the table
//! through the columnar path, so standing queries in `cleanm-incr`
//! re-validate the repaired table (to zero violations) on their next
//! refresh.
//!
//! ```
//! use cleanm_core::engine::CleanDb;
//! use cleanm_core::physical::EngineProfile;
//! use cleanm_repair::RepairEngine;
//! use cleanm_values::{DataType, Row, Schema, Table, Value};
//!
//! let schema = Schema::of([("addr", DataType::Str), ("nation", DataType::Int)]);
//! let rows = vec![
//!     Row::new(vec![Value::str("athens"), Value::Int(30)]),
//!     Row::new(vec![Value::str("athens"), Value::Int(30)]),
//!     Row::new(vec![Value::str("athens"), Value::Int(99)]), // FD violation
//! ];
//! let mut db = CleanDb::new(EngineProfile::clean_db());
//! db.register("c", Table::new(schema, rows));
//!
//! let engine = RepairEngine::default();
//! let report = engine.run(&mut db, "SELECT * FROM c x FD(x.addr, x.nation)").unwrap();
//! let section = report.repair.clone().unwrap();
//! assert_eq!(section.fixes.len(), 1);
//! db.apply_repairs(&section).unwrap();
//!
//! // The repaired table re-cleans with zero violations.
//! let clean = db.run("SELECT * FROM c x FD(x.addr, x.nation)").unwrap();
//! assert_eq!(clean.violations(), 0);
//! ```
#![warn(missing_docs)]

mod dc;
mod dedup;
mod engine;
mod fd;
mod merge;
mod termval;

use cleanm_core::lang::{Expr, ExprKind};

pub use engine::{RepairConfig, RepairEngine};
pub use merge::{MergeFn, MergePolicy};

// The record types live in cleanm-core (the report embeds them); re-export
// for one-stop imports.
pub use cleanm_core::engine::{AppliedRepairs, AppliedTable, Fix, RepairSection};

/// The column a clause expression names (`x.nation`), or `None` for a
/// derived expression (`prefix(x.phone)`), which no cell assignment
/// inverts.
fn column_of(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Column { name, .. } => Some(name.clone()),
        _ => None,
    }
}
