//! Raw-data access substrate: readers and writers for the formats the paper's
//! CleanDB evaluates over.
//!
//! CleanDB (built on RAW) queries CSV, JSON, XML, Parquet and binary data in
//! place. This crate implements each format from scratch:
//!
//! * [`csv`] — RFC-4180-style CSV with quoting, schema-driven typing.
//! * [`json`] — a full JSON parser producing [`cleanm_values::Value`] trees,
//!   plus table readers for arrays-of-objects and JSON-lines.
//! * [`xml`] — an XML subset parser (elements, attributes, text, entities)
//!   sufficient for DBLP-shaped documents; repeated children become lists.
//! * [`colbin`] — a columnar binary format with per-column storage and
//!   dictionary-encoded strings; the repo's stand-in for Parquet
//!   (Figures 6b and 7 compare text formats against it).
//! * [`flatten`] — relational flattening of nested tables (one output row per
//!   list element), used to produce the paper's "flat CSV / flat Parquet"
//!   DBLP variants.

pub mod colbin;
pub mod csv;
pub mod flatten;
pub mod json;
pub mod xml;

pub use cleanm_values::{DataType, Error, Field, Result, Row, Schema, Table, Value};

/// The deepest nesting a reader accepts — colbin list/struct types and
/// values, JSON arrays and objects, XML elements. Past it a document is an
/// [`Error::Parse`], never a recursion deeper than the stack holds.
pub const MAX_DEPTH: usize = 128;

/// The depth one level below `depth`, or `format`'s typed error past
/// [`MAX_DEPTH`].
fn nested(format: &str, depth: usize) -> Result<usize> {
    if depth >= MAX_DEPTH {
        return Err(Error::Parse(format!(
            "{format}: nesting deeper than {MAX_DEPTH}"
        )));
    }
    Ok(depth + 1)
}
