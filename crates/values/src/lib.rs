#![warn(missing_docs)]

//! Nested data model for the CleanM reproduction.
//!
//! The paper's CleanDB queries heterogeneous data (CSV, JSON, XML, columnar
//! binary), so the value model must represent both flat relational tuples and
//! nested collections (e.g. a DBLP publication with a list of authors).
//!
//! * [`Value`] — a dynamically typed value with total equality, ordering and
//!   hashing (floats are compared by canonicalized bits so values can be used
//!   as grouping keys).
//! * [`DataType`] / [`Schema`] / [`Field`] — logical types.
//! * [`Row`] — one record: a boxed slice of values positionally matching a
//!   schema.

mod batch;
mod error;
mod fxhash;
mod intern;
mod row;
mod strview;
mod types;
mod value;

pub use batch::{Column, ColumnBatch, ColumnBuilder, NullMask};
pub use error::{Error, Result};
pub use fxhash::{fx_hash, FxBuildHasher, FxHashMap, FxHashSet, FxHasher, HASH_SEED};
pub use intern::{intern, intern_all};
pub use row::{Row, Table};
pub use strview::StrView;
pub use types::{DataType, Field, Schema};
pub use value::Value;
