//! Typed columnar batches: the vectorized storage the physical layer
//! executes over.
//!
//! A [`ColumnBatch`] holds one partition of rows column-wise: per-field
//! vectors of `i64` / `f64` / `bool` / shared `Arc<str>` with a null
//! bitmap, falling back to boxed [`Value`]s for mixed-type or nested
//! columns. The batch is a *view discipline*, not a new data model — every
//! cell reconstructs to exactly the [`Value`] it was built from
//! ([`ColumnBatch::row`] is byte-identical to the source row), so the
//! row-at-a-time interpreter remains the semantics of record and columnar
//! kernels are pinned against it by differential tests.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::Value;

/// A null bitmap over one column: bit set ⇒ the slot is NULL (the typed
/// data vector holds a default at that slot).
#[derive(Debug, Clone, Default)]
pub struct NullMask {
    bits: Vec<u64>,
}

impl NullMask {
    /// An all-valid mask for `len` slots.
    pub fn new(len: usize) -> Self {
        NullMask {
            bits: vec![0u64; len.div_ceil(64)],
        }
    }

    /// Mark slot `i` as NULL, growing the bitmap if needed.
    pub fn set_null(&mut self, i: usize) {
        if i / 64 >= self.bits.len() {
            self.bits.resize(i / 64 + 1, 0);
        }
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Is slot `i` NULL? Slots past the bitmap's end are valid (the bitmap
    /// only grows to cover the highest NULL ever set).
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self.bits.get(i / 64) {
            Some(w) => (w >> (i % 64)) & 1 == 1,
            None => false,
        }
    }
}

/// One typed column of a [`ColumnBatch`]. Typed variants keep a default at
/// NULL slots; [`Column::Val`] is the generic fallback for mixed-type or
/// nested (list/struct) columns.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int {
        /// Cell values (`0` at NULL slots).
        data: Vec<i64>,
        /// NULL positions, when any.
        nulls: Option<NullMask>,
    },
    /// 64-bit floats.
    Float {
        /// Cell values (`0.0` at NULL slots).
        data: Vec<f64>,
        /// NULL positions, when any.
        nulls: Option<NullMask>,
    },
    /// Booleans.
    Bool {
        /// Cell values (`false` at NULL slots).
        data: Vec<bool>,
        /// NULL positions, when any.
        nulls: Option<NullMask>,
    },
    /// Shared strings — cells are refcounted, so gathers and identity
    /// transforms never copy bytes.
    Str {
        /// Cell values (a shared empty string at NULL slots).
        data: Vec<Arc<str>>,
        /// NULL positions, when any.
        nulls: Option<NullMask>,
    },
    /// Generic fallback: boxed values, evaluated row-at-a-time.
    Val(Vec<Value>),
}

impl Column {
    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::Int { data, .. } => data.len(),
            Column::Float { data, .. } => data.len(),
            Column::Bool { data, .. } => data.len(),
            Column::Str { data, .. } => data.len(),
            Column::Val(data) => data.len(),
        }
    }

    /// Is cell `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. } => nulls.as_ref().is_some_and(|m| m.is_null(i)),
            Column::Val(data) => data[i].is_null(),
        }
    }

    /// Reconstruct cell `i` as the exact [`Value`] it was built from.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            Column::Int { data, .. } => Value::Int(data[i]),
            Column::Float { data, .. } => Value::Float(data[i]),
            Column::Bool { data, .. } => Value::Bool(data[i]),
            Column::Str { data, .. } => Value::Str(Arc::clone(&data[i])),
            Column::Val(data) => data[i].clone(),
        }
    }
}

/// Incremental typed-column builder with progressive type inference:
/// starts untyped, locks to the first non-NULL type it sees, and demotes
/// to the generic [`Column::Val`] fallback on the first mismatch (the
/// already-pushed cells are reconstructed exactly).
#[derive(Debug)]
pub struct ColumnBuilder {
    kind: BuilderKind,
    /// Cells to reserve when the builder locks to a type.
    capacity: usize,
}

#[derive(Debug)]
enum BuilderKind {
    /// Only NULLs so far (`usize` = how many).
    Empty(usize),
    Int(Vec<i64>, Option<NullMask>),
    Float(Vec<f64>, Option<NullMask>),
    Bool(Vec<bool>, Option<NullMask>),
    Str(Vec<Arc<str>>, Option<NullMask>),
    Val(Vec<Value>),
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        ColumnBuilder::new()
    }
}

fn push_null<T: Default>(data: &mut Vec<T>, nulls: &mut Option<NullMask>, cap_hint: usize) {
    let i = data.len();
    data.push(T::default());
    nulls
        .get_or_insert_with(|| NullMask::new(cap_hint.max(i + 1)))
        .set_null(i);
}

impl ColumnBuilder {
    /// A fresh, untyped builder.
    pub fn new() -> Self {
        ColumnBuilder::with_capacity(0)
    }

    /// A fresh, untyped builder that reserves room for `capacity` cells
    /// once it locks to a type.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ColumnBuilder {
            kind: BuilderKind::Empty(0),
            capacity,
        }
    }

    /// Append one cell by reference: a scalar cell of the locked type is
    /// copied straight into the column, anything else is cloned and
    /// [`ColumnBuilder::push`]ed.
    #[inline]
    pub(crate) fn push_ref(&mut self, v: &Value) {
        match (&mut self.kind, v) {
            (BuilderKind::Int(d, _), Value::Int(i)) => d.push(*i),
            (BuilderKind::Float(d, _), Value::Float(f)) => d.push(*f),
            (BuilderKind::Bool(d, _), Value::Bool(b)) => d.push(*b),
            (BuilderKind::Str(d, _), Value::Str(s)) => d.push(Arc::clone(s)),
            _ => self.push(v.clone()),
        }
    }

    /// Append one cell.
    pub fn push(&mut self, v: Value) {
        // Type-lock on first non-null; demote to Val on mismatch.
        let demote = match (&mut self.kind, &v) {
            (BuilderKind::Empty(n), Value::Null) => {
                *n += 1;
                return;
            }
            (BuilderKind::Empty(n), _) => {
                let n = *n;
                let cap = self.capacity.max(n + 1);
                let mut kind = match &v {
                    Value::Int(_) => BuilderKind::Int(Vec::with_capacity(cap), None),
                    Value::Float(_) => BuilderKind::Float(Vec::with_capacity(cap), None),
                    Value::Bool(_) => BuilderKind::Bool(Vec::with_capacity(cap), None),
                    Value::Str(_) => BuilderKind::Str(Vec::with_capacity(cap), None),
                    _ => BuilderKind::Val(Vec::with_capacity(cap)),
                };
                // Re-play the leading NULLs into the typed storage.
                for _ in 0..n {
                    match &mut kind {
                        BuilderKind::Int(d, m) => push_null(d, m, n),
                        BuilderKind::Float(d, m) => push_null(d, m, n),
                        BuilderKind::Bool(d, m) => push_null(d, m, n),
                        BuilderKind::Str(d, m) => push_null(d, m, n),
                        BuilderKind::Val(d) => d.push(Value::Null),
                        BuilderKind::Empty(_) => unreachable!(),
                    }
                }
                self.kind = kind;
                self.push(v); // once more, for the actual value
                return;
            }
            (BuilderKind::Int(d, m), Value::Null) => {
                push_null(d, m, 0);
                return;
            }
            (BuilderKind::Int(d, _), Value::Int(i)) => {
                d.push(*i);
                return;
            }
            (BuilderKind::Float(d, m), Value::Null) => {
                push_null(d, m, 0);
                return;
            }
            (BuilderKind::Float(d, _), Value::Float(f)) => {
                d.push(*f);
                return;
            }
            (BuilderKind::Bool(d, m), Value::Null) => {
                push_null(d, m, 0);
                return;
            }
            (BuilderKind::Bool(d, _), Value::Bool(b)) => {
                d.push(*b);
                return;
            }
            (BuilderKind::Str(d, m), Value::Null) => {
                push_null(d, m, 0);
                return;
            }
            (BuilderKind::Str(d, _), Value::Str(s)) => {
                d.push(Arc::clone(s));
                return;
            }
            (BuilderKind::Val(d), _) => {
                d.push(v);
                return;
            }
            _ => true,
        };
        debug_assert!(demote);
        // Mismatched type: reconstruct what we have as boxed values and
        // continue generic.
        let done = std::mem::replace(&mut self.kind, BuilderKind::Empty(0)).finish();
        let mut vals: Vec<Value> = (0..done.len()).map(|i| done.value(i)).collect();
        vals.push(v);
        self.kind = BuilderKind::Val(vals);
    }

    /// Finish into a [`Column`].
    pub fn finish(self) -> Column {
        self.kind.finish()
    }
}

impl BuilderKind {
    fn finish(self) -> Column {
        match self {
            // An all-NULL column stays generic: no type to specialize on.
            BuilderKind::Empty(n) => Column::Val(vec![Value::Null; n]),
            BuilderKind::Int(data, nulls) => Column::Int { data, nulls },
            BuilderKind::Float(data, nulls) => Column::Float { data, nulls },
            BuilderKind::Bool(data, nulls) => Column::Bool { data, nulls },
            BuilderKind::Str(data, nulls) => Column::Str { data, nulls },
            BuilderKind::Val(data) => Column::Val(data),
        }
    }
}

/// One partition of rows stored column-wise: shared field names plus one
/// [`Column`] per field. Construction from rows requires every row to be a
/// struct with the *same field names in the same order* (the executor's
/// per-partition schema invariant) — anything else returns `None` and the
/// caller keeps the row path.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    len: usize,
    names: Vec<Arc<str>>,
    cols: Vec<Column>,
}

impl ColumnBatch {
    /// Columnarize `rows` (each a [`Value::Struct`] with an identical
    /// field-name sequence). `None` when the rows are not uniform structs.
    pub fn from_rows(rows: &[Value]) -> Option<ColumnBatch> {
        Self::pivot(rows, |_| true)
    }

    /// [`ColumnBatch::from_rows`] keeping only the columns named in
    /// `fields` (in row field order): the layout check still covers every
    /// field of every row — a batch either columnarizes or it does not —
    /// but only the requested cells are copied, so an operator that reads
    /// three columns of a wide table pays for three. Names absent from the
    /// rows are skipped; [`ColumnBatch::row`] on the result reconstructs
    /// the projected fields only.
    pub fn project_rows(rows: &[Value], fields: &[&str]) -> Option<ColumnBatch> {
        Self::pivot(rows, |name| fields.contains(&name))
    }

    /// This batch, a projection of `rows`, widened by the columns `fields`
    /// names: only the names it lacks are pivoted, and its own columns are
    /// kept, all in row field order — what [`ColumnBatch::project_rows`]
    /// gives over both name sets, without checking every field of every
    /// row again (the pivot that built this batch did). Names absent from
    /// the rows are skipped; `None` when a row is not a struct as wide as
    /// the first.
    pub fn widen(&self, rows: &[Value], fields: &[&str]) -> Option<ColumnBatch> {
        let Some(first) = rows.first() else {
            return Some(self.clone());
        };
        let template = first.as_struct().ok()?;
        // Per kept field: its held column, or `None` for the next new one.
        let mut picks: Vec<(&Arc<str>, Option<usize>)> = Vec::new();
        let mut missing: Vec<usize> = Vec::new();
        for (at, (name, _)) in template.iter().enumerate() {
            if let Some(held) = self.column_index(name) {
                picks.push((name, Some(held)));
            } else if fields.contains(&name.as_ref()) {
                picks.push((name, None));
                missing.push(at);
            }
        }
        let mut builders: Vec<ColumnBuilder> = (missing.iter())
            .map(|_| ColumnBuilder::with_capacity(rows.len()))
            .collect();
        for row in rows {
            let cells = row.as_struct().ok().filter(|c| c.len() == template.len())?;
            for (b, &at) in builders.iter_mut().zip(&missing) {
                b.push_ref(&cells[at].1);
            }
        }
        let mut built = builders.into_iter().map(ColumnBuilder::finish);
        let (names, cols) = picks
            .into_iter()
            .map(|(name, held)| {
                let col = match held {
                    Some(held) => self.cols[held].clone(),
                    None => built.next().expect("a new column per missing name"),
                };
                (Arc::clone(name), col)
            })
            .unzip();
        Some(ColumnBatch {
            len: rows.len(),
            names,
            cols,
        })
    }

    /// The row→column pivot behind both constructors: validate the uniform
    /// struct layout of every row, build the columns `keep` selects.
    fn pivot(rows: &[Value], keep: impl Fn(&str) -> bool) -> Option<ColumnBatch> {
        let Some(first) = rows.first() else {
            return Some(ColumnBatch {
                len: 0,
                names: Vec::new(),
                cols: Vec::new(),
            });
        };
        let Ok(template) = first.as_struct() else {
            return None;
        };
        let mut builders: Vec<Option<ColumnBuilder>> = template
            .iter()
            .map(|(n, _)| keep(n).then(|| ColumnBuilder::with_capacity(rows.len())))
            .collect();
        for row in rows {
            let Ok(fields) = row.as_struct() else {
                return None;
            };
            if fields.len() != template.len() {
                return None;
            }
            for ((name, value), ((want, _), b)) in
                fields.iter().zip(template.iter().zip(builders.iter_mut()))
            {
                if !Arc::ptr_eq(name, want) && name != want {
                    return None; // shuffled or renamed schema → row fallback
                }
                if let Some(b) = b {
                    b.push_ref(value);
                }
            }
        }
        let (names, cols) = template
            .iter()
            .zip(builders)
            .filter_map(|((n, _), b)| Some((Arc::clone(n), b?.finish())))
            .unzip();
        Some(ColumnBatch {
            len: rows.len(),
            names,
            cols,
        })
    }

    /// Assemble a batch from pre-built columns. Fails when column lengths
    /// disagree.
    pub fn from_columns(names: Vec<Arc<str>>, cols: Vec<Column>) -> Result<ColumnBatch> {
        if names.len() != cols.len() {
            return Err(Error::Invalid(format!(
                "{} column names for {} columns",
                names.len(),
                cols.len()
            )));
        }
        let len = cols.first().map_or(0, Column::len);
        if let Some(bad) = cols.iter().find(|c| c.len() != len) {
            return Err(Error::Invalid(format!(
                "ragged columns: expected {len} rows, found {}",
                bad.len()
            )));
        }
        Ok(ColumnBatch { len, names, cols })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No rows?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Field names, in field order.
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// The columns, in field order.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Column index of `name`, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n.as_ref() == name)
    }

    /// The column at field index `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.cols[i]
    }

    /// Reconstruct row `i` as the exact [`Value::Struct`] it was built
    /// from (field names shared by refcount).
    pub fn row(&self, i: usize) -> Value {
        let fields: Arc<[(Arc<str>, Value)]> = self
            .names
            .iter()
            .zip(&self.cols)
            .map(|(n, c)| (Arc::clone(n), c.value(i)))
            .collect();
        Value::Struct(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of `batch`, reconstructed.
    fn to_rows(batch: &ColumnBatch) -> Vec<Value> {
        (0..batch.len()).map(|i| batch.row(i)).collect()
    }

    fn row(i: i64) -> Value {
        Value::record([
            ("id", Value::Int(i)),
            ("score", Value::Float(i as f64 / 2.0)),
            ("name", Value::str(format!("n{i}"))),
        ])
    }

    #[test]
    fn round_trips_uniform_rows() {
        let rows: Vec<Value> = (0..10).map(row).collect();
        let batch = ColumnBatch::from_rows(&rows).expect("uniform structs columnarize");
        assert_eq!(batch.len(), 10);
        assert!(matches!(batch.column(0), Column::Int { .. }));
        assert!(matches!(batch.column(1), Column::Float { .. }));
        assert!(matches!(batch.column(2), Column::Str { .. }));
        assert_eq!(to_rows(&batch), rows);
    }

    #[test]
    fn nulls_round_trip() {
        let rows = vec![
            Value::record([("a", Value::Null), ("b", Value::str("x"))]),
            Value::record([("a", Value::Int(2)), ("b", Value::Null)]),
            Value::record([("a", Value::Null), ("b", Value::str("y"))]),
        ];
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        assert_eq!(to_rows(&batch), rows);
        assert!(batch.column(0).is_null(0));
        assert!(!batch.column(0).is_null(1));
        assert!(batch.column(1).is_null(1));
    }

    #[test]
    fn mixed_type_column_falls_back_to_val() {
        let rows = vec![
            Value::record([("a", Value::Int(1))]),
            Value::record([("a", Value::str("two"))]),
        ];
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        assert!(matches!(batch.column(0), Column::Val(_)));
        assert_eq!(to_rows(&batch), rows);
    }

    #[test]
    fn nan_and_negative_zero_round_trip_bitwise() {
        let rows = vec![
            Value::record([("f", Value::Float(f64::NAN))]),
            Value::record([("f", Value::Float(-0.0))]),
        ];
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let back = to_rows(&batch);
        match (&back[0], &back[1]) {
            (Value::Struct(a), Value::Struct(b)) => {
                assert!(matches!(a[0].1, Value::Float(f) if f.is_nan()));
                assert!(matches!(b[0].1, Value::Float(f) if f == 0.0 && f.is_sign_negative()));
            }
            _ => panic!("expected structs"),
        }
    }

    #[test]
    fn shuffled_schema_is_rejected() {
        let rows = vec![
            Value::record([("a", Value::Int(1)), ("b", Value::Int(2))]),
            Value::record([("b", Value::Int(2)), ("a", Value::Int(1))]),
        ];
        assert!(ColumnBatch::from_rows(&rows).is_none());
        let ragged = vec![
            Value::record([("a", Value::Int(1))]),
            Value::record([("a", Value::Int(1)), ("b", Value::Int(2))]),
        ];
        assert!(ColumnBatch::from_rows(&ragged).is_none());
        assert!(ColumnBatch::from_rows(&[Value::Int(3)]).is_none());
    }

    #[test]
    fn projection_copies_only_the_named_columns() {
        let rows: Vec<Value> = (0..5).map(row).collect();
        let batch = ColumnBatch::project_rows(&rows, &["name", "id", "absent"]).unwrap();
        assert_eq!(batch.len(), 5);
        let names: Vec<&str> = batch.names().iter().map(|n| n.as_ref()).collect();
        assert_eq!(
            names,
            ["id", "name"],
            "row field order, absent names skipped"
        );
        assert_eq!(batch.column(1).value(3), Value::str("n3"));
        // No column requested: the row count survives.
        assert_eq!(ColumnBatch::project_rows(&rows, &[]).unwrap().len(), 5);
        // The layout check still covers the fields that are not copied.
        let ragged = vec![
            Value::record([("a", Value::Int(1)), ("b", Value::Int(2))]),
            Value::record([("a", Value::Int(1)), ("c", Value::Int(2))]),
        ];
        assert!(ColumnBatch::project_rows(&ragged, &["a"]).is_none());
    }

    #[test]
    fn widening_pivots_only_the_missing_columns() {
        let rows: Vec<Value> = (0..5).map(row).collect();
        let held = ColumnBatch::project_rows(&rows, &["name"]).unwrap();
        let wide = held.widen(&rows, &["id", "absent"]).unwrap();
        let fresh = ColumnBatch::project_rows(&rows, &["name", "id"]).unwrap();
        assert_eq!(wide.names(), fresh.names(), "row field order");
        assert_eq!(to_rows(&wide), to_rows(&fresh));
        // A row of another width is caught.
        let mut ragged = rows.clone();
        ragged.push(Value::record([("id", Value::Int(9))]));
        assert!(held.widen(&ragged, &["id"]).is_none());
    }

    #[test]
    fn empty_input_yields_empty_batch() {
        let batch = ColumnBatch::from_rows(&[]).unwrap();
        assert!(batch.is_empty());
        assert!(to_rows(&batch).is_empty());
    }

    #[test]
    fn all_null_column_stays_generic() {
        let rows = vec![
            Value::record([("a", Value::Null)]),
            Value::record([("a", Value::Null)]),
        ];
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        assert!(matches!(batch.column(0), Column::Val(_)));
        assert_eq!(to_rows(&batch), rows);
    }

    #[test]
    fn builder_demotes_and_reconstructs_exactly() {
        let mut b = ColumnBuilder::new();
        b.push(Value::Float(1.5));
        b.push(Value::Null);
        b.push(Value::Int(7)); // mismatch: Int into a Float column
        let col = b.finish();
        assert!(matches!(col, Column::Val(_)));
        assert_eq!(col.value(0), Value::Float(1.5));
        assert!(col.value(1).is_null());
        // Exact variant preserved — Int(7), not Float(7.0).
        assert!(matches!(col.value(2), Value::Int(7)));
    }
}
