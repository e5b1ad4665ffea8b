//! Partitioned table storage for the session catalog.
//!
//! A registered table is no longer one monolithic row vector: it is a list
//! of **append batches** (the initial registration plus every
//! [`crate::engine::CleanDb::append`] since), each an immutable shared
//! vector of row structs. Appending a batch therefore never touches
//! history — existing batches keep their `Arc`s, and incremental consumers
//! (standing queries) read the batches past their cursor as the delta.
//!
//! The batches stop here: an operator reads a table as one block of rows
//! ([`StoredTable::merged_rows`]) or, by column, as one pivot of that
//! block ([`StoredTable::columns`]). A table reads by column when all its
//! rows share one field layout, whichever batch they arrived in — the
//! same rule a single batch has to meet.
//!
//! Two counters identify a table's state:
//!
//! * `epoch` — bumped on *every* mutation (registration or append). The
//!   plan cache keys on it: a cached plan whose tables' epochs all still
//!   match is guaranteed to see the environment it was compiled for.
//! * `created` — the epoch at registration. It identifies the *lineage*:
//!   an append keeps `created` while a re-registration starts a new one,
//!   which is how incremental state (standing queries) tells "new
//!   rows arrived" from "the table was replaced".

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use cleanm_values::{ColumnBatch, Value};

/// One catalog entry: row batches in arrival order plus its epochs.
#[derive(Debug)]
pub struct StoredTable {
    batches: Vec<Arc<Vec<Value>>>,
    epoch: u64,
    created: u64,
    /// Lazily concatenated whole-table view for consumers that need one
    /// contiguous vector; rebuilt on demand after an append.
    merged: OnceLock<Arc<Vec<Value>>>,
    /// The whole table's pivot over the columns operators have asked for
    /// so far ([`StoredTable::columns`]): unset until first asked,
    /// `Some(None)` once the rows are known not to columnarize. Dropped on
    /// append; [`StoredTable::set_columnar`] seeds it when the ingest path
    /// already decoded column-first.
    pivot: Mutex<Option<Option<Arc<ColumnBatch>>>>,
}

impl StoredTable {
    /// A freshly registered table: one batch, a new lineage.
    pub fn new(rows: Vec<Value>, epoch: u64) -> Self {
        StoredTable {
            batches: vec![Arc::new(rows)],
            epoch,
            created: epoch,
            merged: OnceLock::new(),
            pivot: Mutex::new(None),
        }
    }

    /// Test/embedding convenience: a table at epoch 0.
    pub fn from_rows(rows: Vec<Value>) -> Self {
        StoredTable::new(rows, 0)
    }

    /// Add `rows` as a new batch (new partitions; history untouched).
    pub fn append(&mut self, rows: Vec<Value>, epoch: u64) {
        self.batches.push(Arc::new(rows));
        self.epoch = epoch;
        self.merged = OnceLock::new();
        self.pivot = Mutex::new(None);
    }

    /// The append batches, in arrival order.
    pub fn batches(&self) -> &[Arc<Vec<Value>>] {
        &self.batches
    }

    /// The columns `fields` of the whole table, with the rows
    /// ([`StoredTable::merged_rows`]) whose indices they share — the one
    /// way an operator reads a table by column, however its rows arrived.
    /// The pivot is projected: an operator that reads three columns of a
    /// sixteen-column table pays for three on a fresh session. A cached
    /// pivot that covers `fields` is returned as is (so it may hold more
    /// columns); otherwise only the names it lacks are pivoted and joined
    /// with the ones it holds ([`ColumnBatch::widen`]: the layout was
    /// checked when the cached pivot was built, and its columns are not
    /// pivoted again). `None` when the table is empty, its rows do not
    /// share one field layout (cached), or a name is not a field of the
    /// rows (not cached: the row path reports it). Thread-safe: the pivot
    /// runs outside the lock, so concurrent first requests may race to
    /// build; the last to finish is the one cached.
    pub fn columns(
        &self,
        fields: &[impl AsRef<str>],
    ) -> Option<(Arc<ColumnBatch>, Arc<Vec<Value>>)> {
        let rows = self.merged_rows();
        let wanted: Vec<&str> = fields.iter().map(AsRef::as_ref).collect();
        let held = match &*self.pivot() {
            Some(None) => return None,
            Some(Some(b)) if wanted.iter().all(|f| b.column_index(f).is_some()) => {
                return Some((Arc::clone(b), rows))
            }
            Some(Some(b)) => Some(Arc::clone(b)),
            None => None,
        };
        let template = rows.first()?.as_struct().ok()?;
        if !wanted
            .iter()
            .all(|f| template.iter().any(|(n, _)| n.as_ref() == *f))
        {
            return None;
        }
        let pivot = match held {
            Some(held) => held.widen(&rows, &wanted),
            None => ColumnBatch::project_rows(&rows, &wanted),
        };
        let pivot = pivot.map(Arc::new);
        *self.pivot() = Some(pivot.clone());
        Some((pivot?, rows))
    }

    /// The pivot cache. Every update is a single store of a finished
    /// value, so it stays valid even if a holder panicked.
    fn pivot(&self) -> MutexGuard<'_, Option<Option<Arc<ColumnBatch>>>> {
        self.pivot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Seed the pivot with an already-decoded column batch of the whole
    /// table (column-first ingest paths). Ignored unless the row counts
    /// agree.
    pub fn set_columnar(&self, batch: Arc<ColumnBatch>) {
        if batch.len() == self.len() {
            *self.pivot() = Some(Some(batch));
        }
    }

    /// Epoch of the last mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch of the registration that started this lineage.
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Total row count across batches.
    pub fn len(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All rows, oldest batch first.
    pub fn iter_rows(&self) -> impl Iterator<Item = &Value> {
        self.batches.iter().flat_map(|b| b.iter())
    }

    /// One contiguous shared vector of all rows. Free while the table has a
    /// single batch (the batch `Arc` is returned directly); after appends
    /// the concatenation is built once and cached until the next mutation.
    pub fn merged_rows(&self) -> Arc<Vec<Value>> {
        if self.batches.len() == 1 {
            return Arc::clone(&self.batches[0]);
        }
        Arc::clone(
            self.merged
                .get_or_init(|| Arc::new(self.iter_rows().cloned().collect())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: i64) -> Value {
        Value::record([("__rowid", Value::Int(id))])
    }

    #[test]
    fn append_preserves_history_batches() {
        let mut t = StoredTable::new(vec![row(0), row(1)], 3);
        let first_batch = Arc::clone(&t.batches()[0]);
        t.append(vec![row(2)], 4);
        assert_eq!(t.batches().len(), 2);
        assert!(Arc::ptr_eq(&t.batches()[0], &first_batch), "history moved");
        assert_eq!(t.len(), 3);
        assert_eq!(t.epoch(), 4);
        assert_eq!(t.created(), 3, "appends keep the lineage");
    }

    #[test]
    fn projected_pivot_widens_and_serves_what_it_covers() {
        let wide = |id: i64| {
            Value::record([
                ("__rowid", Value::Int(id)),
                ("a", Value::Int(id * 2)),
                ("b", Value::str("x")),
            ])
        };
        let block = |t: &StoredTable, fields: &[&str]| t.columns(fields).map(|(b, _)| b);
        let t = StoredTable::from_rows(vec![wide(0), wide(1)]);
        let (a, rows) = t.columns(&["a"]).unwrap();
        assert_eq!(a.names().len(), 1, "only the requested column is pivoted");
        assert!(Arc::ptr_eq(&rows, &t.batches()[0]), "the rows it indexes");
        assert!(Arc::ptr_eq(&a, &block(&t, &["a"]).unwrap()));
        // A second operator's columns join the cached ones: cell for cell
        // and in the order a fresh pivot of both would have.
        let ab = block(&t, &["b"]).unwrap();
        let fresh = ColumnBatch::project_rows(&t.batches()[0], &["a", "b"]).unwrap();
        assert_eq!(ab.names(), fresh.names());
        assert!((0..fresh.len()).all(|i| ab.row(i) == fresh.row(i)));
        // Widened again, by a column that sorts before the held ones.
        let wider = StoredTable::from_rows(vec![wide(0), wide(1)]);
        block(&wider, &["b"]).unwrap();
        let all = block(&wider, &["__rowid", "a"]).unwrap();
        let fresh = ColumnBatch::from_rows(&wider.batches()[0]).unwrap();
        assert_eq!(all.names(), fresh.names());
        assert!((0..fresh.len()).all(|i| all.row(i) == fresh.row(i)));
        // ... and the widened pivot serves either request afterwards.
        assert!(Arc::ptr_eq(&ab, &block(&t, &["a"]).unwrap()));
        // A name the rows do not have is the row path's error to report.
        assert!(block(&t, &["zz"]).is_none());
        // A batch the ingest path decoded column-first is the pivot.
        let seeded = StoredTable::from_rows(vec![wide(0), wide(1)]);
        let full = Arc::new(ColumnBatch::from_rows(&seeded.batches()[0]).unwrap());
        seeded.set_columnar(Arc::clone(&full));
        assert!(Arc::ptr_eq(&full, &block(&seeded, &["a"]).unwrap()));
        // Rows that do not columnarize are remembered as such.
        let ragged = StoredTable::from_rows(vec![wide(0), Value::Int(3)]);
        assert!(block(&ragged, &["a"]).is_none());
        assert!(block(&ragged, &["__rowid"]).is_none());
    }

    #[test]
    fn one_pivot_spans_every_batch_and_append_drops_it() {
        let rec = |id: i64, a: Value| Value::record([("__rowid", Value::Int(id)), ("a", a)]);
        let mut t = StoredTable::from_rows(vec![rec(0, Value::Int(1))]);
        let before = t.columns(&["a"]).unwrap().0;
        t.append(vec![rec(1, Value::Int(2)), rec(2, Value::Null)], 1);
        let (after, rows) = t.columns(&["a"]).unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "append drops the pivot");
        assert_eq!((after.len(), rows.len()), (3, 3));
        assert_eq!(after.column(0).value(1), Value::Int(2));
        // One rule for the whole table: a batch of another layout stops it
        // reading by column.
        t.append(
            vec![Value::record([
                ("a", Value::Int(3)),
                ("__rowid", Value::Int(3)),
            ])],
            2,
        );
        assert!(t.columns(&["a"]).is_none());
    }

    #[test]
    fn merged_rows_single_batch_is_zero_copy() {
        let t = StoredTable::from_rows(vec![row(0)]);
        assert!(Arc::ptr_eq(&t.merged_rows(), &t.batches()[0]));
    }

    #[test]
    fn merged_rows_concatenates_and_caches() {
        let mut t = StoredTable::from_rows(vec![row(0)]);
        t.append(vec![row(1), row(2)], 1);
        let merged = t.merged_rows();
        assert_eq!(merged.len(), 3);
        assert!(Arc::ptr_eq(&merged, &t.merged_rows()), "cached");
        t.append(vec![row(3)], 2);
        assert_eq!(t.merged_rows().len(), 4, "cache invalidated on append");
    }
}
