//! Partitioned table storage for the session catalog.
//!
//! A registered table is no longer one monolithic row vector: it is a list
//! of **append batches** (the initial registration plus every
//! [`crate::engine::CleanDb::append`] since), each an immutable shared
//! vector of row structs. Appending a batch therefore never touches
//! history — existing batches keep their `Arc`s, statistics summarize only
//! the new rows, and incremental consumers (standing queries) read the
//! batches past their cursor as the delta.
//!
//! Two counters identify a table's state:
//!
//! * `epoch` — bumped on *every* mutation (registration or append). The
//!   plan cache keys on it: a cached plan whose tables' epochs all still
//!   match is guaranteed to see the environment it was compiled for.
//! * `created` — the epoch at registration. It identifies the *lineage*:
//!   an append keeps `created` while a re-registration starts a new one,
//!   which is how incremental state (stats, standing queries) tells "new
//!   rows arrived" from "the table was replaced".

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use cleanm_values::{ColumnBatch, FxHashMap, Value};

/// One catalog entry: row batches in arrival order plus its epochs.
#[derive(Debug)]
pub struct StoredTable {
    batches: Vec<Arc<Vec<Value>>>,
    epoch: u64,
    created: u64,
    /// Lazily concatenated whole-table view for consumers that need one
    /// contiguous vector; rebuilt on demand after an append.
    merged: OnceLock<Arc<Vec<Value>>>,
    /// Lazily columnarized batches, keyed by batch index: the columns
    /// operators have asked for so far ([`StoredTable::columnar_columns`]),
    /// or `None` for "does not columnarize" — ragged/mixed-shape rows.
    /// Batch indices are stable across appends (appends only push), so
    /// entries never go stale; registration via
    /// [`StoredTable::set_columnar`] pre-seeds an entry when the ingest path
    /// already decoded column-first.
    columnar: Mutex<FxHashMap<usize, Option<Arc<ColumnBatch>>>>,
}

impl StoredTable {
    /// A freshly registered table: one batch, a new lineage.
    pub fn new(rows: Vec<Value>, epoch: u64) -> Self {
        StoredTable {
            batches: vec![Arc::new(rows)],
            epoch,
            created: epoch,
            merged: OnceLock::new(),
            columnar: Mutex::new(FxHashMap::default()),
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
    }

    /// The append batches, in arrival order.
    pub fn batches(&self) -> &[Arc<Vec<Value>>] {
        &self.batches
    }

    /// The columns `fields` of batch `idx` as a batch — the projected
    /// pivot: an operator that reads three columns of a sixteen-column
    /// table pays for three on a fresh session. A cached pivot that covers
    /// `fields` is returned as is (so the result may hold more columns);
    /// otherwise the named columns are pivoted beside the ones already
    /// cached. `None` when the rows do not columnarize (cached) or a name
    /// is not a field of the rows (not cached: the row path reports it).
    /// Thread-safe: the pivot runs outside the lock, so concurrent first
    /// requests may race to build; the last to finish is the one cached.
    pub fn columnar_columns(
        &self,
        idx: usize,
        fields: &[impl AsRef<str>],
    ) -> Option<Arc<ColumnBatch>> {
        let mut wanted: Vec<&str> = fields.iter().map(AsRef::as_ref).collect();
        let held = match self.pivots().get(&idx) {
            Some(None) => return None,
            Some(Some(b)) if wanted.iter().all(|f| b.column_index(f).is_some()) => {
                return Some(Arc::clone(b))
            }
            Some(Some(b)) => Some(Arc::clone(b)),
            None => None,
        };
        let rows = self.batches.get(idx)?;
        let template = rows.first()?.as_struct().ok()?;
        if !wanted
            .iter()
            .all(|f| template.iter().any(|(n, _)| n.as_ref() == *f))
        {
            return None;
        }
        if let Some(held) = &held {
            wanted.extend(held.names().iter().map(|n| n.as_ref()));
        }
        let batch = ColumnBatch::project_rows(rows, &wanted).map(Arc::new);
        self.pivots().insert(idx, batch.clone());
        batch
    }

    /// The pivot cache. Every update is a single insert of a finished
    /// value, so the map stays valid even if a holder panicked.
    fn pivots(&self) -> MutexGuard<'_, FxHashMap<usize, Option<Arc<ColumnBatch>>>> {
        self.columnar.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Seed the columnar cache for batch `idx` with an already-decoded
    /// column batch (column-first ingest paths). Ignored unless the batch
    /// exists and the row counts agree.
    pub fn set_columnar(&self, idx: usize, batch: Arc<ColumnBatch>) {
        if self
            .batches
            .get(idx)
            .is_some_and(|b| b.len() == batch.len())
        {
            self.pivots().insert(idx, Some(batch));
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
        let t = StoredTable::from_rows(vec![wide(0), wide(1)]);
        let a = t.columnar_columns(0, &["a"]).unwrap();
        assert_eq!(a.names().len(), 1, "only the requested column is pivoted");
        assert!(Arc::ptr_eq(&a, &t.columnar_columns(0, &["a"]).unwrap()));
        // A second operator's columns join the cached ones.
        let ab = t.columnar_columns(0, &["b"]).unwrap();
        assert!(ab.column_index("a").is_some() && ab.column_index("b").is_some());
        // ... and the widened batch serves either request afterwards.
        assert!(Arc::ptr_eq(&ab, &t.columnar_columns(0, &["a"]).unwrap()));
        // A name the rows do not have is the row path's error to report.
        assert!(t.columnar_columns(0, &["zz"]).is_none());
        // A batch the ingest path decoded column-first is an ordinary entry.
        let seeded = StoredTable::from_rows(vec![wide(0), wide(1)]);
        let full = Arc::new(ColumnBatch::from_rows(&seeded.batches()[0]).unwrap());
        seeded.set_columnar(0, Arc::clone(&full));
        assert!(Arc::ptr_eq(
            &full,
            &seeded.columnar_columns(0, &["a"]).unwrap()
        ));
        // Rows that do not columnarize are remembered as such.
        let ragged = StoredTable::from_rows(vec![wide(0), Value::Int(3)]);
        assert!(ragged.columnar_columns(0, &["a"]).is_none());
        assert!(ragged.columnar_columns(0, &["__rowid"]).is_none());
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
