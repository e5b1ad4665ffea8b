//! The one scan every column route reads a stored table through: the
//! vectorized `Select`, the columnar group fold and each side of a theta
//! join.
//!
//! A [`ColumnScan`] is the table's block — the pivot of all its rows over
//! the columns the route reads ([`StoredTable::columns`]) — the stored rows
//! it indexes, and the route's `Select` chain lowered once into a
//! [`PredKernel`]. A route sweeps it in the contiguous chunks
//! [`Dataset::from_vec`] cuts ([`chunk_ranges`]), so its partitions, the
//! association of its float sums and its stage accounting are those of the
//! row path over the same table. A row is a `u32` index into the block.
//!
//! [`StoredTable::columns`]: crate::engine::storage::StoredTable::columns
//! [`Dataset::from_vec`]: cleanm_exec::Dataset::from_vec

use std::sync::Arc;

use cleanm_values::{ColumnBatch, Value};

use crate::calculus::Program;

use super::kernel::PredKernel;

/// A stored table read by column, with its route's filter.
pub(super) struct ColumnScan {
    block: Arc<ColumnBatch>,
    rows: Arc<Vec<Value>>,
    filter: Option<PredKernel>,
}

impl ColumnScan {
    /// The scan of `block` over `rows` (row `i` of one is row `i` of the
    /// other) with `filter` lowered against the block. `None` when the
    /// filter does not lower.
    pub(super) fn lower(
        block: Arc<ColumnBatch>,
        rows: Arc<Vec<Value>>,
        filter: Option<&Program>,
    ) -> Option<ColumnScan> {
        let filter = match filter {
            Some(program) => Some(PredKernel::compile(program, &block)?),
            None => None,
        };
        Some(ColumnScan {
            block,
            rows,
            filter,
        })
    }

    /// The same table and block without the filter: for a route over
    /// rows another route already selected.
    pub(super) fn unfiltered(&self) -> ColumnScan {
        ColumnScan {
            block: Arc::clone(&self.block),
            rows: Arc::clone(&self.rows),
            filter: None,
        }
    }

    /// The block the route's own programs lower against.
    pub(super) fn block(&self) -> &Arc<ColumnBatch> {
        &self.block
    }

    /// Number of stored rows.
    pub(super) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The stored rows, block row `i` at index `i`.
    pub(super) fn stored(&self) -> &Arc<Vec<Value>> {
        &self.rows
    }

    /// The stored row at block row `i`.
    pub(super) fn row(&self, i: u32) -> &Value {
        &self.rows[i as usize]
    }

    /// The rows of one chunk, the table's rows `lo..hi`, that pass the
    /// filter, ascending.
    pub(super) fn sweep(&self, (lo, hi): (u32, u32)) -> Vec<u32> {
        let mut sel: Vec<u32> = (lo..hi).collect();
        if let Some(filter) = &self.filter {
            // Binding cannot fail: the kernel compiled against this very
            // block, and blocks are immutable.
            assert!(
                filter.filter(&self.block, &mut sel),
                "scan kernel bound against a block it did not compile on"
            );
        }
        sel
    }
}

/// The row ranges of the `p` contiguous chunks [`Dataset::from_vec`] cuts
/// `n` rows into — `n.div_ceil(p)` rows each, padded with empty chunks to
/// `p` — so a column-first operator works through the very partitions the
/// row path would have scanned.
///
/// [`Dataset::from_vec`]: cleanm_exec::Dataset::from_vec
pub(super) fn chunk_ranges(n: u32, p: usize) -> Vec<(u32, u32)> {
    let step = n.div_ceil(p as u32).max(1);
    (0..p as u32)
        .map(|k| ((k * step).min(n), ((k + 1) * step).min(n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanm_exec::{Dataset, ExecContext};

    #[test]
    fn chunks_are_the_partitions_from_vec_cuts() {
        for (n, p) in [
            (0u32, 4usize),
            (1, 4),
            (7, 4),
            (8, 4),
            (30_000, 4),
            (5, 1),
            (3, 8),
        ] {
            let ctx = ExecContext::new(1, p);
            let parts = Dataset::from_vec(&ctx, (0..n).collect()).collect_partitions();
            let chunks: Vec<Vec<u32>> = (chunk_ranges(n, p).into_iter())
                .map(|(lo, hi)| (lo..hi).collect())
                .collect();
            assert_eq!(chunks, parts, "{n} rows over {p} partitions");
        }
    }
}
