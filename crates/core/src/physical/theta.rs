//! The column route of a theta join (§6): both sides are `Select* ← Scan`
//! over stored tables whose batches pivot into typed columns, so a side
//! is a list of row indices and a candidate pair is two of them.
//!
//! Each side reads one column block — every stored row of its table, the
//! columns its filter, its join key and the join predicate read. Its
//! `Select` chain runs as a [`PredKernel`] selection vector and its key is
//! read as an `f64` per surviving row ([`KeyKernel`]), chunk by chunk in
//! the partition layout the row route scans, so the three theta
//! algorithms of `cleanm_exec::theta` bucket, prune and charge exactly as
//! they do over rows. Only the pair test differs: a [`PairKernel`] over
//! the two blocks refines, for one left row, a selection of the right
//! block's rows. Only the pairs that pass reach row values: the `Reduce`
//! reading the join evaluates its head on their stored rows
//! ([`ThetaSide::row`]).
//!
//! [`ColumnarTheta::lower`] declines (the caller keeps the row route)
//! when any of the filter, the keys or the predicate does not lower.
//! [`run_pruning`] dispatches the pruning strategies for both routes.

use std::sync::Arc;

use cleanm_exec::{theta, Data, Dataset, ExecResult};
use cleanm_values::{ColumnBatch, Value};

use crate::calculus::Program;

use super::kernel::{BoundPair, KeyKernel, KeyKinds, PairKernel, PredKernel};
use super::profile::ThetaStrategy;

/// A theta join candidate with its join key.
type Keyed<T> = (f64, T);

/// A side's candidate: its join key and its row in the side's block.
pub(super) type Item = Keyed<u32>;

/// One side of a theta join lowered onto its table's columns.
pub(super) struct ThetaSide {
    /// Every stored row of the table (row `i` is the table's `i`-th row),
    /// as the columns the side reads.
    block: Arc<ColumnBatch>,
    /// The stored row batches the block was pivoted from, in order.
    rows: Vec<Arc<Vec<Value>>>,
    /// The block row each of `rows` starts at.
    starts: Vec<u32>,
    /// The side's `Select` chain, if any.
    filter: Option<PredKernel>,
    key: KeyKernel,
}

impl ThetaSide {
    /// Lower a side over `pivots`, the columns `fields` of each non-empty
    /// stored batch (the `rows`, in the same order), with its `Select`
    /// chain conjoined into `filter` and its join `key`.
    pub(super) fn lower(
        pivots: &[Arc<ColumnBatch>],
        rows: Vec<Arc<Vec<Value>>>,
        fields: &[String],
        filter: Option<&Program>,
        key: &Program,
    ) -> Option<ThetaSide> {
        let block = match pivots {
            [one] => Arc::clone(one),
            many => {
                let parts: Vec<&ColumnBatch> = many.iter().map(|b| &**b).collect();
                Arc::new(ColumnBatch::concat(&parts, fields)?)
            }
        };
        let filter = match filter {
            Some(program) => Some(PredKernel::compile(program, &block)?),
            None => None,
        };
        let key = KeyKernel::compile(key, &block)?;
        let starts = rows
            .iter()
            .scan(0u32, |next, batch| {
                let start = *next;
                *next += batch.len() as u32;
                Some(start)
            })
            .collect();
        Some(ThetaSide {
            block,
            rows,
            starts,
            filter,
            key,
        })
    }

    /// Number of stored rows the side reads.
    pub(super) fn len(&self) -> usize {
        self.block.len()
    }

    /// The rows `lo..hi` of the table that pass the side's filter, keyed,
    /// with the kinds their keys took.
    pub(super) fn sweep(&self, (lo, hi): (u32, u32)) -> (Vec<Item>, KeyKinds) {
        // Neither kernel can fail to bind: both compiled against this very
        // block, and blocks are immutable.
        const BOUND: &str = "theta kernel bound against its own block";
        let mut sel: Vec<u32> = (lo..hi).collect();
        if let Some(filter) = &self.filter {
            assert!(filter.filter(&self.block, &mut sel), "{BOUND}");
        }
        let mut kinds = KeyKinds::default();
        let items = self.key.keys(&self.block, &sel, &mut kinds).expect(BOUND);
        (items, kinds)
    }

    /// The stored row at block row `i`.
    pub(super) fn row(&self, i: u32) -> &Value {
        let batch = self.starts.partition_point(|&s| s <= i) - 1;
        &self.rows[batch][(i - self.starts[batch]) as usize]
    }
}

/// A theta join lowered onto columns: both sides and the pair test.
pub(super) struct ColumnarTheta {
    pub(super) left: ThetaSide,
    pub(super) right: ThetaSide,
    pair: PairKernel,
}

impl ColumnarTheta {
    /// Lower the join predicate `pred` (compiled against the concatenated
    /// `(left, right)` layout) over the two sides' blocks.
    pub(super) fn lower(left: ThetaSide, right: ThetaSide, pred: &Program) -> Option<Self> {
        let pair = PairKernel::compile(pred, &left.block, &right.block)?;
        Some(ColumnarTheta { left, right, pair })
    }

    /// The theta algorithms' pair test: for the left candidate `t`, push
    /// `(t, u)` for every `u` of `block` whose row satisfies the predicate
    /// with `t`'s, in block order.
    pub(super) fn verifier(&self) -> impl Fn(&Item, &[Item], &mut Vec<(Item, Item)>) + Sync + '_ {
        let pair: BoundPair<'_> = self
            .pair
            .bind(&self.left.block, &self.right.block)
            .expect("pair kernel bound against the blocks it compiled on");
        move |t, block, out| {
            let mut sel: Vec<u32> = (0..block.len() as u32).collect();
            pair.refine(t.1, &mut sel, |k| block[k as usize].1);
            out.extend(sel.into_iter().map(|k| (*t, block[k as usize])));
        }
    }
}

/// Run the pruning strategy `planned` over items keyed for it: min-max
/// blocks, or M-Bucket cut at the catalog's `bounds` when there are any
/// and at sampled ones otherwise.
pub(super) fn run_pruning<T: Data>(
    planned: ThetaStrategy,
    bounds: Option<Vec<f64>>,
    compat: impl Fn((f64, f64), (f64, f64)) -> bool + Sync,
    left: Dataset<Keyed<T>>,
    right: Dataset<Keyed<T>>,
    verify: impl Fn(&Keyed<T>, &[Keyed<T>], &mut Vec<(Keyed<T>, Keyed<T>)>) + Sync,
) -> ExecResult<Dataset<(Keyed<T>, Keyed<T>)>> {
    let key = |t: &Keyed<T>| t.0;
    match (planned, bounds) {
        (ThetaStrategy::MinMaxBlocks, _) => {
            theta::minmax_block_join(left, right, key, key, compat, verify)
        }
        (ThetaStrategy::MBucket, Some(bounds)) => {
            theta::mbucket_join_with_bounds(left, right, key, key, compat, verify, bounds)
        }
        (ThetaStrategy::MBucket, None) => {
            theta::mbucket_join(left, right, key, key, compat, verify, None)
        }
        (ThetaStrategy::CartesianFilter, _) => unreachable!("the cartesian product prunes nothing"),
    }
}
