//! The column route of a theta join (§6): both sides are `Select* ← Scan`
//! over stored tables that read by column, so a side is a list of row
//! indices and a candidate pair is two of them.
//!
//! Each side is a [`ColumnScan`] of its table — every stored row, as the
//! columns its filter, its join key and the join predicate read. Its
//! `Select` chain is the scan's filter and its key is read as an `f64` per
//! surviving row ([`KeyKernel`]), chunk by chunk in the partition layout
//! the row route scans, so the three theta algorithms of
//! `cleanm_exec::theta` bucket, prune and charge exactly as they do over
//! rows. Only the pair test differs: a [`PairKernel`] over the two blocks
//! refines, for one left row, a selection of the right block's rows. Only
//! the pairs that pass reach row values: the `Reduce` reading the join
//! evaluates its head on their stored rows ([`ColumnScan::row`]).
//!
//! [`ColumnarTheta::lower`] declines (the caller keeps the row route)
//! when any of the filter, the keys or the predicate does not lower.
//! [`run_pruning`] dispatches the pruning strategies for both routes.

use cleanm_exec::{theta, Data, Dataset, ExecResult};

use crate::calculus::Program;

use super::kernel::{BoundPair, KeyKernel, KeyKinds, PairKernel};
use super::profile::ThetaStrategy;
use super::scan::ColumnScan;

/// A theta join candidate with its join key.
type Keyed<T> = (f64, T);

/// A side's candidate: its join key and its row in the side's block.
pub(super) type Item = Keyed<u32>;

/// One side of a theta join lowered onto its table's columns.
pub(super) struct ThetaSide {
    /// The side's table, filtered by its `Select` chain.
    pub(super) scan: ColumnScan,
    key: KeyKernel,
}

impl ThetaSide {
    /// Lower a side's join `key` over its `scan`.
    pub(super) fn lower(scan: ColumnScan, key: &Program) -> Option<ThetaSide> {
        let key = KeyKernel::compile(key, scan.block())?;
        Some(ThetaSide { scan, key })
    }

    /// The rows `lo..hi` of the table that pass the side's filter, keyed,
    /// with the kinds their keys took.
    pub(super) fn sweep(&self, range: (u32, u32)) -> (Vec<Item>, KeyKinds) {
        let sel = self.scan.sweep(range);
        let mut kinds = KeyKinds::default();
        let items = (self.key.keys(self.scan.block(), &sel, &mut kinds))
            .expect("theta key bound against its own block");
        (items, kinds)
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
        let pair = PairKernel::compile(pred, left.scan.block(), right.scan.block())?;
        Some(ColumnarTheta { left, right, pair })
    }

    /// The theta algorithms' pair test: for the left candidate `t`, push
    /// `(t, u)` for every `u` of `block` whose row satisfies the predicate
    /// with `t`'s, in block order.
    pub(super) fn verifier(&self) -> impl Fn(&Item, &[Item], &mut Vec<(Item, Item)>) + Sync + '_ {
        let pair: BoundPair<'_> = self
            .pair
            .bind(self.left.scan.block(), self.right.scan.block())
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
