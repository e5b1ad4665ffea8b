//! Grouped blocks: a scalar-keyed `Nest` over a scan that reads by column,
//! grouped once and kept as row ranges instead of `{key, partition}`
//! records.
//!
//! The executor routes a `Nest` here when it decides, from the registered
//! plans, that every consumer of the node reads its groups either through
//! monoid reductions (an FD's fold, `physical/groupfold.rs`) or by pairing
//! members within a block (DEDUP and blocked DC, `physical/pairs.rs`) —
//! and when the node is shared or has a pair consumer (an unshared `Nest`
//! under a lone fold is the fold's own). One pass over the key column
//! assigns dense group ids per chunk ([`Groups::assign`]), the chunks merge
//! in chunk order ([`Groups::absorb`]) into first-appearance ids over the
//! whole table, and a counting sort lays the selected rows out by group:
//! group `g` is the range `order[offsets[g]..offsets[g + 1]]` of ascending
//! row indices into the scan. A fold consumer folds its slots by these
//! ids; a pair consumer sweeps the ranges. Neither hashes a key again, and
//! no group record or member list is built unless a consumer's own
//! programs do not lower ([`GroupedBlocks::materialize`]).

use std::sync::Arc;

use cleanm_exec::{produce_partials, Dataset, ExecContext, ExecResult};

use super::execute::group_record;
use super::kernel::{ColumnProgram, Groups};
use super::program::RowEnv;
use super::scan::{chunk_ranges, ColumnScan};

/// One chunk of the scan: its selected rows, ascending, and each one's
/// group id over the whole table.
pub(super) type ChunkIds = (Vec<u32>, Vec<u32>);

/// A `Nest` grouped by column: the scan it read, its key, and its groups
/// as ranges of row indices.
pub(super) struct GroupedBlocks {
    /// The table read by column over every field the Nest's consumers
    /// read, filtered by the `WHERE` chain fused beneath the Nest.
    pub(super) scan: ColumnScan,
    key: ColumnProgram,
    /// Group `g`'s first row.
    reps: Vec<u32>,
    /// Per chunk, in chunk order.
    chunks: Vec<ChunkIds>,
    /// The selected rows by group, ascending within each group.
    order: Vec<u32>,
    /// Group `g`'s rows are `order[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
}

impl GroupedBlocks {
    /// Group `scan` by `key`: one `group_blocks` stage over the chunks the
    /// row path would have scanned (so a claim is one `PartitionStart`
    /// site), each chunk's groups moving as the map-side partials of a
    /// local-aggregate shuffle move (the per-chunk group count), then the
    /// merge in chunk order and the counting sort on the driver.
    pub(super) fn group(
        ctx: &Arc<ExecContext>,
        scan: ColumnScan,
        key: ColumnProgram,
    ) -> ExecResult<GroupedBlocks> {
        let total = scan.len() as u32;
        let tasks = chunk_ranges(total, ctx.default_partitions());
        let moved = |parts: &[(Groups, Vec<u32>, Vec<u32>)]| {
            parts.iter().map(|(groups, ..)| groups.len() as u64).sum()
        };
        let partials =
            produce_partials(ctx, "group_blocks", total as u64, tasks, moved, |range| {
                let sel = scan.sweep(range);
                // At most one group per selected row: the table never rehashes.
                let (mut groups, mut gids) = (Groups::with_capacity(sel.len()), Vec::new());
                groups.assign(&key, &sel, &mut gids);
                (groups, sel, gids)
            })?;
        ctx.catch_driver("group blocks merge", || {
            let room = partials.iter().map(|(groups, ..)| groups.len()).sum();
            let mut groups = Groups::with_capacity(room);
            let chunks: Vec<ChunkIds> = (partials.into_iter())
                .map(|(local, rows, mut gids)| {
                    let remap = groups.absorb(&key, &local);
                    gids.iter_mut().for_each(|g| *g = remap[*g as usize]);
                    (rows, gids)
                })
                .collect();
            let n = groups.len();
            let mut offsets = vec![0u32; n + 1];
            for &g in chunks.iter().flat_map(|(_, gids)| gids) {
                offsets[g as usize + 1] += 1;
            }
            for g in 0..n {
                offsets[g + 1] += offsets[g];
            }
            let mut next = offsets[..n].to_vec();
            let mut order = vec![0u32; offsets[n] as usize];
            for (rows, gids) in &chunks {
                for (&row, &g) in rows.iter().zip(gids) {
                    order[next[g as usize] as usize] = row;
                    next[g as usize] += 1;
                }
            }
            Ok(GroupedBlocks {
                scan,
                key,
                reps: groups.reps().to_vec(),
                chunks,
                order,
                offsets,
            })
        })
    }

    /// Number of groups.
    pub(super) fn len(&self) -> usize {
        self.reps.len()
    }

    /// Every group's first row, in group-id order.
    pub(super) fn reps(&self) -> &[u32] {
        &self.reps
    }

    /// Group `g`'s rows, ascending.
    pub(super) fn rows(&self, g: u32) -> &[u32] {
        let (lo, hi) = (self.offsets[g as usize], self.offsets[g as usize + 1]);
        &self.order[lo as usize..hi as usize]
    }

    /// The chunks, in chunk order.
    pub(super) fn chunks(&self) -> &[ChunkIds] {
        &self.chunks
    }

    /// The groups as the `Nest` would have materialized them: one
    /// `{key, partition}` row per group, in group-id order, the members
    /// the stored rows in row order. For a consumer whose own programs do
    /// not lower onto the scan's columns.
    pub(super) fn materialize(&self, ctx: &Arc<ExecContext>) -> Dataset<RowEnv> {
        let groups = (0..self.len() as u32).map(|g| {
            let members = self.rows(g).iter().map(|&r| self.scan.row(r).clone());
            let key = self.key.value(self.reps[g as usize]);
            vec![group_record((key, members.collect()))]
        });
        Dataset::from_vec(ctx, groups.collect())
    }
}
