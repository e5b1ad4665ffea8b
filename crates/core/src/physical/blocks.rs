//! Grouped and keyed blocks: a `Nest` over a scan that reads by column,
//! grouped once and kept as row ranges instead of `{key, partition}`
//! records.
//!
//! The executor routes a `Nest` here when it decides, from the registered
//! plans, that every consumer of the node reads its groups either through
//! monoid reductions (an FD's fold, `physical/groupfold.rs`) or by pairing
//! members within a block (DEDUP, blocked DC and CLUSTER BY,
//! `physical/pairs.rs`). One pass over the grouped column program assigns
//! dense codes per chunk ([`Groups::assign`]), the chunks merge in chunk
//! order ([`Groups::absorb`]) into first-appearance codes over the whole
//! table — one per distinct value — and a counting sort lays the selected
//! rows out by block: block `b` is the range `order[offsets[b]..offsets[b +
//! 1]]` of ascending row indices into the scan.
//!
//! Two kinds of `Nest` group this way:
//!
//! - **grouped blocks**, a scalar key: the key is the grouped program and
//!   each code is a block. A fold consumer folds its slots by these codes;
//!   a pair consumer sweeps the ranges.
//! - **keyed blocks**, a key `BlockKeys(algo)(e)` (token filtering,
//!   k-means): `e` is the grouped program, the blocker runs once per
//!   distinct value of `e` (on the value's first row), its keys are
//!   interned to block ids in first-appearance order, and the counting sort
//!   runs over the `(row, block)` incidences. A member is the scanned row
//!   or — when the `Nest` collects `e` itself (CLUSTER BY) — the value of
//!   its code. Two keyed `Nest`s joined on their keys match by block id
//!   ([`GroupedBlocks::matched`]).
//!
//! No key is hashed per row, and no group record or member list is built
//! unless a consumer's own programs do not lower
//! ([`GroupedBlocks::materialize`]).

use std::sync::Arc;

use cleanm_exec::{produce_partials, Dataset, ExecContext, ExecResult};
use cleanm_values::{FxHashMap, Value};

use crate::calculus::CalcExpr;

use super::execute::group_record;
use super::kernel::{ColumnProgram, Groups};
use super::program::RowEnv;
use super::scan::{chunk_ranges, ColumnScan};

/// One chunk of the scan: its selected rows, ascending, and each one's
/// code over the whole table.
pub(super) type ChunkIds = (Vec<u32>, Vec<u32>);

/// What a grouped `Nest` collects: its scan variable, its item over that
/// variable, and — for a keyed `Nest` — `BlockKeys`' argument, the program
/// its codes encode.
pub(super) struct Collects {
    pub(super) var: String,
    pub(super) item: CalcExpr,
    pub(super) coded: Option<CalcExpr>,
}

impl Collects {
    /// Are the members the values of their codes (the `Nest` collects
    /// `BlockKeys`' argument) rather than the scanned rows?
    fn values(&self) -> bool {
        self.coded.as_ref() == Some(&self.item)
    }
}

/// A keyed `Nest`'s keys of the distinct value at a stored row; `None`
/// after recording an evaluation error.
pub(super) type KeysOf<'k> = &'k dyn Fn(&Value) -> Option<Value>;

/// A `Nest` grouped by column: the scan it read, the program it grouped
/// by, and its blocks as ranges of row indices.
pub(super) struct GroupedBlocks {
    /// The table read by column over every field the Nest's consumers
    /// read, filtered by the `WHERE` chain fused beneath the Nest.
    pub(super) scan: ColumnScan,
    /// The grouping key of grouped blocks, `BlockKeys`' argument of keyed
    /// ones: one code per distinct value.
    value: ColumnProgram,
    /// Code `c`'s first row.
    reps: Vec<u32>,
    /// Per chunk, in chunk order.
    chunks: Vec<ChunkIds>,
    /// The selected rows by block, ascending within each block.
    order: Vec<u32>,
    /// Block `b`'s rows are `order[offsets[b]..offsets[b + 1]]`.
    offsets: Vec<u32>,
    /// What keyed blocks add; `None` for grouped blocks, whose block ids
    /// are the codes.
    keyed: Option<Keyed>,
    pub(super) collects: Collects,
}

/// The blocks of a keyed `Nest` beyond its codes.
struct Keyed {
    /// Block `b`'s key.
    keys: Vec<Value>,
    /// Each scanned row's code (`u32::MAX` for a row the chain dropped).
    codes: Vec<u32>,
    /// Code `c`'s value, when the members are values.
    values: Option<Vec<Value>>,
}

impl GroupedBlocks {
    /// Group `scan` by `value`: one `group_blocks` stage over the chunks
    /// the row path would have scanned (so a claim is one `PartitionStart`
    /// site), each chunk's codes moving as the map-side partials of a
    /// local-aggregate shuffle move (the per-chunk distinct values), then
    /// the merge in chunk order, the keys of each distinct value when the
    /// `Nest` is keyed (`keys` at the value's first row) and the counting
    /// sort on the driver.
    pub(super) fn group(
        ctx: &Arc<ExecContext>,
        scan: ColumnScan,
        value: ColumnProgram,
        collects: Collects,
        keys: Option<KeysOf<'_>>,
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
                groups.assign(&value, &sel, &mut gids);
                (groups, sel, gids)
            })?;
        ctx.catch_driver("group blocks merge", || {
            let room = partials.iter().map(|(groups, ..)| groups.len()).sum();
            let mut groups = Groups::with_capacity(room);
            let chunks: Vec<ChunkIds> = (partials.into_iter())
                .map(|(local, rows, mut gids)| {
                    let remap = groups.absorb(&value, &local);
                    gids.iter_mut().for_each(|g| *g = remap[*g as usize]);
                    (rows, gids)
                })
                .collect();
            let reps = groups.reps().to_vec();
            // Per code, its blocks: itself, or its interned keys.
            let (mut blocks, mut at) = (Vec::new(), Vec::with_capacity(reps.len() + 1));
            let keyed = keys.map(|keys_of| {
                let mut ids: FxHashMap<Value, u32> = FxHashMap::default();
                let mut keys = Vec::new();
                at.push(0);
                for &rep in &reps {
                    let mut intern = |key: &Value| {
                        let id = ids.get(key).copied().unwrap_or_else(|| {
                            ids.insert(key.clone(), keys.len() as u32);
                            keys.push(key.clone());
                            keys.len() as u32 - 1
                        });
                        blocks.push(id);
                    };
                    match keys_of(scan.row(rep)) {
                        Some(Value::List(list)) => list.iter().for_each(&mut intern),
                        Some(scalar) => intern(&scalar),
                        None => {}
                    }
                    at.push(blocks.len() as u32);
                }
                let mut codes = vec![u32::MAX; total as usize];
                for (rows, gids) in &chunks {
                    rows.iter()
                        .zip(gids)
                        .for_each(|(&r, &c)| codes[r as usize] = c);
                }
                let values =
                    (collects.values()).then(|| reps.iter().map(|&r| value.value(r)).collect());
                Keyed {
                    keys,
                    codes,
                    values,
                }
            });
            let csr = keyed.as_ref().map(|_| (&at[..], &blocks[..]));
            let n = keyed.as_ref().map_or(reps.len(), |k| k.keys.len());
            let mut offsets = vec![0u32; n + 1];
            incidences(&chunks, csr, |_, b| offsets[b as usize + 1] += 1);
            for b in 0..n {
                offsets[b + 1] += offsets[b];
            }
            let mut next = offsets[..n].to_vec();
            let mut order = vec![0u32; offsets[n] as usize];
            incidences(&chunks, csr, |row, b| {
                order[next[b as usize] as usize] = row;
                next[b as usize] += 1;
            });
            Ok(GroupedBlocks {
                scan,
                value,
                reps,
                chunks,
                order,
                offsets,
                keyed,
                collects,
            })
        })
    }

    /// Number of blocks.
    pub(super) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of distinct values of the grouped program.
    pub(super) fn distinct(&self) -> usize {
        self.reps.len()
    }

    /// Every code's first row, in code order.
    pub(super) fn reps(&self) -> &[u32] {
        &self.reps
    }

    /// Block `b`'s rows, ascending.
    pub(super) fn rows(&self, b: u32) -> &[u32] {
        let (lo, hi) = (self.offsets[b as usize], self.offsets[b as usize + 1]);
        &self.order[lo as usize..hi as usize]
    }

    /// The chunks, in chunk order.
    pub(super) fn chunks(&self) -> &[ChunkIds] {
        &self.chunks
    }

    /// Row `r`'s code, for keyed blocks.
    pub(super) fn code(&self, r: u32) -> u32 {
        self.keyed.as_ref().expect("keyed blocks carry codes").codes[r as usize]
    }

    /// Are the members the values of their codes ([`Collects`])?
    pub(super) fn values(&self) -> bool {
        self.keyed.as_ref().is_some_and(|k| k.values.is_some())
    }

    /// The member of the block row `r`.
    pub(super) fn member(&self, r: u32) -> &Value {
        match self.keyed.as_ref().and_then(|k| k.values.as_ref()) {
            Some(values) => &values[self.code(r) as usize],
            None => self.scan.row(r),
        }
    }

    /// Block `b`'s key.
    fn key(&self, b: u32) -> Value {
        match &self.keyed {
            Some(keyed) => keyed.keys[b as usize].clone(),
            None => self.value.value(self.reps[b as usize]),
        }
    }

    /// The blocks of two keyed `Nest`s joined on their keys: each pair of
    /// block ids with equal keys, in `self`'s block order — what a hash
    /// join of the two `{key, partition}` collections on `key` pairs.
    pub(super) fn matched(&self, other: &GroupedBlocks) -> Vec<(u32, u32)> {
        let (mine, theirs) = (self.keyed.as_ref(), other.keyed.as_ref());
        let (Some(mine), Some(theirs)) = (mine, theirs) else {
            unreachable!("only keyed blocks match by key")
        };
        let ids: FxHashMap<&Value, u32> = (theirs.keys.iter()).zip(0..).collect();
        (mine.keys.iter().zip(0..))
            .filter_map(|(key, b)| Some((b, *ids.get(key)?)))
            .collect()
    }

    /// The blocks as the `Nest` would have materialized them: one
    /// `{key, partition}` row per block, in block order, the members in
    /// row order. For a consumer whose own programs do not lower onto the
    /// scan's columns.
    pub(super) fn materialize(&self, ctx: &Arc<ExecContext>) -> Dataset<RowEnv> {
        let blocks = (0..self.len() as u32).map(|b| {
            let members = self.rows(b).iter().map(|&r| self.member(r).clone());
            vec![group_record((self.key(b), members.collect()))]
        });
        Dataset::from_vec(ctx, blocks.collect())
    }
}

/// Call `visit(row, block)` for every selected row and each of its blocks,
/// in chunk order: the row's code, or the blocks `blocks[at[c]..at[c + 1]]`
/// of its code `c` when the `Nest` is keyed.
fn incidences(chunks: &[ChunkIds], csr: Option<(&[u32], &[u32])>, mut visit: impl FnMut(u32, u32)) {
    for (rows, codes) in chunks {
        for (&row, &code) in rows.iter().zip(codes) {
            match csr {
                None => visit(row, code),
                Some((at, blocks)) => {
                    let (lo, hi) = (at[code as usize], at[code as usize + 1]);
                    blocks[lo as usize..hi as usize]
                        .iter()
                        .for_each(|&b| visit(row, b));
                }
            }
        }
    }
}
