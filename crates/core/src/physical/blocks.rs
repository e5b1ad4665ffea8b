//! Grouped and keyed blocks: a `Nest` over a scan that reads by column,
//! grouped once and kept as row ranges instead of `{key, partition}`
//! records.
//!
//! The executor routes a `Nest` here when it decides, from the registered
//! plans, that every consumer of the node reads its groups either through
//! monoid reductions (an FD's fold, `physical/groupfold.rs`) or by pairing
//! members within a block (DEDUP, blocked DC and CLUSTER BY,
//! `physical/pairs.rs`). One pass over the grouped column program
//! ([`group_pass`], the only grouping pass under CleanDB: a lone fold runs
//! it too) assigns dense codes per chunk ([`Groups::assign`]), folds every
//! fold consumer's slots by them, and merges the chunks in chunk order
//! ([`Groups::absorb`]) into first-appearance codes over the whole table —
//! one per distinct value; a counting sort then lays the selected rows out
//! by code: code `c` is the range `order[offsets[c]..offsets[c + 1]]` of
//! ascending row indices into the scan.
//!
//! Two kinds of `Nest` group this way:
//!
//! - **grouped blocks**, a scalar key: the key is the grouped program and
//!   each code is a block. A fold consumer's slots fold in the grouping
//!   pass and its members are read off the ranges; a pair consumer sweeps
//!   the ranges.
//! - **keyed blocks**, a key `BlockKeys(algo)(e)` (token filtering,
//!   k-means): `e` is the grouped program, and the key ids
//!   ([`cleanm_cluster::Blocker::key_ids`]) of each distinct value are
//!   computed straight from the coded value. Under token filtering each
//!   chunk's task computes those of the values it holds (a code keeps the
//!   ids of the chunk that first held it); k-means keys, k edit distances
//!   a value, are computed once per code on the driver. A key that does
//!   not pack into a `u64` is interned on the driver, in code order,
//!   through the interner the query's keyed `Nest`s share ([`KeyedBy`]). The ids are numbered
//!   into blocks in first-appearance order; each code keeps its blocks
//!   (sorted by key id, one per distinct key) and each block its codes
//!   (ascending), the two sides of the count filter's merge
//!   (`physical/pairs.rs`). A member is the scanned row or — when the
//!   `Nest` collects `e` itself (CLUSTER BY) — the value of its code. Two
//!   keyed `Nest`s joined on their keys match by key id
//!   ([`GroupedBlocks::matched`]).
//!
//! No key is hashed per row, and no group record, member list or key value
//! is built unless a consumer's own programs do not lower
//! ([`GroupedBlocks::materialize`]).

use std::sync::Arc;

use parking_lot::Mutex;

use cleanm_cluster::{normalizes_per_char, Blocker, KeyIds};
use cleanm_exec::{produce_partials, Dataset, ExecContext, ExecResult};
use cleanm_values::{FxHashMap, Value};

use crate::calculus::eval::text_of;
use crate::calculus::CalcExpr;

use super::execute::{group_record, RowEval};
use super::groupfold::{ColumnarFold, SlotAccs};
use super::kernel::{ColumnProgram, Groups};
use super::program::RowEnv;
use super::scan::{chunk_ranges, ColumnScan};

/// One chunk of the scan once grouped: its selected rows, ascending, each
/// one's code over the whole table, and the codes of the chunk's own
/// groups, in the order the chunk met them.
pub(super) type ChunkIds = (Vec<u32>, Vec<u32>, Vec<u32>);

/// The stages the grouping pass runs as: grouped or keyed blocks, or a
/// lone fold — an aggregate's, or a group-keeping (FD) shape's probe.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum Pass {
    Blocks,
    Fold,
    Probe,
}

/// What the grouping pass leaves: each code's first row, codes in
/// first-appearance order; the chunks, in chunk order (none for an
/// aggregate's fold); per fold consumer, its slots' accumulators by code;
/// and per chunk, what the pass computed of its groups.
pub(super) type Grouping<K> = (Vec<u32>, Vec<ChunkIds>, Vec<Vec<SlotAccs>>, Vec<K>);

/// One chunk's task's result: its groups, its rows by local code (no
/// groups yet), each fold consumer's accumulators by local code, and what
/// else the pass computes of its groups.
type Partial<K> = (Groups, ChunkIds, Vec<Vec<SlotAccs>>, K);

/// The one grouping pass under CleanDB: one stage (`group_blocks`,
/// `group_fold` or `group_fold_probe`, by `pass`) over the chunks the row
/// path would have scanned (so a claim is one `PartitionStart` site and one
/// interrupt check). Per chunk it selects the rows of `scan` (its fused
/// `WHERE` kernel), assigns them dense local codes by `value`
/// ([`Groups::assign`]), folds each of `folds`' slots by those codes and
/// computes `extra` of the chunk's groups. The driver then merges the
/// chunks in chunk order — the association a keyed shuffle of per-partition
/// partials has, so float sums associate per chunk, then in chunk order:
/// each chunk's groups probe one table by representative row
/// ([`Groups::absorb`]), each consumer's accumulators merge through the
/// chunk's remap, and the chunk's rows keep their codes over the table —
/// unless an aggregate's fold, which reads no row back. Fold errors go to
/// `ev`.
pub(super) fn group_pass<K: Send>(
    ctx: &Arc<ExecContext>,
    pass: Pass,
    scan: &ColumnScan,
    value: &ColumnProgram,
    folds: &[&ColumnarFold],
    ev: &RowEval,
    extra: impl Fn(&Groups) -> K + Sync,
) -> ExecResult<Grouping<K>> {
    let total = scan.len() as u32;
    let tasks = chunk_ranges(total, ctx.default_partitions());
    let stage = match pass {
        Pass::Blocks => "group_blocks",
        Pass::Fold => "group_fold",
        Pass::Probe => "group_fold_probe",
    };
    // A probe moves one partial table per chunk to its merge; the others
    // each chunk's groups, as a local-aggregate shuffle moves its map-side
    // partials.
    let moved = |parts: &[Partial<K>]| match pass {
        Pass::Probe => parts.len() as u64,
        _ => parts.iter().map(|(groups, ..)| groups.len() as u64).sum(),
    };
    let partials = produce_partials(ctx, stage, total as u64, tasks, moved, |range| {
        let rows = scan.sweep(range);
        // At most one group per selected row: the table never rehashes.
        let (mut groups, mut codes) = (Groups::with_capacity(rows.len()), Vec::new());
        groups.assign(value, &rows, &mut codes);
        let accs = folds.iter().map(|fold| {
            let mut accs = fold.new_accs();
            for (fs, acc) in fold.slots.iter().zip(&mut accs) {
                acc.fold(fs, groups.len(), &rows, &codes, ev);
            }
            accs
        });
        let (accs, extra) = (accs.collect(), extra(&groups));
        (groups, (rows, codes, Vec::new()), accs, extra)
    })?;
    ctx.catch_driver("group merge", || {
        // Room for every chunk's groups: the table never rehashes.
        let room = partials.iter().map(|(groups, ..)| groups.len()).sum();
        let mut groups = Groups::with_capacity(room);
        let mut accs: Vec<Vec<SlotAccs>> = folds.iter().map(|f| f.new_accs()).collect();
        let (mut chunks, mut extra) = (Vec::new(), Vec::with_capacity(partials.len()));
        for (local, (rows, mut codes, _), theirs, more) in partials {
            let remap = groups.absorb(value, &local);
            for ((fold, mine), theirs) in folds.iter().zip(&mut accs).zip(theirs) {
                for ((fs, mine), theirs) in fold.slots.iter().zip(mine).zip(theirs) {
                    mine.merge(fs, theirs, &remap, ev);
                }
            }
            if pass != Pass::Fold {
                codes.iter_mut().for_each(|c| *c = remap[*c as usize]);
                chunks.push((rows, codes, remap));
            }
            extra.push(more);
        }
        Ok((groups.reps().to_vec(), chunks, accs, extra))
    })
}

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

/// How a keyed `Nest` keys its distinct values.
pub(super) struct KeyedBy {
    /// The prepared blocker of its `BlockKeys(algo)`.
    pub(super) blocker: Arc<dyn Blocker>,
    /// The ids of keys that do not pack, shared by the query's keyed
    /// `Nest`s so that their ids compare.
    pub(super) long: Arc<Mutex<KeyIds>>,
    /// `q` when the keys are token filtering's q-grams.
    pub(super) qgrams: Option<usize>,
}

/// A `Nest` grouped by column: the scan it read, the program it grouped
/// by, and its rows by code.
pub(super) struct GroupedBlocks {
    /// The table read by column over every field the Nest's consumers
    /// read, filtered by the `WHERE` chain fused beneath the Nest.
    pub(super) scan: ColumnScan,
    /// The grouping key of grouped blocks, `BlockKeys`' argument of keyed
    /// ones: one code per distinct value.
    value: ColumnProgram,
    /// Code `c`'s first row.
    reps: Vec<u32>,
    /// The selected rows by code, ascending within each code.
    order: Vec<u32>,
    /// Code `c`'s rows are `order[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    /// What keyed blocks add; `None` for grouped blocks, whose blocks are
    /// the codes.
    keyed: Option<Keyed>,
    pub(super) collects: Collects,
}

/// The blocks of a keyed `Nest` beyond its codes.
struct Keyed {
    by: KeyedBy,
    /// Block `b`'s key id.
    ids: Vec<u64>,
    /// Code `c`'s blocks are `blocks[at[c]..at[c + 1]]`, in key-id order.
    at: Vec<u32>,
    blocks: Vec<u32>,
    /// Block `b`'s codes are `codes_in[starts[b]..starts[b + 1]]`,
    /// ascending.
    starts: Vec<u32>,
    codes_in: Vec<u32>,
    /// Rows in block `b`.
    weights: Vec<u64>,
    /// Code `c`'s text (as `BlockKeys` and a similarity test read it,
    /// NULL as the empty string): its length in characters, and whether it
    /// normalizes character by character
    /// ([`cleanm_cluster::normalizes_per_char`]).
    lens: Vec<u32>,
    per_char: Vec<bool>,
    /// Each scanned row's code (`u32::MAX` for a row the chain dropped).
    codes: Vec<u32>,
    /// Code `c`'s value, when the members are values.
    values: Option<Vec<Value>>,
}

/// The keys of one chunk's distinct values, in local-code order.
#[derive(Default)]
struct CodeKeys {
    /// Code `c`'s key ids are `ids[at[c]..at[c + 1]]`.
    at: Vec<u32>,
    ids: Vec<u64>,
    lens: Vec<u32>,
    per_char: Vec<bool>,
    /// Did a key of code `c` not pack (its ids are left to the driver)?
    deferred: Vec<bool>,
}

impl CodeKeys {
    fn new() -> CodeKeys {
        CodeKeys {
            at: vec![0],
            ..CodeKeys::default()
        }
    }

    /// The keys of each value of `value` at `reps`, computed without an
    /// interner: a value with a key that does not pack is left to the
    /// driver.
    fn of(blocker: &dyn Blocker, value: &ColumnProgram, reps: &[u32]) -> CodeKeys {
        let mut keys = CodeKeys::new();
        for &rep in reps {
            let deferred = !keys.push(blocker, &value.value(rep), None);
            if deferred {
                keys.lens.push(0);
                keys.per_char.push(false);
                keys.at.push(keys.ids.len() as u32);
            }
            keys.deferred.push(deferred);
        }
        keys
    }

    /// Append the keys of `v`; `false`, appending nothing, when a key does
    /// not pack and there is no interner.
    fn push(&mut self, blocker: &dyn Blocker, v: &Value, long: Option<&mut KeyIds>) -> bool {
        let text = text_of(v);
        if !blocker.key_ids(&text, long, &mut self.ids) {
            return false;
        }
        self.lens.push(text.chars().count() as u32);
        self.per_char.push(normalizes_per_char(&text));
        self.at.push(self.ids.len() as u32);
        true
    }

    /// Append `other`'s code `c`, unless it was left to the driver.
    fn copy(&mut self, other: &CodeKeys, c: usize) -> bool {
        if other.deferred[c] {
            return false;
        }
        let (lo, hi) = (other.at[c] as usize, other.at[c + 1] as usize);
        self.ids.extend_from_slice(&other.ids[lo..hi]);
        self.lens.push(other.lens[c]);
        self.per_char.push(other.per_char[c]);
        self.at.push(self.ids.len() as u32);
        true
    }
}

impl GroupedBlocks {
    /// Group `scan` by `value` in one `group_blocks` [`group_pass`], each
    /// chunk's codes — and, when the `Nest` is keyed, the key ids of its
    /// distinct values — moving as the map-side partials of a
    /// local-aggregate shuffle move (the per-chunk distinct values), then the
    /// counting sorts on the driver. `folds`, the `Nest`'s fold consumers
    /// lowered onto `scan`, fold in that pass: their accumulators by code
    /// come back with the blocks.
    pub(super) fn group(
        ctx: &Arc<ExecContext>,
        scan: ColumnScan,
        value: ColumnProgram,
        collects: Collects,
        keyed_by: Option<KeyedBy>,
        folds: &[&ColumnarFold],
        ev: &RowEval,
    ) -> ExecResult<(GroupedBlocks, Vec<Vec<SlotAccs>>)> {
        let total = scan.len() as u32;
        // q-grams are cheap to compute: each chunk's task computes those of
        // its distinct values. Other keys (k-means: k edit distances per
        // value) are computed on the driver, once per code.
        let in_chunks = keyed_by.as_ref().filter(|by| by.qgrams.is_some());
        let blocker = in_chunks.map(|by| &*by.blocker);
        let pass = group_pass(ctx, Pass::Blocks, &scan, &value, folds, ev, |groups| {
            blocker.map(|b| CodeKeys::of(b, &value, groups.reps()))
        })?;
        ctx.catch_driver("group blocks merge", || {
            let (reps, chunks, accs, extra) = pass;
            // A code new to the table takes the keys of the chunk that
            // first held it, or its keys are computed here; new codes come
            // in chunk order, then local-code order.
            let keys = keyed_by.as_ref().map(|by| {
                let (mut all, mut long) = (CodeKeys::new(), by.long.lock());
                for ((.., groups), local) in chunks.iter().zip(extra) {
                    for (c, &g) in groups.iter().enumerate() {
                        if g as usize == all.lens.len()
                            && !local.as_ref().is_some_and(|k| all.copy(k, c))
                        {
                            let v = value.value(reps[g as usize]);
                            all.push(&*by.blocker, &v, Some(&mut long));
                        }
                    }
                }
                all
            });
            let n = reps.len();
            let mut offsets = vec![0u32; n + 1];
            incidences(&chunks, |_, c| offsets[c as usize + 1] += 1);
            for c in 0..n {
                offsets[c + 1] += offsets[c];
            }
            let mut next = offsets[..n].to_vec();
            let mut order = vec![0u32; offsets[n] as usize];
            incidences(&chunks, |row, c| {
                order[next[c as usize] as usize] = row;
                next[c as usize] += 1;
            });
            let keyed = match (keys, keyed_by) {
                (Some(keys), Some(by)) => {
                    let values =
                        (collects.values()).then(|| reps.iter().map(|&r| value.value(r)).collect());
                    Some(Keyed::new(by, keys, &chunks, &offsets, total, values))
                }
                _ => None,
            };
            let blocks = GroupedBlocks {
                scan,
                value,
                reps,
                order,
                offsets,
                keyed,
                collects,
            };
            Ok((blocks, accs))
        })
    }

    /// Number of blocks.
    pub(super) fn len(&self) -> usize {
        self.keyed.as_ref().map_or(self.reps.len(), |k| k.ids.len())
    }

    /// Number of distinct values of the grouped program.
    pub(super) fn distinct(&self) -> usize {
        self.reps.len()
    }

    /// Every code's first row, in code order.
    pub(super) fn reps(&self) -> &[u32] {
        &self.reps
    }

    /// Code `c`'s rows, ascending — block `c`'s, for grouped blocks.
    pub(super) fn rows(&self, c: u32) -> &[u32] {
        let (lo, hi) = self.span(c);
        &self.order[lo as usize..hi as usize]
    }

    /// Where code `c`'s rows lie in [`GroupedBlocks::by_code`].
    pub(super) fn span(&self, c: u32) -> (u32, u32) {
        (self.offsets[c as usize], self.offsets[c as usize + 1])
    }

    /// The selected rows, by code.
    pub(super) fn by_code(&self) -> &[u32] {
        &self.order
    }

    fn keyed(&self) -> &Keyed {
        self.keyed.as_ref().expect("keyed blocks")
    }

    /// Are these keyed blocks?
    pub(super) fn is_keyed(&self) -> bool {
        self.keyed.is_some()
    }

    /// Are the members the values of their codes ([`Collects`])?
    pub(super) fn values(&self) -> bool {
        self.keyed.as_ref().is_some_and(|k| k.values.is_some())
    }

    /// The member of the block row `r`.
    pub(super) fn member(&self, r: u32) -> &Value {
        match self
            .keyed
            .as_ref()
            .and_then(|k| k.values.as_ref().map(|v| (k, v)))
        {
            Some((keyed, values)) => &values[keyed.codes[r as usize] as usize],
            None => self.scan.row(r),
        }
    }

    /// Rows in block `b`.
    pub(super) fn weight(&self, b: u32) -> u64 {
        match &self.keyed {
            Some(keyed) => keyed.weights[b as usize],
            None => self.rows(b).len() as u64,
        }
    }

    /// Keyed code `c`'s blocks, one per distinct key.
    pub(super) fn blocks_of(&self, c: u32) -> &[u32] {
        let keyed = self.keyed();
        let (lo, hi) = (keyed.at[c as usize], keyed.at[c as usize + 1]);
        &keyed.blocks[lo as usize..hi as usize]
    }

    /// Keyed block `b`'s codes, ascending.
    pub(super) fn codes_in(&self, b: u32) -> &[u32] {
        let keyed = self.keyed();
        let (lo, hi) = (keyed.starts[b as usize], keyed.starts[b as usize + 1]);
        &keyed.codes_in[lo as usize..hi as usize]
    }

    /// Keyed code `c`'s text: its length in characters, and whether it
    /// normalizes character by character.
    pub(super) fn text_shape(&self, c: u32) -> (usize, bool) {
        let keyed = self.keyed();
        (keyed.lens[c as usize] as usize, keyed.per_char[c as usize])
    }

    /// `q` when the keyed blocks are token filtering's q-grams.
    pub(super) fn qgrams(&self) -> Option<usize> {
        self.keyed().by.qgrams
    }

    /// Block `b`'s key as the `Nest` would have grouped it.
    fn key(&self, b: u32) -> Value {
        match &self.keyed {
            Some(keyed) => {
                let long = keyed.by.long.lock();
                Value::str(keyed.by.blocker.render_key(keyed.ids[b as usize], &long))
            }
            None => self.value.value(self.reps[b as usize]),
        }
    }

    /// The blocks of two keyed `Nest`s joined on their keys: per block of
    /// `self`, the block of `other` with the same key id (`u32::MAX` when
    /// none) — what a hash join of the two `{key, partition}` collections
    /// on `key` pairs. Both sides' keys come from one blocker (CLUSTER BY
    /// names one algorithm) and one interner.
    pub(super) fn matched(&self, other: &GroupedBlocks) -> Vec<u32> {
        let (mine, theirs) = (self.keyed(), other.keyed());
        let ids: FxHashMap<u64, u32> = (theirs.ids.iter().copied()).zip(0..).collect();
        (mine.ids.iter())
            .map(|id| ids.get(id).copied().unwrap_or(u32::MAX))
            .collect()
    }

    /// The blocks as the `Nest` would have materialized them: one
    /// `{key, partition}` row per block, in block order, the members in
    /// row order. For a consumer whose own programs do not lower onto the
    /// scan's columns.
    pub(super) fn materialize(&self, ctx: &Arc<ExecContext>) -> Dataset<RowEnv> {
        let blocks = (0..self.len() as u32).map(|b| {
            let mut rows: Vec<u32> = match &self.keyed {
                Some(_) => (self.codes_in(b).iter())
                    .flat_map(|&c| self.rows(c))
                    .copied()
                    .collect(),
                None => self.rows(b).to_vec(),
            };
            rows.sort_unstable();
            let members = rows.iter().map(|&r| self.member(r).clone());
            vec![group_record((self.key(b), members.collect()))]
        });
        Dataset::from_vec(ctx, blocks.collect())
    }
}

impl Keyed {
    /// Number the codes' key ids into blocks in first-appearance order and
    /// lay each block's codes out by a counting sort.
    fn new(
        by: KeyedBy,
        keys: CodeKeys,
        chunks: &[ChunkIds],
        offsets: &[u32],
        total: u32,
        values: Option<Vec<Value>>,
    ) -> Keyed {
        let mut numbered: FxHashMap<u64, u32> = FxHashMap::default();
        let mut ids = Vec::new();
        let blocks: Vec<u32> = (keys.ids.iter())
            .map(|&id| {
                *numbered.entry(id).or_insert_with(|| {
                    ids.push(id);
                    ids.len() as u32 - 1
                })
            })
            .collect();
        let codes = keys.lens.len();
        let of = |c: usize| &blocks[keys.at[c] as usize..keys.at[c + 1] as usize];
        let mut starts = vec![0u32; ids.len() + 1];
        (0..codes).for_each(|c| of(c).iter().for_each(|&b| starts[b as usize + 1] += 1));
        for b in 0..ids.len() {
            starts[b + 1] += starts[b];
        }
        let (mut next, mut codes_in) = (starts.clone(), vec![0u32; blocks.len()]);
        let mut weights = vec![0u64; ids.len()];
        for c in 0..codes {
            let rows = (offsets[c + 1] - offsets[c]) as u64;
            for &b in of(c) {
                codes_in[next[b as usize] as usize] = c as u32;
                next[b as usize] += 1;
                weights[b as usize] += rows;
            }
        }
        let mut row_codes = vec![u32::MAX; total as usize];
        incidences(chunks, |r, c| row_codes[r as usize] = c);
        Keyed {
            by,
            ids,
            at: keys.at,
            blocks,
            starts,
            codes_in,
            weights,
            lens: keys.lens,
            per_char: keys.per_char,
            codes: row_codes,
            values,
        }
    }
}

/// Call `visit(row, code)` for every selected row, in chunk order.
fn incidences(chunks: &[ChunkIds], mut visit: impl FnMut(u32, u32)) {
    for (rows, codes, _) in chunks {
        for (&row, &code) in rows.iter().zip(codes) {
            visit(row, code)
        }
    }
}
