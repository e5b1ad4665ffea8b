//! Grouping: the one driver, [`Dataset::group_fold`], and the three §6
//! shuffles it runs under ([`Shuffle`]).
//!
//! Grouping is a fold: each emitted `(key, value)` pair is absorbed into a
//! per-key accumulator the moment it is produced. When the consumer is a
//! monoid fold — counts, sums, min/max, distinct sets — only
//! `(key, partial)` pairs ever exist; when it needs the members, the
//! accumulator is a `Vec` and the fold is `push` (materialized grouping is
//! not a separate code path).
//!
//! Hashing discipline: a key is hashed **exactly once**, at first contact,
//! with the seeded fast hasher ([`cleanm_values::fx_hash`]). The 64-bit
//! hash rides next to the key through the map-side table, the shuffle
//! target computation, and the merge-side table ([`HashedKey`] +
//! a pass-through hasher) — no re-hash at any hop. No table is
//! `RandomState`-seeded, so group output order is identical across runs
//! and processes (pinned by the shuffle property tests).
//!
//! Merge order is partition order (scatter concatenates source buckets in
//! input-partition order and the merge folds them in encounter order), so a
//! fold that is associative-but-not-commutative over values sees the values
//! of a key in input order under every shuffle.

use std::hash::{BuildHasher, Hash, Hasher};
use std::time::Instant;

use cleanm_values::{fx_hash, HASH_SEED};

use crate::dataset::{Data, Dataset, Key};
use crate::error::ExecResult;
use crate::metrics::StageReport;
use crate::pool::run_partitions;
use crate::shuffle::scatter;

/// How [`Dataset::group_fold`] moves data between partitions — §6
/// "Handling data skew". The strategies are interchangeable semantically;
/// they differ only in what crosses the "network" and where skew lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shuffle {
    /// CleanDB: `aggregateByKey` — fold locally within each input partition
    /// first, shuffle only the `(key, partial)` pairs, merge. Shuffle
    /// volume is bounded by the distinct keys per partition, and heavy keys
    /// are pre-reduced where they sit.
    LocalAggregate,
    /// Spark SQL: sort-based aggregation — sample the keys, range-partition
    /// every pair on the sampled quantiles, sort each partition and fold
    /// adjacent runs. Every pair moves, and a heavy-hitter key lands
    /// entirely on one partition — the skew pathology of §8.
    SortShuffle,
    /// BigDansing: hash-partition **every pair** by key, then fold within
    /// partitions; the full dataset crosses the "network".
    HashShuffle,
}

/// A grouping key traveling with its pre-computed seeded hash: equality is
/// by key, hashing replays the carried 64 bits.
#[derive(Debug, Clone)]
struct HashedKey<K> {
    hash: u64,
    key: K,
}

impl<K: Hash> HashedKey<K> {
    #[inline]
    fn new(key: K) -> HashedKey<K> {
        HashedKey {
            hash: fx_hash(HASH_SEED, &key),
            key,
        }
    }

    /// Shuffle target: the carried hash modulo the partition count —
    /// identical to `shuffle::hash_partition` without re-hashing the key.
    #[inline]
    fn target(&self, partitions: usize) -> usize {
        (self.hash % partitions as u64) as usize
    }
}

impl<K: Eq> PartialEq for HashedKey<K> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for HashedKey<K> {}

impl<K> Hash for HashedKey<K> {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Pass-through hasher for [`HashedKey`]-keyed tables: `finish` returns the
/// carried hash verbatim (it was already avalanche-mixed at creation).
#[derive(Debug, Default, Clone, Copy)]
struct CarriedHasher {
    hash: u64,
}

impl Hasher for CarriedHasher {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("HashedKey hashes via write_u64 only");
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = i;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct CarriedBuild;

impl BuildHasher for CarriedBuild {
    type Hasher = CarriedHasher;

    #[inline]
    fn build_hasher(&self) -> CarriedHasher {
        CarriedHasher::default()
    }
}

/// The fold-into-hash grouping table: keyed by [`HashedKey`], indexed by
/// the carried hash.
type FoldTable<K, A> = std::collections::HashMap<HashedKey<K>, A, CarriedBuild>;

/// Absorb `(hk, x)` into `table` in encounter order: `first` makes the
/// key's accumulator on first contact, `then` absorbs into an existing one.
/// Folding values and merging partials are this one upsert.
#[inline]
fn absorb<K: Key, X, A>(
    table: &mut FoldTable<K, A>,
    hk: HashedKey<K>,
    x: X,
    first: impl FnOnce(X) -> A,
    then: impl FnOnce(&mut A, X),
) {
    match table.entry(hk) {
        std::collections::hash_map::Entry::Occupied(mut e) => then(e.get_mut(), x),
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(first(x));
        }
    }
}

/// The fused filter+emit sweep over one partition, shared by every
/// shuffle: records failing `pred` are dropped, and each survivor's pairs
/// reach `sink` the moment `emit` produces them — neither the filtered
/// intermediate nor the pair collection is materialized.
fn sweep<T, K, V>(
    part: Vec<T>,
    pred: &impl Fn(&T) -> bool,
    emit: &impl Fn(T, &mut Vec<(K, V)>),
    mut sink: impl FnMut(K, V),
) {
    let mut pairs: Vec<(K, V)> = Vec::new();
    for t in part {
        if pred(&t) {
            emit(t, &mut pairs);
            for (k, v) in pairs.drain(..) {
                sink(k, v);
            }
        }
    }
}

impl<T: Data> Dataset<T> {
    /// The grouping driver — the `aggregateByKey → mapPartitions`
    /// translation of Table 2, under any of the three §6 shuffles. One
    /// sweep per partition drops records failing `pred`, lets `emit`
    /// produce any number of `(key, value)` pairs per survivor, and every
    /// pair ends up folded (`fold`, under a per-key accumulator from
    /// `init`) into its key's accumulator on the key's target partition.
    /// Where the fold happens is the `shuffle`'s choice (see [`Shuffle`]);
    /// the result is the same `(key, accumulator)` dataset either way.
    ///
    /// `fold`/`merge` must together form a monoid over the accumulator
    /// (merge associative, `init()` its identity); only
    /// [`Shuffle::LocalAggregate`] ever merges partials. Materialized
    /// grouping is this driver with a `Vec` accumulator
    /// (`Vec::new` / `push` / `append`).
    ///
    /// One stage is reported under `label`; its `records_shuffled` is the
    /// partial count under `LocalAggregate` (≈ distinct keys per input
    /// partition) and the full pair count under the other two.
    ///
    /// # Example
    ///
    /// ```
    /// use cleanm_exec::{Dataset, ExecContext, Shuffle};
    ///
    /// let ctx = ExecContext::new(2, 4);
    /// let mut counts = Dataset::from_vec(&ctx, (0..100u32).collect())
    ///     .group_fold(
    ///         Shuffle::LocalAggregate,
    ///         "count_by_residue",
    ///         |_| true,
    ///         |i, out| out.push((i % 3, 1u64)),
    ///         || 0u64,
    ///         |a, v| *a += v,
    ///         |a, b| *a += b,
    ///     )
    ///     .unwrap()
    ///     .collect();
    /// counts.sort();
    /// assert_eq!(counts, vec![(0, 34), (1, 33), (2, 33)]);
    /// ```
    #[allow(clippy::too_many_arguments)] // the sweep, the monoid, and where they run
    pub fn group_fold<K: Key, V: Data, A: Data>(
        self,
        shuffle: Shuffle,
        label: &'static str,
        pred: impl Fn(&T) -> bool + Sync,
        emit: impl Fn(T, &mut Vec<(K, V)>) + Sync,
        init: impl Fn() -> A + Sync,
        fold: impl Fn(&mut A, V) + Sync,
        merge: impl Fn(&mut A, A) + Sync,
    ) -> ExecResult<Dataset<(K, A)>> {
        let ctx = self.ctx;
        let n = ctx.default_partitions();
        let records_in: u64 = self.parts.iter().map(|p| p.len() as u64).sum();
        let start = Instant::now();
        let first = |v: V| {
            let mut acc = init();
            fold(&mut acc, v);
            acc
        };
        let groups = |table: FoldTable<K, A>| -> Vec<(K, A)> {
            table.into_iter().map(|(hk, a)| (hk.key, a)).collect()
        };

        let (parts, moved, mut busy, busy2) = match shuffle {
            Shuffle::LocalAggregate => {
                // Map-side fold: pairs land in the partition's table as
                // they are emitted; only the per-partition partials cross
                // the shuffle, routed by their carried hashes.
                let (partials, busy) = run_partitions(&ctx, label, self.parts, |_, part| {
                    let mut table: FoldTable<K, A> = FoldTable::default();
                    sweep(part, &pred, &emit, |k, v| {
                        absorb(&mut table, HashedKey::new(k), v, first, &fold)
                    });
                    table.into_iter().collect::<Vec<_>>()
                })?;
                let (routed, moved) = scatter(&ctx, partials, n, |(hk, _)| hk.target(n))?;
                let (parts, busy2) = run_partitions(&ctx, label, routed, |_, part| {
                    let mut table: FoldTable<K, A> = FoldTable::default();
                    table.reserve(part.len());
                    for (hk, a) in part {
                        absorb(&mut table, hk, a, |a| a, &merge);
                    }
                    groups(table)
                })?;
                (parts, moved, busy, busy2)
            }
            Shuffle::HashShuffle => {
                // No map-side combine: every emitted pair moves to its
                // key's target (the hash computed once and carried through
                // the shuffle), then folds into that partition's table.
                let (pairs, busy) = run_partitions(&ctx, label, self.parts, |_, part| {
                    let mut out: Vec<(HashedKey<K>, V)> = Vec::with_capacity(part.len());
                    sweep(part, &pred, &emit, |k, v| out.push((HashedKey::new(k), v)));
                    out
                })?;
                let (routed, moved) = scatter(&ctx, pairs, n, |(hk, _)| hk.target(n))?;
                let (parts, busy2) = run_partitions(&ctx, label, routed, |_, part| {
                    let mut table: FoldTable<K, A> = FoldTable::default();
                    for (hk, v) in part {
                        absorb(&mut table, hk, v, first, &fold);
                    }
                    groups(table)
                })?;
                (parts, moved, busy, busy2)
            }
            Shuffle::SortShuffle => {
                // Range-partition every pair on sampled key quantiles, sort
                // each partition, fold adjacent equal-key runs. Keys are
                // never hashed, and a heavy key lands whole on one
                // partition — the skew pathology of §8 stays observable.
                let (pairs, busy) = run_partitions(&ctx, label, self.parts, |_, part| {
                    let mut out: Vec<(K, V)> = Vec::with_capacity(part.len());
                    sweep(part, &pred, &emit, |k, v| out.push((k, v)));
                    out
                })?;
                // Sample up to ~16 keys per partition for range boundaries.
                let mut sample: Vec<K> = Vec::new();
                for part in &pairs {
                    let stride = (part.len() / 16).max(1);
                    sample.extend(part.iter().step_by(stride).map(|(k, _)| k.clone()));
                }
                sample.sort();
                let bounds: Vec<K> = (1..n)
                    .filter_map(|i| sample.get(i * sample.len() / n).cloned())
                    .collect();
                let (routed, moved) =
                    scatter(&ctx, pairs, n, |(k, _)| bounds.partition_point(|b| b <= k))?;
                let (parts, busy2) = run_partitions(&ctx, label, routed, |_, mut part| {
                    // External-sort stand-in: in-memory (stable) sort of
                    // the whole partition.
                    part.sort_by(|(a, _), (b, _)| a.cmp(b));
                    let mut out: Vec<(K, A)> = Vec::new();
                    for (k, v) in part {
                        match out.last_mut() {
                            Some((lk, acc)) if *lk == k => fold(acc, v),
                            _ => out.push((k, first(v))),
                        }
                    }
                    out
                })?;
                (parts, moved, busy, busy2)
            }
        };
        for (b, b2) in busy.iter_mut().zip(busy2) {
            *b += b2;
        }
        ctx.record_stage(StageReport {
            operator: label,
            records_in,
            records_shuffled: moved,
            worker_busy_ns: busy,
            wall_ns: start.elapsed().as_nanos() as u64,
        });
        Ok(Dataset { ctx, parts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecContext;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    const SHUFFLES: [Shuffle; 3] = [
        Shuffle::LocalAggregate,
        Shuffle::HashShuffle,
        Shuffle::SortShuffle,
    ];

    fn ctx() -> Arc<ExecContext> {
        ExecContext::new(4, 4)
    }

    fn identity(pair: (u32, u64), out: &mut Vec<(u32, u64)>) {
        out.push(pair);
    }

    /// Every shuffle × {sum, `Vec`} accumulator agrees with the sequential
    /// `BTreeMap` oracle on uniform, skewed, empty and single-partition
    /// inputs, reports one stage under the caller's label, and moves what
    /// its strategy says it moves.
    #[test]
    fn every_shuffle_and_accumulator_matches_the_sequential_oracle() {
        let uniform: Vec<(u32, u64)> = (0..1000).map(|i| (i % 7, i as u64)).collect();
        // 90% one key: the heavy hitter pre-folds in place under
        // LocalAggregate (≤ one partial per partition for it).
        let skewed: Vec<(u32, u64)> = (0..1000)
            .map(|i| (if i % 10 == 0 { i } else { 42 }, i as u64))
            .collect();
        let inputs = [
            ("uniform", Dataset::from_vec(&ctx(), uniform).parts),
            ("skewed", Dataset::from_vec(&ctx(), skewed).parts),
            ("empty", Dataset::from_vec(&ctx(), vec![]).parts),
            ("single-partition", vec![vec![(1, 2), (1, 3), (9, 4)]]),
        ];
        for (name, parts) in inputs {
            let mut groups: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
            for &(k, v) in parts.iter().flatten() {
                groups.entry(k).or_default().push(v);
            }
            let sums: BTreeMap<u32, u64> =
                groups.iter().map(|(k, vs)| (*k, vs.iter().sum())).collect();
            let pairs = parts.iter().map(Vec::len).sum::<usize>() as u64;
            for shuffle in SHUFFLES {
                let check_stage = |c: &ExecContext, label: &str| {
                    let snap = c.metrics().snapshot();
                    let stage = snap.stages.last().expect("one stage");
                    assert_eq!(snap.stages.len(), 1, "{name} {shuffle:?}");
                    assert_eq!(stage.operator, label);
                    assert_eq!(stage.records_in, pairs);
                    assert_eq!(stage.records_shuffled, snap.records_shuffled);
                    match shuffle {
                        Shuffle::LocalAggregate => assert!(
                            stage.records_shuffled <= (parts.len() * groups.len()) as u64,
                            "{name}: {} partials",
                            stage.records_shuffled
                        ),
                        _ => assert_eq!(stage.records_shuffled, pairs, "{name} {shuffle:?}"),
                    }
                };

                let c = ctx();
                let summed: BTreeMap<u32, u64> = Dataset::from_partitions(&c, parts.clone())
                    .group_fold(
                        shuffle,
                        "sum",
                        |_| true,
                        identity,
                        || 0u64,
                        |a, v| *a += v,
                        |a, b| *a += b,
                    )
                    .unwrap()
                    .collect()
                    .into_iter()
                    .collect();
                assert_eq!(summed, sums, "{name} {shuffle:?}");
                check_stage(&c, "sum");

                // Materialized grouping is the same driver with a `Vec`
                // accumulator; members arrive in input order.
                let c = ctx();
                let listed: BTreeMap<u32, Vec<u64>> = Dataset::from_partitions(&c, parts.clone())
                    .group_fold(
                        shuffle,
                        "list",
                        |_| true,
                        identity,
                        Vec::new,
                        |acc, v| acc.push(v),
                        |acc, mut other| acc.append(&mut other),
                    )
                    .unwrap()
                    .collect()
                    .into_iter()
                    .collect();
                assert_eq!(listed, groups, "{name} {shuffle:?}");
                check_stage(&c, "list");
            }
        }
    }

    #[test]
    fn fused_sweep_filters_and_multi_assigns() {
        // Odd records dropped; each survivor emits under two keys.
        for shuffle in SHUFFLES {
            let counts: BTreeMap<u64, u64> = Dataset::from_vec(&ctx(), (0..100u64).collect())
                .group_fold(
                    shuffle,
                    "gf",
                    |x| x % 2 == 0,
                    |x, out| {
                        out.push((x % 5, 1u64));
                        out.push((100 + x % 5, 1u64));
                    },
                    || 0u64,
                    |a, v| *a += v,
                    |a, b| *a += b,
                )
                .unwrap()
                .collect()
                .into_iter()
                .collect();
            assert_eq!(counts.len(), 10, "{shuffle:?}");
            assert_eq!(counts.values().sum::<u64>(), 100);
            assert_eq!(counts[&0], counts[&100]);
        }
    }

    #[test]
    fn non_commutative_fold_sees_partition_order() {
        // Concatenation is associative but not commutative: under every
        // shuffle the fold must see a key's values in input order.
        let data: Vec<(u8, String)> = (0..40).map(|i| (0u8, format!("{i:02},"))).collect();
        let expected: String = data.iter().map(|(_, s)| s.as_str()).collect();
        for shuffle in SHUFFLES {
            let folded = Dataset::from_vec(&ExecContext::new(3, 5), data.clone())
                .group_fold(
                    shuffle,
                    "concat",
                    |_| true,
                    |pair, out| out.push(pair),
                    String::new,
                    |a, v: String| a.push_str(&v),
                    |a, b| a.push_str(&b),
                )
                .unwrap()
                .collect();
            assert_eq!(folded, vec![(0u8, expected.clone())], "{shuffle:?}");
        }
    }

    #[test]
    fn sort_shuffle_concentrates_heavy_key() {
        // 90% of records share one key: range partitioning puts them all in
        // a single partition.
        let data: Vec<(u32, u32)> = (0..1000)
            .map(|i| if i % 10 == 0 { (i, i) } else { (42, i) })
            .collect();
        let grouped = Dataset::from_vec(&ctx(), data)
            .group_fold(
                Shuffle::SortShuffle,
                "sorted",
                |_| true,
                |pair, out| out.push(pair),
                || 0usize,
                |n, _| *n += 1,
                |n, m| *n += m,
            )
            .unwrap();
        let heavy_part_size = grouped
            .parts
            .iter()
            .map(|p| p.iter().map(|(_, n)| n).sum::<usize>())
            .max()
            .unwrap();
        assert!(
            heavy_part_size >= 900,
            "heavy key must stay whole: {heavy_part_size}"
        );
    }
}
