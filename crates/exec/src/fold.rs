//! Grouping: one operator, [`Dataset::group_by_key`], and the three §6
//! shuffles it runs under ([`Shuffle`]).
//!
//! Each `(key, value)` pair is absorbed into its key's member list the
//! moment it is met, so only `(key, members)` groups ever exist, on the
//! key's target partition.
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
//! input-partition order and the merge appends them in encounter order),
//! so a key's members arrive in input order under every shuffle.

use std::hash::{BuildHasher, Hash, Hasher};
use std::time::Instant;

use cleanm_values::{fx_hash, HASH_SEED};

use crate::dataset::{Data, Dataset, Key};
use crate::error::ExecResult;
use crate::metrics::StageReport;
use crate::pool::run_partitions;
use crate::shuffle::scatter;

/// How [`Dataset::group_by_key`] moves data between partitions — §6
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

/// The grouping table: keyed by [`HashedKey`], indexed by the carried
/// hash.
type GroupTable<K, V> = std::collections::HashMap<HashedKey<K>, Vec<V>, CarriedBuild>;

/// Add a partial group's `members` to `hk`'s list in `table`, after the
/// ones already there.
#[inline]
fn merge<K: Key, V>(table: &mut GroupTable<K, V>, hk: HashedKey<K>, mut members: Vec<V>) {
    match table.entry(hk) {
        std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().append(&mut members),
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(members);
        }
    }
}

/// A table's groups, the carried hashes dropped.
fn groups<K, V>(table: GroupTable<K, V>) -> Vec<(K, Vec<V>)> {
    table.into_iter().map(|(hk, vs)| (hk.key, vs)).collect()
}

impl<K: Key, V: Data> Dataset<(K, V)> {
    /// The grouping driver — the `aggregateByKey → mapPartitions`
    /// translation of Table 2, under any of the three §6 shuffles: every
    /// `(key, value)` pair ends in its key's member list on the key's
    /// target partition, the members in input order. Where the lists are
    /// built is the `shuffle`'s choice (see [`Shuffle`]); the groups are
    /// the same either way.
    ///
    /// One stage is reported under `label`; its `records_shuffled` is the
    /// partial-group count under `LocalAggregate` (≈ distinct keys per
    /// input partition) and the full pair count under the other two.
    ///
    /// # Example
    ///
    /// ```
    /// use cleanm_exec::{Dataset, ExecContext, Shuffle};
    ///
    /// let ctx = ExecContext::new(2, 4);
    /// let pairs = (0..10u32).map(|i| (i % 3, i)).collect();
    /// let mut groups = Dataset::from_vec(&ctx, pairs)
    ///     .group_by_key(Shuffle::LocalAggregate, "by_residue")
    ///     .unwrap()
    ///     .collect();
    /// groups.sort();
    /// assert_eq!(groups[0], (0, vec![0, 3, 6, 9]));
    /// assert_eq!(groups.len(), 3);
    /// ```
    pub fn group_by_key(
        self,
        shuffle: Shuffle,
        label: &'static str,
    ) -> ExecResult<Dataset<(K, Vec<V>)>> {
        let ctx = self.ctx;
        let n = ctx.default_partitions();
        let records_in: u64 = self.parts.iter().map(|p| p.len() as u64).sum();
        let start = Instant::now();

        let (parts, moved, busy) = match shuffle {
            Shuffle::LocalAggregate => {
                // Map-side grouping: each partition's pairs land in its
                // table; only the per-partition partial groups cross the
                // shuffle, routed by their carried hashes.
                let (partials, mut busy) = run_partitions(&ctx, label, self.parts, |_, part| {
                    let mut table: GroupTable<K, V> = GroupTable::default();
                    for (k, v) in part {
                        table.entry(HashedKey::new(k)).or_default().push(v);
                    }
                    table.into_iter().collect::<Vec<_>>()
                })?;
                let (routed, moved) = scatter(&ctx, partials, n, |(hk, _)| hk.target(n))?;
                let (parts, busy2) = run_partitions(&ctx, label, routed, |_, part| {
                    let mut table: GroupTable<K, V> = GroupTable::default();
                    table.reserve(part.len());
                    for (hk, members) in part {
                        merge(&mut table, hk, members);
                    }
                    groups(table)
                })?;
                busy.iter_mut().zip(busy2).for_each(|(b, b2)| *b += b2);
                (parts, moved, busy)
            }
            Shuffle::HashShuffle => {
                // No map-side grouping: every pair moves to its key's
                // target (the hash computed once and carried through the
                // shuffle), then joins that partition's table.
                let (pairs, mut busy) = run_partitions(&ctx, label, self.parts, |_, part| {
                    (part.into_iter())
                        .map(|(k, v)| (HashedKey::new(k), v))
                        .collect::<Vec<_>>()
                })?;
                let (routed, moved) = scatter(&ctx, pairs, n, |(hk, _)| hk.target(n))?;
                let (parts, busy2) = run_partitions(&ctx, label, routed, |_, part| {
                    let mut table: GroupTable<K, V> = GroupTable::default();
                    for (hk, v) in part {
                        table.entry(hk).or_default().push(v);
                    }
                    groups(table)
                })?;
                busy.iter_mut().zip(busy2).for_each(|(b, b2)| *b += b2);
                (parts, moved, busy)
            }
            Shuffle::SortShuffle => {
                // Range-partition every pair on sampled key quantiles, sort
                // each partition, group adjacent equal-key runs. Keys are
                // never hashed, and a heavy key lands whole on one
                // partition — the skew pathology of §8 stays observable.
                // Sample up to ~16 keys per partition for range boundaries.
                let mut sample: Vec<K> = Vec::new();
                for part in &self.parts {
                    let stride = (part.len() / 16).max(1);
                    sample.extend(part.iter().step_by(stride).map(|(k, _)| k.clone()));
                }
                sample.sort();
                let bounds: Vec<K> = (1..n)
                    .filter_map(|i| sample.get(i * sample.len() / n).cloned())
                    .collect();
                let (routed, moved) = scatter(&ctx, self.parts, n, |(k, _)| {
                    bounds.partition_point(|b| b <= k)
                })?;
                let (parts, busy) = run_partitions(&ctx, label, routed, |_, mut part| {
                    // External-sort stand-in: in-memory (stable) sort of
                    // the whole partition.
                    part.sort_by(|(a, _), (b, _)| a.cmp(b));
                    let mut out: Vec<(K, Vec<V>)> = Vec::new();
                    for (k, v) in part {
                        match out.last_mut() {
                            Some((lk, members)) if *lk == k => members.push(v),
                            _ => out.push((k, vec![v])),
                        }
                    }
                    out
                })?;
                (parts, moved, busy)
            }
        };
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

    /// Every shuffle agrees with the sequential `BTreeMap` oracle on
    /// uniform, skewed, empty and single-partition inputs, reports one
    /// stage under the caller's label, and moves what its strategy says it
    /// moves.
    #[test]
    fn every_shuffle_matches_the_sequential_oracle() {
        let uniform: Vec<(u32, u64)> = (0..1000).map(|i| (i % 7, i as u64)).collect();
        // 90% one key: the heavy hitter is grouped in place under
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
            let pairs = parts.iter().map(Vec::len).sum::<usize>() as u64;
            for shuffle in SHUFFLES {
                let c = ctx();
                let listed: BTreeMap<u32, Vec<u64>> = Dataset::from_partitions(&c, parts.clone())
                    .group_by_key(shuffle, "list")
                    .unwrap()
                    .collect()
                    .into_iter()
                    .collect();
                assert_eq!(listed, groups, "{name} {shuffle:?}");

                let snap = c.metrics().snapshot();
                let stage = snap.stages.last().expect("one stage");
                assert_eq!(snap.stages.len(), 1, "{name} {shuffle:?}");
                assert_eq!(stage.operator, "list");
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
            }
        }
    }

    #[test]
    fn members_arrive_in_input_order() {
        // One key over five partitions: under every shuffle its members
        // come back in input order, not in merge or scheduling order.
        let data: Vec<(u8, u32)> = (0..40).map(|i| (0u8, i)).collect();
        for shuffle in SHUFFLES {
            let grouped = Dataset::from_vec(&ExecContext::new(3, 5), data.clone())
                .group_by_key(shuffle, "ordered")
                .unwrap()
                .collect();
            assert_eq!(grouped, vec![(0u8, (0..40).collect())], "{shuffle:?}");
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
            .group_by_key(Shuffle::SortShuffle, "sorted")
            .unwrap();
        let heavy_part_size = grouped
            .parts
            .iter()
            .map(|p| p.iter().map(|(_, members)| members.len()).sum::<usize>())
            .max()
            .unwrap();
        assert!(
            heavy_part_size >= 900,
            "heavy key must stay whole: {heavy_part_size}"
        );
    }
}
