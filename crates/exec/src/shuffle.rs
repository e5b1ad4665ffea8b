//! Shuffle primitives shared by every wide operator: the seeded
//! hash → partition assignment, the scatter that moves records between
//! partitions, and hash repartitioning (the join co-partitioner). The
//! grouping driver built on them lives in `fold`.

use std::hash::Hash;

use cleanm_values::{fx_hash, HASH_SEED};

use crate::context::ExecContext;
use crate::dataset::{Data, Dataset, Key};
use crate::error::ExecResult;
use crate::faults::FaultSite;

/// Deterministic hash → partition assignment (seeded FxHash; see
/// [`cleanm_values::fx_hash`]). The assignment is a pure function of the
/// key bytes and [`HASH_SEED`], so partition layouts are identical across
/// runs — pinned by the shuffle property tests.
pub(crate) fn hash_partition<K: Hash + ?Sized>(key: &K, partitions: usize) -> usize {
    (fx_hash(HASH_SEED, key) % partitions as u64) as usize
}

/// Scatter rows into `partitions` buckets by an assignment function; the
/// returned matrix is indexed `[target][..]`. Used by every wide operator.
///
/// Buckets are pre-sized from the input partition sizes (each target
/// expects ≈ `len / partitions` records, so the per-row pushes never
/// reallocate on uniform keys), and a single input partition returns its
/// local buckets directly — its records are already grouped by target, so
/// the concatenation copy is skipped entirely.
///
/// Every record crosses the simulated network: the context is charged
/// for all of them up front, and the count moved is returned beside the
/// buckets for the caller's stage report.
///
/// This is a cooperative interrupt point and the shuffle-scatter fault
/// site: the whole region runs under the context's driver panic guard, so
/// an injected (or genuine) panic here fails the query, not the process.
pub(crate) fn scatter<T: Data>(
    ctx: &ExecContext,
    parts: Vec<Vec<T>>,
    partitions: usize,
    assign: impl Fn(&T) -> usize + Sync,
) -> ExecResult<(Vec<Vec<T>>, u64)> {
    let moved: u64 = parts.iter().map(|p| p.len() as u64).sum();
    ctx.charge_shuffle(moved);
    ctx.check_interrupt("shuffle")?;
    let buckets = ctx.catch_driver("shuffle scatter", move || {
        ctx.fault_visit(FaultSite::ShuffleScatter)?;
        // Per input partition, bucket locally (parallel), then concatenate by
        // target — mimicking map-side shuffle files + reduce-side fetch.
        let mut buckets: Vec<Vec<Vec<T>>> = parts
            .into_iter()
            .map(|part| {
                let per_target = part.len() / partitions + 1;
                let mut local: Vec<Vec<T>> = (0..partitions)
                    .map(|_| Vec::with_capacity(per_target))
                    .collect();
                for t in part {
                    let target = assign(&t).min(partitions - 1);
                    local[target].push(t);
                }
                local
            })
            .collect();
        if buckets.len() == 1 {
            return Ok(buckets.pop().unwrap_or_default());
        }
        // Each target's total is known before any record moves: reserve once,
        // append each source bucket without intermediate growth.
        let mut totals = vec![0usize; partitions];
        for local in &buckets {
            for (target, bucket) in local.iter().enumerate() {
                totals[target] += bucket.len();
            }
        }
        let mut out: Vec<Vec<T>> = totals.iter().map(|&n| Vec::with_capacity(n)).collect();
        for local in buckets {
            for (target, mut bucket) in local.into_iter().enumerate() {
                out[target].append(&mut bucket);
            }
        }
        Ok(out)
    })?;
    Ok((buckets, moved))
}

impl<T: Data> Dataset<T> {
    /// Repartition by hash of a derived key; every record is shuffled.
    pub fn repartition_by_hash<K: Key>(
        self,
        key: impl Fn(&T) -> K + Sync,
    ) -> ExecResult<Dataset<T>> {
        let ctx = self.ctx;
        let n = ctx.default_partitions();
        let (parts, _) = scatter(&ctx, self.parts, n, |t| hash_partition(&key(t), n))?;
        Ok(Dataset { ctx, parts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repartition_by_hash_collocates_keys() {
        let c = ExecContext::new(4, 4);
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i % 7, i)).collect();
        let ds = Dataset::from_vec(&c, pairs)
            .repartition_by_hash(|(k, _)| *k)
            .unwrap();
        // Every occurrence of a key is in exactly one partition.
        for key in 0..7u32 {
            let holding: Vec<usize> = ds
                .parts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.iter().any(|(k, _)| *k == key))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(holding.len(), 1, "key {key} in {holding:?}");
        }
        assert_eq!(c.metrics().snapshot().records_shuffled, 100);
    }
}
