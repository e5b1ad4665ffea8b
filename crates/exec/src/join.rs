//! Equi-joins: hash inner and full outer.
//!
//! Both sides are hash-partitioned on the key so matching keys meet in the
//! same partition; the smaller side of each partition becomes the build
//! table. Full outer join is what the algebra's DAG recombination uses to
//! combine per-operator violation sets (§5, "overall plan"). Build tables
//! use the seeded FxHash hasher, so join output order is identical across
//! runs and processes.

use std::time::Instant;

use cleanm_values::FxHashMap;

use crate::dataset::{Data, Dataset, Key};
use crate::error::ExecResult;
use crate::metrics::StageReport;
use crate::pool::run_partitions;

/// Co-partitioned key/value pairs from both join sides, zipped per
/// partition for the build/probe phase.
type ZippedParts<K, V, W> = Vec<(Vec<(K, V)>, Vec<(K, W)>)>;

#[allow(clippy::type_complexity)] // the pair of co-partitioned sides reads clearly
fn co_partition<K: Key, V: Data, W: Data>(
    left: Dataset<(K, V)>,
    right: Dataset<(K, W)>,
) -> ExecResult<(Dataset<(K, V)>, Dataset<(K, W)>)> {
    assert!(
        std::sync::Arc::ptr_eq(&left.ctx, &right.ctx),
        "join across different contexts"
    );
    let l = left.repartition_by_hash(|(k, _)| k.clone())?;
    let r = right.repartition_by_hash(|(k, _)| k.clone())?;
    Ok((l, r))
}

impl<K: Key, V: Data> Dataset<(K, V)> {
    /// Hash inner equi-join.
    pub fn join_hash<W: Data>(self, right: Dataset<(K, W)>) -> ExecResult<Dataset<(K, V, W)>> {
        let start = Instant::now();
        let (l, r) = co_partition(self, right)?;
        let ctx = l.ctx.clone();
        let records_in: u64 = (l.count() + r.count()) as u64;

        let zipped: ZippedParts<K, V, W> = l.parts.into_iter().zip(r.parts).collect();
        let (parts, busy) = run_partitions(&ctx, "join_hash", zipped, |_, (lp, rp)| {
            let mut build: FxHashMap<K, Vec<W>> = FxHashMap::default();
            for (k, w) in rp {
                build.entry(k).or_default().push(w);
            }
            let mut out = Vec::new();
            for (k, v) in lp {
                if let Some(ws) = build.get(&k) {
                    for w in ws {
                        out.push((k.clone(), v.clone(), w.clone()));
                    }
                }
            }
            out
        })?;
        ctx.record_stage(StageReport {
            operator: "join_hash",
            records_in,
            records_shuffled: records_in,
            worker_busy_ns: busy,
            wall_ns: start.elapsed().as_nanos() as u64,
        });
        Ok(Dataset { ctx, parts })
    }

    /// Hash full outer equi-join: every key from either side appears;
    /// unmatched sides are `None`.
    #[allow(clippy::type_complexity)]
    pub fn full_outer_join<W: Data>(
        self,
        right: Dataset<(K, W)>,
    ) -> ExecResult<Dataset<(K, Option<V>, Option<W>)>> {
        let (l, r) = co_partition(self, right)?;
        let ctx = l.ctx.clone();
        let zipped: ZippedParts<K, V, W> = l.parts.into_iter().zip(r.parts).collect();
        let (parts, _) = run_partitions(&ctx, "full_outer_join", zipped, |_, (lp, rp)| {
            let mut build: FxHashMap<K, (Vec<V>, Vec<W>)> = FxHashMap::default();
            for (k, v) in lp {
                build.entry(k).or_default().0.push(v);
            }
            for (k, w) in rp {
                build.entry(k).or_default().1.push(w);
            }
            let mut out = Vec::new();
            for (k, (vs, ws)) in build {
                match (vs.is_empty(), ws.is_empty()) {
                    (false, false) => {
                        for v in &vs {
                            for w in &ws {
                                out.push((k.clone(), Some(v.clone()), Some(w.clone())));
                            }
                        }
                    }
                    (false, true) => {
                        for v in vs {
                            out.push((k.clone(), Some(v), None));
                        }
                    }
                    (true, false) => {
                        for w in ws {
                            out.push((k.clone(), None, Some(w)));
                        }
                    }
                    (true, true) => unreachable!("key inserted without values"),
                }
            }
            out
        })?;
        Ok(Dataset { ctx, parts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecContext;
    use std::sync::Arc;

    fn ctx() -> Arc<ExecContext> {
        ExecContext::new(4, 4)
    }

    #[test]
    fn inner_join_matches_pairs() {
        let c = ctx();
        let l = Dataset::from_vec(&c, vec![(1, "a"), (2, "b"), (3, "c"), (2, "b2")]);
        let r = Dataset::from_vec(&c, vec![(2, 20), (3, 30), (4, 40), (2, 21)]);
        let mut out = l.join_hash(r).unwrap().collect();
        out.sort();
        assert_eq!(
            out,
            vec![
                (2, "b", 20),
                (2, "b", 21),
                (2, "b2", 20),
                (2, "b2", 21),
                (3, "c", 30)
            ]
        );
    }

    #[test]
    fn full_outer_covers_both_sides() {
        let c = ctx();
        let l = Dataset::from_vec(&c, vec![(1, "a"), (2, "b")]);
        let r = Dataset::from_vec(&c, vec![(2, 20), (3, 30)]);
        let mut out = l.full_outer_join(r).unwrap().collect();
        out.sort_by_key(|(k, _, _)| *k);
        assert_eq!(
            out,
            vec![
                (1, Some("a"), None),
                (2, Some("b"), Some(20)),
                (3, None, Some(30))
            ]
        );
    }

    #[test]
    fn join_empty_sides() {
        let c = ctx();
        let l: Dataset<(u32, u32)> = Dataset::from_vec(&c, vec![]);
        let r = Dataset::from_vec(&c, vec![(1u32, 1u32)]);
        assert!(l.clone().join_hash(r.clone()).unwrap().collect().is_empty());
        assert_eq!(l.full_outer_join(r).unwrap().collect().len(), 1);
    }
}
