//! Theta joins: the three algorithms §6 and §8 compare.
//!
//! * [`cartesian_filter`] — compute the full cross product, then filter.
//!   Spark SQL's default for non-equi predicates; its work is `|L| × |R|`
//!   and it is the first thing the budget kills at scale (Table 5).
//! * [`minmax_block_join`] — BigDansing's approach: partition both inputs,
//!   compute per-block min/max of the join attribute, and cross-compare only
//!   block pairs whose ranges could satisfy the predicate. Effective *only*
//!   if the partitioning correlates with the attribute; on shuffled data
//!   every block spans the domain and almost nothing is pruned.
//! * [`mbucket_join`] — CleanDB's statistics-aware operator after Okcan &
//!   Riedewald: sample both inputs to build key histograms, lay the
//!   `|L| × |R|` matrix out as key-quantile cells, prune cells the predicate
//!   can never satisfy, then greedily pack the surviving cells into
//!   equal-work regions, one region per worker. Balanced load, no blowup.
//!
//! All three consume work budget **up front** from their comparison
//! estimate, so a hopeless plan fails fast with
//! [`ExecError::BudgetExceeded`](crate::ExecError) rather than running for
//! hours — mirroring the paper's ">10h" / "unable to terminate" entries.
//!
//! They differ only in which pairs they enumerate. The pair test is the
//! caller's `verify(t, block, out)`: push onto `out`, in `block` order, every
//! `(t, u)` with `u` in `block` that satisfies the join predicate — one call
//! per left record and block of right records, so a caller can test a whole
//! block at once. [`pairwise`] makes one from a predicate over single pairs.

use crate::dataset::{Data, Dataset};
use crate::error::ExecResult;
use crate::metrics::StageReport;
use crate::pool::run_partitions;
use std::sync::Arc;
use std::time::Instant;

/// The block test of a predicate over single pairs: `(t, u)` for every `u`
/// of the block with `pred(t, u)`, in block order.
pub fn pairwise<T: Data, U: Data>(
    pred: impl Fn(&T, &U) -> bool + Sync,
) -> impl Fn(&T, &[U], &mut Vec<(T, U)>) + Sync {
    move |t, block, out| {
        for u in block {
            if pred(t, u) {
                out.push((t.clone(), u.clone()));
            }
        }
    }
}

/// Full cross product + filter. Work = `|L| × |R|` comparisons, consumed
/// from the budget before any work happens.
pub fn cartesian_filter<T: Data, U: Data>(
    left: Dataset<T>,
    right: Dataset<U>,
    verify: impl Fn(&T, &[U], &mut Vec<(T, U)>) + Sync,
) -> ExecResult<Dataset<(T, U)>> {
    let ctx = left.ctx.clone();
    let start = Instant::now();
    let ln = left.count() as u64;
    let rn = right.count() as u64;
    ctx.consume_budget("cartesian_filter", ln.saturating_mul(rn))?;
    ctx.metrics().add_comparisons(ln.saturating_mul(rn));
    // Broadcast the right side to every left partition.
    let broadcast: Arc<Vec<U>> = Arc::new(right.collect());
    ctx.charge_shuffle(rn * left.parts.len() as u64);

    let (parts, busy) = run_partitions(&ctx, "cartesian_filter", left.parts, |_, lp| {
        let mut out = Vec::new();
        for t in &lp {
            verify(t, &broadcast, &mut out);
        }
        out
    })?;
    ctx.record_stage(StageReport {
        operator: "cartesian_filter",
        records_in: ln + rn,
        records_shuffled: rn,
        worker_busy_ns: busy,
        wall_ns: start.elapsed().as_nanos() as u64,
    });
    Ok(Dataset { ctx, parts })
}

/// BigDansing-style min/max block pruning. `key_l` / `key_r` extract the
/// numeric attribute the predicate constrains; `ranges_compatible` decides
/// whether a (left-block, right-block) pair can produce output given their
/// `(min, max)` key ranges.
///
/// Blocks are the datasets' existing partitions — exactly the point the
/// paper makes: "the number of avoidable checks is not guaranteed to be
/// high, unless the partitioning of the first step can be fully aligned
/// with the fields involved".
pub fn minmax_block_join<T: Data, U: Data>(
    left: Dataset<T>,
    right: Dataset<U>,
    key_l: impl Fn(&T) -> f64 + Sync,
    key_r: impl Fn(&U) -> f64 + Sync,
    ranges_compatible: impl Fn((f64, f64), (f64, f64)) -> bool + Sync,
    verify: impl Fn(&T, &[U], &mut Vec<(T, U)>) + Sync,
) -> ExecResult<Dataset<(T, U)>> {
    let ctx = left.ctx.clone();
    let start = Instant::now();
    let ln = left.count() as u64;
    let rn = right.count() as u64;

    let range_of = |keys: Vec<f64>| -> Option<(f64, f64)> {
        if keys.is_empty() {
            None
        } else {
            Some((
                keys.iter().cloned().fold(f64::INFINITY, f64::min),
                keys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            ))
        }
    };
    let l_ranges: Vec<Option<(f64, f64)>> = left
        .parts
        .iter()
        .map(|p| range_of(p.iter().map(&key_l).collect()))
        .collect();
    let r_ranges: Vec<Option<(f64, f64)>> = right
        .parts
        .iter()
        .map(|p| range_of(p.iter().map(&key_r).collect()))
        .collect();

    // Candidate block pairs after pruning.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut estimated: u64 = 0;
    for (i, lr) in l_ranges.iter().enumerate() {
        for (j, rr) in r_ranges.iter().enumerate() {
            if let (Some(lr), Some(rr)) = (lr, rr) {
                if ranges_compatible(*lr, *rr) {
                    pairs.push((i, j));
                    estimated = estimated.saturating_add(
                        (left.parts[i].len() as u64) * (right.parts[j].len() as u64),
                    );
                }
            }
        }
    }
    ctx.consume_budget("minmax_block_join", estimated)?;
    ctx.metrics().add_comparisons(estimated);
    // Every surviving block pair requires co-locating both blocks: count the
    // duplication as shuffle volume (BigDansing's "excessive data shuffling").
    let shuffle_volume: u64 = pairs
        .iter()
        .map(|&(i, j)| (left.parts[i].len() + right.parts[j].len()) as u64)
        .sum();
    ctx.charge_shuffle(shuffle_volume);

    let left = Arc::new(left.parts);
    let right = Arc::new(right.parts);
    let work: Vec<Vec<(usize, usize)>> = pairs.into_iter().map(|p| vec![p]).collect();
    let (parts, busy) = run_partitions(&ctx, "minmax_block_join", work, |_, assigned| {
        let mut out = Vec::new();
        for (i, j) in assigned {
            for t in &left[i] {
                verify(t, &right[j], &mut out);
            }
        }
        out
    })?;
    ctx.record_stage(StageReport {
        operator: "minmax_block_join",
        records_in: ln + rn,
        records_shuffled: shuffle_volume,
        worker_busy_ns: busy,
        wall_ns: start.elapsed().as_nanos() as u64,
    });
    Ok(Dataset { ctx, parts })
}

/// One cell of the M-Bucket matrix: a (left key-range, right key-range)
/// rectangle with its estimated work.
#[derive(Debug, Clone)]
struct Cell {
    l_bucket: usize,
    r_bucket: usize,
    work: u64,
}

/// CleanDB's statistics-aware theta join (Okcan & Riedewald's matrix
/// partitioning). `buckets_per_side` controls histogram resolution
/// (default: `4 × workers` when `None`); `cell_compatible` prunes matrix
/// cells by key-range (same contract as in [`minmax_block_join`]).
pub fn mbucket_join<T: Data, U: Data>(
    left: Dataset<T>,
    right: Dataset<U>,
    key_l: impl Fn(&T) -> f64 + Sync,
    key_r: impl Fn(&U) -> f64 + Sync,
    cell_compatible: impl Fn((f64, f64), (f64, f64)) -> bool + Sync,
    verify: impl Fn(&T, &[U], &mut Vec<(T, U)>) + Sync,
    buckets_per_side: Option<usize>,
) -> ExecResult<Dataset<(T, U)>> {
    let buckets = buckets_per_side.unwrap_or(left.ctx.workers() * 4).max(1);

    // 1. Statistics: sample keys from both sides to set quantile boundaries.
    //    (The paper: "the operator computes statistics about the cardinality
    //    of the two inputs, which it then uses to populate value histograms".)
    let mut keys: Vec<f64> = Vec::new();
    for part in &left.parts {
        let stride = (part.len() / 64).max(1);
        keys.extend(part.iter().step_by(stride).map(&key_l));
    }
    for part in &right.parts {
        let stride = (part.len() / 64).max(1);
        keys.extend(part.iter().step_by(stride).map(&key_r));
    }
    keys.sort_by(f64::total_cmp);
    keys.dedup();
    let mut bounds: Vec<f64> = if keys.len() <= buckets {
        keys
    } else {
        (1..buckets)
            .map(|i| keys[i * keys.len() / buckets])
            .collect()
    };
    bounds.retain(|b| b.is_finite());
    bounds.dedup();

    let ctx = left.ctx.clone();
    let start = Instant::now();
    let ln = left.count() as u64;
    let rn = right.count() as u64;
    let nb = bounds.len() + 1;
    let bucket_of = |k: f64| bounds.partition_point(|b| *b <= k);

    // 2. Bucket both inputs by key (one shuffle each).
    ctx.charge_shuffle(ln + rn);
    let mut l_buckets: Vec<Vec<T>> = (0..nb).map(|_| Vec::new()).collect();
    for part in &left.parts {
        for t in part {
            l_buckets[bucket_of(key_l(t))].push(t.clone());
        }
    }
    let mut r_buckets: Vec<Vec<U>> = (0..nb).map(|_| Vec::new()).collect();
    for part in &right.parts {
        for u in part {
            r_buckets[bucket_of(key_r(u))].push(u.clone());
        }
    }
    let bucket_range = |b: usize| -> (f64, f64) {
        let lo = if b == 0 {
            f64::NEG_INFINITY
        } else {
            bounds[b - 1]
        };
        let hi = if b < bounds.len() {
            bounds[b]
        } else {
            f64::INFINITY
        };
        (lo, hi)
    };

    // 3. Build surviving cells and their work estimates.
    let mut cells: Vec<Cell> = Vec::new();
    let mut estimated: u64 = 0;
    for (bi, lb) in l_buckets.iter().enumerate() {
        if lb.is_empty() {
            continue;
        }
        for (bj, rb) in r_buckets.iter().enumerate() {
            if rb.is_empty() {
                continue;
            }
            if cell_compatible(bucket_range(bi), bucket_range(bj)) {
                let work = (lb.len() as u64) * (rb.len() as u64);
                estimated = estimated.saturating_add(work);
                cells.push(Cell {
                    l_bucket: bi,
                    r_bucket: bj,
                    work,
                });
            }
        }
    }
    ctx.consume_budget("mbucket_join", estimated)?;
    ctx.metrics().add_comparisons(estimated);

    // 4. Greedy balanced assignment of cells to workers (largest first onto
    //    the least-loaded region) — the "N equi-sized rectangles" step.
    cells.sort_by_key(|c| std::cmp::Reverse(c.work));
    let regions = ctx.workers().max(1);
    let mut region_cells: Vec<Vec<Cell>> = (0..regions).map(|_| Vec::new()).collect();
    let mut region_load: Vec<u64> = vec![0; regions];
    for cell in cells {
        let target = region_load
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(i, _)| i)
            .unwrap();
        region_load[target] += cell.work;
        region_cells[target].push(cell);
    }

    // 5. Execute one region per worker.
    let l_buckets = Arc::new(l_buckets);
    let r_buckets = Arc::new(r_buckets);
    let (parts, busy) = run_partitions(&ctx, "mbucket_join", region_cells, |_, assigned| {
        let mut out = Vec::new();
        for cell in assigned {
            for t in &l_buckets[cell.l_bucket] {
                verify(t, &r_buckets[cell.r_bucket], &mut out);
            }
        }
        out
    })?;
    ctx.record_stage(StageReport {
        operator: "mbucket_join",
        records_in: ln + rn,
        records_shuffled: ln + rn,
        worker_busy_ns: busy,
        wall_ns: start.elapsed().as_nanos() as u64,
    });
    Ok(Dataset { ctx, parts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecContext;
    use crate::error::ExecError;

    fn ctx() -> Arc<ExecContext> {
        ExecContext::new(4, 4)
    }

    /// Reference nested-loop join for correctness checks.
    fn reference(l: &[i64], r: &[i64]) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        for &a in l {
            for &b in r {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out.sort();
        out
    }

    fn sorted(mut v: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
        v.sort();
        v
    }

    #[test]
    fn all_three_agree_with_reference() {
        let l: Vec<i64> = (0..40).map(|i| (i * 7) % 23).collect();
        let r: Vec<i64> = (0..60).map(|i| (i * 5) % 31).collect();
        let expected = reference(&l, &r);

        let c = ctx();
        let cart = cartesian_filter(
            Dataset::from_vec(&c, l.clone()),
            Dataset::from_vec(&c, r.clone()),
            pairwise(|a, b| a < b),
        )
        .unwrap();
        assert_eq!(sorted(cart.collect()), expected);

        let mm = minmax_block_join(
            Dataset::from_vec(&c, l.clone()),
            Dataset::from_vec(&c, r.clone()),
            |&a| a as f64,
            |&b| b as f64,
            |(lmin, _), (_, rmax)| lmin < rmax,
            pairwise(|a, b| a < b),
        )
        .unwrap();
        assert_eq!(sorted(mm.collect()), expected);

        let mb = mbucket_join(
            Dataset::from_vec(&c, l),
            Dataset::from_vec(&c, r),
            |&a| a as f64,
            |&b| b as f64,
            |(lmin, _), (_, rmax)| lmin < rmax,
            pairwise(|a, b| a < b),
            None,
        )
        .unwrap();
        assert_eq!(sorted(mb.collect()), expected);
    }

    #[test]
    fn cartesian_consumes_full_product_budget() {
        let c = ExecContext::with_budget(2, 2, 1_000);
        let l = Dataset::from_vec(&c, (0i64..100).collect());
        let r = Dataset::from_vec(&c, (0i64..100).collect());
        // 100*100 = 10_000 > 1_000: fails fast.
        let err = cartesian_filter(l, r, pairwise(|a, b| a < b)).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }));
    }

    #[test]
    fn mbucket_prunes_incompatible_cells() {
        // With `a < b` on sorted data, roughly half the matrix is pruned, so
        // M-Bucket fits in a budget the cartesian product cannot.
        let n = 200i64;
        let full = (n as u64) * (n as u64);
        let budget = full * 3 / 4;

        let c1 = ExecContext::with_budget(4, 4, budget);
        let err = cartesian_filter(
            Dataset::from_vec(&c1, (0..n).collect()),
            Dataset::from_vec(&c1, (0..n).collect()),
            pairwise(|a, b| a < b),
        );
        assert!(err.is_err());

        let c2 = ExecContext::with_budget(4, 4, budget);
        let ok = mbucket_join(
            Dataset::from_vec(&c2, (0..n).collect()),
            Dataset::from_vec(&c2, (0..n).collect()),
            |&a| a as f64,
            |&b| b as f64,
            |(lmin, _), (_, rmax)| lmin < rmax,
            pairwise(|a, b| a < b),
            Some(16),
        );
        assert!(ok.is_ok(), "{ok:?}");
        assert_eq!(ok.unwrap().count(), (n as usize) * (n as usize - 1) / 2);
    }

    #[test]
    fn minmax_on_shuffled_data_prunes_nothing() {
        // Shuffled input: every partition spans the whole domain, so no
        // block pair is pruned and the estimate equals the full product —
        // the paper's explanation for BigDansing's failure on rule ψ.
        let c = ExecContext::with_budget(4, 4, 10_000);
        let shuffled: Vec<i64> = (0..200).map(|i| (i * 131) % 200).collect();
        let err = minmax_block_join(
            Dataset::from_vec(&c, shuffled.clone()),
            Dataset::from_vec(&c, shuffled),
            |&a| a as f64,
            |&b| b as f64,
            |(lmin, _), (_, rmax)| lmin < rmax,
            pairwise(|a, b| a < b),
        );
        assert!(matches!(err, Err(ExecError::BudgetExceeded { .. })));
    }

    #[test]
    fn minmax_on_sorted_data_does_prune() {
        // Range-partitioned (sorted) input aligns blocks with the attribute:
        // pruning works and the join fits a budget well under |L|×|R|.
        let c = ExecContext::with_budget(4, 4, 30_000);
        let l: Vec<i64> = (0..200).collect(); // from_vec chunks => sorted blocks
        let out = minmax_block_join(
            Dataset::from_vec(&c, l.clone()),
            Dataset::from_vec(&c, l),
            |&a| a as f64,
            |&b| b as f64,
            |(lmin, _), (_, rmax)| lmin < rmax,
            pairwise(|a, b| a < b),
        )
        .unwrap();
        assert_eq!(out.count(), 200 * 199 / 2);
    }

    #[test]
    fn mbucket_balances_regions() {
        let c = ctx();
        let l: Vec<i64> = (0..500).collect();
        let out = mbucket_join(
            Dataset::from_vec(&c, l.clone()),
            Dataset::from_vec(&c, l),
            |&a| a as f64,
            |&b| b as f64,
            |_, _| true,
            pairwise(|a: &i64, b: &i64| (a - b).abs() <= 1),
            Some(16),
        )
        .unwrap();
        // Band join |a-b|<=1 output: 500 + 2*499
        assert_eq!(out.count(), 500 + 2 * 499);
        let snap = c.metrics().snapshot();
        let stage = snap
            .stages
            .iter()
            .rev()
            .find(|s| s.operator == "mbucket_join")
            .unwrap();
        assert!(
            stage.imbalance() < 3.0,
            "regions should be balanced: {:?}",
            stage.worker_busy_ns
        );
    }

    #[test]
    fn empty_inputs() {
        let c = ctx();
        let l: Dataset<i64> = Dataset::from_vec(&c, vec![]);
        let r = Dataset::from_vec(&c, vec![1i64]);
        assert!(
            cartesian_filter(l.clone(), r.clone(), pairwise(|_, _| true))
                .unwrap()
                .collect()
                .is_empty()
        );
        assert!(mbucket_join(
            l,
            r,
            |&a| a as f64,
            |&b| b as f64,
            |_, _| true,
            pairwise(|_, _| true),
            None
        )
        .unwrap()
        .collect()
        .is_empty());
    }
}
