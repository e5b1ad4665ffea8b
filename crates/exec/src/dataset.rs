//! The partitioned dataset and its narrow (no-shuffle) operators.

use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use crate::context::ExecContext;
use crate::error::ExecResult;
use crate::metrics::StageReport;
use crate::pool::run_partitions;

/// Marker bound for anything storable in a [`Dataset`].
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}

/// Marker bound for shuffle/join keys. `Ord` is required because the
/// sort-based shuffle needs range partitioning.
pub trait Key: Data + Hash + Eq + Ord {}
impl<T: Data + Hash + Eq + Ord> Key for T {}

/// Records across all partitions: a stage's `records_in`.
fn count<T>(parts: &[Vec<T>]) -> u64 {
    parts.iter().map(|p| p.len() as u64).sum()
}

/// Run `f` over `tasks` on the worker pool as one accounted stage under
/// `label` — the one place a narrow stage's [`StageReport`] is assembled.
/// `moved` says how many records the results send between partitions or
/// to the driver: that many are charged and reported as shuffled.
fn run_stage<S: Send, R: Send>(
    ctx: &ExecContext,
    label: &'static str,
    records_in: u64,
    tasks: Vec<S>,
    moved: impl FnOnce(&[R]) -> u64,
    f: impl Fn(S) -> R + Sync,
) -> ExecResult<Vec<R>> {
    let start = Instant::now();
    let (out, busy) = run_partitions(ctx, label, tasks, |_, task| f(task))?;
    let records_shuffled = moved(&out);
    ctx.charge_shuffle(records_shuffled);
    ctx.record_stage(StageReport {
        operator: label,
        records_in,
        records_shuffled,
        worker_busy_ns: busy,
        wall_ns: start.elapsed().as_nanos() as u64,
    });
    Ok(out)
}

/// Nothing moves: a narrow stage whose results stay where they were made.
fn stays<R>(_: &[R]) -> u64 {
    0
}

/// A partitioned collection bound to an [`ExecContext`] — the analogue of an
/// RDD. Narrow operators run partition-parallel on the context's worker
/// pool; wide operators (in `shuffle`, `join`, `theta`) move data between
/// partitions and account for it in the context metrics.
///
/// # Example
///
/// ```
/// use cleanm_exec::{Dataset, ExecContext};
///
/// let ctx = ExecContext::new(2, 4); // 2 workers, 4 partitions
/// let ds = Dataset::from_vec(&ctx, (0..100i64).collect());
/// let total: i64 = ds
///     .filter_partitions(|part| part.retain(|x| x % 2 == 0))
///     .unwrap()
///     .map(|x| x * 10)
///     .unwrap()
///     .collect()
///     .into_iter()
///     .sum();
/// assert_eq!(total, 24_500);
/// ```
#[derive(Clone)]
pub struct Dataset<T> {
    pub(crate) ctx: Arc<ExecContext>,
    pub(crate) parts: Vec<Vec<T>>,
}

impl<T: Data> Dataset<T> {
    /// Distribute `data` over the context's default partition count by
    /// contiguous chunks (preserving input order across partitions).
    pub fn from_vec(ctx: &Arc<ExecContext>, data: Vec<T>) -> Self {
        let p = ctx.default_partitions();
        let chunk = data.len().div_ceil(p).max(1);
        let mut parts: Vec<Vec<T>> = Vec::with_capacity(p);
        let mut it = data.into_iter();
        loop {
            let part: Vec<T> = it.by_ref().take(chunk).collect();
            if part.is_empty() {
                break;
            }
            parts.push(part);
        }
        while parts.len() < p {
            parts.push(Vec::new());
        }
        Dataset {
            ctx: Arc::clone(ctx),
            parts,
        }
    }

    /// Wrap pre-partitioned data.
    pub fn from_partitions(ctx: &Arc<ExecContext>, parts: Vec<Vec<T>>) -> Self {
        Dataset {
            ctx: Arc::clone(ctx),
            parts,
        }
    }

    /// Total record count (cheap: no data movement).
    pub fn count(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Gather the partitions themselves, preserving partition structure —
    /// for callers that assert on the physical layout (shuffle determinism
    /// tests, skew reports).
    pub fn collect_partitions(self) -> Vec<Vec<T>> {
        self.parts
    }

    /// Gather all records to the "driver", preserving partition order.
    pub fn collect(self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.count());
        for p in self.parts {
            out.extend(p);
        }
        out
    }

    /// Element-wise transform (narrow).
    pub fn map<U: Data>(self, f: impl Fn(T) -> U + Sync) -> ExecResult<Dataset<U>> {
        let ctx = self.ctx;
        let (parts, _) = run_partitions(&ctx, "map", self.parts, |_, part| {
            part.into_iter().map(&f).collect::<Vec<U>>()
        })?;
        Ok(Dataset { ctx, parts })
    }

    /// Partition-at-a-time filtering (narrow): `f` retains the surviving
    /// records of each partition in place. This is the batch entry point
    /// compiled row programs use — one scratch allocation per partition
    /// instead of per record — and it reports one `filter` stage, with
    /// per-worker busy time: predicate work (e.g. similarity checks) on a
    /// skewed partition layout shows up as load imbalance there.
    pub fn filter_partitions(self, f: impl Fn(&mut Vec<T>) + Sync) -> ExecResult<Dataset<T>> {
        let ctx = self.ctx;
        let records_in = count(&self.parts);
        let parts = run_stage(&ctx, "filter", records_in, self.parts, stays, |mut part| {
            f(&mut part);
            part
        })?;
        Ok(Dataset { ctx, parts })
    }

    /// Fused filter+transform (narrow): one pass per partition that drops
    /// records failing `pred` and lets `emit` push any number of outputs
    /// per survivor. This is the operator-fusion driver — a `Select`
    /// feeding a downstream operator runs as a single partition sweep, so
    /// the filtered intermediate collection is never materialized (no
    /// retain compaction, no second dispatch, no re-read of survivors).
    /// One stage is reported under `label` covering both steps.
    pub fn filter_transform<U: Data>(
        self,
        label: &'static str,
        pred: impl Fn(&T) -> bool + Sync,
        emit: impl Fn(T, &mut Vec<U>) + Sync,
    ) -> ExecResult<Dataset<U>> {
        let ctx = self.ctx;
        let parts = run_stage(&ctx, label, count(&self.parts), self.parts, stays, |part| {
            let mut out = Vec::with_capacity(part.len());
            for t in part {
                if pred(&t) {
                    emit(t, &mut out);
                }
            }
            out
        })?;
        Ok(Dataset { ctx, parts })
    }

    /// Whole-partition transform (narrow) — Spark's `mapPartitions`, used by
    /// the Nest translation to apply per-group output/filter functions after
    /// the shuffle.
    pub fn map_partitions<U: Data>(
        self,
        f: impl Fn(Vec<T>) -> Vec<U> + Sync,
    ) -> ExecResult<Dataset<U>> {
        let ctx = self.ctx;
        let records_in = count(&self.parts);
        let parts = run_stage(&ctx, "map_partitions", records_in, self.parts, stays, f)?;
        Ok(Dataset { ctx, parts })
    }

    /// Fold each whole partition with `f` on the worker pool and return the
    /// per-partition results — a metrics-silent analytical peek (no stage
    /// report, no shuffle accounting) for planner-side checks such as key
    /// type classification.
    pub fn probe_partitions<A: Data>(&self, f: impl Fn(&[T]) -> A + Sync) -> ExecResult<Vec<A>> {
        let refs: Vec<&[T]> = self.parts.iter().map(|p| p.as_slice()).collect();
        let (partials, _busy) =
            run_partitions(&self.ctx, "probe_partitions", refs, |_, part| f(part))?;
        Ok(partials)
    }
}

/// Build a [`Dataset`] by running one task per output partition on the
/// worker pool, with explicit stage accounting. This is the entry point
/// for *column-first* operators that never materialize an input row
/// dataset: the caller describes each output partition (e.g. "rows
/// `lo..hi` of this column batch, filtered by this kernel"), the tasks run
/// partition-parallel, and one stage is recorded under `label` with the
/// caller-declared `records_in` — so a vectorized scan+filter reports the
/// same `filter` stage shape (input rows, per-worker busy time, skew) as
/// the row path it replaces.
pub fn produce_partitions<S: Send + Clone, T: Data>(
    ctx: &Arc<ExecContext>,
    label: &'static str,
    records_in: u64,
    tasks: Vec<S>,
    f: impl Fn(S) -> Vec<T> + Sync,
) -> ExecResult<Dataset<T>> {
    let parts = run_stage(ctx, label, records_in, tasks, stays, f)?;
    Ok(Dataset {
        ctx: Arc::clone(ctx),
        parts,
    })
}

/// [`produce_partitions`] for column-first *folds*: one task per chunk of
/// the input, each returning a partial that travels to the driver instead
/// of a partition of rows (a per-chunk group table, a gathered member
/// list). `moved` counts the records those partials carry, for the stage's
/// shuffle accounting — one per chunk when the partial is a single
/// mergeable summary, the per-chunk group count when each group is its own
/// shuffled partial.
pub fn produce_partials<S: Send, R: Send>(
    ctx: &Arc<ExecContext>,
    label: &'static str,
    records_in: u64,
    tasks: Vec<S>,
    moved: impl FnOnce(&[R]) -> u64,
    f: impl Fn(S) -> R + Sync,
) -> ExecResult<Vec<R>> {
    run_stage(ctx, label, records_in, tasks, moved, f)
}

impl<T: Data + std::fmt::Debug> std::fmt::Debug for Dataset<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("partitions", &self.parts.len())
            .field("records", &self.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Arc<ExecContext> {
        ExecContext::new(4, 4)
    }

    #[test]
    fn from_vec_balances_chunks() {
        let ds = Dataset::from_vec(&ctx(), (0..10).collect());
        assert_eq!(ds.count(), 10);
        let parts = ds.collect_partitions();
        assert_eq!(parts.iter().map(Vec::len).collect::<Vec<_>>(), [3, 3, 3, 1]);
        assert_eq!(parts.concat(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_dataset() {
        let ds: Dataset<i32> = Dataset::from_vec(&ctx(), vec![]);
        assert_eq!(ds.count(), 0);
        assert_eq!(ds.collect_partitions().len(), 4); // empty partitions kept
    }

    #[test]
    fn map_then_filter() {
        let ds = Dataset::from_vec(&ctx(), (0..100).collect());
        let out = ds
            .map(|x| x * 2)
            .unwrap()
            .filter_partitions(|p| p.retain(|x| x % 4 == 0))
            .unwrap()
            .collect();
        assert_eq!(out.len(), 50);
        assert_eq!(out[..2], [0, 4]);
    }

    #[test]
    fn map_partitions_sees_whole_partition() {
        let ds = Dataset::from_vec(&ctx(), (0..8).collect());
        let sums = ds
            .map_partitions(|p| vec![p.iter().sum::<i32>()])
            .unwrap()
            .collect();
        assert_eq!(sums.len(), 4);
        assert_eq!(sums.iter().sum::<i32>(), 28);
    }

    #[test]
    fn filter_transform_matches_filter_then_expand() {
        let c = ctx();
        let data: Vec<i32> = (0..100).collect();
        let separate: Vec<i32> = Dataset::from_vec(&c, data.clone())
            .filter_partitions(|p| p.retain(|x| x % 3 == 0))
            .unwrap()
            .collect()
            .into_iter()
            .flat_map(|x| [x, -x])
            .collect();
        let fused = Dataset::from_vec(&c, data)
            .filter_transform("fused", |x| x % 3 == 0, |x, out| out.extend([x, -x]))
            .unwrap()
            .collect();
        assert_eq!(separate, fused);
        let stage = c.metrics().snapshot().stages.pop().unwrap();
        assert_eq!(stage.operator, "fused");
        assert_eq!(stage.records_in, 100);
    }
}
