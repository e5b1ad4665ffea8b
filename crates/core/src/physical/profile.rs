//! Engine profiles: the physical policies of the three compared systems.

use serde::{Deserialize, Serialize};

/// How a `Nest` (grouping) operator shuffles data — §6 "Handling data skew":
/// CleanDB's `LocalAggregate`, Spark SQL's `SortShuffle`, BigDansing's
/// `HashShuffle`. This *is* the runtime's [`cleanm_exec::Shuffle`] — the
/// profile names the strategy and the one grouping driver takes it as is
/// (the serde shim's derives are no-ops, so the runtime crate needs none;
/// before `shims/serde` is swapped for real serde, `Shuffle` must gain
/// `Serialize`/`Deserialize` or [`EngineProfile`]'s derive stops compiling).
pub use cleanm_exec::Shuffle as NestStrategy;

/// The stage label a Nest's materialized grouping reports under, per
/// strategy. Reports, EXPLAIN output and the shuffle-volume tests key on
/// these names, so they outlive the drivers they were once named after.
pub(crate) fn nest_stage_label(strategy: NestStrategy) -> &'static str {
    match strategy {
        NestStrategy::LocalAggregate => "aggregate_by_key",
        NestStrategy::SortShuffle => "group_by_key_sorted",
        NestStrategy::HashShuffle => "group_by_key_hash",
    }
}

/// How a theta join executes — §6 "Handling theta joins".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThetaStrategy {
    /// CleanDB: matrix partitioning over the join keys' sampled quantiles
    /// (Okcan & Riedewald).
    MBucket,
    /// BigDansing: per-block min/max pruning on the existing partitioning.
    MinMaxBlocks,
    /// Spark SQL: cartesian product followed by a filter.
    CartesianFilter,
}

/// How much of §5's optimization the planner applies — the one axis the
/// paper's comparison varies besides the two physical strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Planner {
    /// The baselines: every operator is planned and run on its own. Spark
    /// SQL "is unable to detect the opportunity to group the tasks into
    /// one" and plans rule ψ as "a cartesian product followed by a filter
    /// condition" (§6); BigDansing "can only apply one operation at a time"
    /// and treats a DC as a black-box pairwise UDF. No sub-plan is shared,
    /// no filter moves below a theta join, every `Select` is its own pass,
    /// groups are materialized before they are reduced, and rows are
    /// evaluated one at a time.
    OperatorAtATime,
    /// CleanDB: the three optimization levels together. Common sub-plans
    /// run once, single-table filters sit below the joins, `Select` chains
    /// run inside their consumer's sweep, grouped monoid reductions fold
    /// into per-key accumulators, and eligible scans sweep typed columns.
    /// `nest` / `theta` are used as given.
    Unified,
}

impl Planner {
    /// Does the planner optimize a query's operators together, rather than
    /// one at a time?
    pub fn unified(self) -> bool {
        self == Planner::Unified
    }
}

/// A complete physical policy. Construct via [`EngineProfile::clean_db`],
/// [`EngineProfile::spark_sql_like`] or [`EngineProfile::big_dansing_like`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineProfile {
    pub name: String,
    pub nest: NestStrategy,
    pub theta: ThetaStrategy,
    pub planner: Planner,
}

impl EngineProfile {
    /// The paper's system: all three optimization levels on.
    pub fn clean_db() -> Self {
        EngineProfile {
            name: "CleanDB".to_string(),
            nest: NestStrategy::LocalAggregate,
            theta: ThetaStrategy::MBucket,
            planner: Planner::Unified,
        }
    }

    /// The Spark SQL baseline of §8.
    pub fn spark_sql_like() -> Self {
        EngineProfile {
            name: "SparkSQL".to_string(),
            nest: NestStrategy::SortShuffle,
            theta: ThetaStrategy::CartesianFilter,
            planner: Planner::OperatorAtATime,
        }
    }

    /// The BigDansing baseline of §8.
    pub fn big_dansing_like() -> Self {
        EngineProfile {
            name: "BigDansing".to_string(),
            nest: NestStrategy::HashShuffle,
            theta: ThetaStrategy::MinMaxBlocks,
            planner: Planner::OperatorAtATime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_along_the_papers_axes() {
        let c = EngineProfile::clean_db();
        let s = EngineProfile::spark_sql_like();
        let b = EngineProfile::big_dansing_like();
        assert_eq!(c.nest, NestStrategy::LocalAggregate);
        assert_eq!(s.nest, NestStrategy::SortShuffle);
        assert_eq!(b.nest, NestStrategy::HashShuffle);
        assert_eq!(c.planner, Planner::Unified);
        assert_eq!(s.planner, Planner::OperatorAtATime);
        assert_eq!(b.planner, Planner::OperatorAtATime);
        assert_eq!(s.theta, ThetaStrategy::CartesianFilter);
        assert_eq!(b.theta, ThetaStrategy::MinMaxBlocks);
    }
}
