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

/// The stage labels a Nest's grouping reports under, per strategy:
/// `(materialized groups, folded groups)`. Reports, EXPLAIN output and the
/// shuffle-volume tests key on these names, so they outlive the drivers
/// they were once named after.
pub(crate) fn nest_stage_labels(strategy: NestStrategy) -> (&'static str, &'static str) {
    match strategy {
        NestStrategy::LocalAggregate => ("aggregate_by_key", "group_fold"),
        NestStrategy::SortShuffle => ("group_by_key_sorted", "group_fold_sorted"),
        NestStrategy::HashShuffle => ("group_by_key_hash", "group_fold_hash"),
    }
}

/// How a theta join executes — §6 "Handling theta joins".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThetaStrategy {
    /// CleanDB: statistics-aware matrix partitioning (Okcan & Riedewald).
    MBucket,
    /// BigDansing: per-block min/max pruning on the existing partitioning.
    MinMaxBlocks,
    /// Spark SQL: cartesian product followed by a filter.
    CartesianFilter,
}

/// A complete physical policy. Construct via [`EngineProfile::clean_db`],
/// [`EngineProfile::spark_sql_like`], [`EngineProfile::big_dansing_like`],
/// or [`EngineProfile::adaptive`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineProfile {
    pub name: String,
    pub nest: NestStrategy,
    pub theta: ThetaStrategy,
    /// Apply the §5 sharing rewrites (plan hash-consing + result memoing).
    /// Spark SQL "is unable to detect the opportunity to group the tasks
    /// into one"; BigDansing "can only apply one operation at a time".
    pub share_plans: bool,
    /// Push single-table selective predicates below expensive joins — the
    /// monoid-level filter pushdown. Spark SQL's plan for rule ψ
    /// "involv\[es\] a cartesian product followed by a filter condition"
    /// (§6), i.e. the filter stays above the product; BigDansing treats the
    /// DC as a black-box pairwise UDF.
    pub push_selective_filters: bool,
    /// Fuse `Select` chains into their downstream consumer (Nest pair
    /// emission, Reduce head evaluation, Join keying, Unnest expansion):
    /// the executor evaluates filter+consume in **one pass** over each
    /// partition instead of materializing the filtered intermediate
    /// collection first — the §5 pipelined-operator fusion the paper's
    /// code-generating backend performs. Baselines keep the operator-at-a-
    /// time execution their systems exhibit.
    pub fuse_selects: bool,
    /// Compile grouped consumers into streaming fold-into-hash grouping:
    /// when every use of a Nest's group variable is a monoid reduction
    /// (counts, sums, min/max, FD distinct-RHS tests), the executor folds
    /// values straight into per-key accumulators instead of materializing
    /// `(key, Vec<value>)` groups, and only `(key, partial)` pairs cross
    /// the shuffle. The §5 monoid-comprehension fusion applied to the wide
    /// operator; baselines keep the materialize-then-reduce execution their
    /// systems exhibit. Consumers that genuinely need the members (DEDUP
    /// pairwise comparison, CLUSTER BY) keep the materialized path either
    /// way.
    pub fold_groups: bool,
    /// Execute eligible plan nodes column-at-a-time: scans decode into
    /// typed column batches and compiled predicates / projections /
    /// grouping keys re-lower into whole-column kernels
    /// (`physical/kernel.rs`) that sweep `i64`/`f64`/`Arc<str>`
    /// slices behind a selection vector. Nodes whose programs do not
    /// vectorize (interpreter islands, mixed-type columns) fall back to
    /// the row path — semantics are identical either way (pinned by the
    /// `columnar_agree` differential tests). Baselines keep the row-at-a-
    /// time Volcano-style execution their systems exhibit.
    pub vectorize: bool,
    /// Cost-based mode: `nest`/`theta` above are only *defaults*, and the
    /// executor re-decides the strategy per plan node from the session's
    /// [`cleanm_stats::TableStats`] (group cardinality and skew for Nest,
    /// histogram pair-pruning estimates for ThetaJoin). Decisions are
    /// recorded per node in the report.
    pub adaptive: bool,
}

impl EngineProfile {
    /// The paper's system: all three optimization levels on.
    pub fn clean_db() -> Self {
        EngineProfile {
            name: "CleanDB".to_string(),
            nest: NestStrategy::LocalAggregate,
            theta: ThetaStrategy::MBucket,
            share_plans: true,
            push_selective_filters: true,
            fuse_selects: true,
            fold_groups: true,
            vectorize: true,
            adaptive: false,
        }
    }

    /// The Spark SQL baseline of §8.
    pub fn spark_sql_like() -> Self {
        EngineProfile {
            name: "SparkSQL".to_string(),
            nest: NestStrategy::SortShuffle,
            theta: ThetaStrategy::CartesianFilter,
            share_plans: false,
            push_selective_filters: false,
            fuse_selects: false,
            fold_groups: false,
            vectorize: false,
            adaptive: false,
        }
    }

    /// The BigDansing baseline of §8.
    pub fn big_dansing_like() -> Self {
        EngineProfile {
            name: "BigDansing".to_string(),
            nest: NestStrategy::HashShuffle,
            theta: ThetaStrategy::MinMaxBlocks,
            share_plans: false,
            push_selective_filters: false,
            fuse_selects: false,
            fold_groups: false,
            vectorize: false,
            adaptive: false,
        }
    }

    /// Cost-based profile: all cross-operator rewrites on (like
    /// [`EngineProfile::clean_db`]), but physical strategies are chosen per
    /// node from collected table statistics instead of being fixed. The
    /// `nest`/`theta` fields hold the fallback used when no statistics cover
    /// a node (e.g. a grouping key that is not a simple column).
    pub fn adaptive() -> Self {
        EngineProfile {
            name: "Adaptive".to_string(),
            nest: NestStrategy::LocalAggregate,
            theta: ThetaStrategy::MBucket,
            share_plans: true,
            push_selective_filters: true,
            fuse_selects: true,
            fold_groups: true,
            vectorize: true,
            adaptive: true,
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
        assert!(c.share_plans && !s.share_plans && !b.share_plans);
        assert!(c.push_selective_filters);
        assert_eq!(s.theta, ThetaStrategy::CartesianFilter);
        assert_eq!(b.theta, ThetaStrategy::MinMaxBlocks);
    }
}
