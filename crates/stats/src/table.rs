//! Whole-table statistics and the single-pass collection over a `Dataset`.

use std::collections::BTreeMap;
use std::sync::Arc;

use cleanm_exec::{ExecContext, ExecResult};
use cleanm_values::Value;

use crate::column::ColumnStats;

/// Statistics for one table: a row count plus per-column summaries.
/// The column-wise product of monoids is itself a monoid.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    rows: u64,
    columns: BTreeMap<String, ColumnStats>,
}

impl TableStats {
    /// An empty summary.
    pub fn new() -> Self {
        TableStats::default()
    }

    /// Fold one row (a `Value::Struct`) into the summary. Non-struct rows
    /// are summarized under a single `""` column.
    pub fn observe_row(&mut self, row: &Value) {
        self.rows += 1;
        match row.as_struct() {
            Ok(fields) => {
                for (name, v) in fields {
                    self.columns.entry(name.to_string()).or_default().observe(v);
                }
            }
            Err(_) => {
                self.columns.entry(String::new()).or_default().observe(row);
            }
        }
    }

    /// Monoid merge (column-wise).
    pub fn merge(&mut self, other: &Self) {
        self.rows += other.rows;
        for (name, cs) in &other.columns {
            match self.columns.get_mut(name) {
                Some(mine) => mine.merge(cs),
                None => {
                    self.columns.insert(name.clone(), cs.clone());
                }
            }
        }
    }

    /// Number of rows folded into the summary.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The summary of one column, if observed.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// All column summaries, sorted by name.
    pub fn columns(&self) -> impl Iterator<Item = (&str, &ColumnStats)> {
        self.columns.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Summarize a slice of rows (single-threaded reference path; also the
    /// per-partition fold used by [`collect_table_stats`]).
    pub fn of_rows(rows: &[Value]) -> Self {
        let mut s = TableStats::new();
        for r in rows {
            s.observe_row(r);
        }
        s
    }

    /// One-line human summary per column (used by reports).
    pub fn describe(&self) -> String {
        let mut out = format!("{} rows\n", self.rows);
        for (name, c) in &self.columns {
            out.push_str(&format!(
                "  {name}: distinct≈{:.0}, nulls {:.1}%, top-share ≤{:.2}{}\n",
                c.distinct_estimate(),
                c.null_fraction() * 100.0,
                c.top_share(),
                if c.is_numeric() { ", numeric" } else { "" },
            ));
        }
        out
    }
}

/// Collect [`TableStats`] over a table's rows in **one pass** on the exec
/// substrate: each partition folds its rows into a partial `TableStats`
/// where they sit ([`cleanm_exec::summarize_rows`], which chunks the shared
/// row vector in place — no copies). The per-partition partials are then
/// merged **tree-wise on the worker pool** ([`cleanm_exec::merge_tree`],
/// `⌈log₂ p⌉` parallel rounds) rather than sequentially on the driver, so
/// the merge no longer serializes behind one thread as partition counts
/// grow. No shuffle beyond the one-partial-per-partition movement occurs.
pub fn collect_table_stats(
    ctx: &Arc<ExecContext>,
    rows: Arc<Vec<Value>>,
) -> ExecResult<TableStats> {
    let partials = cleanm_exec::summarize_rows(ctx, &rows, TableStats::of_rows)?;
    Ok(cleanm_exec::merge_tree(ctx, partials, |mut a, b| {
        a.merge(&b);
        a
    })?
    .unwrap_or_default())
}

/// [`collect_table_stats`] over a table stored as **append batches**: one
/// accounted pass over exactly the given batches (history batches that were
/// already summarized are simply not passed in), merged tree-wise. Because
/// `TableStats` is a monoid, summarizing only a table's *new* batches and
/// merging the result into the cached entry yields the same statistics as
/// recollecting from scratch — the incremental-maintenance property the
/// append path relies on.
pub fn collect_batch_stats(
    ctx: &Arc<ExecContext>,
    batches: &[Arc<Vec<Value>>],
) -> ExecResult<TableStats> {
    let refs: Vec<&[Value]> = batches.iter().map(|b| b.as_slice()).collect();
    let partials = cleanm_exec::summarize_batches(ctx, &refs, TableStats::of_rows)?;
    Ok(cleanm_exec::merge_tree(ctx, partials, |mut a, b| {
        a.merge(&b);
        a
    })?
    .unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: i64, name: &str, nation: i64) -> Value {
        Value::record([
            ("name", Value::str(name)),
            ("nationkey", Value::Int(nation)),
            ("__rowid", Value::Int(id)),
        ])
    }

    #[test]
    fn observes_all_columns() {
        let mut t = TableStats::new();
        t.observe_row(&row(0, "a", 1));
        t.observe_row(&row(1, "b", 1));
        assert_eq!(t.rows(), 2);
        assert_eq!(t.column("name").unwrap().count(), 2);
        assert!(t.column("nationkey").unwrap().is_numeric());
        assert!(t.column("missing").is_none());
        assert!(t.describe().contains("2 rows"));
    }

    #[test]
    fn merge_is_columnwise() {
        let mut a = TableStats::new();
        let mut b = TableStats::new();
        a.observe_row(&row(0, "a", 1));
        b.observe_row(&row(1, "b", 2));
        a.merge(&b);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.column("nationkey").unwrap().max(), Some(&Value::Int(2)));
    }

    #[test]
    fn single_pass_collection_matches_reference_and_counters() {
        let rows: Vec<Value> = (0..1000)
            .map(|i| row(i, if i % 3 == 0 { "x" } else { "y" }, i % 17))
            .collect();
        let ctx = ExecContext::new(4, 8);
        let stats = collect_table_stats(&ctx, Arc::new(rows.clone())).unwrap();
        let reference = TableStats::of_rows(&rows);
        assert_eq!(stats.rows(), reference.rows());
        assert_eq!(
            stats.column("nationkey").unwrap().min(),
            reference.column("nationkey").unwrap().min()
        );

        // Single-pass evidence: exactly one summarize stage, which saw every
        // row once and shuffled only one partial per partition.
        let snap = ctx.metrics().snapshot();
        let stages: Vec<_> = snap
            .stages
            .iter()
            .filter(|s| s.operator == "summarize_partitions")
            .collect();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].records_in, 1000);
        assert_eq!(stages[0].records_shuffled, 8);
        assert_eq!(snap.records_shuffled, 8);
    }
}
