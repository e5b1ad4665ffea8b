//! Per-column statistics: the product monoid of all the sketches.

use cleanm_values::Value;

use crate::heavy::HeavyHitters;
use crate::histogram::EquiDepthHistogram;
use crate::hll::Hll;
use crate::reservoir::Reservoir;
use crate::strkey::string_key;
use crate::{HEAVY_CAPACITY, HISTOGRAM_BUCKETS, HLL_PRECISION, SAMPLE_CAPACITY};

/// Streaming summary of one column. Every part is mergeable, so
/// `ColumnStats` itself is: `merge(stats(A), stats(B))` describes `A ∪ B`.
///
/// # Example
///
/// ```
/// use cleanm_stats::ColumnStats;
/// use cleanm_values::Value;
///
/// let mut a = ColumnStats::new();
/// let mut b = ColumnStats::new();
/// for i in 0..500 {
///     a.observe(&Value::Int(i % 50));
///     b.observe(&Value::Int(i % 50));
/// }
/// b.observe(&Value::Null);
///
/// // Partials collected on different partitions merge losslessly.
/// a.merge(&b);
/// assert_eq!(a.count(), 1_001);
/// assert_eq!(a.nulls(), 1);
/// assert_eq!(a.min(), Some(&Value::Int(0)));
/// assert!((40.0..60.0).contains(&a.distinct_estimate()), "≈50 distinct keys");
/// ```
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Total observations, including nulls.
    count: u64,
    nulls: u64,
    /// Observations with a numeric (int/float) value.
    numeric: u64,
    /// Observations with a string value.
    strings: u64,
    min: Option<Value>,
    max: Option<Value>,
    distinct: Hll,
    sample: Reservoir<f64>,
    /// Reservoir of order-preserving prefix keys of the string projection —
    /// the sample behind string histograms (text theta pruning).
    str_sample: Reservoir<f64>,
    heavy: HeavyHitters<Value>,
}

impl ColumnStats {
    /// An empty column summary.
    pub fn new() -> Self {
        ColumnStats {
            count: 0,
            nulls: 0,
            numeric: 0,
            strings: 0,
            min: None,
            max: None,
            distinct: Hll::new(HLL_PRECISION),
            sample: Reservoir::new(SAMPLE_CAPACITY),
            str_sample: Reservoir::new(SAMPLE_CAPACITY),
            heavy: HeavyHitters::new(HEAVY_CAPACITY),
        }
    }

    /// Fold one value into the summary.
    pub fn observe(&mut self, v: &Value) {
        self.count += 1;
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        match &self.min {
            Some(m) if v >= m => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v <= m => {}
            _ => self.max = Some(v.clone()),
        }
        self.distinct.observe(v);
        self.heavy.observe(v);
        if let Ok(x) = v.as_float() {
            self.numeric += 1;
            self.sample.observe(x);
        } else if let Value::Str(s) = v {
            self.strings += 1;
            self.str_sample.observe(string_key(s));
        }
    }

    /// Monoid merge.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.nulls += other.nulls;
        self.numeric += other.numeric;
        self.strings += other.strings;
        if let Some(om) = &other.min {
            match &self.min {
                Some(m) if m <= om => {}
                _ => self.min = Some(om.clone()),
            }
        }
        if let Some(om) = &other.max {
            match &self.max {
                Some(m) if m >= om => {}
                _ => self.max = Some(om.clone()),
            }
        }
        self.distinct.merge(&other.distinct);
        self.sample.merge(&other.sample);
        self.str_sample.merge(&other.str_sample);
        self.heavy.merge(&other.heavy);
    }

    /// Number of observed values (nulls included).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of observed NULLs.
    pub fn nulls(&self) -> u64 {
        self.nulls
    }

    /// Fraction of values that are NULL.
    pub fn null_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.nulls as f64 / self.count as f64
        }
    }

    /// Is the column (mostly) numeric? Histograms only exist for these.
    pub fn is_numeric(&self) -> bool {
        let non_null = self.count - self.nulls;
        non_null > 0 && self.numeric * 2 > non_null
    }

    /// Smallest observed value (total order; `None` before any value).
    pub fn min(&self) -> Option<&Value> {
        self.min.as_ref()
    }

    /// Largest observed value.
    pub fn max(&self) -> Option<&Value> {
        self.max.as_ref()
    }

    /// Estimated distinct-value count (HyperLogLog).
    pub fn distinct_estimate(&self) -> f64 {
        self.distinct.estimate()
    }

    /// Upper bound on the share of rows held by the most frequent value —
    /// the skew signal. 0.0 for an empty column.
    pub fn top_share(&self) -> f64 {
        self.heavy.top_share_upper_bound()
    }

    /// Guaranteed (lower-bound) share of the most frequent value.
    pub fn top_share_lower_bound(&self) -> f64 {
        self.heavy.top_share_lower_bound()
    }

    /// Heavy-hitter candidates, heaviest first (lower-bound counts).
    pub fn heavy_hitters(&self) -> Vec<(Value, u64)> {
        self.heavy.candidates()
    }

    /// Undercount bound on the heavy-hitter counts. `0` means the sketch
    /// never truncated — every count is an exact frequency, independent of
    /// how the observations were partitioned. Consumers needing
    /// partition-deterministic decisions (e.g. repair tie-breaking) should
    /// only trust the counts when this is zero.
    pub fn heavy_error_bound(&self) -> u64 {
        self.heavy.error_bound()
    }

    /// Cut an equi-depth histogram at the default resolution from the
    /// numeric sample. `None` when the column has no numeric values.
    pub fn histogram(&self) -> Option<EquiDepthHistogram> {
        self.histogram_with(HISTOGRAM_BUCKETS)
    }

    /// Cut an equi-depth histogram with an explicit bucket count.
    pub fn histogram_with(&self, buckets: usize) -> Option<EquiDepthHistogram> {
        if !self.is_numeric() {
            return None;
        }
        EquiDepthHistogram::from_sample(self.sample.items(), buckets, self.sample.seen())
    }

    /// Is the column (mostly) text? String histograms only exist for these.
    pub fn is_textual(&self) -> bool {
        let non_null = self.count - self.nulls;
        non_null > 0 && self.strings * 2 > non_null
    }

    /// Equi-depth histogram over the **prefix keys** of a text column
    /// ([`crate::string_key`]) — the statistic behind theta pruning on
    /// string predicates. `None` when the column is not (mostly) text.
    pub fn string_histogram(&self) -> Option<EquiDepthHistogram> {
        if !self.is_textual() {
            return None;
        }
        EquiDepthHistogram::from_sample(
            self.str_sample.items(),
            HISTOGRAM_BUCKETS,
            self.str_sample.seen(),
        )
    }

    /// The histogram usable for theta-join pruning, with a flag saying
    /// whether its keys are string prefix keys (`true`) — in which case
    /// range comparisons must widen by
    /// [`crate::STRING_KEY_RESOLUTION`] to stay sound under prefix
    /// collisions — or exact numeric values (`false`).
    pub fn pruning_histogram(&self) -> Option<(EquiDepthHistogram, bool)> {
        if let Some(h) = self.histogram() {
            return Some((h, false));
        }
        self.string_histogram().map(|h| (h, true))
    }
}

impl Default for ColumnStats {
    fn default() -> Self {
        ColumnStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_min_max_nulls_exactly() {
        let mut c = ColumnStats::new();
        for i in 0..100 {
            c.observe(&Value::Int(i));
        }
        c.observe(&Value::Null);
        assert_eq!(c.count(), 101);
        assert_eq!(c.nulls(), 1);
        assert_eq!(c.min(), Some(&Value::Int(0)));
        assert_eq!(c.max(), Some(&Value::Int(99)));
        assert!((c.null_fraction() - 1.0 / 101.0).abs() < 1e-12);
        assert!(c.is_numeric());
        let d = c.distinct_estimate();
        assert!((d - 100.0).abs() < 10.0, "{d}");
    }

    #[test]
    fn string_columns_have_no_numeric_histogram() {
        let mut c = ColumnStats::new();
        c.observe(&Value::str("a"));
        c.observe(&Value::str("b"));
        assert!(!c.is_numeric());
        assert!(c.is_textual());
        assert!(c.histogram().is_none());
        assert_eq!(c.min(), Some(&Value::str("a")));
    }

    #[test]
    fn text_columns_cut_string_histograms() {
        let mut c = ColumnStats::new();
        for i in 0..500 {
            c.observe(&Value::str(format!("name-{:04}", i)));
        }
        let (h, textual) = c.pruning_histogram().expect("string histogram");
        assert!(textual);
        assert_eq!(h.rows(), 500);
        // Keys are monotone in string order, so quantile boundaries are too.
        let b = h.boundaries();
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
        // The histogram covers the whole key range.
        let (lo, hi) = h.range();
        assert!(lo <= crate::string_key("name-0000"));
        assert!(hi >= crate::string_key("name-0499"));
        // A numeric column still reports a numeric pruning histogram.
        let mut n = ColumnStats::new();
        for i in 0..100 {
            n.observe(&Value::Int(i));
        }
        let (_, textual) = n.pruning_histogram().unwrap();
        assert!(!textual);
    }

    #[test]
    fn string_sample_merge_matches_single_pass() {
        let mut a = ColumnStats::new();
        let mut b = ColumnStats::new();
        let mut whole = ColumnStats::new();
        for i in 0..400 {
            let v = Value::str(format!("w{i:03}"));
            if i % 2 == 0 {
                a.observe(&v);
            } else {
                b.observe(&v);
            }
            whole.observe(&v);
        }
        a.merge(&b);
        assert!(a.is_textual());
        let (ha, _) = a.pruning_histogram().unwrap();
        let (hw, _) = whole.pruning_histogram().unwrap();
        assert_eq!(ha.rows(), hw.rows());
        assert_eq!(ha.range(), hw.range());
    }

    #[test]
    fn merge_matches_single_pass_on_exact_parts() {
        let mut a = ColumnStats::new();
        let mut b = ColumnStats::new();
        let mut whole = ColumnStats::new();
        for i in 0..1000i64 {
            let v = if i % 50 == 0 {
                Value::Null
            } else {
                Value::Int(i % 123)
            };
            if i < 500 {
                a.observe(&v);
            } else {
                b.observe(&v);
            }
            whole.observe(&v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.nulls(), whole.nulls());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // HLL merge is exact at the register level.
        assert_eq!(a.distinct_estimate(), whole.distinct_estimate());
    }

    #[test]
    fn skew_is_visible_in_top_share() {
        let mut c = ColumnStats::new();
        for i in 0..1000i64 {
            c.observe(&Value::Int(if i % 5 != 0 { 7 } else { i }));
        }
        assert!(c.top_share() > 0.5, "{}", c.top_share());
        assert!(c.top_share_lower_bound() > 0.5);
    }
}
