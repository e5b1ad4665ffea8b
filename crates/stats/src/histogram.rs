//! Equi-depth histograms cut from reservoir samples.
//!
//! An equi-depth histogram puts (approximately) the same number of sample
//! points in every bucket, so bucket *width* adapts to density — exactly the
//! statistic the M-Bucket theta join wants for its matrix boundaries, and
//! what the planner uses for selectivity estimates on range predicates.

/// One histogram bucket: the half-open key range `[lo, hi)` (the last bucket
/// is closed) holding `fraction` of the rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Lower key bound (inclusive).
    pub lo: f64,
    /// Upper key bound (exclusive; inclusive for the last bucket).
    pub hi: f64,
    /// Share of the rows falling in this bucket.
    pub fraction: f64,
}

/// An equi-depth histogram over a numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    buckets: Vec<Bucket>,
    min: f64,
    max: f64,
    /// Rows the histogram represents (the sampled stream size).
    rows: u64,
}

impl EquiDepthHistogram {
    /// Cut `buckets` equi-depth buckets from a sample representing `rows`
    /// stream rows. Returns `None` for an empty sample.
    pub fn from_sample(sample: &[f64], buckets: usize, rows: u64) -> Option<Self> {
        let mut s: Vec<f64> = sample.iter().copied().filter(|x| x.is_finite()).collect();
        if s.is_empty() {
            return None;
        }
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let b = buckets.clamp(1, n);
        let mut out = Vec::with_capacity(b);
        for i in 0..b {
            let start = i * n / b;
            let end = ((i + 1) * n / b).max(start + 1).min(n);
            if start >= n {
                break;
            }
            let hi = if end == n { s[n - 1] } else { s[end] };
            out.push(Bucket {
                lo: s[start],
                hi,
                fraction: (end - start) as f64 / n as f64,
            });
        }
        Some(EquiDepthHistogram {
            min: s[0],
            max: s[n - 1],
            buckets: out,
            rows,
        })
    }

    /// The buckets, in key order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Number of rows the histogram summarizes.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The summarized key range `(min, max)`.
    pub fn range(&self) -> (f64, f64) {
        (self.min, self.max)
    }

    /// Interior bucket boundaries — the quantile cut points, ready to feed
    /// the M-Bucket theta join as real (not blind) matrix boundaries.
    pub fn boundaries(&self) -> Vec<f64> {
        self.buckets.iter().skip(1).map(|b| b.lo).collect()
    }

    /// Estimated fraction of rows with key `< x` (linear interpolation
    /// inside the covering bucket).
    pub fn selectivity_lt(&self, x: f64) -> f64 {
        if x <= self.min {
            return 0.0;
        }
        if x > self.max {
            return 1.0;
        }
        let mut acc = 0.0;
        for b in &self.buckets {
            if x >= b.hi {
                acc += b.fraction;
            } else if x > b.lo {
                let span = (b.hi - b.lo).max(f64::MIN_POSITIVE);
                acc += b.fraction * ((x - b.lo) / span).clamp(0.0, 1.0);
                break;
            } else {
                break;
            }
        }
        acc.clamp(0.0, 1.0)
    }

    /// The key at quantile `q ∈ [0, 1]` — the inverse of
    /// [`selectivity_lt`], interpolated linearly inside the covering
    /// bucket. `q = 0.5` is the estimated median; `q ≥ 1` returns the max.
    /// This is what turns a latency histogram into p50/p90/p99 figures.
    ///
    /// [`selectivity_lt`]: EquiDepthHistogram::selectivity_lt
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let mut acc = 0.0;
        for b in &self.buckets {
            if acc + b.fraction >= q {
                let within = if b.fraction > 0.0 {
                    (q - acc) / b.fraction
                } else {
                    0.0
                };
                return b.lo + (b.hi - b.lo) * within.clamp(0.0, 1.0);
            }
            acc += b.fraction;
        }
        self.max
    }

    /// Estimated fraction of *(left row, right row)* pairs whose bucket
    /// ranges could satisfy a theta predicate, given `compatible` over
    /// `(left (min,max), right (min,max))` ranges — the same contract the
    /// runtime theta joins use for pruning. This is the cost model behind
    /// the adaptive theta-strategy choice: it is exactly the share of the
    /// comparison matrix that survives range pruning.
    pub fn fraction_pairs(
        &self,
        right: &EquiDepthHistogram,
        compatible: impl Fn((f64, f64), (f64, f64)) -> bool,
    ) -> f64 {
        let mut frac = 0.0;
        for lb in &self.buckets {
            for rb in &right.buckets {
                if compatible((lb.lo, lb.hi), (rb.lo, rb.hi)) {
                    frac += lb.fraction * rb.fraction;
                }
            }
        }
        frac.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn buckets_are_equi_depth() {
        let h = EquiDepthHistogram::from_sample(&uniform(1000), 10, 1000).unwrap();
        assert_eq!(h.buckets().len(), 10);
        for b in h.buckets() {
            assert!((b.fraction - 0.1).abs() < 1e-9);
            assert!(b.lo <= b.hi);
        }
        let total: f64 = h.buckets().iter().map(|b| b.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_sample_gets_narrow_dense_buckets() {
        // 90% of mass at 0..10, 10% spread to 1000.
        let mut s: Vec<f64> = (0..900).map(|i| (i % 10) as f64).collect();
        s.extend((0..100).map(|i| 10.0 + i as f64 * 9.9));
        let h = EquiDepthHistogram::from_sample(&s, 10, 1000).unwrap();
        let first = h.buckets()[0];
        let last = *h.buckets().last().unwrap();
        assert!(first.hi - first.lo < last.hi - last.lo);
    }

    #[test]
    fn selectivity_lt_is_monotone_and_bounded() {
        let h = EquiDepthHistogram::from_sample(&uniform(1000), 16, 1000).unwrap();
        let mut prev = 0.0;
        for x in [-5.0, 0.0, 100.0, 500.0, 999.0, 2000.0] {
            let s = h.selectivity_lt(x);
            assert!((0.0..=1.0).contains(&s));
            assert!(s >= prev);
            prev = s;
        }
        assert!((h.selectivity_lt(500.0) - 0.5).abs() < 0.05);
    }

    #[test]
    fn fraction_pairs_for_lt_on_identical_uniform_is_about_half() {
        let h = EquiDepthHistogram::from_sample(&uniform(1000), 32, 1000).unwrap();
        let f = h.fraction_pairs(&h, |(lmin, _), (_, rmax)| lmin < rmax);
        assert!(f > 0.4 && f <= 1.0, "{f}");
    }

    #[test]
    fn empty_sample_yields_none() {
        assert!(EquiDepthHistogram::from_sample(&[], 8, 0).is_none());
        assert!(EquiDepthHistogram::from_sample(&[f64::NAN], 8, 1).is_none());
    }

    #[test]
    fn quantile_inverts_selectivity() {
        let h = EquiDepthHistogram::from_sample(&uniform(1000), 16, 1000).unwrap();
        assert!(
            (h.quantile(0.5) - 500.0).abs() < 50.0,
            "{}",
            h.quantile(0.5)
        );
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 999.0);
        assert_eq!(h.quantile(7.0), 999.0, "clamped above");
        // Monotone in q.
        let qs = [0.1, 0.25, 0.5, 0.9, 0.99];
        for w in qs.windows(2) {
            assert!(h.quantile(w[0]) <= h.quantile(w[1]));
        }
        // Round-trip within one bucket of resolution.
        for q in qs {
            let s = h.selectivity_lt(h.quantile(q));
            assert!((s - q).abs() < 0.1, "q={q} s={s}");
        }
    }

    #[test]
    fn boundaries_feed_mbucket() {
        let h = EquiDepthHistogram::from_sample(&uniform(100), 4, 100).unwrap();
        let b = h.boundaries();
        assert_eq!(b.len(), 3);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
    }
}
