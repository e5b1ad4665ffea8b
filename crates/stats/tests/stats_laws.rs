//! Property tests for the statistics merge laws: for every summary,
//! `merge(stats(A), stats(B))` must agree with `stats(A ∪ B)` — exactly for
//! the exact parts (count, null count, min, max, and the HLL registers),
//! within bounded relative error for the distinct sketch vs. ground truth,
//! and via structural invariants for the sample-derived histograms.
//! Mirrors the style of `crates/values/tests/value_laws.rs`.

use std::collections::HashSet;

use cleanm_stats::{ColumnStats, EquiDepthHistogram, HeavyHitters, Hll, TableStats};
use cleanm_values::Value;
use proptest::prelude::*;

fn arb_scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (-50i64..50).prop_map(Value::Int),
        (0i64..1_000_000).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(Value::Float),
        "[a-z]{1,6}".prop_map(Value::from),
    ]
    .boxed()
}

fn stats_of(values: &[Value]) -> ColumnStats {
    let mut c = ColumnStats::new();
    for v in values {
        c.observe(v);
    }
    c
}

fn exact_distinct(values: &[Value]) -> usize {
    values
        .iter()
        .filter(|v| !v.is_null())
        .collect::<HashSet<_>>()
        .len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Exact parts of the column monoid: merge equals single pass.
    #[test]
    fn column_merge_agrees_with_single_pass(
        a in proptest::collection::vec(arb_scalar(), 0..300),
        b in proptest::collection::vec(arb_scalar(), 0..300),
    ) {
        let mut merged = stats_of(&a);
        merged.merge(&stats_of(&b));
        let union: Vec<Value> = a.iter().chain(b.iter()).cloned().collect();
        let whole = stats_of(&union);

        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.nulls(), whole.nulls());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        // HLL merge is register-wise max: the estimate is *identical*, not
        // just close.
        prop_assert_eq!(merged.distinct_estimate(), whole.distinct_estimate());
    }

    /// Distinct sketch: bounded relative error against ground truth.
    #[test]
    fn distinct_sketch_error_is_bounded(
        values in proptest::collection::vec(arb_scalar(), 0..500),
    ) {
        let c = stats_of(&values);
        let truth = exact_distinct(&values) as f64;
        let est = c.distinct_estimate();
        if truth == 0.0 {
            prop_assert_eq!(est, 0.0);
        } else {
            // Precision 12 ⇒ ~1.6% standard error; allow a generous 15%
            // plus small absolute slack for tiny cardinalities.
            let err = (est - truth).abs() / truth;
            prop_assert!(err < 0.15 || (est - truth).abs() < 4.0,
                "distinct {} vs truth {}: rel err {}", est, truth, err);
        }
    }

    /// Column merge order does not matter (commutativity).
    #[test]
    fn column_merge_is_commutative(
        a in proptest::collection::vec(arb_scalar(), 0..200),
        b in proptest::collection::vec(arb_scalar(), 0..200),
    ) {
        let mut ab = stats_of(&a);
        ab.merge(&stats_of(&b));
        let mut ba = stats_of(&b);
        ba.merge(&stats_of(&a));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.nulls(), ba.nulls());
        prop_assert_eq!(ab.min(), ba.min());
        prop_assert_eq!(ab.max(), ba.max());
        prop_assert_eq!(ab.distinct_estimate(), ba.distinct_estimate());
    }

    /// HLL raw merge law: merge(hll(A), hll(B)) == hll(A ∪ B) exactly.
    #[test]
    fn hll_merge_is_exact_at_register_level(
        a in proptest::collection::vec(0u64..10_000, 0..400),
        b in proptest::collection::vec(0u64..10_000, 0..400),
    ) {
        let mut ha = Hll::new(10);
        let mut hb = Hll::new(10);
        let mut whole = Hll::new(10);
        for x in &a { ha.observe(x); whole.observe(x); }
        for x in &b { hb.observe(x); whole.observe(x); }
        ha.merge(&hb);
        prop_assert_eq!(ha, whole);
    }

    /// Misra–Gries merge: counts stay lower bounds, and count + error bound
    /// covers the true frequency of every key.
    #[test]
    fn heavy_hitter_bounds_survive_merge(
        a in proptest::collection::vec(0u8..30, 0..400),
        b in proptest::collection::vec(0u8..30, 0..400),
    ) {
        let summarize = |xs: &[u8]| {
            let mut h = HeavyHitters::new(8);
            for x in xs { h.observe(x); }
            h
        };
        let mut merged = summarize(&a);
        merged.merge(&summarize(&b));
        prop_assert_eq!(merged.total(), (a.len() + b.len()) as u64);
        for (k, c) in merged.candidates() {
            let truth = a.iter().chain(b.iter()).filter(|&&x| x == k).count() as u64;
            prop_assert!(c <= truth, "count {} must lower-bound truth {}", c, truth);
            prop_assert!(c + merged.error_bound() >= truth,
                "count {} + err {} must cover truth {}", c, merged.error_bound(), truth);
        }
    }

    /// Histogram invariants on a merged column: buckets ordered, fractions
    /// sum to 1, bucket range covered by the exact min/max.
    #[test]
    fn histogram_invariants_hold_after_merge(
        a in proptest::collection::vec(-1000i64..1000, 1..300),
        b in proptest::collection::vec(-1000i64..1000, 1..300),
    ) {
        let ints = |xs: &[i64]| xs.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>();
        let mut merged = stats_of(&ints(&a));
        merged.merge(&stats_of(&ints(&b)));
        let h: EquiDepthHistogram = merged.histogram().expect("numeric column");

        let total: f64 = h.buckets().iter().map(|bk| bk.fraction).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "fractions sum to {}", total);

        let exact_min = *a.iter().chain(b.iter()).min().unwrap() as f64;
        let exact_max = *a.iter().chain(b.iter()).max().unwrap() as f64;
        let (hmin, hmax) = h.range();
        prop_assert!(hmin >= exact_min - 1e-9 && hmax <= exact_max + 1e-9,
            "histogram range ({hmin}, {hmax}) must sit inside the data range ({exact_min}, {exact_max})");

        for w in h.buckets().windows(2) {
            prop_assert!(w[0].lo <= w[1].lo, "bucket lows must be sorted");
        }
        for bk in h.buckets() {
            prop_assert!(bk.lo <= bk.hi);
            prop_assert!(bk.fraction >= 0.0 && bk.fraction <= 1.0);
        }

        // Equi-depth: no bucket may hold more than ~2x its fair share of the
        // sample (ties can inflate a bucket, so the bound is loose).
        let fair = 1.0 / h.buckets().len() as f64;
        let reasonable = h.buckets().iter().filter(|bk| bk.fraction <= 2.5 * fair).count();
        prop_assert!(reasonable * 2 >= h.buckets().len(),
            "most buckets near fair share {fair}");
    }

    /// Table-level merge is column-wise and row counts add.
    #[test]
    fn table_merge_agrees_with_single_pass(
        a in proptest::collection::vec((any::<i16>(), "[a-z]{1,4}"), 0..150),
        b in proptest::collection::vec((any::<i16>(), "[a-z]{1,4}"), 0..150),
    ) {
        let rows = |xs: &[(i16, String)]| xs.iter().map(|(n, s)| {
            Value::record([("num", Value::Int(*n as i64)), ("name", Value::str(s))])
        }).collect::<Vec<_>>();
        let mut merged = TableStats::of_rows(&rows(&a));
        merged.merge(&TableStats::of_rows(&rows(&b)));
        let union: Vec<(i16, String)> = a.iter().chain(b.iter()).cloned().collect();
        let whole = TableStats::of_rows(&rows(&union));

        prop_assert_eq!(merged.rows(), whole.rows());
        if !union.is_empty() {
            let (m, w) = (merged.column("num").unwrap(), whole.column("num").unwrap());
            prop_assert_eq!(m.count(), w.count());
            prop_assert_eq!(m.min(), w.min());
            prop_assert_eq!(m.max(), w.max());
            prop_assert_eq!(m.distinct_estimate(), w.distinct_estimate());
        }
    }
}
