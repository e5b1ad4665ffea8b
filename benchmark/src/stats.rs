//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle samples (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Median, or 0 when nothing was sampled (a layer the workload never enters).
pub fn median_or_zero(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// The steady part of a series of timings taken on a shared machine: cut the
/// series (in the order measured) into `slices` equal runs, take the fastest
/// sample of each, and report the median of those. Interference from other
/// tenants only ever slows a sample and comes in bursts, so a slice's fastest
/// sample is what the program costs when left alone; the median over slices
/// keeps one lucky sample, or a few wholly disturbed slices, from deciding
/// the result.
pub fn floor(in_order: &[f64], slices: usize) -> f64 {
    assert!(!in_order.is_empty(), "floor of no samples");
    let per_slice = in_order.len().div_ceil(slices);
    let mut fastest: Vec<f64> = in_order
        .chunks(per_slice)
        .map(|slice| slice.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    median(&mut fastest)
}

/// The percentiles a tail is reported at, ascending.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile that still has at least ten samples beyond
/// it: p90 needs 100 samples, p99 needs 1000. Falls back to the median.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Ten samples lie beyond the p90 of a hundred.
        assert_eq!(
            xs.iter().filter(|&&x| x > percentile(&xs, 90.0)).count(),
            10
        );
    }

    #[test]
    fn floor_shrugs_off_bursts_and_lucky_samples() {
        // Five slices of four; slice minima 10, 10, 11, 30, 10 -> median 10.
        let quiet = [10.0, 12.0, 11.0, 13.0];
        let mut series = Vec::new();
        series.extend(quiet);
        series.extend([14.0, 10.0, 40.0, 12.0]); // a burst inside a slice
        series.extend([11.0, 12.0, 13.0, 14.0]);
        series.extend([30.0, 31.0, 35.0, 40.0]); // a wholly disturbed slice
        series.extend(quiet);
        assert_eq!(floor(&series, 5), 10.0);
        // One impossibly fast sample moves one slice, not the result.
        series[9] = 1.0;
        assert_eq!(floor(&series, 5), 10.0);
        // Fewer samples than slices: every sample is its own slice.
        assert_eq!(floor(&[3.0, 1.0, 2.0], 5), 2.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_or_zero(&mut []), 0.0);
    }
}
