//! Order statistics: the percentile and median-of-repetitions helpers
//! every reported timing goes through.

/// The `p`-th percentile (0–100) of `sorted` by nearest rank: the smallest
/// sample with at least `p` % of the samples at or below it. Nearest rank
/// always returns a value that was measured, never an interpolation.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`; the mean of the two middle ones for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of `samples` in microseconds, from nanoseconds; sorts in place.
pub fn p50_us(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    percentile_sorted(samples, 50.0) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_by_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50);
        assert_eq!(percentile_sorted(&sorted, 95.0), 95);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&[7u64], 99.9), 7);
        assert_eq!(percentile_sorted(&[1u64, 2, 3], 50.0), 2);
        assert_eq!(percentile_sorted(&[1u64, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        // One stalled repetition does not move it.
        assert_eq!(median(&[10.0, 10.1, 9.9, 10.0, 55.0]), 10.0);
    }

    #[test]
    fn p50_us_converts_from_ns() {
        assert_eq!(p50_us(&mut [3000, 1000, 2000]), 2.0);
    }
}
