//! Medians, quartiles and the percentile rule.

/// First quartile, median and third quartile of `values`, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method) so the numbers printed here match the driver's. One sample
/// yields itself three times; an empty slice yields zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        len => {
            let cut = |i: usize| {
                let j = (i * (len + 1) / 4).clamp(1, len - 1);
                let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The percentile rule: the highest of p50/p90/p99/p99.9/p99.99 that
/// still has at least ten samples beyond it, or `None` under 20 samples.
pub fn highest_percentile(count: u64) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| (count as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0] (extrapolates)
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 3.0, 6.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_two() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(highest_percentile(122_294), Some(0.9999));
    }
}
