//! Summary statistics.

/// Summary of a sample of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
}

impl Summary {
    /// Computes a summary of the samples; returns `None` for an empty
    /// slice.
    ///
    /// Sorts a copy internally. Callers that also need extra percentiles
    /// should sort once themselves and use [`Summary::of_sorted`] plus
    /// [`percentile_sorted`] instead of paying for a second sort.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Self::of_sorted(&sorted)
    }

    /// Computes a summary of an already-sorted (ascending) sample without
    /// re-sorting; returns `None` for an empty slice.
    pub fn of_sorted(sorted: &[f64]) -> Option<Self> {
        if sorted.is_empty() {
            return None;
        }
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "of_sorted requires ascending samples"
        );
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        Some(Self {
            count,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_sorted(sorted, 50.0),
        })
    }

    /// Coefficient of variation (stddev / mean); zero when the mean is zero.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

/// The `p`-th percentile (0–100) of a sample, by linear interpolation.
///
/// Sorts a copy internally; use [`percentile_sorted`] when the samples
/// are already sorted (e.g. alongside [`Summary::of_sorted`]).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(percentile_sorted(&sorted, p))
}

/// The `p`-th percentile (0–100) of an already-sorted (ascending) sample,
/// by linear interpolation. Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
        assert!((s.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_samples_yield_none() {
        assert!(Summary::of(&[]).is_none());
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(40.0));
        assert!((percentile(&v, 50.0).unwrap() - 25.0).abs() < 1e-12);
        assert!((percentile(&v, 25.0).unwrap() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_percentile() {
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn cv_of_zero_mean_is_zero() {
        let s = Summary::of(&[0.0, 0.0]).unwrap();
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn presorted_entry_points_match_the_sorting_ones() {
        let unsorted = [9.0, 2.0, 4.0, 7.0, 4.0, 5.0, 5.0, 4.0];
        let mut sorted = unsorted;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(Summary::of(&unsorted), Summary::of_sorted(&sorted));
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(
                percentile(&unsorted, p),
                Some(percentile_sorted(&sorted, p))
            );
        }
        assert!(Summary::of_sorted(&[]).is_none());
    }
}
