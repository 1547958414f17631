//! Comparisons between series: speedups and crossover points.
//!
//! The paper's headline claim is a shape, not an absolute number: CoreTime
//! matches the baseline while the working set fits one chip's cache and is
//! "between two to three times faster" once it does not. These helpers
//! extract that shape from measured series so reports can include it
//! and tests can assert it.

use crate::series::Series;

/// The speedup of `a` over `b` at every x both series share.
pub fn speedup_series(a: &Series, b: &Series) -> Series {
    let mut out = Series::new(format!("{} / {}", a.name, b.name));
    for &(x, ya) in &a.points {
        if let Some(yb) = b.y_at(x) {
            if yb > 0.0 {
                out.push(x, ya / yb);
            }
        }
    }
    out
}

/// Mean speedup of `a` over `b` restricted to x values above `min_x`.
pub fn mean_speedup_above(a: &Series, b: &Series, min_x: f64) -> Option<f64> {
    let s = speedup_series(a, b);
    let vals: Vec<f64> = s
        .points
        .iter()
        .filter(|(x, _)| *x >= min_x)
        .map(|(_, v)| *v)
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// The first x at which `a` exceeds `b` by at least `factor` and keeps
/// exceeding it for the rest of the range (the "crossover" the paper places
/// where the working set outgrows one chip's L3).
pub fn crossover(a: &Series, b: &Series, factor: f64) -> Option<f64> {
    let s = speedup_series(a, b);
    let mut candidate: Option<f64> = None;
    for &(x, v) in &s.points {
        if v >= factor {
            if candidate.is_none() {
                candidate = Some(x);
            }
        } else {
            candidate = None;
        }
    }
    candidate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(name: &str, pts: &[(f64, f64)]) -> Series {
        let mut s = Series::new(name);
        for &(x, y) in pts {
            s.push(x, y);
        }
        s
    }

    #[test]
    fn speedup_is_pointwise_ratio() {
        let a = series("a", &[(1.0, 200.0), (2.0, 300.0), (3.0, 400.0)]);
        let b = series("b", &[(1.0, 100.0), (2.0, 100.0)]);
        let s = speedup_series(&a, &b);
        assert_eq!(s.points, vec![(1.0, 2.0), (2.0, 3.0)]);
    }

    #[test]
    fn zero_baseline_points_are_skipped() {
        let a = series("a", &[(1.0, 200.0)]);
        let b = series("b", &[(1.0, 0.0)]);
        assert!(speedup_series(&a, &b).points.is_empty());
    }

    #[test]
    fn mean_speedup_above_filters_by_x() {
        let a = series("a", &[(1.0, 100.0), (10.0, 300.0), (20.0, 300.0)]);
        let b = series("b", &[(1.0, 100.0), (10.0, 100.0), (20.0, 150.0)]);
        let m = mean_speedup_above(&a, &b, 5.0).unwrap();
        assert!((m - 2.5).abs() < 1e-9);
        assert!(mean_speedup_above(&a, &b, 100.0).is_none());
    }

    #[test]
    fn crossover_finds_sustained_advantage() {
        let a = series(
            "with",
            &[
                (1.0, 100.0),
                (2.0, 110.0),
                (4.0, 300.0),
                (8.0, 280.0),
                (16.0, 250.0),
            ],
        );
        let b = series(
            "without",
            &[
                (1.0, 100.0),
                (2.0, 100.0),
                (4.0, 120.0),
                (8.0, 100.0),
                (16.0, 100.0),
            ],
        );
        assert_eq!(crossover(&a, &b, 2.0), Some(4.0));
        // A transient advantage that later disappears is not a crossover.
        let c = series(
            "flaky",
            &[
                (1.0, 300.0),
                (2.0, 90.0),
                (4.0, 90.0),
                (8.0, 90.0),
                (16.0, 90.0),
            ],
        );
        assert_eq!(crossover(&c, &b, 2.0), None);
        // Never exceeding the factor gives no crossover.
        assert_eq!(crossover(&b, &a, 2.0), None);
    }
}
