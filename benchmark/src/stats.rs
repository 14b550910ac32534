//! The few statistics the benchmark reports. Each sorts a private copy of
//! its samples, so callers keep execution order (which the simulated-time
//! sums depend on).

/// Median; the mean of the two middle samples for an even count (NaN for
/// none, which no metric may be).
pub use wimpi_core::median;

/// Mean of the largest `ceil(share × n)` samples (`share` in `0..=1`, at
/// least one sample): the tail beyond the nearest-rank `1 - share` quantile.
pub fn tail_mean(samples: &[f64], share: f64) -> f64 {
    assert!(!samples.is_empty(), "tail mean of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let k = ((share * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[v.len() - k..].iter().sum::<f64>() / k as f64
}

/// Geometric mean of strictly positive samples.
pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geomean of no samples");
    assert!(samples.iter().all(|&s| s > 0.0), "geomean needs positive samples");
    (samples.iter().map(|s| s.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// Smallest sample.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_mean_of_the_slowest_tenth() {
        // 22 ops (a pass of `tpch22_serial`): the slowest three.
        let pass: Vec<f64> = (1..=22).rev().map(f64::from).collect();
        assert_eq!(tail_mean(&pass, 0.1), 21.0);
        // Six ops (`scan_fused_t2`): the slowest one.
        assert_eq!(tail_mean(&[3.0, 9.0, 1.0, 2.0, 5.0, 4.0], 0.1), 9.0);
        // 60 requests (`wimpi24_serve`): exactly six.
        let pass: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(tail_mean(&pass, 0.1), 57.5);
        assert_eq!(tail_mean(&pass, 1.0), 30.5);
        assert_eq!(tail_mean(&[7.0], 0.0), 7.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 4.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn min_picks_the_smallest() {
        assert_eq!(min(&[3.0, 0.5, 2.0]), 0.5);
    }
}
