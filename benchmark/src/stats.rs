//! Order statistics over windows and over the round trips inside one.

/// Median, extremes and median absolute deviation of one metric over the
/// windows of a run. The median is what the benchmark reports; the other
/// three say how far single windows strayed from it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub median: f64,
    /// Smallest window.
    pub min: f64,
    /// Largest window.
    pub max: f64,
    /// Median of the windows' absolute distance from the median.
    pub mad: f64,
    /// Number of windows.
    pub n: usize,
}

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Summarizes one metric over windows.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn summarize(values: &[f64]) -> Summary {
    let med = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    Summary {
        median: med,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        mad: median(&deviations),
        n: values.len(),
    }
}

/// The `q`-quantile (nearest rank from below) of round-trip samples, in
/// place: the slice is partially reordered, not sorted.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn quantile_ns(samples: &mut [u32], q: f64) -> u32 {
    let rank = ((samples.len() as f64 * q) as usize).min(samples.len() - 1);
    *samples.select_nth_unstable(rank).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_a_skewed_set() {
        let s = summarize(&[10.0, 12.0, 11.0, 50.0, 9.0]);
        assert_eq!(s.median, 11.0);
        assert_eq!((s.min, s.max, s.n), (9.0, 50.0, 5));
        // Deviations 1, 1, 0, 39, 2: the outlier does not move the MAD.
        assert_eq!(s.mad, 1.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn quantiles_by_rank() {
        let mut v: Vec<u32> = (0..1000).rev().collect();
        assert_eq!(quantile_ns(&mut v, 0.5), 500);
        assert_eq!(quantile_ns(&mut v, 0.99), 990);
        assert_eq!(quantile_ns(&mut [7], 0.99), 7);
    }
}
