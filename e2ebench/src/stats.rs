//! Order statistics over timing samples.

/// Sorted copy of `xs` (total order; NaN never occurs in timings).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for even counts.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail the benchmark reports: the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples above it. Returns `(percentile,
/// value)`; with fewer than `TAIL_BEYOND + 1` samples no such percentile
/// exists and the maximum is returned as the 100th percentile.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (100.0, v[n - 1]);
    }
    let i = n - 1 - TAIL_BEYOND;
    (100.0 * (i + 1) as f64 / n as f64, v[i])
}

/// Samples a reported tail must leave above itself.
pub const TAIL_BEYOND: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = tail(&xs);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        // Too few samples for any percentile: the maximum, as p100.
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (100.0, 5.0));
    }
}
