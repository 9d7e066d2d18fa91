//! Percentiles that state their sample count and refuse to report a tail
//! the sample cannot support.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read off a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile asked for, in `(0, 100)`.
    pub percent: f64,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples the value was read from.
    pub samples: usize,
    /// Number of samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The `percent`-th percentile of `values` by nearest rank: the value at
/// rank `ceil(percent / 100 × n)` of the sorted sample.
///
/// # Errors
///
/// When `percent` is outside `(0, 100)`, or when fewer than
/// [`MIN_BEYOND`] samples lie beyond the rank (the sample cannot show
/// that tail).
pub fn percentile(values: &[f64], percent: f64) -> Result<Quantile, String> {
    if !(percent > 0.0 && percent < 100.0) {
        return Err(format!("percentile {percent} is outside (0, 100)"));
    }
    let n = values.len();
    let rank = ((percent / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{percent} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Quantile {
        percent,
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median of a non-empty sample (mean of the middle pair when even).
/// Used for small repeated measurements, where no tail is reported.
///
/// # Panics
///
/// On an empty sample, which is a bug in the caller.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn reports_value_and_sample_count() {
        let q = percentile(&ramp(1000), 50.0).expect("p50 of 1000");
        assert_eq!(q.value, 500.0);
        assert_eq!(q.samples, 1000);
        assert_eq!(q.beyond, 500);
        let q = percentile(&ramp(1000), 99.0).expect("p99 of 1000");
        assert_eq!(q.value, 990.0);
        assert_eq!(q.beyond, 10);
    }

    #[test]
    fn refuses_a_tail_with_fewer_than_ten_beyond() {
        let err = percentile(&ramp(999), 99.0).expect_err("9 beyond p99");
        assert!(err.contains("9 beyond"), "{err}");
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&ramp(20), 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&ramp(5000), 100.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
