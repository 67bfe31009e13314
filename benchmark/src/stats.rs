//! Order statistics, and the rule for which percentile a sample supports.

/// Percentiles the benchmark may report, lowest first.
pub const PERCENTILES: [u32; 4] = [50, 90, 95, 99];

/// How many samples must lie beyond a percentile before it is reported.
const TAIL_SAMPLES: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-th percentile (`0..=100`) by linear interpolation between the
/// two nearest ranks. `NaN` for an empty sample.
pub fn percentile(samples: &[f64], q: u32) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = f64::from(q) / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50)
}

/// Whether `n` samples leave at least ten beyond the `q`-th percentile.
/// The median is always reported; it is the fallback, not a tail.
pub fn supports(n: usize, q: u32) -> bool {
    q == 50 || n * (100 - q as usize) >= TAIL_SAMPLES * 100
}

/// The highest of [`PERCENTILES`] that `n` samples support.
pub fn highest_supported(n: usize) -> u32 {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&q| supports(n, q))
        .unwrap_or(50)
}

/// The tail percentile `q` if the sample supports it, else `None`.
pub fn tail(samples: &[f64], q: u32) -> Option<f64> {
    supports(samples.len(), q).then(|| percentile(samples, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn no_tail_percentile_with_fewer_than_ten_samples_beyond_it() {
        // p90 needs 100 samples, p95 200, p99 1000
        for (q, need) in [(90u32, 100usize), (95, 200), (99, 1000)] {
            assert!(!supports(need - 1, q), "p{q} at n={}", need - 1);
            assert!(supports(need, q), "p{q} at n={need}");
        }
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&few, 90), None);
        assert_eq!(highest_supported(few.len()), 50);
        let many: Vec<f64> = (0..1008).map(f64::from).collect();
        assert_eq!(highest_supported(many.len()), 99);
        assert!(tail(&many, 99).is_some());
        assert_eq!(highest_supported(150), 90);
        assert_eq!(highest_supported(0), 50);
    }
}
