//! Order statistics for repetition timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), because that is what the driver's acceptance
//! check computes over ten runs; the benchmark's own `--check-repeat`
//! must agree with it.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, exclusive method (`(n + 1) * p` rank with
/// linear interpolation between, or extrapolation from, the two nearest
/// samples). With a single sample both quartiles are that sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    (exclusive_rank(&v, 0.25), exclusive_rank(&v, 0.75))
}

/// Interquartile range as a share of the median: the spread figure the
/// driver compares against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the candidate percentiles (descending, e.g.
/// `[99, 95, 90]`) that still has at least ten samples beyond it; `None`
/// when even the lowest candidate does not.
pub fn highest_supported_percentile(samples: usize, candidates: &[u32]) -> Option<u32> {
    candidates
        .iter()
        .copied()
        .find(|&p| samples_beyond(samples, p) >= 10)
}

/// Samples strictly above the nearest-rank percentile position.
pub fn samples_beyond(samples: usize, p: u32) -> usize {
    let rank = ((f64::from(p) / 100.0) * samples as f64).ceil() as usize;
    samples.saturating_sub(rank.clamp(1, samples.max(1)))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn exclusive_rank(v: &[f64], p: f64) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = (n as f64 + 1.0) * p;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = pos - j as f64;
    v[j - 1] + delta * (v[j] - v[j - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0], 95.0), 9.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 100 samples: p95 leaves 5 beyond, p90 leaves exactly 10.
        assert_eq!(samples_beyond(100, 95), 5);
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(highest_supported_percentile(100, &[99, 95, 90]), Some(90));
        // 200 samples support p95; 1000 support p99.
        assert_eq!(highest_supported_percentile(200, &[99, 95, 90]), Some(95));
        assert_eq!(highest_supported_percentile(1000, &[99, 95, 90]), Some(99));
        // Too few samples for any tail percentile.
        assert_eq!(highest_supported_percentile(50, &[99, 95, 90]), None);
    }
}
