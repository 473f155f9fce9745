//! Sample statistics for statistically honest experiment outputs.
//!
//! The paper's figures are Monte-Carlo means; reporting a mean without
//! its uncertainty hides whether two curves actually differ. Every
//! result file therefore carries, per metric, the raw per-seed samples,
//! the sample mean, and a 95 % confidence interval computed from the
//! Student t distribution (the seed counts are small, so the normal
//! approximation would understate the interval), the one table in
//! [`lrs_analysis::streaming::t95`].

use lrs_analysis::streaming::t95;

/// Mean, spread, and a 95 % confidence half-width for one metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of finite samples the statistics are computed over.
    pub n: usize,
    /// Sample mean (NaN when no finite samples exist).
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n < 2).
    pub sd: f64,
    /// Half-width of the 95 % confidence interval for the mean
    /// (`t · sd / √n`; 0 for n < 2).
    pub ci95: f64,
}

/// Summarizes `samples`, ignoring non-finite entries (a stalled run
/// reports `NaN` latency; it must not poison the mean of the runs that
/// did complete — completion rate is tracked as its own metric).
pub fn summarize(samples: &[f64]) -> Summary {
    let finite: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    let n = finite.len();
    if n == 0 {
        return Summary {
            n: 0,
            mean: f64::NAN,
            sd: 0.0,
            ci95: 0.0,
        };
    }
    let mean = finite.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return Summary {
            n,
            mean,
            sd: 0.0,
            ci95: 0.0,
        };
    }
    let var = finite.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
    let sd = var.sqrt();
    let ci95 = t95(n - 1) * sd / (n as f64).sqrt();
    Summary { n, mean, sd, ci95 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_samples_have_zero_spread() {
        let s = summarize(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn known_example() {
        // Samples 1..=5: mean 3, sd sqrt(2.5), t(4) = 2.776.
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mean, 3.0);
        assert!((s.sd - 2.5f64.sqrt()).abs() < 1e-12);
        let want = 2.776 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((s.ci95 - want).abs() < 1e-9, "{} vs {want}", s.ci95);
    }

    #[test]
    fn nan_samples_are_ignored() {
        let s = summarize(&[2.0, f64::NAN, 4.0, f64::INFINITY]);
        assert_eq!(s.n, 2);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(summarize(&[]).mean.is_nan());
        let s = summarize(&[7.5]);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn wider_df_narrows_interval() {
        // Same spread, more samples → smaller CI.
        let few: Vec<f64> = (0..4).map(|i| (i % 2) as f64).collect();
        let many: Vec<f64> = (0..30).map(|i| (i % 2) as f64).collect();
        assert!(summarize(&many).ci95 < summarize(&few).ci95);
    }

    #[test]
    fn t_table_monotone_toward_normal() {
        // The shared table covers df 1..=30, then the normal value.
        for df in 1..=30 {
            assert!(t95(df) > t95(df + 1));
        }
        assert_eq!(t95(1000), 1.96);
        assert!(t95(0).is_nan());
    }
}
