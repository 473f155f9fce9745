//! The one summary of a set of Monte-Carlo runs.
//!
//! Every number the paper reports (§VI) is a mean over seeds, and a mean
//! without its uncertainty hides whether two curves actually differ.
//! [`Summary::of`] turns one metric's per-seed samples into what every
//! results file and campaign report carries: the count, the mean, the
//! standard deviation, a 95 % confidence half-width from the Student t
//! distribution (seed counts are small, so the normal approximation
//! would understate the interval), the median and 95th percentile, and
//! the extrema.
//!
//! The summary is a pure function of the slice *in its order*: the mean
//! and variance come from Welford's recurrence, whose low-order bits
//! depend on the order samples are folded in. Callers that want
//! reproducible reports hand it samples in a canonical order (seed
//! order for a sweep point, job-id order for a campaign cell).

/// Two-sided 95 % Student t critical values by degrees of freedom
/// (1..=30); beyond 30 the normal value 1.96 is close enough.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// t critical value for `df` degrees of freedom at 95 % confidence
/// (`NaN` for `df == 0`).
pub fn t95(df: usize) -> f64 {
    if df == 0 {
        f64::NAN
    } else if df <= T95.len() {
        T95[df - 1]
    } else {
        1.96
    }
}

/// Count, moments, 95 % interval, quantiles and extrema of one metric
/// over a set of runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of finite samples the statistics are computed over.
    pub n: usize,
    /// Sample mean (`NaN` with no finite sample).
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n < 2).
    pub sd: f64,
    /// Half-width of the 95 % confidence interval for the mean
    /// (`t · sd / √n`; 0 for n < 2).
    pub ci95: f64,
    /// Median (`NaN` with no finite sample).
    pub p50: f64,
    /// 95th percentile (`NaN` with no finite sample).
    pub p95: f64,
    /// Smallest finite sample (`NaN` with none).
    pub min: f64,
    /// Largest finite sample (`NaN` with none).
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`, ignoring non-finite entries: a stalled run
    /// reports `NaN` latency, and it must not poison the statistics of
    /// the runs that did complete (completion is its own metric).
    ///
    /// Mean and variance follow Welford's recurrence over the finite
    /// samples in slice order; the quantiles interpolate linearly at
    /// rank `q·(n−1)` over the sorted finite samples (numpy's type 7).
    pub fn of(samples: &[f64]) -> Summary {
        let mut finite: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        let (mut mean, mut m2) = (0.0, 0.0);
        for (i, &x) in finite.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        let n = finite.len();
        let sd = if n < 2 {
            0.0
        } else {
            (m2 / (n - 1) as f64).sqrt()
        };
        let ci95 = if n < 2 {
            0.0
        } else {
            t95(n - 1) * sd / (n as f64).sqrt()
        };
        finite.sort_by(f64::total_cmp);
        let quantile = |q: f64| {
            if n == 0 {
                return f64::NAN;
            }
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            finite[lo] + (pos - lo as f64) * (finite[hi] - finite[lo])
        };
        Summary {
            n,
            mean: if n == 0 { f64::NAN } else { mean },
            sd,
            ci95,
            p50: quantile(0.5),
            p95: quantile(0.95),
            min: finite.first().copied().unwrap_or(f64::NAN),
            max: finite.last().copied().unwrap_or(f64::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_samples_have_zero_spread() {
        let s = Summary::of(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!((s.n, s.mean, s.sd, s.ci95), (4, 5.0, 0.0, 0.0));
        assert_eq!((s.p50, s.p95, s.min, s.max), (5.0, 5.0, 5.0, 5.0));
    }

    #[test]
    fn known_example() {
        // Samples 1..=5: mean 3, sd sqrt(2.5), t(4) = 2.776.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mean, 3.0);
        assert!((s.sd - 2.5f64.sqrt()).abs() < 1e-12);
        let want = 2.776 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((s.ci95 - want).abs() < 1e-9, "{} vs {want}", s.ci95);
    }

    #[test]
    fn nan_samples_are_ignored() {
        let s = Summary::of(&[2.0, f64::NAN, 4.0, f64::INFINITY]);
        assert_eq!(s.n, 2);
        assert_eq!(s.mean, 3.0);
        assert_eq!((s.min, s.max), (2.0, 4.0));
    }

    #[test]
    fn empty_and_singleton() {
        let s = Summary::of(&[f64::NAN]);
        assert_eq!((s.n, s.sd, s.ci95), (0, 0.0, 0.0));
        for v in [s.mean, s.p50, s.p95, s.min, s.max] {
            assert!(v.is_nan());
        }
        let s = Summary::of(&[7.5]);
        assert_eq!((s.mean, s.ci95, s.p50, s.p95), (7.5, 0.0, 7.5, 7.5));
    }

    #[test]
    fn wider_df_narrows_interval() {
        // Same spread, more samples → smaller CI.
        let few: Vec<f64> = (0..4).map(|i| (i % 2) as f64).collect();
        let many: Vec<f64> = (0..30).map(|i| (i % 2) as f64).collect();
        assert!(Summary::of(&many).ci95 < Summary::of(&few).ci95);
    }

    #[test]
    fn t_table_monotone_toward_normal() {
        // The table covers df 1..=30, then the normal value.
        for df in 1..=30 {
            assert!(t95(df) > t95(df + 1));
        }
        assert_eq!(t95(1000), 1.96);
        assert!(t95(0).is_nan());
    }
}
