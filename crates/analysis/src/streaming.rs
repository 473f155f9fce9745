//! Streaming (single-pass, constant-memory) statistics for
//! Monte-Carlo campaigns.
//!
//! A campaign over a parameter grid runs `cells × seeds` simulations;
//! buffering every per-seed sample to compute cell statistics at the
//! end costs O(runs) memory, which caps how many deployments a fleet
//! can aggregate. This module provides the O(1)-per-cell estimators the
//! campaign engine folds each finished run into instead:
//!
//! * [`Welford`] — online mean and variance (Welford 1962). Exact up to
//!   floating-point rounding and numerically better conditioned than
//!   the naive sum-of-squares formula.
//! * [`P2Quantile`] — the P² quantile estimator (Jain & Chlamtac 1985):
//!   five markers track one quantile of an unbounded stream. Exact
//!   (linear interpolation over the sorted observations) up to five
//!   samples, approximate beyond.
//! * [`StreamingSummary`] — the bundle a campaign keeps per (cell ×
//!   metric): mean, variance, 95 % CI, p50, and p95.
//!
//! Every estimator is a pure fold over `f64` in insertion order —
//! feeding the same samples in the same order reproduces bit-identical
//! state, which is what lets the campaign engine promise bit-identical
//! reports across thread counts and across crash/resume (it applies
//! results in canonical job order regardless of completion order).
//!
//! Non-finite samples (a stalled run reports `NaN` latency) are counted
//! but excluded from the statistics, mirroring the batch
//! `summarize` policy of the bench crate.

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

/// Online mean/variance accumulator (Welford's algorithm).
///
/// State is three words; `push` is a deterministic fold, so two
/// accumulators fed the same sequence hold bit-identical state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Welford {
    n: u64,
    skipped: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Folds one sample in. Non-finite samples are counted in
    /// [`skipped`](Self::skipped) and otherwise ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.skipped += 1;
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of finite samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of non-finite samples skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Sample mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample variance with the n − 1 denominator (0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation (0 for n < 2).
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the 95 % confidence interval for the mean
    /// (`t · sd / √n`; 0 for n < 2).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            t95(self.n as usize - 1) * self.sd() / (self.n as f64).sqrt()
        }
    }
}

/// P² single-quantile estimator: five markers, O(1) memory, one pass.
///
/// Markers sit at the stream minimum, the q/2, q, and (1+q)/2
/// quantiles, and the maximum; each new sample shifts marker positions
/// toward their desired ranks with a piecewise-parabolic height
/// adjustment. Up to five samples the estimate is exact (linear
/// interpolation over the sorted buffer, the `numpy` type-7
/// convention); beyond that it is approximate — the streaming-vs-batch
/// property suite pins the rank error within
/// [`P2_RANK_TOLERANCE`] on random
/// well-behaved streams.
#[derive(Clone, Debug, PartialEq)]
pub struct P2Quantile {
    q: f64,
    /// Finite samples seen. Below 5, `heights[..n]` is a sorted buffer.
    n: u64,
    skipped: u64,
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks; integers stored in f64).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
}

/// Documented rank tolerance of the P² estimator on the random streams
/// the property suite generates: the estimate's rank in the sorted
/// batch stays within `±P2_RANK_TOLERANCE · n` of the target rank.
pub const P2_RANK_TOLERANCE: f64 = 0.12;

impl P2Quantile {
    /// An estimator for quantile `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile {q} out of (0, 1)");
        P2Quantile {
            q,
            n: 0,
            skipped: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [0.0; 5],
        }
    }

    /// The quantile this estimator tracks.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of finite samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of non-finite samples skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Folds one sample in. Non-finite samples are counted and ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.skipped += 1;
            return;
        }
        if self.n < 5 {
            // Initialization phase: keep a sorted buffer of the first
            // five observations, which become the marker heights.
            let mut i = self.n as usize;
            self.heights[i] = x;
            while i > 0 && self.heights[i - 1] > self.heights[i] {
                self.heights.swap(i - 1, i);
                i -= 1;
            }
            self.n += 1;
            if self.n == 5 {
                let q = self.q;
                self.desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0];
            }
            return;
        }
        self.n += 1;
        // Locate the cell and clamp the extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // heights[k] <= x < heights[k+1]
            (1..4).find(|&i| x < self.heights[i]).unwrap_or(4) - 1
        };
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        let q = self.q;
        let increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0];
        for (desired, inc) in self.desired.iter_mut().zip(increments) {
            *desired += inc;
        }
        // Nudge the three interior markers toward their desired ranks.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                let new_h = if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                    parabolic
                } else {
                    self.linear(i, d)
                };
                self.heights[i] = new_h;
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let h = &self.heights;
        let p = &self.positions;
        h[i] + d / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate of the tracked quantile (`NaN` when empty).
    pub fn estimate(&self) -> f64 {
        let n = self.n as usize;
        if n == 0 {
            return f64::NAN;
        }
        if n < 5 {
            // Exact: linear interpolation at rank q·(n−1) over the
            // sorted buffer (numpy type-7 convention).
            let sorted = &self.heights[..n];
            let pos = self.q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
        }
        self.heights[2]
    }
}

/// Streaming min/max tracker with the same NaN-skipping policy as
/// [`Welford`]. Unlike P², the extrema of a stream are exact and
/// order-independent, so this fold agrees bit-for-bit with a batch
/// `min`/`max` over the finite samples in any order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Extrema {
    n: u64,
    skipped: u64,
    min: f64,
    max: f64,
}

impl Extrema {
    /// An empty tracker.
    pub fn new() -> Self {
        Extrema::default()
    }

    /// Folds one sample in. Non-finite samples are counted in
    /// [`skipped`](Self::skipped) and otherwise ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.skipped += 1;
            return;
        }
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
    }

    /// Number of finite samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of non-finite samples skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Smallest finite sample (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest finite sample (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// The per-(cell × metric) streaming state a campaign keeps: mean,
/// variance, 95 % CI, median, 95th percentile, and exact extrema, in
/// O(1) memory.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamingSummary {
    /// Online mean/variance.
    pub moments: Welford,
    /// Median estimator.
    pub p50: P2Quantile,
    /// 95th-percentile estimator.
    pub p95: P2Quantile,
    /// Exact min/max — the degradation report's worst-case column.
    pub extrema: Extrema,
}

impl StreamingSummary {
    /// An empty summary.
    pub fn new() -> Self {
        StreamingSummary {
            moments: Welford::new(),
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            extrema: Extrema::new(),
        }
    }

    /// Folds one sample into all four estimators.
    pub fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.p50.push(x);
        self.p95.push(x);
        self.extrema.push(x);
    }

    /// Number of finite samples folded in.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }
}

impl Default for StreamingSummary {
    fn default() -> Self {
        StreamingSummary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
    }

    #[test]
    fn welford_matches_hand_computation() {
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 5);
        assert_eq!(w.mean(), 3.0);
        assert!((w.variance() - 2.5).abs() < 1e-12);
        let want = t95(4) * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((w.ci95() - want).abs() < 1e-12);
    }

    #[test]
    fn welford_skips_non_finite() {
        let mut w = Welford::new();
        w.push(2.0);
        w.push(f64::NAN);
        w.push(4.0);
        w.push(f64::INFINITY);
        assert_eq!(w.count(), 2);
        assert_eq!(w.skipped(), 2);
        assert_eq!(w.mean(), 3.0);
    }

    #[test]
    fn welford_empty_and_singleton() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert_eq!(w.ci95(), 0.0);
        let mut w = Welford::new();
        w.push(7.5);
        assert_eq!(w.mean(), 7.5);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn p2_is_exact_below_five_samples() {
        let mut p = P2Quantile::new(0.5);
        assert!(p.estimate().is_nan());
        for (i, x) in [9.0, 1.0, 5.0, 3.0].iter().enumerate() {
            p.push(*x);
            let mut sorted: Vec<f64> = [9.0, 1.0, 5.0, 3.0][..=i].to_vec();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(p.estimate(), exact_quantile(&sorted, 0.5), "after {i}");
        }
    }

    #[test]
    fn p2_median_of_uniform_ramp() {
        let mut p = P2Quantile::new(0.5);
        for i in 0..1001 {
            p.push(i as f64);
        }
        // Exact median is 500; P² should be extremely close on a ramp.
        assert!((p.estimate() - 500.0).abs() < 5.0, "{}", p.estimate());
    }

    #[test]
    fn p2_p95_of_uniform_ramp() {
        let mut p = P2Quantile::new(0.95);
        for i in 0..1001 {
            p.push(i as f64);
        }
        assert!((p.estimate() - 950.0).abs() < 15.0, "{}", p.estimate());
    }

    #[test]
    fn p2_tracks_jain_chlamtac_worked_example() {
        // The 20-observation data set from the original P² paper,
        // tracking the median.
        let data = [
            0.02, 0.15, 0.74, 3.39, 0.83, 22.37, 10.15, 15.43, 38.62, 15.92, 34.60, 10.28, 1.47,
            0.40, 0.05, 11.39, 0.27, 0.42, 0.09, 11.37,
        ];
        let mut p = P2Quantile::new(0.5);
        for x in data {
            p.push(x);
        }
        // The paper reports 4.44 as the final median estimate.
        assert!((p.estimate() - 4.44).abs() < 0.01, "{}", p.estimate());
    }

    #[test]
    fn p2_skips_non_finite() {
        let mut p = P2Quantile::new(0.5);
        for x in [1.0, f64::NAN, 2.0, 3.0, f64::NEG_INFINITY] {
            p.push(x);
        }
        assert_eq!(p.count(), 3);
        assert_eq!(p.skipped(), 2);
        assert_eq!(p.estimate(), 2.0);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1)")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn extrema_track_exact_bounds_and_skip_non_finite() {
        let mut e = Extrema::new();
        assert!(e.min().is_nan() && e.max().is_nan());
        for x in [3.0, f64::NAN, -1.5, 3.0, f64::INFINITY, 0.0] {
            e.push(x);
        }
        assert_eq!(e.count(), 4);
        assert_eq!(e.skipped(), 2);
        assert_eq!(e.min(), -1.5);
        assert_eq!(e.max(), 3.0);
        // A singleton stream has min == max.
        let mut s = Extrema::new();
        s.push(-7.25);
        assert_eq!((s.min(), s.max()), (-7.25, -7.25));
    }

    #[test]
    fn determinism_same_sequence_same_bits() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37 % 101) as f64).sqrt()).collect();
        let mut a = StreamingSummary::new();
        let mut b = StreamingSummary::new();
        for &x in &xs {
            a.push(x);
            b.push(x);
        }
        assert_eq!(a, b);
        assert_eq!(a.moments.mean().to_bits(), b.moments.mean().to_bits());
        assert_eq!(a.p95.estimate().to_bits(), b.p95.estimate().to_bits());
    }
}
