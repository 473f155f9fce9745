//! Cross-campaign comparison statistics.
//!
//! The paper's argument is comparative — LR-Seluge vs Seluge completion
//! time, traffic, and energy across loss rates — and so is every
//! regression question the campaign engine raises: "did this campaign's
//! cell get better or worse than that one's?" This module holds the
//! statistical machinery the `campdiff` tool answers that with:
//!
//! * [`SampleStats`] — the (n, mean, variance) summary a group of runs
//!   reduces to. Obtainable from a [`Summary`] of the samples
//!   ([`Summary::sample_stats`]) or reconstructed from a rendered
//!   report's `(n, mean, ci95)` triple ([`SampleStats::from_ci95`],
//!   which inverts the same t-table [`Summary::of`] used).
//! * [`welch_t`] — Welch's unequal-variance t-test with the
//!   Welch–Satterthwaite degrees of freedom and an exact two-sided
//!   p-value via the regularized incomplete beta function. Welch (not
//!   pooled Student) because campaigns routinely compare mismatched
//!   seed counts and loss regimes with very different spreads.
//! * [`cohens_d`] — pooled-SD effect size, so a "significant" verdict
//!   on a million-seed campaign can still be called trivially small.
//! * [`ci95_overlap`] — the conservative interval-overlap check the
//!   ROADMAP asked for; reported alongside the t-test verdict.
//! * [`benjamini_hochberg`] — false-discovery-rate control across the
//!   cells × metrics comparison grid, so a 96-way diff at α = 0.05
//!   doesn't cry wolf on ~5 cells every run.
//!
//! Everything is a pure function of its inputs; the property suite
//! (`tests/compare_props.rs`) pins each piece against an exact
//! reference computation — closed-form t CDFs at df ∈ {1, 2}, numeric
//! integration of the beta density, brute-force BH, two-pass moments.

use crate::summary::{t95, Summary};

/// Summary statistics of one sample group: the sufficient statistics
/// for every comparison in this module.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleStats {
    /// Number of (finite) observations.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample variance (n − 1 denominator).
    pub var: f64,
}

impl SampleStats {
    /// Reconstructs the summary from a rendered report's `(n, mean,
    /// ci95)` triple by inverting `ci95 = t·sd/√n` through the same
    /// t-table the CI was computed with, so the round trip
    /// summary → report → `from_ci95` recovers the variance exactly up
    /// to float rounding. For `n < 2` the CI carries no spread
    /// information; the variance is recorded as 0.
    pub fn from_ci95(n: u64, mean: f64, ci95: f64) -> SampleStats {
        let var = if n < 2 {
            0.0
        } else {
            let sd = ci95 * (n as f64).sqrt() / t95(n as usize - 1);
            sd * sd
        };
        SampleStats { n, mean, var }
    }

    /// The 95 % confidence half-width this summary renders as
    /// (0 for n < 2) — the forward direction of
    /// [`from_ci95`](Self::from_ci95).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            t95(self.n as usize - 1) * self.var.sqrt() / (self.n as f64).sqrt()
        }
    }
}

impl Summary {
    /// This summary as comparison-ready sample statistics.
    pub fn sample_stats(&self) -> SampleStats {
        SampleStats {
            n: self.n as u64,
            mean: self.mean,
            var: self.sd * self.sd,
        }
    }
}

/// Result of one Welch two-sample t-test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WelchTest {
    /// The t statistic, `(mean_a − mean_b) / √(va/na + vb/nb)`.
    /// `±∞` when both variances are zero but the means differ.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value for the null hypothesis of equal means.
    pub p: f64,
}

/// Welch's unequal-variance t-test on two summarized groups.
///
/// Returns `None` when either group has fewer than two observations —
/// with n < 2 there is no variance estimate and no test. Two groups
/// with zero variance (constant metrics are common: `completed` is
/// 1.0 across every seed of a healthy cell) degenerate gracefully:
/// equal means give `p = 1`, different means give `p = 0` — a constant
/// that moved is a certain difference, not a statistical one.
pub fn welch_t(a: SampleStats, b: SampleStats) -> Option<WelchTest> {
    if a.n < 2 || b.n < 2 {
        return None;
    }
    let (na, nb) = (a.n as f64, b.n as f64);
    let sea = a.var / na;
    let seb = b.var / nb;
    let se2 = sea + seb;
    if se2 == 0.0 {
        return Some(if a.mean == b.mean {
            WelchTest {
                t: 0.0,
                df: na + nb - 2.0,
                p: 1.0,
            }
        } else {
            WelchTest {
                t: (a.mean - b.mean).signum() * f64::INFINITY,
                df: na + nb - 2.0,
                p: 0.0,
            }
        });
    }
    let t = (a.mean - b.mean) / se2.sqrt();
    let df = se2 * se2 / (sea * sea / (na - 1.0) + seb * seb / (nb - 1.0));
    Some(WelchTest {
        t,
        df,
        p: student_t_two_sided_p(t, df),
    })
}

/// Cohen's d effect size with the pooled standard deviation.
///
/// Zero pooled spread degenerates like [`welch_t`]: equal means give
/// `0.0`, different means `±∞`. Returns `None` below two observations
/// per group.
pub fn cohens_d(a: SampleStats, b: SampleStats) -> Option<f64> {
    if a.n < 2 || b.n < 2 {
        return None;
    }
    let (na, nb) = (a.n as f64, b.n as f64);
    let pooled = ((na - 1.0) * a.var + (nb - 1.0) * b.var) / (na + nb - 2.0);
    let diff = a.mean - b.mean;
    Some(if pooled == 0.0 {
        if diff == 0.0 {
            0.0
        } else {
            diff.signum() * f64::INFINITY
        }
    } else {
        diff / pooled.sqrt()
    })
}

/// Whether the two groups' 95 % confidence intervals for the mean
/// overlap — the conservative "could these be the same?" eyeball test,
/// reported alongside the t-test verdict. Degenerate intervals
/// (n < 2, zero half-width) overlap only if the means coincide.
pub fn ci95_overlap(a: SampleStats, b: SampleStats) -> bool {
    (a.mean - b.mean).abs() <= a.ci95() + b.ci95()
}

/// Benjamini–Hochberg step-up procedure at false-discovery rate
/// `alpha`: returns, for each input p-value in order, whether its null
/// hypothesis is rejected.
///
/// Sorting ties is stable on the original index, and the decision rule
/// is the classical one — find the largest rank k (1-based, ascending
/// p) with `p(k) ≤ α·k/m`, reject exactly the k smallest p-values.
/// Non-finite p-values (untestable comparisons) are never rejected and
/// do not count toward m.
pub fn benjamini_hochberg(pvalues: &[f64], alpha: f64) -> Vec<bool> {
    let mut order: Vec<usize> = (0..pvalues.len())
        .filter(|&i| pvalues[i].is_finite())
        .collect();
    order.sort_by(|&i, &j| pvalues[i].total_cmp(&pvalues[j]));
    let m = order.len() as f64;
    let mut cutoff_rank = 0;
    for (rank, &i) in order.iter().enumerate() {
        if pvalues[i] <= alpha * (rank + 1) as f64 / m {
            cutoff_rank = rank + 1;
        }
    }
    let mut reject = vec![false; pvalues.len()];
    for &i in &order[..cutoff_rank] {
        reject[i] = true;
    }
    reject
}

/// Benjamini–Hochberg adjusted p-values (q-values): `q(k) = min_{j ≥ k}
/// p(j)·m/j`, clamped to 1. A comparison is rejected at FDR α exactly
/// when its q-value is ≤ α, so reports can print one number instead of
/// a verdict per α. Non-finite inputs pass through unchanged.
pub fn bh_adjusted_p(pvalues: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..pvalues.len())
        .filter(|&i| pvalues[i].is_finite())
        .collect();
    order.sort_by(|&i, &j| pvalues[i].total_cmp(&pvalues[j]));
    let m = order.len() as f64;
    let mut out = pvalues.to_vec();
    let mut running_min = f64::INFINITY;
    for (rank, &i) in order.iter().enumerate().rev() {
        let q = (pvalues[i] * m / (rank + 1) as f64).min(1.0);
        running_min = running_min.min(q);
        out[i] = running_min;
    }
    out
}

/// Two-sided p-value of the Student t distribution: `P(|T_df| ≥ |t|)`,
/// computed exactly as `I_{df/(df+t²)}(df/2, 1/2)` with the regularized
/// incomplete beta function.
pub fn student_t_two_sided_p(t: f64, df: f64) -> f64 {
    if !t.is_finite() {
        return if t.is_nan() { f64::NAN } else { 0.0 };
    }
    if df <= 0.0 {
        return f64::NAN;
    }
    reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))
}

/// CDF of the Student t distribution with `df` degrees of freedom.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    let p = student_t_two_sided_p(t, df);
    if t >= 0.0 {
        1.0 - p / 2.0
    } else {
        p / 2.0
    }
}

/// Natural log of the gamma function (Lanczos approximation, g = 7,
/// n = 9 — accurate to ~1e-13 over the positive reals).
// The coefficients are quoted verbatim from the published g=7 Lanczos
// table; trimming digits would silently change the approximant.
#[allow(clippy::excessive_precision)]
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 8] = [
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection for the small-argument half.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = 0.99999999999980993;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` via the standard
/// continued fraction (modified Lentz), with the symmetry split that
/// keeps the fraction in its fast-converging region.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x.is_nan() || x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued-fraction kernel of the incomplete beta function.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    const EPS: f64 = 3e-16;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..200 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(samples: &[f64]) -> SampleStats {
        Summary::of(samples).sample_stats()
    }

    #[test]
    fn welch_identical_groups_is_certainly_null() {
        let a = stats(&[1.0, 2.0, 3.0, 4.0]);
        let r = welch_t(a, a).expect("testable");
        assert_eq!(r.t, 0.0);
        assert_eq!(r.p, 1.0);
    }

    #[test]
    fn welch_textbook_equal_n() {
        // Equal n and equal variance: Welch coincides with Student.
        let a = stats(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = stats(&[2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = welch_t(a, b).expect("testable");
        assert!((r.t - (-1.0)).abs() < 1e-12, "{}", r.t);
        assert!((r.df - 8.0).abs() < 1e-9, "{}", r.df);
        // p = P(|T_8| >= 1) = 0.34659... (known value).
        assert!((r.p - 0.34659350708733416).abs() < 1e-9, "{}", r.p);
    }

    #[test]
    fn welch_zero_variance_degenerates_sensibly() {
        let a = stats(&[5.0, 5.0, 5.0]);
        let moved = stats(&[6.0, 6.0, 6.0]);
        assert_eq!(welch_t(a, a).map(|r| r.p), Some(1.0));
        let r = welch_t(a, moved).expect("testable");
        assert_eq!(r.p, 0.0);
        assert!(r.t.is_infinite() && r.t < 0.0);
        assert_eq!(cohens_d(a, moved), Some(f64::NEG_INFINITY));
        assert_eq!(cohens_d(a, a), Some(0.0));
    }

    #[test]
    fn welch_requires_two_observations_per_group() {
        let one = SampleStats {
            n: 1,
            mean: 3.0,
            var: 0.0,
        };
        let many = stats(&[1.0, 2.0, 3.0]);
        assert_eq!(welch_t(one, many), None);
        assert_eq!(welch_t(many, one), None);
        assert_eq!(cohens_d(one, many), None);
    }

    #[test]
    fn ci95_round_trips_through_from_ci95() {
        let a = stats(&[3.0, 7.0, 1.0, 9.0, 4.5]);
        let rebuilt = SampleStats::from_ci95(a.n, a.mean, a.ci95());
        assert!((rebuilt.var - a.var).abs() < 1e-12 * a.var.max(1.0));
        assert_eq!(rebuilt.n, a.n);
        assert_eq!(rebuilt.mean, a.mean);
    }

    #[test]
    fn ci_overlap_matches_interval_arithmetic() {
        let a = SampleStats::from_ci95(5, 10.0, 1.0);
        let near = SampleStats::from_ci95(5, 11.5, 1.0);
        let far = SampleStats::from_ci95(5, 12.5, 1.0);
        assert!(ci95_overlap(a, near));
        assert!(!ci95_overlap(a, far));
    }

    #[test]
    fn bh_rejects_the_classic_example() {
        // Benjamini & Hochberg (1995), the 15-p-value worked example at
        // FDR 0.05: exactly the 4 smallest are rejected.
        let p = [
            0.0001, 0.0004, 0.0019, 0.0095, 0.0201, 0.0278, 0.0298, 0.0344, 0.0459, 0.3240, 0.4262,
            0.5719, 0.6528, 0.7590, 1.0000,
        ];
        let reject = benjamini_hochberg(&p, 0.05);
        assert_eq!(reject.iter().filter(|&&r| r).count(), 4);
        assert!(reject[..4].iter().all(|&r| r));
        let q = bh_adjusted_p(&p);
        for (i, (&pi, &qi)) in p.iter().zip(&q).enumerate() {
            assert!(qi >= pi, "q >= p at {i}");
            assert_eq!(qi <= 0.05, reject[i], "q-value agrees with verdict at {i}");
        }
    }

    #[test]
    fn bh_ignores_non_finite_pvalues() {
        let p = [0.001, f64::NAN, 0.9];
        let reject = benjamini_hochberg(&p, 0.05);
        assert_eq!(reject, vec![true, false, false]);
        let q = bh_adjusted_p(&p);
        assert!(q[1].is_nan());
    }

    #[test]
    fn t_cdf_is_symmetric_and_monotone() {
        for df in [1.0, 2.0, 5.0, 30.0, 120.0] {
            assert!((student_t_cdf(0.0, df) - 0.5).abs() < 1e-12);
            let mut last = 0.0;
            for i in -40..=40 {
                let t = i as f64 / 4.0;
                let c = student_t_cdf(t, df);
                assert!(c >= last - 1e-12, "monotone at t={t}, df={df}");
                let sym = student_t_cdf(-t, df);
                assert!((c + sym - 1.0).abs() < 1e-12, "symmetry at t={t}, df={df}");
                last = c;
            }
        }
    }

    #[test]
    fn ln_gamma_hits_exact_values() {
        // Γ(n) = (n−1)!, Γ(1/2) = √π.
        let mut fact = 1.0f64;
        for n in 1..=10u32 {
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-11,
                "ln_gamma({n})"
            );
            fact *= n as f64;
        }
        let half = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - half).abs() < 1e-12);
    }
}
