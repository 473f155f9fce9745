//! Property suite for the comparison statistics: every piece of
//! `lrs_analysis::compare` is pinned against an *exact, independently
//! computed* reference — numeric integration for the special functions,
//! closed-form t CDFs at df ∈ {1, 2}, two-pass batch moments for the
//! Welford recurrence of `Summary::of`, and a brute-force O(m²)
//! Benjamini–Hochberg — in the same recurrence-vs-exact style
//! `summary_props.rs` uses for the summary itself.

use lrs_analysis::compare::{ln_gamma, reg_inc_beta};
use lrs_analysis::{
    benjamini_hochberg, bh_adjusted_p, ci95_overlap, cohens_d, student_t_two_sided_p, welch_t,
    SampleStats, Summary,
};
use lrs_rng::DetRng;

/// Exact batch mean/variance (two-pass, n − 1 denominator).
fn batch_stats(samples: &[f64]) -> SampleStats {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = if samples.len() < 2 {
        0.0
    } else {
        samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
    };
    SampleStats {
        n: samples.len() as u64,
        mean,
        var,
    }
}

fn welford_stats(samples: &[f64]) -> SampleStats {
    Summary::of(samples).sample_stats()
}

/// Simpson's rule over [0, x] of the beta density — an exact-reference
/// (to integration tolerance) regularized incomplete beta.
fn inc_beta_by_integration(a: f64, b: f64, x: f64) -> f64 {
    let ln_norm = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b);
    // a, b >= 1 keeps the density finite at both endpoints (powf, not
    // ln, so t = 0 and t = 1 evaluate exactly).
    let f = |t: f64| ln_norm.exp() * t.powf(a - 1.0) * (1.0 - t).powf(b - 1.0);
    let n = 20_000;
    let h = x / n as f64;
    let mut acc = f(0.0) + f(x);
    for i in 1..n {
        let t = i as f64 * h;
        acc += f(t) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    acc * h / 3.0
}

#[test]
fn incomplete_beta_matches_numeric_integration() {
    for &(a, b) in &[(1.0, 3.0), (1.5, 2.5), (2.5, 1.0), (4.0, 4.0), (10.0, 1.5)] {
        for i in 1..10 {
            let x = i as f64 / 10.0;
            let exact = inc_beta_by_integration(a, b, x);
            let got = reg_inc_beta(a, b, x);
            assert!(
                (got - exact).abs() < 1e-6,
                "I_{x}({a},{b}): got {got}, integration {exact}"
            );
        }
    }
}

#[test]
fn t_pvalue_matches_closed_forms_at_df_1_and_2() {
    // df = 1 (Cauchy): P(|T| >= t) = 1 - (2/π)·atan(t).
    // df = 2:          P(|T| >= t) = 1 - t/√(2 + t²).
    for i in 0..=60 {
        let t = i as f64 / 4.0;
        let cauchy = 1.0 - 2.0 / std::f64::consts::PI * t.atan();
        let got1 = student_t_two_sided_p(t, 1.0);
        assert!(
            (got1 - cauchy).abs() < 1e-12,
            "df=1 t={t}: {got1} vs {cauchy}"
        );
        let df2 = 1.0 - t / (2.0 + t * t).sqrt();
        let got2 = student_t_two_sided_p(t, 2.0);
        assert!((got2 - df2).abs() < 1e-12, "df=2 t={t}: {got2} vs {df2}");
    }
}

#[test]
fn welch_on_streaming_stats_equals_welch_on_exact_batch() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_D1FF);
    for case in 0..200 {
        let na = 2 + (rng.gen_range(0u64..29)) as usize;
        let nb = 2 + (rng.gen_range(0u64..29)) as usize;
        let shift = (case % 5) as f64 * 0.7;
        let scale = 1.0 + (case % 3) as f64;
        let a: Vec<f64> = (0..na)
            .map(|_| rng.gen_range(0u64..1_000_000) as f64 / 1e6)
            .collect();
        let b: Vec<f64> = (0..nb)
            .map(|_| shift + scale * rng.gen_range(0u64..1_000_000) as f64 / 1e6)
            .collect();
        let (sa, sb) = (welford_stats(&a), welford_stats(&b));
        let (ea, eb) = (batch_stats(&a), batch_stats(&b));
        // Recurrence moments agree with the exact two-pass batch.
        assert!((sa.mean - ea.mean).abs() < 1e-12, "mean case {case}");
        assert!((sa.var - ea.var).abs() < 1e-10, "var case {case}");
        // And the tests built on them agree to float noise.
        let (ws, we) = (welch_t(sa, sb).unwrap(), welch_t(ea, eb).unwrap());
        assert!((ws.t - we.t).abs() < 1e-8, "t case {case}");
        assert!((ws.df - we.df).abs() < 1e-8, "df case {case}");
        assert!((ws.p - we.p).abs() < 1e-10, "p case {case}");
        let (ds, de) = (cohens_d(sa, sb).unwrap(), cohens_d(ea, eb).unwrap());
        assert!((ds - de).abs() < 1e-9, "d case {case}");
    }
}

#[test]
fn welch_detects_known_shift_and_spares_the_null() {
    // Two seeded uniform families: identical distribution vs a 5-sigma
    // shift. The null comparison must be insignificant, the shifted one
    // overwhelming — the campdiff verdicts rest on exactly this.
    let mut rng = DetRng::seed_from_u64(7);
    let draw = |rng: &mut DetRng, shift: f64| -> Vec<f64> {
        (0..40)
            .map(|_| shift + rng.gen_range(0u64..1000) as f64 / 1000.0)
            .collect()
    };
    let base = welford_stats(&draw(&mut rng, 0.0));
    let same = welford_stats(&draw(&mut rng, 0.0));
    let moved = welford_stats(&draw(&mut rng, 1.5));
    let null = welch_t(base, same).unwrap();
    let shifted = welch_t(base, moved).unwrap();
    assert!(null.p > 0.05, "null p = {}", null.p);
    assert!(shifted.p < 1e-9, "shifted p = {}", shifted.p);
    assert!(ci95_overlap(base, same));
    assert!(!ci95_overlap(base, moved));
    assert!(cohens_d(base, moved).unwrap().abs() > 2.0);
}

#[test]
fn from_ci95_inverts_rendered_summaries() {
    let mut rng = DetRng::seed_from_u64(99);
    for n in 2..40 {
        let samples: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0u64..10_000) as f64 / 100.0)
            .collect();
        let s = welford_stats(&samples);
        let rebuilt = SampleStats::from_ci95(s.n, s.mean, s.ci95());
        assert!(
            (rebuilt.var - s.var).abs() <= 1e-10 * s.var.max(1.0),
            "n={n}: {} vs {}",
            rebuilt.var,
            s.var
        );
        assert!((rebuilt.ci95() - s.ci95()).abs() < 1e-12);
    }
}

/// Brute-force BH reference: for each i, rejected iff there exists a
/// rank k with p_i ≤ p_(k) and p_(k) ≤ α·k/m.
fn bh_reference(p: &[f64], alpha: f64) -> Vec<bool> {
    let finite: Vec<f64> = p.iter().copied().filter(|x| x.is_finite()).collect();
    let m = finite.len() as f64;
    let mut sorted = finite.clone();
    sorted.sort_by(f64::total_cmp);
    let mut threshold = -1.0;
    for (idx, &pk) in sorted.iter().enumerate() {
        if pk <= alpha * (idx + 1) as f64 / m {
            threshold = pk;
        }
    }
    p.iter()
        .map(|&pi| pi.is_finite() && pi <= threshold)
        .collect()
}

#[test]
fn bh_matches_brute_force_on_random_vectors() {
    let mut rng = DetRng::seed_from_u64(1234);
    for case in 0..300 {
        let m = 1 + (rng.gen_range(0u64..40)) as usize;
        let p: Vec<f64> = (0..m)
            .map(|_| {
                // Mix tiny and large p-values so some cases reject.
                let u = rng.gen_range(0u64..1_000_000) as f64 / 1e6;
                if rng.gen_range(0u64..4) == 0 {
                    u / 1000.0
                } else {
                    u
                }
            })
            .collect();
        for &alpha in &[0.01, 0.05, 0.2] {
            let got = benjamini_hochberg(&p, alpha);
            let want = bh_reference(&p, alpha);
            assert_eq!(got, want, "case {case} alpha {alpha} p {p:?}");
            // Adjusted p-values encode the same verdicts.
            let q = bh_adjusted_p(&p);
            for i in 0..m {
                assert_eq!(
                    q[i] <= alpha,
                    got[i],
                    "q/verdict mismatch case {case} i {i} (q={}, alpha={alpha})",
                    q[i]
                );
            }
        }
    }
}

#[test]
fn bh_q_values_are_monotone_in_p() {
    let mut rng = DetRng::seed_from_u64(5);
    for _ in 0..50 {
        let p: Vec<f64> = (0..20)
            .map(|_| rng.gen_range(0u64..1_000_000) as f64 / 1e6)
            .collect();
        let q = bh_adjusted_p(&p);
        let mut pairs: Vec<(f64, f64)> = p.iter().copied().zip(q.iter().copied()).collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-15, "q monotone in p");
        }
        for (&pi, &qi) in p.iter().zip(&q) {
            assert!(qi >= pi - 1e-15 && qi <= 1.0);
        }
    }
}
