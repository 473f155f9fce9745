//! Property tests for [`Summary::of`], the one summary of per-seed
//! samples: its Welford moments versus an exact two-pass computation,
//! its quantiles and extrema versus a sorted brute-force reference, and
//! its treatment of non-finite samples.
//!
//! The workspace resolves dependencies offline (no proptest crate), so
//! this is the repo's hand-rolled property idiom: a seeded [`DetRng`]
//! drives many randomized cases per property, making every "random"
//! failure a fixed-seed reproducer. The generators mimic real campaign
//! metric streams — latencies (skewed positive), packet counts
//! (integer-valued, clustered), completion fractions (point masses at
//! 0/1), and mixtures.

use lrs_analysis::Summary;
use lrs_rng::DetRng;

/// One random run-metric sequence, shaped like a campaign cell's
/// per-seed samples for one metric.
fn metric_sequence(rng: &mut DetRng, len: usize) -> Vec<f64> {
    let family = rng.gen_range(0u32..5);
    let scale = 10f64.powi(rng.gen_range(0u32..7) as i32 - 2);
    let offset = if rng.gen_bool(0.5) { 0.0 } else { scale * 3.0 };
    (0..len)
        .map(|_| {
            let u: f64 = rng.gen();
            let x = match family {
                // Uniform: e.g. jittered latency.
                0 => u,
                // Exponential-ish right skew: completion latencies.
                1 => -(1.0 - u).ln(),
                // Integer-valued: packet counts.
                2 => (u * 500.0).floor(),
                // Bimodal mixture: two latency regimes.
                3 => {
                    if rng.gen_bool(0.3) {
                        u * 0.2
                    } else {
                        0.8 + u * 0.2
                    }
                }
                // Mostly-constant with occasional outliers: retry counts.
                _ => {
                    if rng.gen_bool(0.9) {
                        1.0
                    } else {
                        1.0 + u * 50.0
                    }
                }
            };
            offset + scale * x
        })
        .collect()
}

/// Relative error with an absolute floor, so near-zero exact values do
/// not blow up the ratio.
fn rel_err(got: f64, want: f64, floor: f64) -> f64 {
    (got - want).abs() / want.abs().max(floor)
}

/// The type-7 quantile of an already sorted, non-empty slice.
fn type7(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The recurrence's mean and variance agree with the exact two-pass
/// computation to within 1e-12 relative, across scales and shapes, at
/// the sample counts sweeps and campaigns use. The variance's floor,
/// 1e-12 of the squared mean, covers constant streams, whose two-pass
/// variance is the rounding noise of the two-pass mean.
#[test]
fn moments_match_two_pass_reference() {
    let mut rng = DetRng::seed_from_u64(0x57E1_F04D);
    for case in 0..500 {
        let len = rng.gen_range(1usize..64);
        let xs = metric_sequence(&mut rng, len);
        let s = Summary::of(&xs);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = if xs.len() < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
        };
        assert_eq!(s.n, xs.len());
        assert!(
            rel_err(s.mean, mean, 1e-300) < 1e-12,
            "case {case}: mean {} vs two-pass {mean}",
            s.mean
        );
        assert!(
            rel_err(s.sd * s.sd, var, 1e-12 * mean * mean) < 1e-12,
            "case {case}: variance {} vs two-pass {var}",
            s.sd * s.sd
        );
    }
}

/// Quantiles and extrema are bit-equal to a brute-force reference over
/// the sorted samples, whatever order the samples arrive in.
#[test]
fn quantiles_and_extrema_match_sorted_reference() {
    let mut rng = DetRng::seed_from_u64(0xA9_5EED);
    for case in 0..500 {
        let len = rng.gen_range(1usize..300);
        let xs = metric_sequence(&mut rng, len);
        let s = Summary::of(&xs);
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(
            s.p50.to_bits(),
            type7(&sorted, 0.5).to_bits(),
            "case {case}"
        );
        assert_eq!(
            s.p95.to_bits(),
            type7(&sorted, 0.95).to_bits(),
            "case {case}"
        );
        assert_eq!(s.min.to_bits(), lo.to_bits(), "case {case}");
        assert_eq!(s.max.to_bits(), hi.to_bits(), "case {case}");
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max);
        let reversed: Vec<f64> = xs.iter().rev().copied().collect();
        let r = Summary::of(&reversed);
        assert_eq!((r.p50, r.p95, r.min, r.max), (s.p50, s.p95, s.min, s.max));
    }
}

/// NaN and ±∞ samples (a stalled run's latency) are skipped: the
/// summary equals, bit for bit, the summary of the finite samples alone.
#[test]
fn non_finite_samples_are_skipped() {
    let mut rng = DetRng::seed_from_u64(0xDEAD_F00D);
    for case in 0..200 {
        let len = rng.gen_range(1usize..100);
        let xs = metric_sequence(&mut rng, len);
        let mut dirty = Vec::new();
        for &x in &xs {
            if rng.gen_bool(0.2) {
                let junk = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                dirty.push(junk[rng.gen_range(0usize..3)]);
            }
            dirty.push(x);
        }
        let (a, b) = (Summary::of(&dirty), Summary::of(&xs));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case}");
    }
    let none = Summary::of(&[f64::NAN, f64::INFINITY]);
    assert_eq!((none.n, none.sd, none.ci95), (0, 0.0, 0.0));
    assert!([none.mean, none.p50, none.p95, none.min, none.max]
        .iter()
        .all(|v| v.is_nan()));
}

/// Five samples with an outlier: the median is the middle sample and
/// the 95th percentile interpolates 80 % of the way to the outlier.
#[test]
fn p95_of_five_samples_interpolates_toward_the_maximum() {
    let s = Summary::of(&[4.0, 100.0, 2.0, 1.0, 3.0]);
    assert_eq!(s.p50, 3.0);
    assert!((s.p95 - 80.8).abs() < 1e-12, "{}", s.p95);
    assert_eq!((s.min, s.max), (1.0, 100.0));
}
