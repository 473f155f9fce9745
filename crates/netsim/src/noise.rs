//! Bursty RF-noise model.
//!
//! The paper's multi-hop experiments draw interference from the
//! `meyer-heavy.txt` noise trace of the TinyOS distribution. That trace
//! is not redistributable, so we substitute a two-state Gilbert-Elliott
//! process per receiver: a node alternates between a *quiet* state (full
//! link quality) and a *noisy* state (PRR multiplied by a penalty),
//! with exponentially distributed sojourn times. This reproduces the
//! relevant property of the Meyer-library traces — heavy, *bursty*
//! interference that correlates consecutive losses — rather than the
//! exact sample path.

use lrs_host::time::SimTime;
use lrs_rng::DetRng;

/// Noise model selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NoiseModel {
    /// No environmental noise.
    None,
    /// Gilbert-Elliott bursty noise.
    Bursty(BurstyNoise),
}

/// Parameters of the Gilbert-Elliott noise process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstyNoise {
    /// Mean sojourn in the quiet state (µs).
    pub mean_quiet_us: u64,
    /// Mean sojourn in the noisy state (µs).
    pub mean_noisy_us: u64,
    /// Multiplier applied to PRR while noisy (0 = total blackout).
    pub noisy_prr_factor: f64,
}

impl BurstyNoise {
    /// A heavy noise profile loosely calibrated to the character of the
    /// `meyer-heavy` trace: noisy about a third of the time, in bursts of
    /// a few hundred milliseconds, with severe degradation while noisy.
    pub fn heavy() -> Self {
        BurstyNoise {
            mean_quiet_us: 600_000,
            mean_noisy_us: 300_000,
            noisy_prr_factor: 0.25,
        }
    }

    /// Long-run fraction of time spent in the noisy state.
    pub fn noisy_fraction(&self) -> f64 {
        self.mean_noisy_us as f64 / (self.mean_noisy_us + self.mean_quiet_us) as f64
    }
}

/// Per-receiver noise state, advanced lazily at packet arrivals.
#[derive(Clone, Debug)]
pub struct NoiseState {
    model: NoiseModel,
    noisy: bool,
    /// Time at which the current state ends.
    until: SimTime,
}

impl NoiseState {
    /// Creates the per-node state (initially quiet).
    pub fn new(model: NoiseModel) -> Self {
        NoiseState {
            model,
            noisy: false,
            until: SimTime::ZERO,
        }
    }

    /// PRR multiplier in effect at time `now`.
    ///
    /// Advances the Markov chain lazily using `rng` for sojourn draws.
    pub fn factor_at(&mut self, now: SimTime, rng: &mut DetRng) -> f64 {
        let BurstyNoise {
            mean_quiet_us,
            mean_noisy_us,
            noisy_prr_factor,
        } = match self.model {
            NoiseModel::None => return 1.0,
            NoiseModel::Bursty(b) => b,
        };
        while self.until <= now {
            self.noisy = !self.noisy;
            let mean = if self.noisy {
                mean_noisy_us
            } else {
                mean_quiet_us
            };
            let sojourn = exp_sample(mean, rng);
            self.until = SimTime(self.until.0 + sojourn.max(1));
        }
        if self.noisy {
            noisy_prr_factor
        } else {
            1.0
        }
    }
}

/// Exponential sample with the given mean (µs).
fn exp_sample(mean_us: u64, rng: &mut DetRng) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-(u.ln()) * mean_us as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_model_always_one() {
        let mut st = NoiseState::new(NoiseModel::None);
        let mut rng = DetRng::seed_from_u64(0);
        for t in [0u64, 1_000_000, 100_000_000] {
            assert_eq!(st.factor_at(SimTime(t), &mut rng), 1.0);
        }
    }

    #[test]
    fn bursty_long_run_fraction_close_to_nominal() {
        let model = BurstyNoise::heavy();
        let mut st = NoiseState::new(NoiseModel::Bursty(model));
        let mut rng = DetRng::seed_from_u64(42);
        let mut noisy_samples = 0usize;
        let total = 200_000usize;
        for i in 0..total {
            // Sample every 10 ms over 2000 s of virtual time.
            let f = st.factor_at(SimTime(i as u64 * 10_000), &mut rng);
            if f < 1.0 {
                noisy_samples += 1;
            }
        }
        let measured = noisy_samples as f64 / total as f64;
        let nominal = model.noisy_fraction();
        assert!(
            (measured - nominal).abs() < 0.05,
            "measured {measured:.3} vs nominal {nominal:.3}"
        );
    }

    #[test]
    fn bursty_states_are_bursty() {
        // Consecutive close-together samples should usually agree
        // (that is the point of modeling bursts, not i.i.d. noise).
        let model = BurstyNoise::heavy();
        let mut st = NoiseState::new(NoiseModel::Bursty(model));
        let mut rng = DetRng::seed_from_u64(7);
        let mut agree = 0usize;
        let mut last = st.factor_at(SimTime(0), &mut rng);
        let total = 50_000usize;
        for i in 1..=total {
            let f = st.factor_at(SimTime(i as u64 * 1_000), &mut rng); // 1 ms apart
            if (f < 1.0) == (last < 1.0) {
                agree += 1;
            }
            last = f;
        }
        assert!(
            agree as f64 / total as f64 > 0.95,
            "burstiness too low: {agree}/{total}"
        );
    }

    #[test]
    fn exp_sample_mean_reasonable() {
        let mut rng = DetRng::seed_from_u64(1);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| exp_sample(1000, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1000.0).abs() < 50.0, "mean {mean}");
    }
}
