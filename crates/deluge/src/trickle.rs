//! The Trickle timer (Levis et al., NSDI 2004).
//!
//! Deluge, Seluge, and LR-Seluge all regulate advertisement frequency
//! with Trickle (paper §IV-D-1): each node maintains an interval `I`
//! in `[I_min, I_max]`; within each interval it picks a random time
//! `t ∈ [I/2, I)` and broadcasts its advertisement at `t` only if it has
//! heard fewer than `K` consistent advertisements this interval. `I`
//! doubles at every interval end (up to `I_max`) and resets to `I_min` on
//! inconsistency (a neighbor with newer/older state).
//!
//! This module is a pure state machine; protocols drive it with two
//! timers and feed it heard advertisements.

use lrs_host::time::Duration;
use lrs_rng::DetRng;

/// Trickle parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrickleConfig {
    /// Smallest interval.
    pub i_min: Duration,
    /// Largest interval.
    pub i_max: Duration,
    /// Redundancy constant `K`.
    pub k: u32,
}

impl Default for TrickleConfig {
    fn default() -> Self {
        TrickleConfig {
            i_min: Duration::from_millis(500),
            i_max: Duration::from_secs(60),
            k: 1,
        }
    }
}

/// What the protocol should do when an interval begins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntervalPlan {
    /// Delay from interval start to the (potential) advertisement.
    pub fire_in: Duration,
    /// Total interval length (arm the interval-end timer with this).
    pub interval: Duration,
}

/// The Trickle state machine.
#[derive(Clone, Debug)]
pub struct Trickle {
    config: TrickleConfig,
    interval: Duration,
    heard: u32,
}

impl Trickle {
    /// Creates the timer at `I = I_min`.
    pub fn new(config: TrickleConfig) -> Self {
        Trickle {
            interval: config.i_min,
            config,
            heard: 0,
        }
    }

    /// Begins a new interval: resets the redundancy counter and picks the
    /// advertisement point `t ∈ [I/2, I)`.
    pub fn begin_interval(&mut self, rng: &mut DetRng) -> IntervalPlan {
        self.heard = 0;
        let half = self.interval.half().as_micros().max(1);
        let fire_in = Duration::from_micros(half + rng.gen_range(0..half));
        IntervalPlan {
            fire_in,
            interval: self.interval,
        }
    }

    /// Interval ended: doubles `I` (clamped to `I_max`). The caller should
    /// then call [`begin_interval`](Self::begin_interval) again.
    pub fn interval_expired(&mut self) {
        self.interval = self.interval.mul(2).min(self.config.i_max);
    }

    /// A consistent advertisement was overheard.
    pub fn heard_consistent(&mut self) {
        self.heard += 1;
    }

    /// An inconsistency was detected: reset `I` to `I_min`. Returns true
    /// if the interval actually changed (the caller should restart its
    /// interval timers in that case).
    pub fn reset(&mut self) -> bool {
        if self.interval > self.config.i_min {
            self.interval = self.config.i_min;
            true
        } else {
            false
        }
    }

    /// Whether the advertisement at the fire point should be suppressed.
    pub fn suppress(&self) -> bool {
        self.heard >= self.config.k
    }

    /// The current interval length.
    pub fn interval(&self) -> Duration {
        self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TrickleConfig {
        TrickleConfig {
            i_min: Duration::from_secs(1),
            i_max: Duration::from_secs(8),
            k: 1,
        }
    }

    #[test]
    fn fire_point_in_second_half() {
        let mut t = Trickle::new(cfg());
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..100 {
            let plan = t.begin_interval(&mut rng);
            assert!(plan.fire_in >= plan.interval.half());
            assert!(plan.fire_in < plan.interval + Duration::from_micros(1));
        }
    }

    #[test]
    fn interval_doubles_to_max() {
        let mut t = Trickle::new(cfg());
        assert_eq!(t.interval(), Duration::from_secs(1));
        t.interval_expired();
        assert_eq!(t.interval(), Duration::from_secs(2));
        t.interval_expired();
        t.interval_expired();
        assert_eq!(t.interval(), Duration::from_secs(8));
        t.interval_expired();
        assert_eq!(t.interval(), Duration::from_secs(8), "clamped at i_max");
    }

    #[test]
    fn reset_returns_to_imin() {
        let mut t = Trickle::new(cfg());
        t.interval_expired();
        t.interval_expired();
        assert!(t.reset());
        assert_eq!(t.interval(), Duration::from_secs(1));
        assert!(!t.reset(), "already at i_min");
    }

    #[test]
    fn suppression_after_k_heard() {
        let mut t = Trickle::new(cfg());
        let mut rng = DetRng::seed_from_u64(0);
        let _ = t.begin_interval(&mut rng);
        assert!(!t.suppress());
        t.heard_consistent();
        assert!(t.suppress());
        // New interval clears the counter.
        let _ = t.begin_interval(&mut rng);
        assert!(!t.suppress());
    }
}
