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

/// Smallest interval, `I_min`.
const I_MIN: Duration = Duration::from_millis(500);
/// Largest interval, `I_max`.
const I_MAX: Duration = Duration::from_secs(60);
/// Redundancy constant `K`.
const K: u32 = 1;

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
    interval: Duration,
    heard: u32,
}

impl Default for Trickle {
    fn default() -> Self {
        Trickle::new()
    }
}

impl Trickle {
    /// Creates the timer at `I = I_min`.
    pub fn new() -> Self {
        Trickle {
            interval: I_MIN,
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
        self.interval = self.interval.mul(2).min(I_MAX);
    }

    /// A consistent advertisement was overheard.
    pub fn heard_consistent(&mut self) {
        self.heard += 1;
    }

    /// An inconsistency was detected: reset `I` to `I_min`. Returns true
    /// if the interval actually changed (the caller should restart its
    /// interval timers in that case).
    pub fn reset(&mut self) -> bool {
        if self.interval > I_MIN {
            self.interval = I_MIN;
            true
        } else {
            false
        }
    }

    /// Whether the advertisement at the fire point should be suppressed.
    pub fn suppress(&self) -> bool {
        self.heard >= K
    }

    /// The current interval length.
    pub fn interval(&self) -> Duration {
        self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_point_in_second_half() {
        let mut t = Trickle::new();
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..100 {
            let plan = t.begin_interval(&mut rng);
            assert!(plan.fire_in >= plan.interval.half());
            assert!(plan.fire_in < plan.interval + Duration::from_micros(1));
            t.interval_expired();
        }
    }

    #[test]
    fn interval_doubles_from_half_a_second_to_a_minute() {
        let mut t = Trickle::new();
        let mut expected = Duration::from_millis(500);
        // 0.5 s doubles seven times to 64 s, clamped to 60 s.
        for _ in 0..7 {
            assert_eq!(t.interval(), expected);
            t.interval_expired();
            expected = expected.mul(2);
        }
        assert_eq!(t.interval(), Duration::from_secs(60), "clamped at I_max");
        t.interval_expired();
        assert_eq!(t.interval(), Duration::from_secs(60));
    }

    #[test]
    fn reset_returns_to_imin() {
        let mut t = Trickle::new();
        assert!(!t.reset(), "already at I_min");
        t.interval_expired();
        t.interval_expired();
        assert!(t.reset());
        assert_eq!(t.interval(), Duration::from_millis(500));
        assert!(!t.reset(), "already at I_min");
    }

    #[test]
    fn suppression_after_k_heard() {
        let mut t = Trickle::new();
        let mut rng = DetRng::seed_from_u64(0);
        let _ = t.begin_interval(&mut rng);
        assert!(!t.suppress());
        t.heard_consistent();
        assert!(t.suppress(), "K = 1");
        // New interval clears the counter.
        let _ = t.begin_interval(&mut rng);
        assert!(!t.suppress());
    }
}
