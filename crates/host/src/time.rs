//! Virtual time for protocol hosts.
//!
//! Time is measured in microseconds from host start. Newtypes keep
//! instants ([`SimTime`]) and spans ([`Duration`]) from being mixed up.
//! The discrete-event simulator advances `SimTime` by popping events;
//! the real-time [`Host`](crate::host::Host) derives it from a
//! monotonic clock. Protocol code sees the same type either way.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual time (microseconds since host start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// Host start.
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since host start.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since host start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference between two instants.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Builds a span from microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us)
    }

    /// Builds a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    /// Builds a span from seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000)
    }

    /// Microseconds in the span.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in the span, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the span by an integer factor.
    // Scalar scaling, not `Duration * Duration`; the `std::ops::Mul` name
    // clash is intentional.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, factor: u64) -> Duration {
        Duration(self.0 * factor)
    }

    /// Halves the span.
    pub fn half(self) -> Duration {
        Duration(self.0 / 2)
    }

    /// The smaller of two spans.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Duration::from_millis(5);
        assert_eq!(t.as_micros(), 5_000);
        let t2 = t + Duration::from_secs(1);
        assert_eq!(t2 - t, Duration::from_secs(1));
        assert_eq!(t.saturating_since(t2), Duration::ZERO);
        assert_eq!(t2.saturating_since(t), Duration::from_secs(1));
    }

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_secs(2).as_micros(), 2_000_000);
        assert!((Duration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Duration::from_secs(3).half(), Duration::from_millis(1500));
        assert_eq!(Duration::from_secs(3).mul(2), Duration::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        let _ = SimTime(1) - SimTime(2);
    }

    #[test]
    fn min_max() {
        let a = Duration::from_secs(1);
        let b = Duration::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(SimTime(3).max(SimTime(5)), SimTime(5));
    }
}
