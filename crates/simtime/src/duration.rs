use serde::Serialize;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use std::time::Duration;

/// A span of *simulated* time, stored with nanosecond resolution.
///
/// `SimDuration` is deliberately a distinct type from [`std::time::Duration`]
/// so that simulated and real time cannot be mixed by accident; conversion
/// happens only inside [`crate::Clock`] where the scale factor is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration {
    nanos: u64,
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration { nanos: 0 };
    /// The largest representable duration (~584 simulated years).
    pub const MAX: SimDuration = SimDuration { nanos: u64::MAX };

    /// Creates a duration from whole simulated nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration { nanos }
    }

    /// Creates a duration from whole simulated microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration { nanos: micros * 1_000 }
    }

    /// Creates a duration from whole simulated milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration { nanos: millis * 1_000_000 }
    }

    /// Creates a duration from whole simulated seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration { nanos: secs * 1_000_000_000 }
    }

    /// Creates a duration from a floating-point number of simulated seconds.
    ///
    /// Negative and non-finite inputs are clamped to zero; values beyond
    /// [`SimDuration::MAX`] saturate.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration { nanos: nanos as u64 }
        }
    }

    /// Total duration in simulated nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Total duration in simulated microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.nanos / 1_000
    }

    /// Total duration in simulated milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.nanos / 1_000_000
    }

    /// Duration as a floating-point number of simulated seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// `true` if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.nanos == 0
    }

    /// Saturating subtraction; returns [`SimDuration::ZERO`] on underflow.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration { nanos: self.nanos.saturating_sub(rhs.nanos) }
    }

    /// Saturating addition; returns [`SimDuration::MAX`] on overflow.
    #[inline]
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration { nanos: self.nanos.saturating_add(rhs.nanos) }
    }

    /// Checked subtraction.
    #[inline]
    pub const fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        match self.nanos.checked_sub(rhs.nanos) {
            Some(n) => Some(SimDuration { nanos: n }),
            None => None,
        }
    }

    /// Converts to a real [`std::time::Duration`] scaled by
    /// `real_seconds_per_sim_second`.
    pub(crate) fn to_real(self, scale: f64) -> Duration {
        Duration::from_secs_f64((self.as_secs_f64() * scale).max(0.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration { nanos: self.nanos + rhs.nanos }
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.nanos += rhs.nanos;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration { nanos: self.nanos - rhs.nanos }
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.nanos -= rhs.nanos;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration { nanos: self.nanos * rhs }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration { nanos: self.nanos / rhs }
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs >= 1.0 {
            write!(f, "{secs:.3}s")
        } else if self.nanos >= 1_000_000 {
            write!(f, "{:.3}ms", self.nanos as f64 / 1e6)
        } else if self.nanos >= 1_000 {
            write!(f, "{:.3}us", self.nanos as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.nanos)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3000));
        assert_eq!(SimDuration::from_micros(5), SimDuration::from_nanos(5000));
    }

    #[test]
    fn float_roundtrip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_millis(), 1500);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn float_clamps_negative_and_nan() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!(a + b, SimDuration::from_millis(14));
        assert_eq!(a - b, SimDuration::from_millis(6));
        assert_eq!(a * 3, SimDuration::from_millis(30));
        assert_eq!(a / 2, SimDuration::from_millis(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.checked_sub(b), Some(SimDuration::from_millis(6)));
    }

    #[test]
    fn saturating_add_at_max() {
        assert_eq!(SimDuration::MAX.saturating_add(SimDuration::from_secs(1)), SimDuration::MAX);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimDuration::from_nanos(2).to_string(), "2ns");
    }

    #[test]
    fn ordering() {
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_nanos(1).is_zero());
    }
}
