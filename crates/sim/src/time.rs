//! Simulated time.
//!
//! All experiment timing in this workspace is virtual: devices and links carry
//! clocks measured in [`SimTime`], and the discrete-event executor advances
//! them as operators charge cost-model-derived durations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or span of) simulated time, stored as seconds.
///
/// `SimTime` is used both as an instant on a device clock and as a duration;
/// the arithmetic is identical and keeping one type avoids a zoo of
/// conversions in the cost models.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        debug_assert!(s.is_finite(), "non-finite SimTime: {s}");
        SimTime(s)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        Self::from_secs(ns * 1e-9)
    }

    /// Seconds as `f64`.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Milliseconds as `f64`.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 * 1e3
    }

    /// Microseconds as `f64`.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 * 1e6
    }

    /// Nanoseconds as `f64`.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 * 1e9
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0.total_cmp(&other.0).is_ge() {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0.total_cmp(&other.0).is_le() {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: `max(self - other, 0)`.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3}us", s * 1e6)
        } else {
            write!(f, "{:.1}ns", s * 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_ms(1.5);
        assert!((t.as_secs() - 0.0015).abs() < 1e-12);
        assert!((t.as_us() - 1500.0).abs() < 1e-9);
        assert!((t.as_ns() - 1_500_000.0).abs() < 1e-6);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(2.0);
        let b = SimTime::from_secs(0.5);
        assert!(((a + b).as_secs() - 2.5).abs() < 1e-12);
        assert!(((a - b).as_secs() - 1.5).abs() < 1e-12);
        assert!(((a * 2.0).as_secs() - 4.0).abs() < 1e-12);
        assert!(((a / 2.0).as_secs() - 1.0).abs() < 1e-12);
        assert!((a / b - 4.0).abs() < 1e-12);
    }

    #[test]
    fn max_min_saturating() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a), SimTime::from_secs(1.0));
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimTime = (0..4).map(|_| SimTime::from_ms(1.0)).sum();
        assert!((total.as_ms() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_secs(2.0)), "2.000s");
        assert_eq!(format!("{}", SimTime::from_ms(2.0)), "2.000ms");
        assert_eq!(format!("{}", SimTime::from_us(2.0)), "2.000us");
        assert_eq!(format!("{}", SimTime::from_ns(2.0)), "2.0ns");
    }
}
