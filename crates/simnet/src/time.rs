//! Virtual time: instants and durations with microsecond resolution.
//!
//! All experiment results in this repository are reported in *virtual
//! milliseconds*. The paper measured elapsed wall-clock time on a 1987
//! testbed; we reproduce the same arithmetic deterministically by charging
//! calibrated costs against a virtual clock (see [`crate::clock`]).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual timeline, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the virtual timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// The last instant, from which the earliest of several expiries folds.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `us` microseconds after the origin.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant `ms` milliseconds after the origin.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1000)
    }

    /// Returns the instant as whole microseconds since the origin.
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// The instant `secs` seconds after this one: a record's TTL as expiry.
    #[inline]
    pub fn after_secs(self, secs: u32) -> SimTime {
        SimTime(self.0 + u64::from(secs) * 1_000_000)
    }

    /// Returns the instant as fractional milliseconds since the origin.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; virtual time never runs
    /// backwards, so this indicates a harness bug.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented panic: virtual time running backwards is a harness bug"
    )]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("virtual time ran backwards"),
        )
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `us` microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration of `ms` milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1000)
    }

    /// Creates a duration from fractional milliseconds (rounded to the
    /// nearest microsecond, saturating at zero for negative input; see
    /// [`obs::ms_to_us`]).
    #[inline]
    pub fn from_ms_f64(ms: f64) -> Self {
        SimDuration(obs::ms_to_us(ms))
    }

    /// Returns the duration as whole microseconds.
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Returns true if the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` on underflow.
    #[inline]
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "underflow panics as integer subtraction does, in release builds too"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}ms", self.as_ms_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(SimDuration::from_ms(3).as_us(), 3000);
        assert_eq!(SimTime::from_ms(2).as_us(), 2000);
        assert_eq!(SimDuration::from_us(1500).as_ms_f64(), 1.5);
        assert_eq!(SimTime::from_ms(2).after_secs(3).as_us(), 3_002_000);
        assert!(SimTime::MAX > SimTime::ZERO.after_secs(u32::MAX));
    }

    #[test]
    fn from_ms_f64_rounds_and_saturates() {
        assert_eq!(SimDuration::from_ms_f64(0.0015).as_us(), 2);
        assert_eq!(SimDuration::from_ms_f64(-4.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_ms_f64(27.0).as_us(), 27_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(10) + SimDuration::from_ms(5);
        assert_eq!(t, SimTime::from_ms(15));
        assert_eq!(t.since(SimTime::from_ms(10)), SimDuration::from_ms(5));
        assert_eq!(SimDuration::from_ms(4) * 3, SimDuration::from_ms(12));
        assert_eq!(SimDuration::from_ms(12) / 4, SimDuration::from_ms(3));
    }

    #[test]
    fn durations_sum() {
        let total: SimDuration = [1, 2, 3].iter().map(|&m| SimDuration::from_ms(m)).sum();
        assert_eq!(total, SimDuration::from_ms(6));
    }

    #[test]
    #[should_panic(expected = "virtual time ran backwards")]
    fn since_panics_on_backwards_time() {
        let _ = SimTime::from_ms(1).since(SimTime::from_ms(2));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimDuration::from_ms(1).saturating_sub(SimDuration::from_ms(2)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_ms(1).checked_sub(SimDuration::from_ms(2)),
            None
        );
    }

    #[test]
    fn display_formats_milliseconds() {
        assert_eq!(SimDuration::from_us(27_500).to_string(), "27.50ms");
        assert_eq!(SimTime::from_us(1_250).to_string(), "1.250ms");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// A duration's whole microseconds are what the detour through
            /// fractional milliseconds and back gave (the `_us`
            /// histograms took it until they were handed `as_us`) below
            /// 2^51 µs, 71 years: the division and the product each err by
            /// under 2^-53 of the count, so together by under half a
            /// microsecond. From about 2^52 µs up the detour can be off by one.
            #[test]
            fn whole_us_equal_the_ms_round_trip(us in 0u64..1 << 51) {
                let d = SimDuration::from_us(us);
                prop_assert_eq!(obs::ms_to_us(d.as_ms_f64()), d.as_us());
            }
        }
    }
}
