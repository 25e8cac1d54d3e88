//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}.{:03}ms", self.0 / 1_000, self.0 % 1_000)
    }
}

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Microseconds in the span.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds in the span (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}ms", self.0 / 1_000, self.0 % 1_000)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

/// The simulation's clock. Only the simulation advances it; reads are free.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance by `d`, returning the new instant.
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        self.now += d;
        self.now
    }
}

/// A monotonic real-time clock reporting [`SimTime`] microseconds since
/// its construction.
///
/// This is the **only** sanctioned wall-clock seam in the workspace (lint
/// S7 exempts exactly this file): live transport backends — the
/// `obiwan-netd` fabric, the `obiwan-blobd` daemon — stamp their events through a
/// `RealClock` obtained from [`real`], never through `Instant::now()`
/// directly. Keeping the seam here means the rest of the system stays
/// indifferent to whether time is simulated or real.
#[derive(Debug, Clone)]
pub struct RealClock {
    origin: std::time::Instant,
}

impl RealClock {
    /// Microseconds elapsed since this clock was created, as a [`SimTime`].
    pub fn now(&self) -> SimTime {
        let us = u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX);
        SimTime::from_micros(us)
    }
}

/// A real-time clock anchored at the current instant.
///
/// See [`RealClock`] for why backends must obtain wall time through this
/// function and nowhere else.
pub fn real() -> RealClock {
    RealClock {
        origin: std::time::Instant::now(),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(3);
        assert_eq!(t1.as_micros(), 3_000);
        assert_eq!(t1 - t0, SimDuration::from_millis(3));
        assert_eq!((t0 - t1), SimDuration::ZERO, "saturating");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        let a = c.advance(SimDuration::from_micros(5));
        let b = c.advance(SimDuration::from_micros(7));
        assert!(b > a);
        assert_eq!(c.now().as_micros(), 12);
    }

    #[test]
    fn display_shows_milliseconds() {
        assert_eq!(SimTime::from_micros(1234).to_string(), "t=1.234ms");
        assert_eq!(SimDuration::from_micros(45).to_string(), "0.045ms");
    }

    #[test]
    fn secs_f64_conversion() {
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn real_clock_is_monotone_from_zero() {
        let c = real();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
