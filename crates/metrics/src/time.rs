//! Monotonic timing utilities.
//!
//! The paper reports "CPU ticks" (rdtsc). We use [`std::time::Instant`]
//! nanoseconds instead: it is monotonic, portable, and — since every figure
//! in the paper compares *relative* latencies between search strategies —
//! the substitution does not affect any conclusion (docs/benching.md,
//! "Where time is measured").
//!
//! A clock read costs about as much as the `find_one` it would bracket, so
//! the library reads none unless a caller asks: instrumented loops take a
//! [`Clock`], and [`Clock::Off`] turns every reading into a constant 0.

use std::time::Instant;

/// Returns a monotonic timestamp in nanoseconds since an arbitrary epoch.
///
/// Only differences between two calls are meaningful.
#[inline]
pub fn now_ns() -> u64 {
    // A process-wide epoch keeps the returned values small enough to
    // subtract without overflow concerns for any realistic run length.
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Whether an instrumented loop reads the wall clock.
///
/// The loop body is the same either way: it brackets each phase with
/// [`Clock::now`] and [`Clock::since`], which under [`Clock::Off`] read
/// nothing and return 0, so an untimed run does the timed run's work,
/// counts included, minus the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Read no clock; every duration is 0.
    Off,
    /// Read [`now_ns`] around each timed phase.
    Wall,
}

impl Clock {
    /// True for [`Clock::Wall`].
    #[inline]
    pub fn is_timed(self) -> bool {
        self == Clock::Wall
    }

    /// The start of a timed phase: [`now_ns`], or 0 when off.
    #[inline]
    pub fn now(self) -> u64 {
        match self {
            Clock::Off => 0,
            Clock::Wall => now_ns(),
        }
    }

    /// Nanoseconds since `start` (a [`Clock::now`] reading), or 0 when off.
    #[inline]
    pub fn since(self, start: u64) -> u64 {
        match self {
            Clock::Off => 0,
            Clock::Wall => now_ns().saturating_sub(start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn an_off_clock_reads_zero() {
        assert_eq!(Clock::Off.now(), 0);
        assert_eq!(Clock::Off.since(Clock::Off.now()), 0);
        assert!(!Clock::Off.is_timed());
        let start = Clock::Wall.now();
        assert!(Clock::Wall.since(start) < u64::MAX / 2);
        assert!(Clock::Wall.is_timed());
    }
}
