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

/// A resumable stopwatch accumulating elapsed nanoseconds across intervals.
///
/// Always reads the wall clock; instrumented library loops take a
/// [`Clock`] instead, so that an untimed caller reads none.
#[derive(Debug, Default, Clone)]
pub struct Stopwatch {
    total_ns: u64,
    started_at: Option<u64>,
    intervals: u64,
}

impl Stopwatch {
    /// Creates a stopped stopwatch with zero accumulated time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts (or restarts) an interval. Panics if already running.
    #[inline]
    pub fn start(&mut self) {
        assert!(self.started_at.is_none(), "stopwatch already running");
        self.started_at = Some(now_ns());
    }

    /// Ends the current interval, adding it to the total. Panics if stopped.
    #[inline]
    pub fn stop(&mut self) {
        let started = self.started_at.take().expect("stopwatch not running");
        self.total_ns += now_ns().saturating_sub(started);
        self.intervals += 1;
    }

    /// Times a closure as one interval and returns its result.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.start();
        let out = f();
        self.stop();
        out
    }

    /// Total accumulated nanoseconds across all completed intervals.
    #[inline]
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Number of completed intervals.
    #[inline]
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Mean nanoseconds per completed interval (0 if none).
    pub fn mean_ns(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.intervals as f64
        }
    }

    /// Resets the stopwatch to its initial state.
    pub fn reset(&mut self) {
        *self = Self::default();
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

    #[test]
    fn stopwatch_accumulates_intervals() {
        let mut sw = Stopwatch::new();
        sw.time(|| std::hint::black_box(1 + 1));
        sw.time(|| std::hint::black_box(2 + 2));
        assert_eq!(sw.intervals(), 2);
        // Elapsed time is non-negative and the mean is defined.
        assert!(sw.mean_ns() >= 0.0);
    }

    #[test]
    fn stopwatch_reset_clears_state() {
        let mut sw = Stopwatch::new();
        sw.time(|| ());
        sw.reset();
        assert_eq!(sw.total_ns(), 0);
        assert_eq!(sw.intervals(), 0);
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn stopwatch_double_start_panics() {
        let mut sw = Stopwatch::new();
        sw.start();
        sw.start();
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn stopwatch_stop_without_start_panics() {
        let mut sw = Stopwatch::new();
        sw.stop();
    }
}
