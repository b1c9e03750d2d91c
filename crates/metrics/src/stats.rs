//! Descriptive statistics for benchmark samples.
//!
//! The paper presents per-rule latencies as boxplots (Figures 9, 10) and
//! per-workload aggregates as bar charts with error structure (Figure 12).
//! [`Summary`] captures everything those plots need: count, mean, standard
//! deviation, and the five-number summary (min, q1, median, q3, max) plus
//! p95.

use crate::time::Clock;

/// Five-number summary plus mean/stddev/p95 over a set of `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample set. Returns `None` for an empty input.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        Some(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            q1: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.50),
            q3: percentile(&sorted, 0.75),
            p95: percentile(&sorted, 0.95),
            max: sorted[n - 1],
        })
    }

    /// Summarizes integer samples (e.g. nanosecond latencies).
    pub fn of_u64(samples: &[u64]) -> Option<Self> {
        let as_f64: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Self::of(&as_f64)
    }
}

/// Linear-interpolation percentile over a pre-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q));
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = q * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Incremental sample collector that avoids holding callers to a fixed
/// sample layout; finalize with [`SummaryBuilder::finish`].
#[derive(Debug, Default, Clone)]
pub struct SummaryBuilder {
    samples: Vec<f64>,
}

impl SummaryBuilder {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a collector pre-sized for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            samples: Vec::with_capacity(n),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn push(&mut self, sample: f64) {
        self.samples.push(sample);
    }

    /// Records one integer sample.
    #[inline]
    pub fn push_u64(&mut self, sample: u64) {
        self.samples.push(sample as f64);
    }

    /// Number of samples collected so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples collected so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges another collector's samples into this one.
    pub fn extend_from(&mut self, other: &SummaryBuilder) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Produces the summary (`None` if no samples were recorded).
    pub fn finish(&self) -> Option<Summary> {
        Summary::of(&self.samples)
    }
}

/// A stream of timed events that always counts them and keeps their
/// latencies only when built with a timed [`Clock`].
///
/// An untimed stream is a counter: recording never allocates, so a
/// long-lived runtime that nobody measures does not grow per event.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    events: u64,
    timed: bool,
    samples: SummaryBuilder,
}

impl Latencies {
    /// An empty stream; it keeps samples only if `clock` is timed.
    pub fn new(clock: Clock) -> Self {
        Latencies {
            timed: clock.is_timed(),
            ..Self::default()
        }
    }

    /// Counts one event, keeping `ns` as its latency if timed.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.events += 1;
        if self.timed {
            self.samples.push_u64(ns);
        }
    }

    /// Events recorded, timed or not.
    pub fn len(&self) -> usize {
        self.events as usize
    }

    /// True if no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// The kept latencies: one per event if timed, none otherwise.
    pub fn samples(&self) -> &[f64] {
        self.samples.samples()
    }

    /// Summary of the kept latencies (`None` if untimed or empty).
    pub fn finish(&self) -> Option<Summary> {
        self.samples.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untimed_latencies_count_without_samples() {
        let mut off = Latencies::new(Clock::Off);
        let mut wall = Latencies::new(Clock::Wall);
        for ns in [3, 5, 7] {
            off.record(ns);
            wall.record(ns);
        }
        assert_eq!((off.len(), wall.len()), (3, 3));
        assert!(off.samples().is_empty() && off.finish().is_none());
        assert_eq!(wall.samples(), &[3.0, 5.0, 7.0]);
        assert_eq!(wall.finish().unwrap().mean, 5.0);
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(Summary::of(&[]).is_none());
        assert!(SummaryBuilder::new().finish().is_none());
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::of(&[42.0]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn known_quartiles() {
        // 1..=5 has median 3, q1 2, q3 4 under linear interpolation.
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn p95_interpolates() {
        let samples: Vec<f64> = (0..=100).map(|x| x as f64).collect();
        let s = Summary::of(&samples).unwrap();
        assert!((s.p95 - 95.0).abs() < 1e-9);
    }

    #[test]
    fn std_dev_matches_hand_computation() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.std_dev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn builder_matches_direct() {
        let mut b = SummaryBuilder::with_capacity(3);
        b.push_u64(1);
        b.push_u64(2);
        b.push_u64(3);
        assert_eq!(b.len(), 3);
        assert_eq!(b.finish(), Summary::of(&[1.0, 2.0, 3.0]));
    }
}
