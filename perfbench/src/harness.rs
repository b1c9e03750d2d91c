//! Pass loop and the per-op fastest-of-passes estimator.
//!
//! A workload's input is one or more op scripts derived from the seed.
//! A pass is a set-up from the seed followed by one script, so every
//! pass of a script does identical work; a run rotates through its
//! scripts until its time is spent. Each op's time is the fastest of
//! its passes, which filters the host's interference (multi-second
//! phases that slow memory-bound code by up to a quarter) while keeping
//! any cost the op pays every time. Work counts must repeat exactly from
//! pass to pass for the library workloads — the estimator is only valid
//! when every pass of a script does the same work.

use crate::trace::Span;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one pass did and how long it took.
#[derive(Default)]
pub struct Pass {
    /// Which of the workload's scripts ran.
    pub script: usize,
    /// Set-up wall time (s).
    pub setup_s: f64,
    /// Measured-phase wall time (s).
    pub wall_s: f64,
    /// Every op's latency (ns), in script order.
    pub op_ns: Vec<u64>,
    /// Ops (and opens) whose outcome was checked.
    pub attempted: u64,
    /// Failed, refused or wrong-result ops.
    pub failed: u64,
    /// Per-op latency samples (ns) by op class, each in script order.
    pub lat: BTreeMap<&'static str, Vec<u64>>,
    /// Work counts; asserted equal across passes of a script when the
    /// workload is deterministic.
    pub counts: BTreeMap<&'static str, u64>,
    /// Reported values that may legitimately vary (memory, schedule-
    /// dependent counters).
    pub gauges: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced passes only).
    pub layers: BTreeMap<String, f64>,
    /// The measured phase's spans (traced passes only).
    pub spans: Vec<Span>,
}

/// One workload of the benchmark.
pub trait Workload {
    /// Op scripts the run rotates through.
    fn scripts(&self) -> usize {
        1
    }
    /// Closed-loop clients issuing ops at once.
    fn concurrency(&self) -> usize {
        1
    }
    /// Runs one pass: set-up from the seed, then script `script`.
    fn pass(&mut self, script: usize, traced: bool) -> Pass;
    /// The op class whose median and tail are the headline latencies.
    fn headline(&self) -> &'static str;
    /// True when every pass of a script must do identical work.
    fn deterministic(&self) -> bool;
}

/// Runs passes, rotating through the scripts, until `seconds` have
/// passed and every script has run at least `min_rounds` times. With
/// `trace`, each script's untraced pass is followed by a traced one, so
/// both halves see the same interference. Returns the untraced passes,
/// the traced ones (spans kept for the fastest only), and the peak
/// resident set (MiB) after the first pass.
pub fn run_passes(
    w: &mut dyn Workload,
    trace: bool,
    seconds: f64,
    min_rounds: usize,
) -> (Vec<Pass>, Vec<Pass>, f64) {
    let start = Instant::now();
    let scripts = w.scripts();
    let modes = if trace { 2 } else { 1 };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut rss_mib = 0.0;
    let mut n = 0;
    while n < min_rounds * scripts * modes || start.elapsed().as_secs_f64() < seconds {
        let traced_pass = n % modes == 1;
        let pass = w.pass((n / modes) % scripts, traced_pass);
        if n == 0 {
            rss_mib = peak_rss_mib();
        }
        n += 1;
        if !traced_pass {
            untraced.push(pass);
            continue;
        }
        traced.push(pass);
        // Keep spans for the fastest traced pass only: a run holds hundreds.
        let keep = traced
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.wall_s.total_cmp(&b.1.wall_s))
            .map_or(0, |(i, _)| i);
        for (i, p) in traced.iter_mut().enumerate() {
            if i != keep {
                p.spans = Vec::new();
            }
        }
    }
    (untraced, traced, rss_mib)
}

/// The run's timings under the per-op fastest-of-passes rule.
pub struct Best {
    /// Fastest set-up (s).
    pub setup_s: f64,
    /// Ops per second at the best per-op times: clients × ops ÷ Σ time.
    pub ops_per_s: f64,
    /// Per class: each op's fastest time (ns), pooled over scripts.
    pub lat: BTreeMap<&'static str, Vec<u64>>,
}

/// Element-wise minimum of aligned sample vectors.
fn per_op_min<'a>(runs: impl Iterator<Item = &'a Vec<u64>>) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::new();
    for r in runs {
        if out.is_empty() {
            out = r.clone();
        } else {
            assert_eq!(out.len(), r.len(), "passes of one script run the same ops");
            for (a, b) in out.iter_mut().zip(r) {
                *a = (*a).min(*b);
            }
        }
    }
    out
}

pub fn best(w: &dyn Workload, passes: &[Pass]) -> Best {
    let mut lat: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let (mut ops, mut total_ns) = (0usize, 0u64);
    for script in 0..w.scripts() {
        let mine: Vec<&Pass> = passes.iter().filter(|p| p.script == script).collect();
        let all = per_op_min(mine.iter().map(|p| &p.op_ns));
        ops += all.len();
        total_ns += all.iter().sum::<u64>();
        for class in mine[0].lat.keys() {
            let m = per_op_min(mine.iter().map(|p| &p.lat[class]));
            lat.entry(class).or_default().extend(m);
        }
    }
    Best {
        setup_s: passes
            .iter()
            .map(|p| p.setup_s)
            .fold(f64::INFINITY, f64::min),
        ops_per_s: (w.concurrency() * ops) as f64 / (total_ns as f64 / 1e9),
        lat,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Percentile `p` of `samples`, or 0 when there are none (a span the
/// pass never opened).
pub fn pct_or_zero(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, p)
    }
}

/// The highest of p99.9 / p99 / p90 with at least ten of `n` samples
/// beyond it.
pub fn tail_pct(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Metric-name suffix of a percentile: 99.9 → "p999", 90 → "p90".
pub fn pct_name(p: f64) -> String {
    let s = format!("{p}").replace('.', "");
    format!("p{s}")
}

/// The pass with the shortest measured phase.
pub fn fastest(passes: &[Pass]) -> &Pass {
    passes
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one pass")
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Deterministic 64-bit generator (splitmix64) for benchmark-side inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
