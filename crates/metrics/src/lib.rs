//! Measurement substrate for the TreeToaster reproduction.
//!
//! The paper (§7.2) measures three axes: (i) time spent finding a pattern
//! match, (ii) time spent maintaining support structures, and (iii) memory
//! allocated. This crate provides the plumbing shared by every experiment:
//!
//! - [`time`]: monotonic nanosecond timers and the [`Clock`] that
//!   instrumented loops take, so they read no clock unless a caller asks
//!   (the paper reports CPU ticks; we report `Instant` nanoseconds — see
//!   docs/benching.md, "Where time is measured", for both choices).
//! - [`stats`]: descriptive statistics (mean, quantiles, boxplot summaries).
//! - [`memory`]: byte→page conversion and a `/proc/self/statm` probe
//!   mirroring the paper's Linux `/proc` measurements.
//! - [`table`]: aligned-table and CSV output so each benchmark prints the
//!   same rows/series the corresponding paper figure plots.
//! - [`json`]: a dependency-free JSON tree/writer/parser backing the
//!   machine-readable `BENCH_*.json` trajectories and their CI checker.

pub mod json;
pub mod memory;
pub mod stats;
pub mod table;
pub mod time;

pub use json::Json;
pub use memory::{bytes_to_pages, statm_resident_pages, PAGE_BYTES};
pub use stats::{Latencies, Summary, SummaryBuilder};
pub use table::{Csv, Table};
pub use time::{now_ns, Clock};
