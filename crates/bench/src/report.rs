//! The machine-readable bench trajectory: `BENCH_treetoaster.json`.
//!
//! One schema, two consumers: the `tt-bench` runner renders it, the
//! `tt-bench-check` CI gate validates it. Layout (schema version 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "treetoaster",
//!   "quick": true,
//!   "config": {"records": 512, "ops": 96, "seed": 42,
//!              "crack_threshold": 64,
//!              "batch_sizes": [1, 8, 64], "workloads": ["A", …],
//!              "fleet_workloads": ["G", "H"], "fleet_trees": [1, 4]},
//!   "results": [
//!     {"strategy": "TT", "workload": "A", "batch_size": 8, "trees": 1,
//!      "ops": 96, "rewrites": 41, "ns_per_op": 1234.5,
//!      "ns_per_rewrite": 2890.1, "maintain_mean_ns": 310.0,
//!      "commit_mean_ns": 95.0, "peak_bytes": 8192,
//!      "final_bytes": 4096}, …
//!   ]
//! }
//! ```
//!
//! `trees` is the multi-tree axis: single-tree cells carry `trees: 1`;
//! the fleet workloads G/H/I appear at every swept tree count.
//!
//! `scheduler`/`workers` are the reorganizer-deployment axis: `"sync"`
//! cells (`workers: 0`) measure the inline-reorganizing drivers, while
//! `"steal"` cells (a pool of `workers` background threads draining the
//! fleet's work queue) measure the threaded deployment on the skewed
//! fleet workload I. Threaded cells also carry the scheduling ledger:
//! `steal_count` and `contended_count`.
//!
//! `commit`/`worst_window_ns` are the commit-lag axis: `"sync"` cells
//! close each epoch at lag 0 (seal and land inline), while `"async"`
//! cells close it at lag 1 (seal only) and the fleet's committer thread
//! lands the epoch off the op path. `worst_window_ns` is the slowest
//! **commit window** observed — the stall from epoch close until the op
//! thread is free again (inline apply vs O(1) seal), the tail-latency
//! number the pipeline exists to improve (ns/op averages the apply cost
//! away).
//!
//! `mode`/`sessions`/`p99_ns`/`ops_per_sec` are the service axis:
//! `"library"` cells (`sessions: 0`) come from the in-process drivers
//! above, while `"service"` cells measure the `tt-serve` daemon under
//! `sessions` concurrent tenants (workload S) — sustained `ops_per_sec`
//! plus the per-op latency tail (`p99_ns`, and `worst_window_ns`
//! repurposed as the single slowest op).
//!
//! `rule_count` is the rule-scale axis: the number of synthetic probe
//! rules padded onto the paper's rule set (0 for every stock-rule
//! cell). Cells with `rule_count > 0` come from the generic-mode
//! rule-scale driver and are excluded from the fleet-scaling and commit
//! gates, which compare stock-rule regimes. Every cell searches through
//! the rule set's compiled match automaton. Cells also carry per-rule
//! attribution (`rule_matches`/`rule_rewrites`, measured-loop deltas)
//! when the driver can attribute them. A cell is keyed by `(strategy,
//! workload, batch_size, trees, scheduler, workers, commit, mode,
//! sessions, rule_count)`, and every row must carry every key field.
//!
//! Validation enforces, beyond schema and coverage, the **stealing
//! gate**: every threaded group needs a one-worker-per-shard baseline
//! (`workers == trees`) and a smaller pool, and the best smaller pool's
//! ns/op must stay within [`STEAL_GATE_ENVELOPE`] of the baseline —
//! work-stealing with fewer threads must keep up with one thread per
//! shard under skew, and a report that says otherwise is a scheduling
//! regression. The
//! **commit gate** works the same way: every `commit: "async"` cell
//! must have a synchronous twin (same key except the commit axis),
//! stay within [`COMMIT_GATE_ENVELOPE`] of its ns/op, and — on the
//! skewed workload I, where hot-shard epochs make the apply cost a
//! real tail — be *ahead* of it on `worst_window_ns`. Service cells are
//! exempt from both (the daemon is a steal/async deployment with no
//! library twin); instead the **service promise** applies: a config
//! listing `service_sessions` must deliver a `mode: "service"` cell at
//! each promised session count, with a positive throughput and an
//! internally consistent latency tail (`p99_ns` ≤ the worst op).
//! The **rule-scale gate** judges the automaton itself: on workload A,
//! ns/op at the largest swept rule count may be at most
//! [`RULE_SCALE_GROWTH_MAX`]× ns/op at the smallest. One shared
//! discrimination-tree walk per node grows slowly with R; a matcher
//! that evaluates every rule's pattern separately grows with R and
//! trips the bound.

use crate::{BatchRunResult, ExperimentConfig};
use tt_jitd::StrategyKind;
use tt_metrics::Json;

/// Version stamp of the emitted layout.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Default output filename.
pub const BENCH_FILE: &str = "BENCH_treetoaster.json";

/// What a `tt-bench` invocation sweeps.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Quick mode (CI scale) vs full scale.
    pub quick: bool,
    /// Scale knobs shared by every run.
    pub experiment: ExperimentConfig,
    /// Ops-per-epoch axis.
    pub batch_sizes: Vec<usize>,
    /// Single-tree workload mnemonics.
    pub workloads: Vec<char>,
    /// Fleet workload mnemonics (G/H/I); empty = no multi-tree sweep.
    pub fleet_workloads: Vec<char>,
    /// Tree counts the fleet workloads sweep.
    pub fleet_trees: Vec<usize>,
    /// Shard counts for the threaded workload-I scheduler cells; empty
    /// disables them.
    pub steal_trees: Vec<usize>,
    /// Stealing-pool sizes swept against each one-worker-per-shard
    /// baseline.
    pub steal_workers: Vec<usize>,
    /// Fleet workloads measured through the commit-pipeline driver
    /// (one sync + one async cell each); empty disables them. A
    /// non-empty list is a coverage promise validation holds the report
    /// to: every listed workload must carry both commit lags.
    pub commit_workloads: Vec<char>,
    /// Session counts the service harness sweeps (workload S through
    /// the `tt-serve` daemon); empty disables the service cells. A
    /// non-empty list is a coverage promise like `commit_workloads`:
    /// every listed count must appear as a `mode: "service"` cell.
    pub service_sessions: Vec<usize>,
    /// Op threads driving the service harness.
    pub service_threads: usize,
    /// Synthetic probe-rule counts the rule-scale driver sweeps on
    /// workloads A and G; empty disables the cells. A non-empty list is
    /// a coverage promise like `commit_workloads`: every listed count
    /// must appear on both workloads.
    pub rule_scale: Vec<usize>,
    /// Runs per cell; the fastest (minimum total ns) run is kept. The
    /// minimum is the standard noise-robust latency estimator: scheduler
    /// preemption and cache pollution only ever add time, so min-of-N
    /// converges on the machine's true cost as N grows.
    pub repeat: usize,
}

/// Renders the full report document.
pub fn render_report(sweep: &SweepConfig, results: &[BatchRunResult]) -> String {
    let config = Json::obj([
        ("records", Json::Num(sweep.experiment.records as f64)),
        ("ops", Json::Num(sweep.experiment.ops as f64)),
        ("seed", Json::Num(sweep.experiment.seed as f64)),
        (
            "crack_threshold",
            Json::Num(sweep.experiment.crack_threshold as f64),
        ),
        ("repeat", Json::Num(sweep.repeat.max(1) as f64)),
        (
            "batch_sizes",
            Json::Arr(
                sweep
                    .batch_sizes
                    .iter()
                    .map(|&b| Json::Num(b as f64))
                    .collect(),
            ),
        ),
        (
            "workloads",
            Json::Arr(
                sweep
                    .workloads
                    .iter()
                    .map(|w| Json::Str(w.to_string()))
                    .collect(),
            ),
        ),
        (
            "fleet_workloads",
            Json::Arr(
                sweep
                    .fleet_workloads
                    .iter()
                    .map(|w| Json::Str(w.to_string()))
                    .collect(),
            ),
        ),
        (
            "fleet_trees",
            Json::Arr(
                sweep
                    .fleet_trees
                    .iter()
                    .map(|&t| Json::Num(t as f64))
                    .collect(),
            ),
        ),
        (
            "steal_trees",
            Json::Arr(
                sweep
                    .steal_trees
                    .iter()
                    .map(|&t| Json::Num(t as f64))
                    .collect(),
            ),
        ),
        (
            "steal_workers",
            Json::Arr(
                sweep
                    .steal_workers
                    .iter()
                    .map(|&w| Json::Num(w as f64))
                    .collect(),
            ),
        ),
        (
            "commit_workloads",
            Json::Arr(
                sweep
                    .commit_workloads
                    .iter()
                    .map(|w| Json::Str(w.to_string()))
                    .collect(),
            ),
        ),
        (
            "service_sessions",
            Json::Arr(
                sweep
                    .service_sessions
                    .iter()
                    .map(|&s| Json::Num(s as f64))
                    .collect(),
            ),
        ),
        ("service_threads", Json::Num(sweep.service_threads as f64)),
        (
            "rule_scale",
            Json::Arr(
                sweep
                    .rule_scale
                    .iter()
                    .map(|&r| Json::Num(r as f64))
                    .collect(),
            ),
        ),
    ]);
    let results = Json::Arr(
        results
            .iter()
            .map(|r| {
                Json::obj([
                    ("strategy", Json::Str(r.strategy.label().to_string())),
                    ("workload", Json::Str(r.workload.to_string())),
                    ("batch_size", Json::Num(r.batch_size as f64)),
                    ("trees", Json::Num(r.trees as f64)),
                    ("ops", Json::Num(r.ops as f64)),
                    ("rewrites", Json::Num(r.rewrites as f64)),
                    ("ns_per_op", Json::Num(r.ns_per_op())),
                    ("ns_per_rewrite", Json::Num(r.ns_per_rewrite())),
                    ("maintain_mean_ns", Json::Num(r.maintain_mean_ns)),
                    ("commit_mean_ns", Json::Num(r.commit_mean_ns)),
                    ("peak_bytes", Json::Num(r.peak_strategy_bytes as f64)),
                    ("final_bytes", Json::Num(r.final_strategy_bytes as f64)),
                    ("scheduler", Json::Str(r.scheduler.to_string())),
                    ("workers", Json::Num(r.workers as f64)),
                    ("steal_count", Json::Num(r.steal_count as f64)),
                    ("contended_count", Json::Num(r.contended_count as f64)),
                    ("commit", Json::Str(r.commit.to_string())),
                    ("worst_window_ns", Json::Num(r.worst_window_ns as f64)),
                    ("mode", Json::Str(r.mode.to_string())),
                    ("sessions", Json::Num(r.sessions as f64)),
                    ("p99_ns", Json::Num(r.p99_ns as f64)),
                    ("ops_per_sec", Json::Num(r.ops_per_sec())),
                    ("rule_count", Json::Num(r.rule_count as f64)),
                    (
                        "rule_matches",
                        Json::Arr(
                            r.rule_matches
                                .iter()
                                .map(|&n| Json::Num(n as f64))
                                .collect(),
                        ),
                    ),
                    (
                        "rule_rewrites",
                        Json::Arr(
                            r.rule_rewrites
                                .iter()
                                .map(|&n| Json::Num(n as f64))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("schema_version", Json::Num(BENCH_SCHEMA_VERSION as f64)),
        ("name", Json::Str("treetoaster".to_string())),
        ("quick", Json::Bool(sweep.quick)),
        ("config", config),
        ("results", results),
    ])
    .render()
}

/// Summary of a validated report.
#[derive(Debug)]
pub struct ReportSummary {
    /// Result rows.
    pub results: usize,
    /// Distinct strategy labels seen.
    pub strategies: Vec<String>,
    /// Distinct workloads seen.
    pub workloads: Vec<String>,
    /// Distinct batch sizes seen.
    pub batch_sizes: Vec<u64>,
    /// Distinct fleet tree counts seen (ascending; `[1]` for a purely
    /// single-tree report).
    pub tree_counts: Vec<u64>,
    /// Distinct reorganizer deployments seen.
    pub schedulers: Vec<String>,
    /// Distinct commit lags seen (`"sync"` = lag 0, `"async"` = lag 1).
    pub commits: Vec<String>,
    /// Distinct service session counts seen (ascending; empty for
    /// artifacts without daemon cells).
    pub session_counts: Vec<u64>,
}

fn require_num(entry: &Json, field: &str, index: usize) -> Result<f64, String> {
    let value = entry
        .get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("results[{index}]: missing numeric `{field}`"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!(
            "results[{index}]: `{field}` must be finite and ≥ 0, got {value}"
        ));
    }
    Ok(value)
}

fn require_str<'a>(entry: &'a Json, field: &str, index: usize) -> Result<&'a str, String> {
    entry
        .get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("results[{index}]: missing string `{field}`"))
}

/// Prefixes a performance gate's failure with the gate's name, so a
/// rejected report says which gate tripped.
fn gate(name: &str, verdict: Result<(), String>) -> Result<(), String> {
    verdict.map_err(|e| format!("{name} gate: {e}"))
}

/// Writes `text` to `out` only if [`validate_report`] accepts it, so
/// `out` never holds an invalid report. A rejected report is written to
/// `<out>.rejected` instead — a long sweep tripped by one noisy gate is
/// kept for inspection — and the error names the failed check and both
/// paths.
pub fn publish_report(out: &str, text: &str) -> Result<ReportSummary, String> {
    let summary = match validate_report(text) {
        Ok(summary) => summary,
        Err(e) => {
            let rejected = format!("{out}.rejected");
            let kept = match std::fs::write(&rejected, text) {
                Ok(()) => format!("rejected report written to {rejected}"),
                Err(w) => format!("cannot write the rejected report to {rejected}: {w}"),
            };
            return Err(format!(
                "emitted report failed its self-check: {e}; {kept}; {out} left unchanged"
            ));
        }
    };
    std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(summary)
}

/// Validates a rendered report against the CI contract: schema version,
/// required fields, finite positive latencies, full strategy coverage,
/// and the acceptance batch sizes {1, 8, 64}.
pub fn validate_report(text: &str) -> Result<ReportSummary, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing `schema_version`")?;
    if version != BENCH_SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version}, expected {BENCH_SCHEMA_VERSION}"
        ));
    }
    if doc.get("name").and_then(Json::as_str) != Some("treetoaster") {
        return Err("missing or wrong `name`".into());
    }
    if doc.get("config").is_none() {
        return Err("missing `config`".into());
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing `results` array")?;
    if results.is_empty() {
        return Err("`results` is empty".into());
    }

    let mut strategies: Vec<String> = Vec::new();
    let mut workloads: Vec<String> = Vec::new();
    let mut batch_sizes: Vec<u64> = Vec::new();
    let mut tree_counts: Vec<u64> = Vec::new();
    let mut schedulers: Vec<String> = Vec::new();
    let mut commits: Vec<String> = Vec::new();
    // (strategy, batch, trees, ns_per_op) for every workload-G cell,
    // feeding the fleet-scaling gate below.
    let mut g_cells: Vec<(String, u64, u64, f64)> = Vec::new();
    // (strategy, workload, batch, trees, scheduler, workers, ns_per_op)
    // for every threaded cell, feeding the stealing gate below.
    let mut pool_cells: Vec<(String, String, u64, u64, String, u64, f64)> = Vec::new();
    // Every cell's full key plus (commit, ns_per_op, worst_window_ns),
    // feeding the commit-pipeline gate below.
    let mut commit_cells: Vec<CommitCell> = Vec::new();
    // (sessions, ops_per_sec, p99_ns) for every service cell, feeding
    // the service coverage promise below.
    let mut service_cells: Vec<(u64, f64, f64)> = Vec::new();
    // (workload, rule_count, ns_per_op) for every rule-scale cell
    // (rule_count > 0), feeding the rule-scale gate below.
    let mut rule_cells: Vec<(String, u64, f64)> = Vec::new();
    for (i, entry) in results.iter().enumerate() {
        let strategy = require_str(entry, "strategy", i)?;
        let workload = require_str(entry, "workload", i)?;
        let mode = require_str(entry, "mode", i)?;
        if !matches!(mode, "library" | "service") {
            return Err(format!("results[{i}]: unknown mode `{mode}`"));
        }
        let batch = require_num(entry, "batch_size", i)?;
        if batch < 1.0 || batch.fract() != 0.0 {
            return Err(format!("results[{i}]: bad batch_size {batch}"));
        }
        let trees = require_num(entry, "trees", i)?;
        if trees < 1.0 || trees.fract() != 0.0 {
            return Err(format!("results[{i}]: bad trees {trees}"));
        }
        let ns_per_op = require_num(entry, "ns_per_op", i)?;
        if ns_per_op == 0.0 {
            return Err(format!("results[{i}]: ns_per_op is zero"));
        }
        require_num(entry, "peak_bytes", i)?;
        require_num(entry, "rewrites", i)?;
        let scheduler = require_str(entry, "scheduler", i)?;
        if !matches!(scheduler, "sync" | "steal") {
            return Err(format!("results[{i}]: unknown scheduler `{scheduler}`"));
        }
        let workers = require_num(entry, "workers", i)?;
        if workers.fract() != 0.0 {
            return Err(format!("results[{i}]: bad workers {workers}"));
        }
        if scheduler == "sync" {
            if workers != 0.0 {
                return Err(format!("results[{i}]: sync cell claims {workers} workers"));
            }
        } else {
            if workers < 1.0 {
                return Err(format!(
                    "results[{i}]: threaded cell without a worker count"
                ));
            }
            require_num(entry, "steal_count", i)?;
            require_num(entry, "contended_count", i)?;
            // Service cells run a stealing pool too, but the stealing
            // gate compares reorganizer deployments on workload I —
            // the daemon cells are judged by their own gate below.
            if mode != "service" {
                pool_cells.push((
                    strategy.to_string(),
                    workload.to_string(),
                    batch as u64,
                    trees as u64,
                    scheduler.to_string(),
                    workers as u64,
                    ns_per_op,
                ));
            }
        }
        let commit = require_str(entry, "commit", i)?;
        if !matches!(commit, "sync" | "async") {
            return Err(format!("results[{i}]: unknown commit lag `{commit}`"));
        }
        let sessions = require_num(entry, "sessions", i)?;
        if sessions.fract() != 0.0 {
            return Err(format!("results[{i}]: bad sessions {sessions}"));
        }
        let rule_count = require_num(entry, "rule_count", i)?;
        if rule_count.fract() != 0.0 {
            return Err(format!("results[{i}]: bad rule_count {rule_count}"));
        }
        for field in ["rule_matches", "rule_rewrites"] {
            if let Some(v) = entry.get(field) {
                let arr = v
                    .as_arr()
                    .ok_or_else(|| format!("results[{i}]: `{field}` must be an array"))?;
                if arr.iter().any(|e| e.as_f64().is_none()) {
                    return Err(format!("results[{i}]: `{field}` must contain numbers"));
                }
            }
        }
        if rule_count > 0.0 {
            rule_cells.push((workload.to_string(), rule_count as u64, ns_per_op));
        }
        let worst_window_ns = match entry.get("worst_window_ns") {
            None => 0.0,
            Some(_) => require_num(entry, "worst_window_ns", i)?,
        };
        if mode == "service" {
            // The daemon runs async commits by design; it has no sync
            // twin (the commit gate's library twins cover that axis).
            // Instead the service cell must carry a credible latency
            // distribution: sessions, a positive throughput, and a p99
            // that cannot exceed the worst single op.
            if sessions < 1.0 {
                return Err(format!("results[{i}]: bad service sessions {sessions}"));
            }
            let p99 = require_num(entry, "p99_ns", i)?;
            if p99 == 0.0 {
                return Err(format!("results[{i}]: service cell without a p99"));
            }
            if worst_window_ns > 0.0 && p99 > worst_window_ns {
                return Err(format!(
                    "results[{i}]: p99 {p99:.0} ns exceeds the worst op \
                     {worst_window_ns:.0} ns — the tail is inconsistent"
                ));
            }
            let ops_per_sec = require_num(entry, "ops_per_sec", i)?;
            if ops_per_sec == 0.0 {
                return Err(format!("results[{i}]: service cell without throughput"));
            }
            service_cells.push((sessions as u64, ops_per_sec, p99));
        } else if rule_count == 0.0 {
            // Rule-scale cells never enter the commit gate: they are a
            // generic-mode rule-count sweep, not a commit regime.
            commit_cells.push(CommitCell {
                strategy: strategy.to_string(),
                workload: workload.to_string(),
                batch: batch as u64,
                trees: trees as u64,
                scheduler: scheduler.to_string(),
                workers: workers as u64,
                commit: commit.to_string(),
                ns_per_op,
                worst_window_ns,
            });
        }
        if !commits.iter().any(|c| c == commit) {
            commits.push(commit.to_string());
        }
        if !schedulers.iter().any(|s| s == scheduler) {
            schedulers.push(scheduler.to_string());
        }
        if !strategies.iter().any(|s| s == strategy) {
            strategies.push(strategy.to_string());
        }
        if !workloads.iter().any(|w| w == workload) {
            workloads.push(workload.to_string());
        }
        if !batch_sizes.contains(&(batch as u64)) {
            batch_sizes.push(batch as u64);
        }
        if !tree_counts.contains(&(trees as u64)) {
            tree_counts.push(trees as u64);
        }
        if workload == "G" && rule_count == 0.0 {
            // Rule-scale G cells run the generic-mode driver on one
            // tree; mixing them into the fleet-scaling series would
            // compare different maintenance regimes.
            g_cells.push((strategy.to_string(), batch as u64, trees as u64, ns_per_op));
        }
    }

    for required in StrategyKind::all() {
        if !strategies.iter().any(|s| s == required.label()) {
            return Err(format!(
                "strategy `{}` missing from results",
                required.label()
            ));
        }
    }
    for required in [1u64, 8, 64] {
        if !batch_sizes.contains(&required) {
            return Err(format!("batch size {required} missing from results"));
        }
    }
    tree_counts.sort_unstable();
    // Multi-tree coverage contract: a report sweeping any fleet (trees
    // > 1) must carry both fleet workloads and at least two tree counts
    // on G, so the scaling axis stays regression-gated. A single-tree
    // sweep (all cells trees == 1, no G/H) validates.
    if tree_counts.iter().any(|&t| t > 1) {
        for required in ["G", "H"] {
            if !workloads.iter().any(|w| w == required) {
                return Err(format!(
                    "multi-tree report is missing fleet workload `{required}`"
                ));
            }
        }
        let mut g_trees: Vec<u64> = g_cells.iter().map(|c| c.2).collect();
        g_trees.sort_unstable();
        g_trees.dedup();
        if g_trees.len() < 2 {
            return Err(format!(
                "workload G must sweep at least two tree counts \
                 (saw {g_trees:?}) — the scaling axis needs a slope"
            ));
        }
        gate("fleet-scaling", check_fleet_scaling(&g_cells))?;
    }
    gate("stealing", check_steal_scheduling(&pool_cells))?;
    // Commit-pipeline coverage: a config that promises commit cells
    // (`commit_workloads` non-empty) must deliver both commit lags for
    // each promised workload.
    for workload in promised(&doc, "commit_workloads").filter_map(Json::as_str) {
        for mode in ["sync", "async"] {
            if !commit_cells
                .iter()
                .any(|c| c.workload == *workload && c.commit == mode)
            {
                return Err(format!(
                    "config promises commit-pipeline coverage on workload \
                     `{workload}` but no `commit: \"{mode}\"` cell exists"
                ));
            }
        }
    }
    gate("commit-pipeline", check_commit_pipeline(&commit_cells))?;
    // Service coverage: a config that promises daemon cells
    // (`service_sessions` non-empty) must deliver a `mode: "service"`
    // cell at each promised session count.
    for n in promised(&doc, "service_sessions").filter_map(Json::as_f64) {
        let n = n as u64;
        if !service_cells.iter().any(|&(s, _, _)| s == n) {
            return Err(format!(
                "config promises a service cell at {n} sessions but none exists"
            ));
        }
    }
    // Rule-scale coverage: a config that promises rule-scale cells
    // (`rule_scale` non-empty) must deliver workloads A and G at each
    // promised probe count.
    for r in promised(&doc, "rule_scale").filter_map(Json::as_f64) {
        let r = r as u64;
        for workload in ["A", "G"] {
            if !rule_cells.iter().any(|c| c.0 == workload && c.1 == r) {
                return Err(format!(
                    "config promises a rule-scale cell at R={r} on workload \
                     `{workload}` but none exists"
                ));
            }
        }
    }
    gate("rule-scale", check_rule_scale(&rule_cells))?;
    let mut session_counts: Vec<u64> = service_cells.iter().map(|&(s, _, _)| s).collect();
    session_counts.sort_unstable();
    session_counts.dedup();
    Ok(ReportSummary {
        results: results.len(),
        strategies,
        workloads,
        batch_sizes,
        tree_counts,
        schedulers,
        commits,
        session_counts,
    })
}

/// The entries of the config list `key`: what the sweep promised on
/// that axis (nothing when the list is empty or absent).
fn promised<'a>(doc: &'a Json, key: &str) -> impl Iterator<Item = &'a Json> {
    doc.get("config")
        .and_then(|c| c.get(key))
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
}

/// How much slower than the one-worker-per-shard baseline a smaller
/// stealing pool may measure before the gate trips. Threaded cells are
/// the noisiest in the report (the op path races the reorganizers), so
/// like the fleet-scaling envelope this is set to catch genuine
/// inversions — "stealing lost badly" — rather than scheduler jitter.
pub const STEAL_GATE_ENVELOPE: f64 = 1.25;

/// The stealing gate: for every `(strategy, workload, batch, trees)`
/// combination that measured threaded pools, a baseline pool with one
/// worker per shard (`workers == trees`) must exist alongside at least
/// one pool with `workers < trees` (otherwise nothing is stolen), and
/// the best such pool must stay within [`STEAL_GATE_ENVELOPE`] of the
/// baseline's ns/op.
#[allow(clippy::type_complexity)]
fn check_steal_scheduling(
    pool_cells: &[(String, String, u64, u64, String, u64, f64)],
) -> Result<(), String> {
    let groups: std::collections::BTreeSet<(String, String, u64, u64)> = pool_cells
        .iter()
        .map(|(s, w, b, t, _, _, _)| (s.clone(), w.clone(), *b, *t))
        .collect();
    for (strategy, workload, batch, trees) in groups {
        let pools: Vec<(u64, f64)> = pool_cells
            .iter()
            .filter(|(s, w, b, t, _, _, _)| {
                *s == strategy && *w == workload && *b == batch && *t == trees
            })
            .map(|&(_, _, _, _, _, workers, ns)| (workers, ns))
            .collect();
        let Some(&(_, baseline_ns)) = pools.iter().find(|&&(workers, _)| workers == trees) else {
            return Err(format!(
                "threaded cells for {workload}/{strategy}/K={batch}/T={trees} \
                 lack a one-worker-per-shard baseline ({trees} workers)"
            ));
        };
        let Some((best_workers, best_ns)) = pools
            .into_iter()
            .filter(|&(workers, _)| workers < trees)
            .min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            return Err(format!(
                "threaded cells for {workload}/{strategy}/K={batch}/T={trees} \
                 have no stealing pool smaller than the shard count"
            ));
        };
        if best_ns > baseline_ns * STEAL_GATE_ENVELOPE {
            return Err(format!(
                "stealing regression on {workload}/{strategy}/K={batch}/T={trees}: \
                 best pool ({best_workers} workers) ran {best_ns:.0} ns/op vs \
                 {baseline_ns:.0} for {trees} workers \
                 (>{STEAL_GATE_ENVELOPE}x envelope)"
            ));
        }
    }
    Ok(())
}

/// How much slower than its synchronous twin an async-commit cell's
/// ns/op may measure before the commit gate trips. The async pipeline
/// moves the apply, it doesn't remove it — the clock still runs until
/// the committer drains — so on uniform workloads the two twins do the
/// same total work and the envelope only catches genuine pipeline
/// overhead (queue churn, lock traffic), not jitter.
pub const COMMIT_GATE_ENVELOPE: f64 = 1.25;

/// One parsed result row for the commit gate: the full cell key plus
/// the two latency numbers the gate compares.
#[derive(Debug, Clone)]
struct CommitCell {
    strategy: String,
    workload: String,
    batch: u64,
    trees: u64,
    scheduler: String,
    workers: u64,
    commit: String,
    ns_per_op: f64,
    worst_window_ns: f64,
}

/// The commit gate: every `commit: "async"` cell must have a
/// synchronous twin (identical key except the commit axis) to be
/// judged against — ns/op within [`COMMIT_GATE_ENVELOPE`] everywhere,
/// and on the skewed workload I (where the hot shards' epochs make the
/// inline apply a real tail contributor) the async cell must be
/// *ahead* on `worst_window_ns`: a seal-only commit window that is
/// slower than pay-the-apply means the pipeline's whole premise failed.
fn check_commit_pipeline(commit_cells: &[CommitCell]) -> Result<(), String> {
    for cell in commit_cells.iter().filter(|c| c.commit == "async") {
        let Some(twin) = commit_cells.iter().find(|c| {
            c.commit == "sync"
                && c.strategy == cell.strategy
                && c.workload == cell.workload
                && c.batch == cell.batch
                && c.trees == cell.trees
                && c.scheduler == cell.scheduler
                && c.workers == cell.workers
        }) else {
            return Err(format!(
                "async commit cell {}/{}/K={}/T={} lacks its synchronous twin",
                cell.workload, cell.strategy, cell.batch, cell.trees
            ));
        };
        if cell.ns_per_op > twin.ns_per_op * COMMIT_GATE_ENVELOPE {
            return Err(format!(
                "commit-pipeline regression on {}/{}/K={}/T={}: async ran \
                 {:.0} ns/op vs {:.0} sync (>{COMMIT_GATE_ENVELOPE}x envelope)",
                cell.workload,
                cell.strategy,
                cell.batch,
                cell.trees,
                cell.ns_per_op,
                twin.ns_per_op
            ));
        }
        if cell.workload == "I" && cell.worst_window_ns > twin.worst_window_ns {
            return Err(format!(
                "commit-pipeline tail regression on I/{}/K={}/T={}: async \
                 worst commit window {:.0} ns vs {:.0} sync — sealing must \
                 beat paying the apply inline under skew",
                cell.strategy, cell.batch, cell.trees, cell.worst_window_ns, twin.worst_window_ns
            ));
        }
    }
    Ok(())
}

/// How much ns/op on workload A may grow from the smallest to the
/// largest swept rule count before the rule-scale gate trips. The
/// automaton's last artifact with both matchers read 19 667 → 38 168
/// ns/op (1.94×) from R = 4 to R = 64, while the retired per-rule
/// matcher read 22 491 → 85 023 (3.78×); 3× sits between the two, so a
/// regression to per-rule-like scaling trips it and runner jitter does
/// not.
pub const RULE_SCALE_GROWTH_MAX: f64 = 3.0;

/// The rule-scale gate, judged on workload A (the single-tree YCSB mix;
/// the G cells are coverage for the fleet op mix, not a second gate):
/// ns/op at the largest swept count within [`RULE_SCALE_GROWTH_MAX`]×
/// ns/op at the smallest. Cells are `(workload, rule_count, ns_per_op)`.
fn check_rule_scale(rule_cells: &[(String, u64, f64)]) -> Result<(), String> {
    let mut a_cells: Vec<(u64, f64)> = rule_cells
        .iter()
        .filter(|c| c.0 == "A")
        .map(|c| (c.1, c.2))
        .collect();
    a_cells.sort_by_key(|&(r, _)| r);
    let (Some(&(rmin, ns_min)), Some(&(rmax, ns_max))) = (a_cells.first(), a_cells.last()) else {
        return Ok(());
    };
    if rmax > rmin && ns_max > ns_min * RULE_SCALE_GROWTH_MAX {
        return Err(format!(
            "rule-scale growth on A: {ns_max:.0} ns/op at R={rmax} vs {ns_min:.0} at \
             R={rmin} ({:.2}x, bound {RULE_SCALE_GROWTH_MAX}x) — matching cost \
             grows with the rule count as if each rule were evaluated separately",
            ns_max / ns_min
        ));
    }
    Ok(())
}

/// The fleet-scaling gate on workload G (burst-of-plans): per
/// (strategy, batch size), ns/op **per maintained view** must grow
/// sublinearly in tree count between the smallest and largest swept
/// counts. Views scale with trees, so the bound is
/// `ns(T₂)/T₂ < (ns(T₁)/T₁) · (T₂/T₁)` — i.e. `ns(T₂) < ns(T₁)·(T₂/T₁)²`.
/// Per-shard isolation keeps real runs near-flat in total ns/op (each op
/// lands on one smaller tree), so the quadratic envelope only trips on
/// genuine scaling rot, not scheduler noise.
fn check_fleet_scaling(g_cells: &[(String, u64, u64, f64)]) -> Result<(), String> {
    for (strategy, batch) in g_cells
        .iter()
        .map(|(s, b, _, _)| (s.clone(), *b))
        .collect::<std::collections::BTreeSet<(String, u64)>>()
    {
        let mut series: Vec<(u64, f64)> = g_cells
            .iter()
            .filter(|(s, b, _, _)| *s == strategy && *b == batch)
            .map(|&(_, _, t, ns)| (t, ns))
            .collect();
        series.sort_by_key(|&(t, _)| t);
        let Some((&(t1, ns1), &(t2, ns2))) = series.first().zip(series.last()) else {
            continue;
        };
        if t1 == t2 {
            continue;
        }
        let ratio = t2 as f64 / t1 as f64;
        if ns2 >= ns1 * ratio * ratio {
            return Err(format!(
                "fleet scaling regression on G/{strategy}/K={batch}: \
                 ns/op {ns1:.0} at {t1} trees → {ns2:.0} at {t2} trees \
                 (per-view growth is superlinear in tree count)"
            ));
        }
    }
    Ok(())
}

/// Default per-cell ns/op regression tolerance for
/// [`compare_reports`]: 15% slower than the baseline fails.
pub const DEFAULT_REGRESSION_THRESHOLD: f64 = 0.15;

/// One cell's before/after latency, keyed by `(strategy, workload,
/// batch_size, trees, scheduler, workers, commit, mode, sessions,
/// rule_count)`.
#[derive(Debug, Clone)]
pub struct CellDelta {
    /// Strategy label.
    pub strategy: String,
    /// Workload mnemonic.
    pub workload: String,
    /// Ops per maintenance epoch.
    pub batch_size: u64,
    /// Fleet tree count (1 for single-tree cells).
    pub trees: u64,
    /// Reorganizer deployment (`"sync"` for inline-reorganizing cells).
    pub scheduler: String,
    /// Background workers (0 for sync cells).
    pub workers: u64,
    /// Commit lag (`"sync"` = lag 0, `"async"` = lag 1).
    pub commit: String,
    /// Harness (`"library"` for in-process cells, `"service"` for
    /// daemon cells).
    pub mode: String,
    /// Concurrent daemon sessions (0 for library cells).
    pub sessions: u64,
    /// Synthetic probe rules (0 for stock-rule cells).
    pub rule_count: u64,
    /// Baseline ns/op.
    pub old_ns: f64,
    /// Candidate ns/op.
    pub new_ns: f64,
}

impl CellDelta {
    /// `new / old` — above 1.0 is a slowdown.
    pub fn ratio(&self) -> f64 {
        self.new_ns / self.old_ns
    }

    #[allow(clippy::type_complexity)]
    fn key(&self) -> (&str, &str, u64, u64, &str, u64, &str, &str, u64, u64) {
        (
            &self.strategy,
            &self.workload,
            self.batch_size,
            self.trees,
            &self.scheduler,
            self.workers,
            &self.commit,
            &self.mode,
            self.sessions,
            self.rule_count,
        )
    }
}

/// The outcome of a trend comparison between two valid reports.
#[derive(Debug)]
pub struct Comparison {
    /// Every cell present in both reports.
    pub cells: Vec<CellDelta>,
    /// The tolerance regressions were judged against.
    pub threshold: f64,
}

impl Comparison {
    /// Cells whose ns/op grew beyond the threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &CellDelta> + '_ {
        self.cells
            .iter()
            .filter(|c| c.ratio() > 1.0 + self.threshold)
    }

    /// True if no cell regressed beyond the threshold.
    pub fn passed(&self) -> bool {
        self.regressions().next().is_none()
    }
}

/// Every cell of a valid report, its ns/op on both sides.
fn collect_cells(text: &str, which: &str) -> Result<Vec<CellDelta>, String> {
    validate_report(text).map_err(|e| format!("{which} report: {e}"))?;
    let doc = Json::parse(text).expect("validated above");
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .expect("validated");
    Ok(results
        .iter()
        .map(|entry| {
            let text = |field| {
                entry
                    .get(field)
                    .and_then(Json::as_str)
                    .expect("validated")
                    .to_string()
            };
            let num = |field| entry.get(field).and_then(Json::as_f64).expect("validated");
            CellDelta {
                strategy: text("strategy"),
                workload: text("workload"),
                batch_size: num("batch_size") as u64,
                trees: num("trees") as u64,
                scheduler: text("scheduler"),
                workers: num("workers") as u64,
                commit: text("commit"),
                mode: text("mode"),
                sessions: num("sessions") as u64,
                rule_count: num("rule_count") as u64,
                old_ns: num("ns_per_op"),
                new_ns: num("ns_per_op"),
            }
        })
        .collect())
}

/// Scale knobs that must agree for two reports' ns/op to be comparable
/// at all. `repeat` is deliberately excluded: min-of-N converges on the
/// same underlying latency for any N.
const COMPARABLE_CONFIG: [&str; 4] = ["records", "ops", "seed", "crack_threshold"];

fn check_configs_comparable(old_text: &str, new_text: &str) -> Result<(), String> {
    let old_doc = Json::parse(old_text).expect("validated");
    let new_doc = Json::parse(new_text).expect("validated");
    for field in COMPARABLE_CONFIG {
        let read = |doc: &Json| {
            doc.get("config")
                .and_then(|c| c.get(field))
                .and_then(Json::as_f64)
        };
        let (old, new) = (read(&old_doc), read(&new_doc));
        if old != new {
            return Err(format!(
                "reports are not comparable: config `{field}` is {} in the baseline \
                 but {} in the candidate (ns/op only compares at identical scale)",
                old.map_or("missing".to_string(), |v| v.to_string()),
                new.map_or("missing".to_string(), |v| v.to_string()),
            ));
        }
    }
    Ok(())
}

/// Per-cell ns/op trend gate: pairs `old` and `new` results by their
/// full key and reports every shared cell's latency ratio. Errors on
/// invalid reports, on mismatched experiment scale
/// (records/ops/seed/crack_threshold must agree — ratios between
/// different scales measure the scale, not the code), or when a
/// baseline cell is missing from the candidate (coverage must never
/// silently shrink); cells only present in the candidate are new
/// coverage and pass. The caller decides pass/fail via
/// [`Comparison::passed`].
pub fn compare_reports(
    old_text: &str,
    new_text: &str,
    threshold: f64,
) -> Result<Comparison, String> {
    if !threshold.is_finite() || threshold < 0.0 {
        return Err(format!("threshold must be finite and ≥ 0, got {threshold}"));
    }
    let old_cells = collect_cells(old_text, "baseline")?;
    let new_cells = collect_cells(new_text, "candidate")?;
    check_configs_comparable(old_text, new_text)?;
    let cells = old_cells
        .into_iter()
        .map(|mut cell| {
            let new = new_cells
                .iter()
                .find(|c| c.key() == cell.key())
                .ok_or_else(|| {
                    format!(
                        "cell {}/{}/K={}/T={}/{}/W={}/{}/{}/S={}/R={} present in baseline, \
                         missing from candidate",
                        cell.strategy,
                        cell.workload,
                        cell.batch_size,
                        cell.trees,
                        cell.scheduler,
                        cell.workers,
                        cell.commit,
                        cell.mode,
                        cell.sessions,
                        cell.rule_count
                    )
                })?;
            cell.new_ns = new.new_ns;
            Ok(cell)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Comparison { cells, threshold })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> SweepConfig {
        SweepConfig {
            quick: true,
            experiment: ExperimentConfig {
                records: 64,
                ops: 8,
                crack_threshold: 16,
                seed: 1,
            },
            batch_sizes: vec![1, 8, 64],
            workloads: vec!['A'],
            fleet_workloads: vec![],
            fleet_trees: vec![],
            steal_trees: vec![],
            steal_workers: vec![],
            commit_workloads: vec![],
            service_sessions: vec![],
            service_threads: 0,
            rule_scale: vec![],
            repeat: 1,
        }
    }

    fn cell(
        workload: char,
        strategy: StrategyKind,
        batch_size: usize,
        trees: usize,
    ) -> BatchRunResult {
        BatchRunResult {
            workload,
            strategy,
            batch_size,
            trees,
            ops: 8,
            rewrites: 3,
            total_ns: 12_000,
            maintain_mean_ns: 100.0,
            commit_mean_ns: 50.0,
            peak_strategy_bytes: 2048,
            final_strategy_bytes: 1024,
            scheduler: "sync",
            workers: 0,
            steal_count: 0,
            contended_count: 0,
            commit: "sync",
            worst_window_ns: 3_000,
            mode: "library",
            sessions: 0,
            p99_ns: 0,
            rule_count: 0,
            rule_matches: vec![3, 0, 0, 0, 0],
            rule_rewrites: vec![3, 0, 0, 0, 0],
        }
    }

    /// A rule-scale cell: `rule_count` probes through the generic-mode
    /// driver at K=8 on one tree.
    fn rule_cell(workload: char, rule_count: usize, total_ns: u64) -> BatchRunResult {
        BatchRunResult {
            total_ns,
            rule_count,
            rule_matches: vec![1; 5 + rule_count],
            rule_rewrites: vec![1; 5 + rule_count],
            ..cell(workload, StrategyKind::TreeToaster, 8, 1)
        }
    }

    /// Full rule-scale coverage at the given probe counts on both
    /// workloads, flat in R (so the growth gate passes by default).
    fn full_rule_cells(counts: &[usize]) -> Vec<BatchRunResult> {
        let mut out = Vec::new();
        for &r in counts {
            for workload in ['A', 'G'] {
                out.push(rule_cell(workload, r, 10_000));
            }
        }
        out
    }

    /// A daemon cell: `sessions` concurrent sessions on workload S.
    fn service_cell(sessions: usize) -> BatchRunResult {
        BatchRunResult {
            workload: 'S',
            trees: 1,
            total_ns: 50_000,
            scheduler: "steal",
            workers: 2,
            commit: "async",
            worst_window_ns: 9_000,
            mode: "service",
            sessions,
            p99_ns: 6_000,
            ..cell('S', StrategyKind::TreeToaster, 64, 1)
        }
    }

    /// A commit-pipeline twin: `("sync" | "async", total_ns,
    /// worst_window_ns)` on workload I at K=8 over 4 trees.
    fn commit_cell(commit: &'static str, total_ns: u64, worst_window_ns: u64) -> BatchRunResult {
        BatchRunResult {
            batch_size: 8,
            total_ns,
            commit,
            worst_window_ns,
            ..cell('I', StrategyKind::TreeToaster, 8, 4)
        }
    }

    /// A threaded workload-I pool cell over 8 shards (`workers: 8` is
    /// the one-worker-per-shard baseline).
    fn pool_cell(workers: usize, total_ns: u64) -> BatchRunResult {
        BatchRunResult {
            workload: 'I',
            trees: 8,
            total_ns,
            scheduler: "steal",
            workers,
            steal_count: 5,
            contended_count: 1,
            ..cell('I', StrategyKind::TreeToaster, 1, 8)
        }
    }

    fn fake_results() -> Vec<BatchRunResult> {
        let mut out = Vec::new();
        for strategy in StrategyKind::all() {
            for &batch_size in &[1usize, 8, 64] {
                out.push(cell('A', strategy, batch_size, 1));
            }
        }
        out
    }

    fn fake_fleet_results() -> Vec<BatchRunResult> {
        let mut out = fake_results();
        for workload in ['G', 'H'] {
            for strategy in StrategyKind::all() {
                for &batch_size in &[1usize, 8, 64] {
                    for trees in [1usize, 4] {
                        out.push(cell(workload, strategy, batch_size, trees));
                    }
                }
            }
        }
        out
    }

    fn fleet_sweep() -> SweepConfig {
        let mut s = sweep();
        s.fleet_workloads = vec!['G', 'H'];
        s.fleet_trees = vec![1, 4];
        s
    }

    #[test]
    fn rendered_report_validates() {
        let text = render_report(&sweep(), &fake_results());
        let summary = validate_report(&text).unwrap();
        assert_eq!(summary.results, 15);
        assert_eq!(summary.strategies.len(), 5);
        assert_eq!(summary.batch_sizes, vec![1, 8, 64]);
        assert_eq!(summary.workloads, vec!["A".to_string()]);
        assert_eq!(summary.tree_counts, vec![1]);
        assert_eq!(summary.schedulers, vec!["sync".to_string()]);
    }

    #[test]
    fn steal_gate_passes_and_trips() {
        // Baseline at 12_000 ns; a 2-worker pool at 10_000 beats it.
        let mut results = fake_fleet_results();
        results.push(pool_cell(8, 12_000));
        results.push(pool_cell(2, 10_000));
        let summary = validate_report(&render_report(&fleet_sweep(), &results)).unwrap();
        assert!(summary.schedulers.iter().any(|s| s == "steal"));
        // Pool slower but inside the envelope: still passes.
        let mut results = fake_fleet_results();
        results.push(pool_cell(8, 12_000));
        results.push(pool_cell(2, 14_000));
        validate_report(&render_report(&fleet_sweep(), &results)).unwrap();
        // Pool beyond the envelope: the gate names the cell.
        let mut results = fake_fleet_results();
        results.push(pool_cell(8, 12_000));
        results.push(pool_cell(2, 40_000));
        let err = validate_report(&render_report(&fleet_sweep(), &results)).unwrap_err();
        assert!(err.contains("stealing regression"), "{err}");
        // Multiple pool sizes: the best one carries the gate.
        let mut results = fake_fleet_results();
        results.push(pool_cell(8, 12_000));
        results.push(pool_cell(4, 40_000));
        results.push(pool_cell(2, 11_000));
        validate_report(&render_report(&fleet_sweep(), &results)).unwrap();
    }

    #[test]
    fn steal_gate_requires_baseline_and_a_smaller_pool() {
        // Stealing cells without a one-worker-per-shard baseline are
        // rejected…
        let mut results = fake_fleet_results();
        results.push(pool_cell(2, 10_000));
        let err = validate_report(&render_report(&fleet_sweep(), &results)).unwrap_err();
        assert!(err.contains("one-worker-per-shard baseline"), "{err}");
        // …and a baseline alone steals nothing.
        let mut results = fake_fleet_results();
        results.push(pool_cell(8, 12_000));
        let err = validate_report(&render_report(&fleet_sweep(), &results)).unwrap_err();
        assert!(err.contains("smaller than the shard count"), "{err}");
    }

    #[test]
    fn commit_gate_passes_and_trips() {
        // Async at parity on ns/op and ahead on the worst window: passes.
        let mut results = fake_fleet_results();
        results.push(commit_cell("sync", 12_000, 5_000));
        results.push(commit_cell("async", 12_500, 3_000));
        let summary = validate_report(&render_report(&fleet_sweep(), &results)).unwrap();
        assert!(summary.commits.iter().any(|c| c == "async"));
        assert!(summary.commits.iter().any(|c| c == "sync"));
        // ns/op beyond the envelope: the gate names the cell.
        let mut results = fake_fleet_results();
        results.push(commit_cell("sync", 12_000, 5_000));
        results.push(commit_cell("async", 40_000, 3_000));
        let err = validate_report(&render_report(&fleet_sweep(), &results)).unwrap_err();
        assert!(err.contains("commit-pipeline regression"), "{err}");
        // Worst window behind the sync twin on the skewed workload: the
        // tail claim failed even though ns/op is fine.
        let mut results = fake_fleet_results();
        results.push(commit_cell("sync", 12_000, 5_000));
        results.push(commit_cell("async", 12_000, 6_000));
        let err = validate_report(&render_report(&fleet_sweep(), &results)).unwrap_err();
        assert!(err.contains("tail regression"), "{err}");
    }

    #[test]
    fn commit_gate_requires_a_synchronous_twin() {
        let mut results = fake_fleet_results();
        results.push(commit_cell("async", 12_000, 3_000));
        let err = validate_report(&render_report(&fleet_sweep(), &results)).unwrap_err();
        assert!(err.contains("synchronous twin"), "{err}");
    }

    #[test]
    fn commit_coverage_promise_is_enforced() {
        // A config promising commit coverage on I must deliver both
        // modes…
        let mut promised = fleet_sweep();
        promised.commit_workloads = vec!['I'];
        let err = validate_report(&render_report(&promised, &fake_fleet_results())).unwrap_err();
        assert!(err.contains("commit-pipeline coverage"), "{err}");
        let mut results = fake_fleet_results();
        results.push(commit_cell("sync", 12_000, 5_000));
        let err = validate_report(&render_report(&promised, &results)).unwrap_err();
        assert!(err.contains("async"), "{err}");
        // …and does validate once both twins exist.
        results.push(commit_cell("async", 12_500, 3_000));
        validate_report(&render_report(&promised, &results)).unwrap();
        // An empty promise (a sweep without commit twins) demands
        // nothing.
        validate_report(&render_report(&fleet_sweep(), &fake_fleet_results())).unwrap();
    }

    #[test]
    fn compare_keys_cells_by_commit_lag() {
        // The two commit twins share every other key coordinate; the
        // commit axis must keep them apart.
        let mut results = fake_fleet_results();
        results.push(commit_cell("sync", 12_000, 5_000));
        results.push(commit_cell("async", 12_500, 3_000));
        let text = render_report(&fleet_sweep(), &results);
        let cmp = compare_reports(&text, &text, 0.15).unwrap();
        assert!(cmp.passed());
        let piped: Vec<&CellDelta> = cmp.cells.iter().filter(|c| c.commit == "async").collect();
        assert_eq!(piped.len(), 1, "the async twin pairs distinctly");
        assert_eq!(piped[0].workload, "I");
        // Losing the async twin is reported with its commit key.
        let mut lost = fake_fleet_results();
        lost.push(commit_cell("sync", 12_000, 5_000));
        let err = compare_reports(&text, &render_report(&fleet_sweep(), &lost), 0.15).unwrap_err();
        assert!(err.contains("async"), "{err}");
        assert!(err.contains("missing from candidate"), "{err}");
    }

    #[test]
    fn service_cells_validate_and_promise_is_enforced() {
        // A service cell validates without tripping the stealing or
        // commit gates (it is a steal/async cell with no library twin).
        let mut results = fake_fleet_results();
        results.push(service_cell(1000));
        let mut promised = fleet_sweep();
        promised.service_sessions = vec![1000];
        promised.service_threads = 8;
        let summary = validate_report(&render_report(&promised, &results)).unwrap();
        assert_eq!(summary.session_counts, vec![1000]);
        assert!(summary.workloads.iter().any(|w| w == "S"));
        // A config that promises 1000 sessions but delivers none fails…
        let err = validate_report(&render_report(&promised, &fake_fleet_results())).unwrap_err();
        assert!(err.contains("1000 sessions"), "{err}");
        // …and a service cell with an inconsistent tail is rejected.
        let mut bad = fake_fleet_results();
        bad.push(BatchRunResult {
            p99_ns: 99_000, // above the worst op
            ..service_cell(1000)
        });
        let err = validate_report(&render_report(&promised, &bad)).unwrap_err();
        assert!(err.contains("tail is inconsistent"), "{err}");
        // An empty promise (a sweep without the axis) demands nothing.
        validate_report(&render_report(&fleet_sweep(), &fake_fleet_results())).unwrap();
    }

    #[test]
    fn compare_keys_cells_by_mode_and_sessions() {
        let mut results = fake_fleet_results();
        results.push(service_cell(256));
        results.push(service_cell(1000));
        let mut sweep = fleet_sweep();
        sweep.service_sessions = vec![256, 1000];
        let text = render_report(&sweep, &results);
        let cmp = compare_reports(&text, &text, 0.15).unwrap();
        assert!(cmp.passed());
        let svc: Vec<&CellDelta> = cmp.cells.iter().filter(|c| c.mode == "service").collect();
        assert_eq!(svc.len(), 2, "both session counts pair distinctly");
        // Losing the 1000-session cell is reported with its mode key.
        let mut lost = fake_fleet_results();
        lost.push(service_cell(256));
        let mut lost_sweep = fleet_sweep();
        lost_sweep.service_sessions = vec![256];
        let err = compare_reports(&text, &render_report(&lost_sweep, &lost), 0.15).unwrap_err();
        assert!(err.contains("service"), "{err}");
        assert!(err.contains("S=1000"), "{err}");
    }

    #[test]
    fn rule_scale_cells_validate_and_promise_is_enforced() {
        let mut promised = sweep();
        promised.rule_scale = vec![4, 64];
        let mut results = fake_results();
        results.extend(full_rule_cells(&[4, 64]));
        validate_report(&render_report(&promised, &results)).unwrap();
        // A config promising R = {4, 64} but delivering no rule-scale
        // cells fails…
        let err = validate_report(&render_report(&promised, &fake_results())).unwrap_err();
        assert!(err.contains("rule-scale"), "{err}");
        // …and losing one workload at one count names the hole.
        let mut partial = fake_results();
        partial.extend(
            full_rule_cells(&[4, 64])
                .into_iter()
                .filter(|c| !(c.rule_count == 64 && c.workload == 'G')),
        );
        let err = validate_report(&render_report(&promised, &partial)).unwrap_err();
        assert!(err.contains("`G`"), "{err}");
        assert!(err.contains("R=64"), "{err}");
        // An empty promise (a sweep without the axis) demands nothing.
        validate_report(&render_report(&sweep(), &fake_results())).unwrap();
    }

    #[test]
    fn rule_scale_gate_bounds_growth_across_rule_counts() {
        let mut promised = sweep();
        promised.rule_scale = vec![4, 16, 64];
        let report = |a_ns: [u64; 3]| {
            let mut results = fake_results();
            for (&r, ns) in [4, 16, 64].iter().zip(a_ns) {
                results.push(rule_cell('A', r, ns));
                results.push(rule_cell('G', r, 10_000));
            }
            render_report(&promised, &results)
        };
        // The automaton's last two-matcher artifact: 19 667 → 38 168
        // ns/op on A from R = 4 to 64 (1.94×) passes.
        validate_report(&report([19_667 * 8, 23_488 * 8, 38_168 * 8])).unwrap();
        // The retired per-rule matcher's 22 491 → 85 023 (3.78×) trips
        // the gate, which names both ends.
        let err = validate_report(&report([22_491 * 8, 36_173 * 8, 85_023 * 8])).unwrap_err();
        assert!(err.contains("rule-scale"), "{err}");
        assert!(err.contains("R=64") && err.contains("R=4"), "{err}");
        // Only A is judged: the same growth on G alone passes.
        let mut results = fake_results();
        for r in [4, 64] {
            results.push(rule_cell('A', r, 10_000));
        }
        results.push(rule_cell('G', 4, 10_000));
        results.push(rule_cell('G', 64, 40_000));
        let mut promised_ag = sweep();
        promised_ag.rule_scale = vec![4, 64];
        validate_report(&render_report(&promised_ag, &results)).unwrap();
    }

    #[test]
    fn compare_keys_cells_by_matcher_and_rule_count() {
        // Every cell searches through the compiled automaton, so the
        // report carries no matcher axis; a rule-scale cell shares every
        // other key coordinate with a stock cell, and the rule-count
        // axis must keep them apart.
        let mut promised = sweep();
        promised.rule_scale = vec![4];
        let mut results = fake_results();
        results.extend(full_rule_cells(&[4]));
        let text = render_report(&promised, &results);
        assert!(!text.contains("matcher"), "no matcher axis");
        let cmp = compare_reports(&text, &text, 0.15).unwrap();
        assert!(cmp.passed());
        let scaled: Vec<&CellDelta> = cmp.cells.iter().filter(|c| c.rule_count > 0).collect();
        assert_eq!(scaled.len(), 2, "one compiled cell per workload pairs");
        assert!(scaled.iter().all(|c| c.ratio() == 1.0));
        // Losing a rule-scale cell is still reported with its R key
        // (the lost report promises nothing, so it validates alone).
        let lost = render_report(&sweep(), &fake_results());
        let err = compare_reports(&text, &lost, 0.15).unwrap_err();
        assert!(err.contains("R=4"), "{err}");
        assert!(err.contains("missing from candidate"), "{err}");
    }

    #[test]
    fn fleet_report_validates_and_coverage_is_gated() {
        let text = render_report(&fleet_sweep(), &fake_fleet_results());
        let summary = validate_report(&text).unwrap();
        assert_eq!(summary.tree_counts, vec![1, 4]);
        assert!(summary.workloads.iter().any(|w| w == "G"));
        // Dropping H from a multi-tree report is a coverage failure…
        let no_h: Vec<BatchRunResult> = fake_fleet_results()
            .into_iter()
            .filter(|r| r.workload != 'H')
            .collect();
        let err = validate_report(&render_report(&fleet_sweep(), &no_h)).unwrap_err();
        assert!(err.contains("`H`"), "{err}");
        // …and so is sweeping G at only one tree count.
        let one_count: Vec<BatchRunResult> = fake_fleet_results()
            .into_iter()
            .filter(|r| r.workload != 'G' || r.trees == 4)
            .collect();
        let err = validate_report(&render_report(&fleet_sweep(), &one_count)).unwrap_err();
        assert!(err.contains("two tree counts"), "{err}");
    }

    #[test]
    fn fleet_scaling_gate_trips_on_superlinear_growth() {
        // Inflate the 4-tree G cells past the quadratic envelope
        // (ratio² = 16×) for one strategy.
        let mut results = fake_fleet_results();
        for r in &mut results {
            if r.workload == 'G' && r.trees == 4 && r.strategy.label() == "TT" {
                r.total_ns *= 20;
            }
        }
        let err = validate_report(&render_report(&fleet_sweep(), &results)).unwrap_err();
        assert!(err.contains("fleet scaling regression"), "{err}");
        assert!(err.contains("TT"), "{err}");
        // 8× growth at 4 trees is sublinear per view: passes.
        let mut results = fake_fleet_results();
        for r in &mut results {
            if r.workload == 'G' && r.trees == 4 {
                r.total_ns *= 8;
            }
        }
        validate_report(&render_report(&fleet_sweep(), &results)).unwrap();
    }

    #[test]
    fn compare_pairs_cells_by_tree_count() {
        // Baseline without fleet cells vs candidate with them: the new
        // coverage passes; losing it errors and names the T= key.
        let old = render_report(&sweep(), &fake_results());
        let new = render_report(&fleet_sweep(), &fake_fleet_results());
        let cmp = compare_reports(&old, &new, 0.15).unwrap();
        assert!(cmp.passed());
        assert_eq!(cmp.cells.len(), 15, "only shared single-tree cells pair");
        let err = compare_reports(&new, &old, 0.15).unwrap_err();
        assert!(err.contains("missing from candidate"), "{err}");
        assert!(err.contains("T="), "{err}");
        // Same fleet on both sides: every cell pairs, including trees=4.
        let cmp = compare_reports(&new, &new, 0.15).unwrap();
        assert!(cmp.cells.iter().any(|c| c.trees == 4));
        assert!(cmp.passed());
    }

    #[test]
    fn compare_keys_cells_by_scheduler_and_workers() {
        // Two pools share (strategy, workload, K, trees): the worker
        // axis must keep them apart.
        let mut results = fake_fleet_results();
        results.push(pool_cell(8, 12_000));
        results.push(pool_cell(2, 10_000));
        let text = render_report(&fleet_sweep(), &results);
        let cmp = compare_reports(&text, &text, 0.15).unwrap();
        assert!(cmp.passed());
        let pooled: Vec<&CellDelta> = cmp.cells.iter().filter(|c| c.scheduler != "sync").collect();
        assert_eq!(pooled.len(), 2, "both threaded cells pair distinctly");
        assert!(pooled.iter().all(|c| c.scheduler == "steal"));
        assert!(pooled.iter().any(|c| c.workers == 8));
        assert!(pooled.iter().any(|c| c.workers == 2));
        // Losing just the stealing cell is reported with its full key.
        let mut lost = fake_fleet_results();
        lost.push(pool_cell(8, 12_000));
        lost.push(pool_cell(4, 11_000));
        let err = compare_reports(&text, &render_report(&fleet_sweep(), &lost), 0.15).unwrap_err();
        assert!(err.contains("steal"), "{err}");
        assert!(err.contains("W=2"), "{err}");
    }

    #[test]
    fn validation_rejects_missing_strategy() {
        let results: Vec<BatchRunResult> = fake_results()
            .into_iter()
            .filter(|r| r.strategy.label() != "TT")
            .collect();
        let text = render_report(&sweep(), &results);
        let err = validate_report(&text).unwrap_err();
        assert!(err.contains("TT"), "{err}");
    }

    #[test]
    fn validation_rejects_a_row_missing_a_key_field() {
        let text = render_report(&sweep(), &fake_results());
        validate_report(&text).unwrap();
        for field in [
            "strategy",
            "workload",
            "batch_size",
            "trees",
            "scheduler",
            "workers",
            "commit",
            "mode",
            "sessions",
            "rule_count",
        ] {
            let Json::Obj(mut doc) = Json::parse(&text).unwrap() else {
                panic!("report is an object");
            };
            let (_, Json::Arr(results)) = doc.iter_mut().find(|(k, _)| k == "results").unwrap()
            else {
                panic!("results is an array");
            };
            let Json::Obj(row) = &mut results[3] else {
                panic!("a row is an object");
            };
            row.retain(|(k, _)| k != field);
            let err = validate_report(&Json::Obj(doc).render()).unwrap_err();
            assert!(err.contains("results[3]"), "{field}: {err}");
            assert!(err.contains(&format!("`{field}`")), "{field}: {err}");
        }
    }

    #[test]
    fn validation_rejects_missing_batch_size() {
        let results: Vec<BatchRunResult> = fake_results()
            .into_iter()
            .filter(|r| r.batch_size != 64)
            .collect();
        let text = render_report(&sweep(), &results);
        assert!(validate_report(&text).unwrap_err().contains("64"));
    }

    #[test]
    fn compare_accepts_improvement_and_flags_regression() {
        let base = fake_results();
        let text_old = render_report(&sweep(), &base);
        // 10% faster everywhere: passes at the default threshold.
        let faster: Vec<BatchRunResult> = base
            .iter()
            .map(|r| BatchRunResult {
                total_ns: r.total_ns * 9 / 10,
                ..r.clone()
            })
            .collect();
        let text_new = render_report(&sweep(), &faster);
        let cmp = compare_reports(&text_old, &text_new, DEFAULT_REGRESSION_THRESHOLD).unwrap();
        assert!(cmp.passed());
        assert_eq!(cmp.cells.len(), base.len());
        assert!(cmp.cells.iter().all(|c| c.ratio() < 1.0));
        // One cell 2x slower: that exact cell is reported.
        let mut slower = base.clone();
        slower[0].total_ns *= 2;
        let text_bad = render_report(&sweep(), &slower);
        let cmp = compare_reports(&text_old, &text_bad, DEFAULT_REGRESSION_THRESHOLD).unwrap();
        assert!(!cmp.passed());
        let regressed: Vec<&CellDelta> = cmp.regressions().collect();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].strategy, slower[0].strategy.label());
        assert_eq!(regressed[0].batch_size, slower[0].batch_size as u64);
        // …but a generous threshold tolerates it.
        assert!(compare_reports(&text_old, &text_bad, 1.5).unwrap().passed());
    }

    #[test]
    fn compare_rejects_mismatched_scale() {
        let base = fake_results();
        let text_old = render_report(&sweep(), &base);
        // Same cells, different record count: the ratios would measure
        // the scale, so the compare must refuse with a diagnostic.
        let mut bigger = sweep();
        bigger.experiment.records = 4096;
        let text_big = render_report(&bigger, &base);
        let err = compare_reports(&text_old, &text_big, 0.15).unwrap_err();
        assert!(err.contains("records"), "{err}");
        assert!(err.contains("not comparable"), "{err}");
        // A different repeat is fine: min-of-N stays comparable.
        let mut more_passes = sweep();
        more_passes.repeat = 9;
        let text_rep = render_report(&more_passes, &base);
        assert!(compare_reports(&text_old, &text_rep, 0.15).is_ok());
    }

    #[test]
    fn compare_rejects_shrunk_coverage_and_bad_threshold() {
        let base = fake_results();
        let text_old = render_report(&sweep(), &base);
        assert!(compare_reports(&text_old, &text_old, -0.1).is_err());
        assert!(compare_reports("nope", &text_old, 0.15)
            .unwrap_err()
            .contains("baseline"));
        // A candidate sweeping an extra batch size still passes (new
        // coverage is fine)…
        let mut extra = base.clone();
        extra.push(BatchRunResult {
            batch_size: 128,
            ..base[0].clone()
        });
        let mut sweep_extra = sweep();
        sweep_extra.batch_sizes.push(128);
        let text_extra = render_report(&sweep_extra, &extra);
        assert!(compare_reports(&text_old, &text_extra, 0.15)
            .unwrap()
            .passed());
        // …but the reverse direction (baseline has a cell the candidate
        // lost) is an error, not a pass.
        let err = compare_reports(&text_extra, &text_old, 0.15).unwrap_err();
        assert!(err.contains("missing from candidate"), "{err}");
    }

    #[test]
    fn validation_rejects_non_json_and_empty() {
        assert!(validate_report("not json").is_err());
        assert!(validate_report("{}").is_err());
        let empty = render_report(&sweep(), &[]);
        assert!(validate_report(&empty).unwrap_err().contains("empty"));
    }

    #[test]
    fn publish_keeps_a_rejected_report_beside_out() {
        let dir = std::env::temp_dir().join(format!("tt-bench-publish-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH.json").to_string_lossy().into_owned();
        let rejected = format!("{out}.rejected");
        // A sweep whose stealing pool breaks the envelope: rejected,
        // kept beside `out`, `out` never written.
        let mut results = fake_fleet_results();
        results.push(pool_cell(8, 12_000));
        results.push(pool_cell(2, 40_000));
        let bad = render_report(&fleet_sweep(), &results);
        let err = publish_report(&out, &bad).unwrap_err();
        assert!(err.contains("stealing gate"), "{err}");
        assert!(err.contains(&rejected), "{err}");
        assert!(!std::path::Path::new(&out).exists());
        assert_eq!(std::fs::read_to_string(&rejected).unwrap(), bad);
        // A valid sweep lands at `out`; a later rejected one leaves it
        // as it was.
        let good = render_report(&sweep(), &fake_results());
        assert_eq!(publish_report(&out, &good).unwrap().results, 15);
        assert_eq!(std::fs::read_to_string(&out).unwrap(), good);
        publish_report(&out, &bad).unwrap_err();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), good);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
