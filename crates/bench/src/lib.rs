//! Shared experiment drivers for the per-figure benchmark harnesses.
//!
//! Every figure of the paper's evaluation has a bench target (see
//! `benches/`); they share the JITD/YCSB experiment loop defined here.
//! Scale knobs come from the environment so `cargo bench` stays quick by
//! default while EXPERIMENTS.md documents the larger runs:
//!
//! | variable            | default | meaning                             |
//! |---------------------|---------|-------------------------------------|
//! | `TT_RECORDS`        | 20000   | preloaded keys per run              |
//! | `TT_OPS`            | 1000    | YCSB operations per run             |
//! | `TT_CRACK_THRESHOLD`| 64      | CrackArray eligibility bound        |
//! | `TT_SEED`           | 42      | master RNG seed                     |
//! | `TT_ANTIPATTERN_MAX`| 6       | deepest UNION-doubling level (fig14)|
//! | `TT_ORCA_MAX`       | 5       | deepest level for fig15             |
//! | `TT_FIG1_REPS`      | 3       | repetitions averaged per query      |
//! | `TT_SCALING_REPS`   | 3       | best-of-N reps for fig14/fig15      |

pub mod report;

use std::sync::Arc;

use treetoaster_core::engine::MaintenanceMode;
use treetoaster_core::TreeToasterEngine;
use tt_ast::Record;
use tt_jitd::{
    jitd_schema, paper_rules, scaled_rules, AsyncJitd, Jitd, JitdIndex, JitdStats, RuleConfig,
    StealConfig, StrategyKind,
};
use tt_metrics::{bytes_to_pages, now_ns, statm_resident_pages, Summary, SummaryBuilder};
use tt_ycsb::{FleetSpec, FleetWorkload, Workload, WorkloadSpec};

/// The knob parsing lives in `tt_core`'s [`config`] module
/// ([`EngineConfig::from_env`] is the one place `TT_*` variables are
/// read); the historical `ExperimentConfig` name stays as an alias.
///
/// [`config`]: treetoaster_core::config
/// [`EngineConfig::from_env`]: treetoaster_core::EngineConfig::from_env
pub use treetoaster_core::EngineConfig as ExperimentConfig;
pub use treetoaster_core::{env_u64, EngineConfig, FleetConfig};

/// The result of one (workload, strategy) run.
pub struct RunResult {
    /// Workload mnemonic.
    pub workload: char,
    /// The strategy measured.
    pub strategy: StrategyKind,
    /// Raw runtime samples.
    pub stats: JitdStats,
    /// Per-rule search-latency summaries (Figure 9).
    pub search: Vec<Option<Summary>>,
    /// Per-rule total (search + rewrite + maintenance) summaries (Fig 10).
    pub total: Vec<Option<Summary>>,
    /// Pooled maintenance-operation latency (Figure 12).
    pub ivm: Option<Summary>,
    /// Strategy structure memory, in 4 KiB pages (Figures 11, 13).
    pub memory_pages: usize,
    /// The AST's own memory, pages (the baseline all strategies share).
    pub ast_pages: usize,
    /// Whole-process resident pages (`/proc` cross-check).
    pub statm_pages: Option<u64>,
    /// Rewrites applied during the run.
    pub rewrites: u64,
}

impl RunResult {
    /// Mean of per-rule mean search latencies (ns).
    pub fn mean_search_ns(&self) -> f64 {
        mean_of(&self.search)
    }

    /// Mean of per-rule mean total latencies (ns).
    pub fn mean_total_ns(&self) -> f64 {
        mean_of(&self.total)
    }
}

fn mean_of(summaries: &[Option<Summary>]) -> f64 {
    let means: Vec<f64> = summaries.iter().flatten().map(|s| s.mean).collect();
    if means.is_empty() {
        0.0
    } else {
        means.iter().sum::<f64>() / means.len() as f64
    }
}

/// Runs one YCSB workload against one strategy: preload, then interleave
/// each operation with one reorganization round (the paper's background
/// reorganizer, serialized for apples-to-apples measurement — Figure 8's
/// evaluation module).
pub fn run_jitd(workload: char, strategy: StrategyKind, cfg: ExperimentConfig) -> RunResult {
    let records: Vec<Record> = (0..cfg.records as i64)
        .map(|k| Record::new(k, k.wrapping_mul(7)))
        .collect();
    let mut jitd = Jitd::new(
        strategy,
        RuleConfig {
            crack_threshold: cfg.crack_threshold,
        },
        records,
    )
    .timed();
    let mut driver = Workload::new(WorkloadSpec::standard(workload), cfg.records, cfg.seed);
    // Initial organization burst: crack the loaded array (every strategy
    // pays its own search costs here, as in the paper's load phase).
    jitd.reorganize_until_quiet(u64::MAX);
    for _ in 0..cfg.ops {
        let op = driver.next_op();
        jitd.execute(&op);
        jitd.reorganize_round();
    }

    let rules = jitd.rules().clone();
    let search: Vec<Option<Summary>> = jitd.stats.search_ns.iter().map(|b| b.finish()).collect();
    let total: Vec<Option<Summary>> = (0..rules.len())
        .map(|rid| {
            // Per applied step: search + rewrite + maintenance. Rewrite
            // and maintenance sample streams are aligned (one per applied
            // step); search has extra samples for empty finds, summarized
            // by its own mean.
            let rewrites = &jitd.stats.rewrite_ns[rid];
            let maintains = &jitd.stats.maintain_ns[rid];
            let search_mean = jitd.stats.search_ns[rid].finish().map_or(0.0, |s| s.mean);
            let mut b = SummaryBuilder::with_capacity(rewrites.len());
            for (r, m) in rewrites.samples().iter().zip(maintains.samples()) {
                b.push(search_mean + r + m);
            }
            b.finish()
        })
        .collect();
    let ivm = jitd.stats.all_maintenance_samples().finish();
    let memory_pages = bytes_to_pages(jitd.strategy_memory_bytes());
    let ast_pages = bytes_to_pages(jitd.ast_memory_bytes());
    let rewrites = jitd.stats.steps;
    RunResult {
        workload,
        strategy,
        stats: jitd.stats,
        search,
        total,
        ivm,
        memory_pages,
        ast_pages,
        statm_pages: statm_resident_pages(),
        rewrites,
    }
}

/// Element-wise `after - before` for the per-rule hit counters, so a
/// cell reports only the measured loop's attribution (the load-phase
/// organization runs before the clock starts).
fn counter_delta(after: &[u64], before: &[u64]) -> Vec<u64> {
    after.iter().zip(before).map(|(a, b)| a - b).collect()
}

/// The result of one batched (workload, strategy, batch-size) run.
#[derive(Debug, Clone)]
pub struct BatchRunResult {
    /// Workload mnemonic.
    pub workload: char,
    /// The strategy measured.
    pub strategy: StrategyKind,
    /// Operations per maintenance epoch (`usize::MAX` = one epoch).
    pub batch_size: usize,
    /// Trees in the fleet (1 for the single-tree workloads A–F).
    pub trees: usize,
    /// YCSB operations executed.
    pub ops: usize,
    /// Rewrites applied across all epochs.
    pub rewrites: u64,
    /// Wall time of the measured epoch loop.
    pub total_ns: u64,
    /// Mean per-rewrite maintenance latency (staging side).
    pub maintain_mean_ns: f64,
    /// Mean batch-commit latency.
    pub commit_mean_ns: f64,
    /// Largest strategy memory observed at an epoch commit.
    pub peak_strategy_bytes: usize,
    /// Strategy memory after the final commit.
    pub final_strategy_bytes: usize,
    /// Which reorganization deployment produced this cell: `"sync"`
    /// (the measured loop reorganizes inline — every A–F/G/H cell) or
    /// `"steal"` (a pool of background workers draining the fleet's
    /// work queue).
    pub scheduler: &'static str,
    /// Background worker threads (0 for `"sync"` cells).
    pub workers: usize,
    /// Work items drained by a non-home pool worker (see
    /// [`tt_jitd::StealStats::steal_count`]).
    pub steal_count: u64,
    /// Failed try-lock claims that requeued the work item.
    pub contended_count: u64,
    /// At which lag this cell's epochs closed: `"sync"` (lag 0: seal
    /// and land at epoch close — every library cell but the async
    /// twin) or `"async"` (lag 1: seal at epoch close and let the
    /// fleet's committer thread land it — [`run_commit_pipeline`]'s
    /// async twin and the daemon's service cells).
    pub commit: &'static str,
    /// Largest single **commit window** observed (ns): the stall from
    /// epoch close (after the epoch's ops and reorganization, which are
    /// identical across commit disciplines) until the op thread is free
    /// to run the next op — the inline apply for `commit: "sync"`, the
    /// O(1) seal for `"async"`. The tail-latency axis the async commit
    /// pipeline targets: ns/op averages the apply cost away, the worst
    /// window shows it. 0 for drivers without an epoch structure
    /// ([`run_steal_pool`]'s clock has no epochs). [`run_service`]
    /// repurposes it as the slowest single daemon op observed (its
    /// worst-window tail).
    pub worst_window_ns: u64,
    /// Which harness produced this cell: `"library"` (the in-process
    /// drivers above) or `"service"` (the `tt-serve` daemon driven
    /// through [`run_service`]).
    pub mode: &'static str,
    /// Concurrent daemon sessions (0 for library cells).
    pub sessions: usize,
    /// 99th-percentile per-op daemon latency (0 for library cells,
    /// whose single-threaded loops have no per-op distribution worth
    /// publishing).
    pub p99_ns: u64,
    /// Synthetic probe rules added by the rule-scale sweep (0 for every
    /// cell running the paper's stock rule set).
    pub rule_count: usize,
    /// Matches found per rule id over the measured loop (empty when the
    /// driver cannot attribute per-rule counts, e.g. the daemon cells).
    pub rule_matches: Vec<u64>,
    /// Rewrites applied per rule id over the measured loop.
    pub rule_rewrites: Vec<u64>,
}

impl BatchRunResult {
    /// Nanoseconds per YCSB operation (reorganization included).
    pub fn ns_per_op(&self) -> f64 {
        self.total_ns as f64 / self.ops.max(1) as f64
    }

    /// Sustained operations per second over the measured wall time —
    /// the service harness's headline number (for the single-threaded
    /// library drivers it is just `1e9 / ns_per_op`).
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 * 1e9 / self.total_ns.max(1) as f64
    }

    /// Nanoseconds per applied rewrite.
    pub fn ns_per_rewrite(&self) -> f64 {
        self.total_ns as f64 / self.rewrites.max(1) as f64
    }
}

/// Runs one YCSB workload against one strategy with **epoch-batched**
/// maintenance: the op stream is consumed in chunks of `batch_size`;
/// each chunk executes inside one maintenance epoch together with a full
/// reorganization burst, then commits. `batch_size = 1` is the paper's
/// per-rewrite regime; larger sizes let overlapping deltas cancel in the
/// strategies' buffers before touching views/indexes.
pub fn run_jitd_batched(
    workload: char,
    strategy: StrategyKind,
    cfg: ExperimentConfig,
    batch_size: usize,
) -> BatchRunResult {
    assert!(batch_size > 0, "batch size must be positive");
    let records: Vec<Record> = (0..cfg.records as i64)
        .map(|k| Record::new(k, k.wrapping_mul(7)))
        .collect();
    let mut jitd = Jitd::new(
        strategy,
        RuleConfig {
            crack_threshold: cfg.crack_threshold,
        },
        records,
    )
    .timed();
    let mut driver = Workload::new(WorkloadSpec::standard(workload), cfg.records, cfg.seed);
    // Load-phase organization happens outside the measured loop (all
    // strategies pay it identically; it has no batching axis to compare).
    jitd.reorganize_until_quiet(u64::MAX);

    let mut peak = jitd.strategy_memory_bytes();
    let steps_before = jitd.stats.steps;
    let matches_before = jitd.stats.rule_matches.clone();
    let rewrites_before = jitd.stats.rule_rewrites.clone();
    let mut worst_window_ns = 0u64;
    let t0 = now_ns();
    let mut done = 0usize;
    while done < cfg.ops {
        let chunk = batch_size.min(cfg.ops - done);
        jitd.begin_batch();
        for _ in 0..chunk {
            let op = driver.next_op();
            jitd.execute(&op);
        }
        jitd.reorganize_until_quiet(u64::MAX);
        // Sample while the epoch's staged buffers are still live — their
        // footprint is exactly what the batch-size axis trades away —
        // and again after the commit drains them into the views.
        peak = peak.max(jitd.strategy_memory_bytes());
        // The commit window (see `BatchRunResult::worst_window_ns`):
        // only the epoch-close stall, not the ops/reorganization above.
        let w_close = now_ns();
        jitd.commit_batch();
        done += chunk;
        worst_window_ns = worst_window_ns.max(now_ns() - w_close);
        peak = peak.max(jitd.strategy_memory_bytes());
    }
    let total_ns = now_ns() - t0;

    let maintain_mean_ns = jitd
        .stats
        .all_maintenance_samples()
        .finish()
        .map_or(0.0, |s| s.mean);
    let commit_mean_ns = jitd.stats.commit_ns.finish().map_or(0.0, |s| s.mean);
    BatchRunResult {
        workload,
        strategy,
        batch_size,
        trees: 1,
        ops: cfg.ops,
        rewrites: jitd.stats.steps - steps_before,
        total_ns,
        maintain_mean_ns,
        commit_mean_ns,
        peak_strategy_bytes: peak,
        final_strategy_bytes: jitd.strategy_memory_bytes(),
        scheduler: "sync",
        workers: 0,
        steal_count: 0,
        contended_count: 0,
        commit: "sync",
        worst_window_ns,
        mode: "library",
        sessions: 0,
        p99_ns: 0,
        rule_count: 0,
        rule_matches: counter_delta(&jitd.stats.rule_matches, &matches_before),
        rule_rewrites: counter_delta(&jitd.stats.rule_rewrites, &rewrites_before),
    }
}

/// Runs the **rule-scale** experiment: the paper's rule set padded with
/// `rule_count` synthetic probe rules ([`scaled_rules`] — structurally
/// uniform `BinTree(Array, Array)` probes whose negative-sentinel
/// constraints never fire, so the tree evolves identically at every
/// scale), measured through the TreeToaster strategy's **generic**
/// maintenance mode. Generic mode re-derives the maximal search set by
/// walking rewritten subtrees against the *whole* rule set — the one
/// maintenance path whose cost scales with R — so the cell isolates
/// what the compiled automaton buys: one discrimination-tree walk per
/// node, however many rules share it. Workload `'A'`
/// runs the single-tree YCSB stream; `'G'` runs the fleet stream pinned
/// to one tree so the op mix matches the fleet cells.
pub fn run_rule_scale(
    workload: char,
    cfg: ExperimentConfig,
    batch_size: usize,
    rule_count: usize,
) -> BatchRunResult {
    assert!(batch_size > 0, "batch size must be positive");
    let schema = jitd_schema();
    let rules = Arc::new(scaled_rules(
        &schema,
        RuleConfig {
            crack_threshold: cfg.crack_threshold,
        },
        rule_count,
    ));
    let records: Vec<Record> = (0..cfg.records as i64)
        .map(|k| Record::new(k, k.wrapping_mul(7)))
        .collect();
    let strategy = Box::new(TreeToasterEngine::with_mode(
        rules.clone(),
        MaintenanceMode::Generic,
    ));
    let mut jitd = Jitd::from_strategy(
        StrategyKind::TreeToaster,
        rules,
        JitdIndex::load(records),
        true,
        strategy,
    )
    .timed();
    enum Driver {
        Single(Workload),
        Fleet(FleetWorkload),
    }
    let mut driver = match workload {
        'G' | 'H' | 'I' => Driver::Fleet(FleetWorkload::new(
            FleetSpec::standard(workload, 1),
            cfg.records,
            cfg.seed,
        )),
        _ => Driver::Single(Workload::new(
            WorkloadSpec::standard(workload),
            cfg.records,
            cfg.seed,
        )),
    };
    // Load-phase organization outside the measured loop, as in
    // [`run_jitd_batched`].
    jitd.reorganize_until_quiet(u64::MAX);

    let mut peak = jitd.strategy_memory_bytes();
    let steps_before = jitd.stats.steps;
    let matches_before = jitd.stats.rule_matches.clone();
    let rewrites_before = jitd.stats.rule_rewrites.clone();
    let mut worst_window_ns = 0u64;
    let t0 = now_ns();
    let mut done = 0usize;
    while done < cfg.ops {
        let chunk = batch_size.min(cfg.ops - done);
        jitd.begin_batch();
        for _ in 0..chunk {
            let op = match &mut driver {
                Driver::Single(w) => w.next_op(),
                Driver::Fleet(w) => w.next_op().op,
            };
            jitd.execute(&op);
        }
        jitd.reorganize_until_quiet(u64::MAX);
        peak = peak.max(jitd.strategy_memory_bytes());
        let w_close = now_ns();
        jitd.commit_batch();
        done += chunk;
        worst_window_ns = worst_window_ns.max(now_ns() - w_close);
        peak = peak.max(jitd.strategy_memory_bytes());
    }
    let total_ns = now_ns() - t0;

    let maintain_mean_ns = jitd
        .stats
        .all_maintenance_samples()
        .finish()
        .map_or(0.0, |s| s.mean);
    let commit_mean_ns = jitd.stats.commit_ns.finish().map_or(0.0, |s| s.mean);
    BatchRunResult {
        workload,
        strategy: StrategyKind::TreeToaster,
        batch_size,
        trees: 1,
        ops: cfg.ops,
        rewrites: jitd.stats.steps - steps_before,
        total_ns,
        maintain_mean_ns,
        commit_mean_ns,
        peak_strategy_bytes: peak,
        final_strategy_bytes: jitd.strategy_memory_bytes(),
        scheduler: "sync",
        workers: 0,
        steal_count: 0,
        contended_count: 0,
        commit: "sync",
        worst_window_ns,
        mode: "library",
        sessions: 0,
        p99_ns: 0,
        rule_count,
        rule_matches: counter_delta(&jitd.stats.rule_matches, &matches_before),
        rule_rewrites: counter_delta(&jitd.stats.rule_rewrites, &rewrites_before),
    }
}

/// A fleet of `trees` runtimes over one shared paper rule set, shard `t`
/// preloaded with `records_per_tree` records salted by `t`.
fn build_fleet(
    strategy: StrategyKind,
    cfg: &ExperimentConfig,
    trees: usize,
    records_per_tree: u64,
    steal: StealConfig,
) -> AsyncJitd {
    let rules = Arc::new(paper_rules(
        &jitd_schema(),
        RuleConfig {
            crack_threshold: cfg.crack_threshold,
        },
    ));
    let shards = (0..trees)
        .map(|t| {
            let part = (0..records_per_tree as i64)
                .map(|k| Record::new(k, k.wrapping_mul(7) ^ t as i64))
                .collect();
            Jitd::with_rules(strategy, rules.clone(), part).timed()
        })
        .collect();
    AsyncJitd::spawn(shards, steal)
}

/// Per-shard counters at the start of a fleet cell's measured loop.
struct FleetMark {
    steps: u64,
    matches: Vec<Vec<u64>>,
    rewrites: Vec<Vec<u64>>,
}

impl FleetMark {
    fn take(fleet: &AsyncJitd) -> FleetMark {
        let mut mark = FleetMark {
            steps: 0,
            matches: Vec::new(),
            rewrites: Vec::new(),
        };
        for shard in 0..fleet.shard_count() {
            fleet.with_shard(shard, |j| {
                mark.steps += j.stats.steps;
                mark.matches.push(j.stats.rule_matches.clone());
                mark.rewrites.push(j.stats.rule_rewrites.clone());
            });
        }
        mark
    }
}

/// What a stopped fleet did: measured-loop deltas since `mark`, plus
/// maintenance and commit means pooled over every shard's samples.
struct FleetTally {
    rewrites: u64,
    rule_matches: Vec<u64>,
    rule_rewrites: Vec<u64>,
    maintain_mean_ns: f64,
    commit_mean_ns: f64,
}

impl FleetTally {
    fn of(runtimes: &[Jitd], mark: &FleetMark) -> FleetTally {
        let rules = runtimes.first().map_or(0, |j| j.rules().len());
        let mut rule_matches = vec![0u64; rules];
        let mut rule_rewrites = vec![0u64; rules];
        let mut maintenance = SummaryBuilder::new();
        let mut commit = SummaryBuilder::new();
        for (shard, jitd) in runtimes.iter().enumerate() {
            let matches = counter_delta(&jitd.stats.rule_matches, &mark.matches[shard]);
            let rewrites = counter_delta(&jitd.stats.rule_rewrites, &mark.rewrites[shard]);
            for (acc, d) in rule_matches.iter_mut().zip(matches) {
                *acc += d;
            }
            for (acc, d) in rule_rewrites.iter_mut().zip(rewrites) {
                *acc += d;
            }
            for s in jitd.stats.all_maintenance_samples().samples() {
                maintenance.push(*s);
            }
            for s in jitd.stats.commit_ns.samples() {
                commit.push(*s);
            }
        }
        FleetTally {
            rewrites: runtimes.iter().map(|j| j.stats.steps).sum::<u64>() - mark.steps,
            rule_matches,
            rule_rewrites,
            maintain_mean_ns: maintenance.finish().map_or(0.0, |s| s.mean),
            commit_mean_ns: commit.finish().map_or(0.0, |s| s.mean),
        }
    }
}

/// Strategy memory summed across a fleet's shards.
fn fleet_memory(fleet: &AsyncJitd) -> usize {
    (0..fleet.shard_count())
        .map(|s| fleet.with_shard(s, |j| j.strategy_memory_bytes()))
        .sum()
}

/// Runs one **fleet** workload (G or H) against one strategy with
/// per-tree epoch-batched maintenance. The fleet holds `trees` shards
/// and no threads (`workers: 0`): the op loop drains the shared work
/// queue inline, so the run is deterministic. The preload is split
/// evenly so total state matches a single-tree run at the same
/// `cfg.records`. Each epoch consumes `batch_size` ops from the fleet
/// stream; only the shards the epoch actually touched open an epoch,
/// reorganize, and commit at lag 0 — untouched plans pay nothing,
/// which is exactly the isolation the tree-count axis measures.
pub fn run_fleet_batched(
    workload: char,
    strategy: StrategyKind,
    cfg: ExperimentConfig,
    batch_size: usize,
    trees: usize,
) -> BatchRunResult {
    assert!(batch_size > 0, "batch size must be positive");
    assert!(trees > 0, "fleet needs at least one tree");
    let records_per_tree = (cfg.records / trees as u64).max(32);
    let fleet = build_fleet(
        strategy,
        &cfg,
        trees,
        records_per_tree,
        StealConfig {
            workers: 0,
            heat_threshold: 1,
        },
    );
    let mut driver = FleetWorkload::new(
        FleetSpec::standard(workload, trees),
        records_per_tree,
        cfg.seed,
    );
    // Load-phase organization outside the measured loop: every shard
    // starts queued, so one drain cracks them all to quiescence.
    fleet.reorganize_pending(u64::MAX);

    let mut peak = fleet_memory(&fleet);
    let mark = FleetMark::take(&fleet);
    let mut worst_window_ns = 0u64;
    let t0 = now_ns();
    let mut done = 0usize;
    let mut touched: Vec<usize> = Vec::new();
    let mut in_epoch = vec![false; trees];
    while done < cfg.ops {
        let chunk = batch_size.min(cfg.ops - done);
        touched.clear();
        in_epoch.iter_mut().for_each(|b| *b = false);
        for _ in 0..chunk {
            let fop = driver.next_op();
            if !in_epoch[fop.tree] {
                in_epoch[fop.tree] = true;
                touched.push(fop.tree);
                fleet.begin_batch_on(fop.tree);
            }
            fleet.execute_on(fop.tree, &fop.op);
        }
        // Drain the epoch's backlog through the work queue, one round
        // per pop (structurally identical to per-tree draining — the
        // steal-equivalence suite pins that).
        fleet.reorganize_pending(u64::MAX);
        peak = peak.max(fleet_memory(&fleet));
        // The commit window (see `BatchRunResult::worst_window_ns`):
        // only the epoch-close stall, not the ops/reorganization above.
        let w_close = now_ns();
        for &tree in &touched {
            fleet.commit_on(tree);
        }
        done += chunk;
        worst_window_ns = worst_window_ns.max(now_ns() - w_close);
        peak = peak.max(fleet_memory(&fleet));
    }
    let total_ns = now_ns() - t0;

    let final_bytes = fleet_memory(&fleet);
    let steal = fleet.steal_stats();
    let (runtimes, _) = fleet.stop();
    let tally = FleetTally::of(&runtimes, &mark);
    BatchRunResult {
        workload,
        strategy,
        batch_size,
        trees,
        ops: cfg.ops,
        rewrites: tally.rewrites,
        total_ns,
        maintain_mean_ns: tally.maintain_mean_ns,
        commit_mean_ns: tally.commit_mean_ns,
        peak_strategy_bytes: peak,
        final_strategy_bytes: final_bytes,
        scheduler: "sync",
        workers: 0,
        steal_count: steal.steal_count,
        contended_count: steal.contended_count,
        commit: "sync",
        worst_window_ns,
        mode: "library",
        sessions: 0,
        p99_ns: 0,
        rule_count: 0,
        rule_matches: tally.rule_matches,
        rule_rewrites: tally.rule_rewrites,
    }
}

/// Runs fleet workload `workload` against a **threaded** reorganizer
/// pool: one [`tt_jitd::Jitd`] shard per tree behind its own mutex,
/// `workers` background threads draining the shared work queue while
/// the op stream races them. `workers == trees` is the baseline (as
/// many threads as shards); fewer workers is a stealing pool, which the
/// stealing gate holds to that baseline. The measured quantity is the
/// wall time of the op loop — which contends with the reorganizers
/// on the per-shard locks. Initial cracking happens before the clock
/// starts, identically for every pool size.
pub fn run_steal_pool(
    workload: char,
    strategy: StrategyKind,
    cfg: ExperimentConfig,
    trees: usize,
    workers: usize,
) -> BatchRunResult {
    assert!(trees > 0, "pool needs at least one shard");
    assert!(workers > 0, "a threaded cell needs a worker");
    // Floor the per-shard preload at twice the crack threshold: a shard
    // whose array can never crack generates no reorganization backlog,
    // and a backlog is the entire point of a scheduler cell.
    let records_per_tree = (cfg.records / trees as u64)
        .max(2 * cfg.crack_threshold as u64)
        .max(32);
    let pool = build_fleet(
        strategy,
        &cfg,
        trees,
        records_per_tree,
        StealConfig {
            workers,
            heat_threshold: 1,
        },
    );
    // Load-phase organization outside the measured loop: the driver
    // cracks every shard synchronously so every pool size starts the
    // clock from the same quiescent fleet.
    for shard in 0..trees {
        pool.with_shard(shard, |j| j.reorganize_until_quiet(u64::MAX));
    }
    let mark = FleetMark::take(&pool);

    let mut driver = FleetWorkload::new(
        FleetSpec::standard(workload, trees),
        records_per_tree,
        cfg.seed,
    );
    let t0 = now_ns();
    for _ in 0..cfg.ops {
        let fop = driver.next_op();
        pool.execute_on(fop.tree, &fop.op);
    }
    // The cell is end-to-end burst completion: keep the clock running
    // until the background has drained every shard's backlog. Every
    // pool size owes identical rewrite work (same per-shard streams),
    // so the cell isolates *scheduling* efficiency — a pool whose
    // threads idle while the hot minority's backlog waits pays for it
    // right here. The probe claims shards with a try-lock and treats a
    // busy shard as not-quiet, so the observer never queues behind a
    // worker and never pollutes the pool's contention ledger; the short
    // sleep between sweeps hands the core to the workers (essential on
    // small machines) and adds at most one sweep period to a drain that
    // is orders of magnitude longer.
    loop {
        let quiet = (0..trees).all(|shard| {
            // Pending matches, or a worker holds the shard (it is
            // mid-round, so not provably quiescent).
            pool.try_with_shard(shard, |j| j.has_pending_matches()) == Some(false)
        });
        if quiet {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(20));
    }
    let total_ns = now_ns() - t0;

    let steal = pool.steal_stats();
    let (mut runtimes, _) = pool.stop();
    let tally = FleetTally::of(&runtimes, &mark);
    // Post-measurement: drain leftovers so the reported memory describes
    // a quiescent fleet, comparable across pool sizes. It is NOT
    // comparable to sync cells' peak_bytes — those sample mid-epoch
    // maxima, while live sampling across worker threads would need
    // instrumentation the measured loop shouldn't pay for; pool cells
    // therefore report peak == final (documented in docs/benching.md).
    for jitd in &mut runtimes {
        jitd.reorganize_until_quiet(u64::MAX);
    }
    let final_bytes: usize = runtimes.iter().map(Jitd::strategy_memory_bytes).sum();
    BatchRunResult {
        workload,
        strategy,
        batch_size: 1,
        trees,
        ops: cfg.ops,
        rewrites: tally.rewrites,
        total_ns,
        maintain_mean_ns: tally.maintain_mean_ns,
        commit_mean_ns: 0.0,
        peak_strategy_bytes: final_bytes,
        final_strategy_bytes: final_bytes,
        scheduler: "steal",
        workers,
        steal_count: steal.steal_count,
        contended_count: steal.contended_count,
        commit: "sync",
        worst_window_ns: 0,
        mode: "library",
        sessions: 0,
        p99_ns: 0,
        rule_count: 0,
        rule_matches: tally.rule_matches,
        rule_rewrites: tally.rule_rewrites,
    }
}

/// Reorganization rounds per touched shard per commit-pipeline epoch.
/// Deep enough that each seal carries a real delta payload (the apply
/// the async twin moves off the window), shallow enough that the epoch
/// stays mid-backlog — quiescence would cancel every delta and seal
/// nothing.
pub const COMMIT_EPOCH_ROUNDS: usize = 4;

/// Runs one fleet workload through the **commit pipeline** cell: epochs
/// close mid-backlog (a few reorganization rounds per touched shard, on
/// the op thread) and `pipelined` picks the lag at which each epoch
/// closes — lag 0 ([`AsyncJitd::commit_on`]: the op thread seals and
/// lands, `commit = "sync"`) or lag 1 ([`AsyncJitd::submit_commit_on`]:
/// the op thread only seals and the fleet's committer thread lands,
/// `commit = "async"`). Everything else is identical between the twins:
/// same fleet, same op stream, same on-thread reorganization, same one
/// cold pool worker (its heat threshold is `u64::MAX`, so it parks for
/// the whole run and the scheduler axis stays honestly `"sync"` — zero
/// reorganizer threads run) and same committer thread. The headline
/// metric is `worst_window_ns`, the slowest **commit window**: the
/// stall from epoch close until the op thread is free to run the next
/// op. For the sync twin that window contains the inline apply (it
/// grows with the epoch's delta payload); for the async twin it is the
/// O(1) seal-and-wake, which is the entire point of moving commits off
/// the query path. The ops and reorganization rounds are deliberately
/// outside the window — they are identical between the twins and only
/// dilute the tail with scaffolding noise — but end-to-end ns/op still
/// covers them. The clock still runs until every in-flight epoch has
/// landed ([`AsyncJitd::drain_commits`], a help-at-barrier: the op
/// thread applies whatever the committer has not reached rather than
/// charging a committer wake latency to its own clock), so ns/op stays
/// an end-to-end number and the async twin cannot win by leaving work
/// behind.
///
/// Epochs must *not* reorganize to quiescence here: a drained backlog
/// stages and cancels every view delta, net-empty buffers seal nothing,
/// and the committer would have nothing to overlap (see
/// docs/commit-pipeline.md). The leftover backlog drains after the
/// clock stops, identically for both twins.
pub fn run_commit_pipeline(
    workload: char,
    strategy: StrategyKind,
    cfg: ExperimentConfig,
    batch_size: usize,
    trees: usize,
    pipelined: bool,
) -> BatchRunResult {
    assert!(batch_size > 0, "batch size must be positive");
    assert!(trees > 0, "pipeline needs at least one shard");
    let records_per_tree = (cfg.records / trees as u64)
        .max(2 * cfg.crack_threshold as u64)
        .max(32);
    let pool = build_fleet(
        strategy,
        &cfg,
        trees,
        records_per_tree,
        StealConfig {
            workers: 1,
            heat_threshold: u64::MAX,
        },
    );
    // Load-phase cracking outside the measured loop, as everywhere.
    for shard in 0..trees {
        pool.with_shard(shard, |j| j.reorganize_until_quiet(u64::MAX));
    }
    let mark = FleetMark::take(&pool);

    let mut driver = FleetWorkload::new(
        FleetSpec::standard(workload, trees),
        records_per_tree,
        cfg.seed,
    );
    let mut touched: Vec<usize> = Vec::new();
    let mut in_epoch = vec![false; trees];
    let mut worst_window_ns = 0u64;
    let t0 = now_ns();
    let mut done = 0usize;
    while done < cfg.ops {
        let chunk = batch_size.min(cfg.ops - done);
        touched.clear();
        in_epoch.iter_mut().for_each(|b| *b = false);
        for _ in 0..chunk {
            let fop = driver.next_op();
            if !in_epoch[fop.tree] {
                in_epoch[fop.tree] = true;
                touched.push(fop.tree);
                pool.begin_batch_on(fop.tree);
            }
            pool.execute_on(fop.tree, &fop.op);
        }
        // A few rounds per touched shard: the epoch closes mid-backlog
        // with net deltas to seal, and the backlog carries forward.
        for &shard in &touched {
            pool.with_shard(shard, |j| {
                for _ in 0..COMMIT_EPOCH_ROUNDS {
                    if j.reorganize_round() == 0 {
                        break;
                    }
                }
            });
        }
        // The commit window: from epoch close to the op thread being
        // free to run the next op. This is the stall the pipeline
        // exists to shrink — the ops and reorganization rounds above
        // are identical between the twins (and dominated by cell
        // scaffolding noise), so they are kept out of the tail metric
        // and measured only through end-to-end ns/op.
        let w_close = now_ns();
        for &shard in &touched {
            if pipelined {
                pool.submit_commit_on(shard);
            } else {
                pool.commit_on(shard);
            }
        }
        done += chunk;
        worst_window_ns = worst_window_ns.max(now_ns() - w_close);
    }
    // End-to-end completion: every in-flight epoch lands before the
    // clock stops. Help-at-barrier instead of sleep-polling
    // `commits_pending`: the op thread applies whatever seals the
    // committer has not reached (first-toucher-applies is safe), so the
    // drain costs the leftover applies — not a committer wake latency
    // plus sleep quantization, which at quick scale dwarfs the run.
    pool.drain_commits();
    let total_ns = now_ns() - t0;

    let (mut runtimes, _) = pool.stop();
    let tally = FleetTally::of(&runtimes, &mark);
    // Post-measurement: drain the carried backlog so the reported
    // memory describes a quiescent fleet (same caveat as the pool
    // cells: peak == final).
    for jitd in &mut runtimes {
        jitd.reorganize_until_quiet(u64::MAX);
    }
    let final_bytes: usize = runtimes.iter().map(Jitd::strategy_memory_bytes).sum();
    BatchRunResult {
        workload,
        strategy,
        batch_size,
        trees,
        ops: cfg.ops,
        rewrites: tally.rewrites,
        total_ns,
        maintain_mean_ns: tally.maintain_mean_ns,
        commit_mean_ns: tally.commit_mean_ns,
        peak_strategy_bytes: final_bytes,
        final_strategy_bytes: final_bytes,
        scheduler: "sync",
        workers: 0,
        steal_count: 0,
        contended_count: 0,
        commit: if pipelined { "async" } else { "sync" },
        worst_window_ns,
        mode: "library",
        sessions: 0,
        p99_ns: 0,
        rule_count: 0,
        rule_matches: tally.rule_matches,
        rule_rewrites: tally.rule_rewrites,
    }
}

/// Runs the **service** cell: a [`tt_service::Daemon`] (the same object
/// `tt-serve` wraps in TCP) under sustained multi-tenant load —
/// `sessions` concurrent sessions, driven by `threads` op threads, each
/// session receiving `cfg.ops` operations (seven replaces to one find)
/// against a `cfg.records`-record tree. The pool runs *hot* (stealing
/// workers live, async committer live): this is the deployment shape the
/// daemon ships with, so the numbers include admission bookkeeping,
/// shard-lock traffic, heat noting, and committer interference.
///
/// The headline metrics are [`BatchRunResult::ops_per_sec`] over the
/// measured wall time and the per-op latency tail: `p99_ns` (99th
/// percentile across every op issued) and `worst_window_ns` (the single
/// slowest op — for the daemon that is a seal that had to apply a stale
/// epoch inline, i.e. the backpressure path). The preload/open phase is
/// not measured; the final drain is not measured.
pub fn run_service(cfg: ExperimentConfig, sessions: usize, threads: usize) -> BatchRunResult {
    use tt_service::{Daemon, Request, Response};
    assert!(sessions > 0 && threads > 0);
    let fleet = FleetConfig::default()
        .engine(cfg)
        .sessions(sessions)
        .workers(2)
        .heat_threshold(1);
    let daemon = Daemon::new(StrategyKind::TreeToaster, fleet);
    for _ in 0..sessions {
        match daemon.handle(&Request::Open {
            records: cfg.records,
            seed: cfg.seed,
        }) {
            Response::Opened { .. } => {}
            other => panic!("service bench open refused: {other:?}"),
        }
    }

    // Measured phase: `threads` op threads share the session space by
    // round-robin striping; each thread records every op's latency.
    let ops_per_session = cfg.ops.max(1);
    let t0 = now_ns();
    let mut lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let daemon = &daemon;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(sessions * ops_per_session / threads + 1);
                    for s in (t..sessions).step_by(threads) {
                        let session = s as u32;
                        for j in 0..ops_per_session as i64 {
                            let key = (j.wrapping_mul(2654435761) ^ s as i64)
                                .rem_euclid(cfg.records.max(1) as i64);
                            let req = if j % 8 == 7 {
                                Request::Find { session, key }
                            } else {
                                Request::Replace {
                                    session,
                                    key,
                                    value: j,
                                }
                            };
                            let o0 = now_ns();
                            match daemon.handle(&req) {
                                Response::Replaced | Response::Found { .. } => {}
                                other => panic!("service bench op refused: {other:?}"),
                            }
                            lat.push(now_ns() - o0);
                        }
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total_ns = (now_ns() - t0).max(1);

    let mut all: Vec<u64> = lat.drain(..).flatten().collect();
    all.sort_unstable();
    let ops = all.len();
    let p99_ns = all[(ops * 99) / 100 - 1].max(1);
    let worst_window_ns = *all.last().expect("at least one op ran");

    // Post-measurement accounting sweep, then the clean drain.
    let mut rewrites = 0u64;
    let mut final_bytes = 0usize;
    for s in 0..sessions as u32 {
        if let Response::Snapshotted(snap) = daemon.handle(&Request::Snapshot { session: s }) {
            rewrites += snap.rewrites;
            final_bytes += snap.memory_bytes as usize;
        }
    }
    daemon.drain();

    BatchRunResult {
        workload: 'S',
        strategy: StrategyKind::TreeToaster,
        batch_size: Daemon::MAX_EPOCH_OPS as usize,
        trees: 1,
        ops,
        rewrites,
        total_ns,
        maintain_mean_ns: 0.0,
        commit_mean_ns: 0.0,
        peak_strategy_bytes: final_bytes,
        final_strategy_bytes: final_bytes,
        scheduler: "steal",
        workers: 2,
        steal_count: 0,
        contended_count: 0,
        commit: "async",
        worst_window_ns,
        mode: "service",
        sessions,
        p99_ns,
        rule_count: 0,
        // The daemon owns its runtimes; per-rule attribution isn't
        // surfaced through the snapshot protocol.
        rule_matches: Vec::new(),
        rule_rewrites: Vec::new(),
    }
}

/// The fleet workloads the multi-tree cells report (derived from the
/// `FleetSpec` registry, like [`paper_workloads`] from `WorkloadSpec`).
pub fn fleet_workloads() -> Vec<char> {
    FleetSpec::fleet_set(1).iter().map(|s| s.name).collect()
}

/// The five workloads the paper's figures report.
pub fn paper_workloads() -> Vec<char> {
    WorkloadSpec::paper_set().iter().map(|s| s.name).collect()
}

/// Formats a nanosecond mean for tables.
pub fn ns(x: f64) -> String {
    tt_metrics::table::fmt_f64(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            records: 256,
            ops: 30,
            crack_threshold: 32,
            seed: 7,
        }
    }

    #[test]
    fn run_jitd_produces_measurements_for_all_strategies() {
        for strategy in StrategyKind::all() {
            let r = run_jitd('A', strategy, tiny());
            assert_eq!(r.workload, 'A');
            assert!(r.rewrites > 0, "{} applied no rewrites", strategy.label());
            assert!(r.search.iter().any(|s| s.is_some()));
            assert!(r.mean_search_ns() >= 0.0);
        }
    }

    #[test]
    fn run_jitd_batched_covers_batch_axis() {
        for batch in [1usize, 8, usize::MAX] {
            let r = run_jitd_batched('A', StrategyKind::TreeToaster, tiny(), batch);
            assert_eq!(r.batch_size, batch);
            assert_eq!(r.ops, 30);
            assert!(r.total_ns > 0);
            assert!(r.ns_per_op() > 0.0);
            assert!(r.peak_strategy_bytes >= r.final_strategy_bytes);
        }
    }

    #[test]
    fn run_jitd_batched_surfaces_rule_attribution() {
        let first = run_jitd_batched('A', StrategyKind::TreeToaster, tiny(), 8);
        assert_eq!(first.rule_count, 0);
        // Five paper rules, attribution summing to the applied rewrites.
        assert_eq!(first.rule_rewrites.len(), 5);
        assert_eq!(first.rule_rewrites.iter().sum::<u64>(), first.rewrites);
        // The run is deterministic: a second one attributes identically.
        let again = run_jitd_batched('A', StrategyKind::TreeToaster, tiny(), 8);
        assert_eq!(first.rewrites, again.rewrites);
        assert_eq!(first.rule_rewrites, again.rule_rewrites);
        assert_eq!(first.rule_matches, again.rule_matches);
    }

    #[test]
    fn run_rule_scale_pads_probes_that_never_fire() {
        for workload in ['A', 'G'] {
            let small = run_rule_scale(workload, tiny(), 8, 4);
            let large = run_rule_scale(workload, tiny(), 8, 16);
            assert_eq!(small.workload, workload);
            assert_eq!(small.rule_count, 4);
            assert_eq!(small.rule_rewrites.len(), 9, "5 paper rules + 4 probes");
            assert_eq!(large.rule_rewrites.len(), 21, "5 paper rules + 16 probes");
            // The probes' sentinel constraints can never hold, so all
            // rewrites attribute to the paper rules — at every scale,
            // over the same tree evolution.
            assert!(small.rule_rewrites[5..].iter().all(|&n| n == 0));
            assert!(large.rule_rewrites[5..].iter().all(|&n| n == 0));
            assert!(small.rewrites > 0);
            assert_eq!(small.rewrites, large.rewrites);
            assert_eq!(small.rule_rewrites[..5], large.rule_rewrites[..5]);
        }
    }

    #[test]
    fn run_fleet_batched_covers_tree_axis() {
        for trees in [1usize, 3] {
            for workload in fleet_workloads() {
                let r = run_fleet_batched(workload, StrategyKind::TreeToaster, tiny(), 8, trees);
                assert_eq!(r.workload, workload);
                assert_eq!(r.trees, trees);
                assert_eq!(r.ops, 30);
                assert!(r.total_ns > 0);
                assert!(r.rewrites > 0, "fleet applied no rewrites");
                assert_eq!(r.scheduler, "sync");
                assert_eq!(r.contended_count, 0, "single-threaded never contends");
            }
        }
    }

    #[test]
    fn fleet_workload_list_covers_skew() {
        assert_eq!(fleet_workloads(), vec!['G', 'H', 'I']);
    }

    #[test]
    fn run_steal_pool_covers_both_deployments() {
        let cfg = tiny();
        let baseline = run_steal_pool('I', StrategyKind::TreeToaster, cfg, 4, 4);
        assert_eq!(baseline.scheduler, "steal");
        assert_eq!(baseline.workers, 4);
        assert!(baseline.total_ns > 0);
        let stealing = run_steal_pool('I', StrategyKind::TreeToaster, cfg, 4, 2);
        assert_eq!(stealing.scheduler, "steal");
        assert_eq!(stealing.workers, 2);
        assert_eq!(stealing.trees, 4);
        assert_eq!(stealing.ops, 30);
        assert!(stealing.total_ns > 0);
    }

    #[test]
    fn run_commit_pipeline_covers_both_commit_modes() {
        let cfg = tiny();
        for (pipelined, commit) in [(false, "sync"), (true, "async")] {
            for workload in ['G', 'I'] {
                let r =
                    run_commit_pipeline(workload, StrategyKind::TreeToaster, cfg, 8, 4, pipelined);
                assert_eq!(r.commit, commit);
                assert_eq!(r.scheduler, "sync", "cold pool: no reorganizer ran");
                assert_eq!(r.workers, 0);
                assert_eq!(r.trees, 4);
                assert_eq!(r.ops, 30);
                assert!(r.total_ns > 0);
                assert!(r.rewrites > 0, "mid-backlog epochs must rewrite");
                assert!(r.worst_window_ns > 0);
                assert!(r.worst_window_ns <= r.total_ns);
            }
        }
    }

    #[test]
    fn env_knobs_parse() {
        assert_eq!(env_u64("TT_DEFINITELY_UNSET_KNOB", 5), 5);
        let cfg = ExperimentConfig::from_env();
        assert!(cfg.records > 0);
    }

    #[test]
    fn paper_workload_list() {
        assert_eq!(paper_workloads(), vec!['A', 'B', 'C', 'D', 'F']);
    }

    #[test]
    fn run_service_measures_a_multi_tenant_daemon() {
        let r = run_service(tiny(), 16, 4);
        assert_eq!(r.workload, 'S');
        assert_eq!(r.mode, "service");
        assert_eq!(r.sessions, 16);
        assert_eq!(r.ops, 16 * tiny().ops, "every session got its ops");
        assert!(r.ops_per_sec() > 0.0);
        assert!(r.p99_ns > 0, "a latency distribution was recorded");
        assert!(
            r.p99_ns <= r.worst_window_ns,
            "p99 cannot exceed the slowest op"
        );
        assert!(r.final_strategy_bytes > 0, "tenants held view state");
    }
}
