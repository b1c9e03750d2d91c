//! `tt-bench` — the machine-readable benchmark runner.
//!
//! Sweeps the figure-12/13 workloads across all five strategies and a
//! configurable batch-size axis — plus the multi-tree fleet workloads
//! G/H/I across a tree-count axis, plus the threaded **scheduler cells**
//! (one worker per shard vs smaller work-stealing pools on the skewed
//! workload I, swept across a worker-count axis) — writing `BENCH_treetoaster.json`
//! (see [`tt_bench::report`] for the schema). `--quick` runs the CI
//! scale; without it the `TT_*` environment knobs (or explicit flags)
//! set the scale.
//!
//! ```text
//! tt-bench --quick [--out PATH] [--batch-sizes 1,8,64]
//!          [--workloads ABCDF] [--fleet-trees 1,4] [--fleet-workloads GHI]
//!          [--steal-trees 8] [--steal-workers 1,2,4]
//!          [--records N] [--ops N] [--seed N] [--repeat N]
//! ```
//!
//! `--repeat N` runs every cell N times and keeps the fastest run —
//! min-of-N is the noise-robust latency estimator (interference only
//! adds time), which the `tt-bench-check --compare` trend gate needs to
//! hold per-cell thresholds without flapping. Quick mode defaults to 3.
//!
//! `--fleet-trees ""` (empty) skips the fleet sweep entirely;
//! `--steal-trees ""` skips the threaded scheduler cells. For each
//! `--steal-trees` shard count `T` the runner emits one baseline pool
//! of `T` workers (one per shard) and one pool per other
//! `--steal-workers` size, all on workload I with the TT strategy (the
//! axis under test is the *scheduler*, not the strategy); validation
//! gates the best sub-shard-count pool against the `T`-worker baseline.
//!
//! `--commit-workloads GI` sweeps the commit-pipeline cells: per
//! workload, one `commit: "sync"` and one `commit: "async"` twin
//! through the mid-backlog epoch driver (TT strategy, K=16 over 4
//! trees — a batch size the fleet cells don't sweep, so the twins'
//! keys never collide with the fleet sweep). Empty disables them;
//! validation then stops demanding them (the coverage promise lives in
//! the emitted config).

use std::process::ExitCode;
use tt_bench::report::{publish_report, render_report, SweepConfig, BENCH_FILE};
use tt_bench::{
    fleet_workloads, paper_workloads, run_commit_pipeline, run_fleet_batched, run_jitd_batched,
    run_rule_scale, run_service, run_steal_pool, BatchRunResult, ExperimentConfig,
};
use tt_jitd::StrategyKind;

/// Ops per epoch for the commit-pipeline twins. Deliberately distinct
/// from the swept `--batch-sizes` {1, 8, 64} so the sync twin cannot
/// collide with a fleet cell's key.
const COMMIT_BATCH: usize = 16;

/// Fleet size for the commit-pipeline twins.
const COMMIT_TREES: usize = 4;

/// Ops per epoch for the rule-scale cells. Matches a swept batch size
/// deliberately — rule-scale cells carry `rule_count > 0`, which keys
/// them apart from every stock-rule cell, so no collision is possible
/// and the mid-size epoch keeps the cells representative.
const RULE_SCALE_BATCH: usize = 8;

/// Workloads the rule-scale axis sweeps: the single-tree YCSB mix (A)
/// and the fleet mix pinned to one tree (G).
const RULE_SCALE_WORKLOADS: [char; 2] = ['A', 'G'];

struct Args {
    quick: bool,
    out: String,
    batch_sizes: Vec<usize>,
    workloads: Vec<char>,
    fleet_trees: Vec<usize>,
    fleet_workloads: Vec<char>,
    steal_trees: Vec<usize>,
    steal_workers: Vec<usize>,
    commit_workloads: Vec<char>,
    service_sessions: Vec<usize>,
    service_threads: usize,
    rule_scale: Vec<usize>,
    records: Option<u64>,
    ops: Option<usize>,
    seed: Option<u64>,
    repeat: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tt-bench [--quick] [--out PATH] [--batch-sizes 1,8,64] \
         [--workloads ABCDF] [--fleet-trees 1,4] [--fleet-workloads GHI] \
         [--steal-trees 8] [--steal-workers 1,2,4] [--commit-workloads GI] \
         [--service-sessions 64,1000] [--service-threads 8] \
         [--rule-scale 4,16,64] \
         [--records N] [--ops N] [--seed N] [--repeat N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: BENCH_FILE.to_string(),
        batch_sizes: vec![1, 8, 64],
        workloads: paper_workloads(),
        fleet_trees: vec![1, 4],
        fleet_workloads: fleet_workloads(),
        steal_trees: vec![8],
        steal_workers: vec![1, 2, 4],
        commit_workloads: vec!['G', 'I'],
        service_sessions: vec![64, 1000],
        service_threads: 8,
        rule_scale: vec![4, 16, 64],
        records: None,
        ops: None,
        seed: None,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = value("--out"),
            "--batch-sizes" => {
                args.batch_sizes = value("--batch-sizes")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.batch_sizes.is_empty() || args.batch_sizes.contains(&0) {
                    usage();
                }
            }
            "--workloads" => {
                args.workloads = value("--workloads").chars().collect();
                if args.workloads.is_empty() {
                    usage();
                }
            }
            "--fleet-trees" => {
                let raw = value("--fleet-trees");
                args.fleet_trees = raw
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.fleet_trees.contains(&0) {
                    usage();
                }
            }
            "--fleet-workloads" => {
                args.fleet_workloads = value("--fleet-workloads").chars().collect();
            }
            "--steal-trees" => {
                args.steal_trees = value("--steal-trees")
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.steal_trees.iter().any(|&t| t < 2) {
                    // One shard cannot exhibit stealing (the pool would
                    // just be one worker per shard).
                    usage();
                }
            }
            "--steal-workers" => {
                args.steal_workers = value("--steal-workers")
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.steal_workers.is_empty() || args.steal_workers.contains(&0) {
                    usage();
                }
            }
            "--commit-workloads" => {
                args.commit_workloads = value("--commit-workloads")
                    .chars()
                    .filter(|c| !c.is_whitespace())
                    .collect();
            }
            "--service-sessions" => {
                args.service_sessions = value("--service-sessions")
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.service_sessions.contains(&0) {
                    usage();
                }
            }
            "--rule-scale" => {
                args.rule_scale = value("--rule-scale")
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.rule_scale.contains(&0) {
                    // R = 0 is the stock rule set; it is every *other*
                    // cell's regime, not a rule-scale point.
                    usage();
                }
            }
            "--service-threads" => {
                args.service_threads = value("--service-threads")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if args.service_threads == 0 {
                    usage();
                }
            }
            "--records" => {
                args.records = Some(value("--records").parse().unwrap_or_else(|_| usage()))
            }
            "--ops" => args.ops = Some(value("--ops").parse().unwrap_or_else(|_| usage())),
            "--seed" => args.seed = Some(value("--seed").parse().unwrap_or_else(|_| usage())),
            "--repeat" => {
                args.repeat = Some(value("--repeat").parse().unwrap_or_else(|_| usage()));
                if args.repeat == Some(0) {
                    usage();
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    args
}

/// One cell of the sweep: trees == 1 with a single-tree workload runs
/// the classic driver, fleet workloads run the inline fleet driver, pool
/// cells run a threaded pool of `pool: Some(w)` workers, commit
/// cells run the mid-backlog pipeline driver (`commit: Some(async?)`),
/// and rule-scale cells run the generic-mode matcher comparison
/// (`rule_scale: Some((R, compiled?))`).
#[derive(Clone, Copy)]
struct CellSpec {
    workload: char,
    strategy: StrategyKind,
    batch_size: usize,
    trees: Option<usize>,
    pool: Option<usize>,
    commit: Option<bool>,
    service: Option<usize>,
    rule_scale: Option<(usize, bool)>,
}

fn main() -> ExitCode {
    let args = parse_args();
    // Quick mode pins a small, CI-friendly scale; otherwise the usual
    // environment knobs apply. Explicit flags override both.
    let mut experiment = if args.quick {
        ExperimentConfig {
            records: 512,
            ops: 96,
            crack_threshold: 64,
            seed: 42,
            adaptive_batch: false,
            async_commit: false,
            compiled_match: true,
        }
    } else {
        ExperimentConfig::from_env()
    };
    if let Some(records) = args.records {
        experiment.records = records;
    }
    if let Some(ops) = args.ops {
        experiment.ops = ops;
    }
    if let Some(seed) = args.seed {
        experiment.seed = seed;
    }

    // Quick (CI) runs default to min-of-3 so the per-cell trend gate
    // doesn't flap on scheduler noise; full runs default to 1.
    let repeat = args.repeat.unwrap_or(if args.quick { 3 } else { 1 });

    // Fail fast on a pool axis that can never pass the stealing gate:
    // every swept shard count needs at least one pool smaller than it,
    // or the sweep would run to completion only to be rejected by the
    // validator.
    if let Some(&min_trees) = args.steal_trees.iter().min() {
        if !args.steal_workers.iter().any(|&w| w < min_trees) {
            eprintln!(
                "tt-bench: --steal-workers {:?} has no pool smaller than the \
                 smallest --steal-trees shard count {min_trees}; stealing \
                 needs workers < shards",
                args.steal_workers
            );
            usage();
        }
    }

    let fleet_on = !args.fleet_trees.is_empty() && !args.fleet_workloads.is_empty();
    let sweep = SweepConfig {
        quick: args.quick,
        experiment,
        batch_sizes: args.batch_sizes.clone(),
        workloads: args.workloads.clone(),
        fleet_workloads: if fleet_on {
            args.fleet_workloads.clone()
        } else {
            Vec::new()
        },
        fleet_trees: if fleet_on {
            args.fleet_trees.clone()
        } else {
            Vec::new()
        },
        steal_trees: args.steal_trees.clone(),
        steal_workers: args.steal_workers.clone(),
        commit_workloads: args.commit_workloads.clone(),
        service_sessions: args.service_sessions.clone(),
        service_threads: args.service_threads,
        rule_scale: args.rule_scale.clone(),
        repeat,
    };

    let mut specs: Vec<CellSpec> = Vec::new();
    for &workload in &sweep.workloads {
        for strategy in StrategyKind::all() {
            for &batch_size in &sweep.batch_sizes {
                specs.push(CellSpec {
                    workload,
                    strategy,
                    batch_size,
                    trees: None,
                    pool: None,
                    commit: None,
                    service: None,
                    rule_scale: None,
                });
            }
        }
    }
    for &workload in &sweep.fleet_workloads {
        for strategy in StrategyKind::all() {
            for &batch_size in &sweep.batch_sizes {
                for &trees in &sweep.fleet_trees {
                    specs.push(CellSpec {
                        workload,
                        strategy,
                        batch_size,
                        trees: Some(trees),
                        pool: None,
                        commit: None,
                        service: None,
                        rule_scale: None,
                    });
                }
            }
        }
    }
    // Threaded scheduler cells: the one-worker-per-shard baseline + each
    // smaller pool size, on the skewed workload I with the TT strategy
    // (the axis under test is the scheduler; the strategy axis is
    // covered above).
    for &trees in &sweep.steal_trees {
        let mut pools: Vec<usize> = vec![trees];
        pools.extend(sweep.steal_workers.iter().filter(|&&w| w != trees));
        for pool in pools {
            specs.push(CellSpec {
                workload: 'I',
                strategy: StrategyKind::TreeToaster,
                batch_size: 1,
                trees: Some(trees),
                pool: Some(pool),
                commit: None,
                service: None,
                rule_scale: None,
            });
        }
    }
    // Commit-pipeline twins: one sync and one async cell per workload,
    // through the mid-backlog epoch driver (TT strategy — the axis
    // under test is the commit discipline).
    for &workload in &sweep.commit_workloads {
        for async_commit in [false, true] {
            specs.push(CellSpec {
                workload,
                strategy: StrategyKind::TreeToaster,
                batch_size: COMMIT_BATCH,
                trees: Some(COMMIT_TREES),
                pool: None,
                commit: Some(async_commit),
                service: None,
                rule_scale: None,
            });
        }
    }
    // Service cells: the tt-serve daemon under N concurrent sessions,
    // driven by the shared op-thread pool (workload S, TT strategy —
    // the axis under test is the serving stack, not the strategy).
    for &sessions in &sweep.service_sessions {
        specs.push(CellSpec {
            workload: 'S',
            strategy: StrategyKind::TreeToaster,
            batch_size: 0, // filled by the harness (the daemon's epoch bound)
            trees: Some(1),
            pool: None,
            commit: None,
            service: Some(sessions),
            rule_scale: None,
        });
    }
    // Rule-scale cells: the paper rules padded with R never-firing
    // probes, through the generic-mode TT driver, once per matcher —
    // the compiled automaton against the per-rule baseline. Keyed by
    // `rule_count`/`matcher`, so they never collide with stock cells.
    for &rule_count in &sweep.rule_scale {
        for workload in RULE_SCALE_WORKLOADS {
            for compiled in [true, false] {
                specs.push(CellSpec {
                    workload,
                    strategy: StrategyKind::TreeToaster,
                    batch_size: RULE_SCALE_BATCH,
                    trees: None,
                    pool: None,
                    commit: None,
                    service: None,
                    rule_scale: Some((rule_count, compiled)),
                });
            }
        }
    }
    eprintln!(
        "tt-bench: {} runs (records={}, ops={}, seed={}, batch sizes {:?}, workloads {:?}, \
         fleet {:?} × trees {:?}, pools {:?} workers over {:?} shards, \
         commit twins {:?}, service sessions {:?} × {} threads, rule scale {:?}, min-of-{})",
        specs.len(),
        experiment.records,
        experiment.ops,
        experiment.seed,
        sweep.batch_sizes,
        sweep.workloads,
        sweep.fleet_workloads,
        sweep.fleet_trees,
        sweep.steal_workers,
        sweep.steal_trees,
        sweep.commit_workloads,
        sweep.service_sessions,
        sweep.service_threads,
        sweep.rule_scale,
        repeat
    );

    // Repeat at the *sweep* level — N full passes, per-cell minimum
    // across passes — so a burst of machine interference degrades one
    // pass of many cells rather than every repeat of one cell. The
    // threaded pool cells are fenced into their own passes *after* all
    // synchronous passes finish: spawning and joining worker fleets
    // perturbs scheduler and cache state enough to skew whichever sync
    // cells run next, and the fence keeps that churn out of the
    // single-threaded measurements entirely. Service cells get a third
    // fence after the pool passes for the same reason, one layer up: a
    // thousand-session daemon leaves the allocator holding megabytes of
    // session state, and interleaving that with the pool cells skews
    // their minima on small machines.
    let phase_of = |spec: &CellSpec| -> usize {
        if spec.service.is_some() {
            2
        } else if spec.pool.is_some() || spec.commit.is_some() {
            1
        } else {
            0
        }
    };
    let mut best: Vec<Option<BatchRunResult>> = vec![None; specs.len()];
    for phase in 0..3usize {
        for round in 0..repeat {
            if repeat > 1 {
                eprintln!(
                    "tt-bench: {} pass {}/{repeat}",
                    ["sync", "pool", "service"][phase],
                    round + 1
                );
            }
            for (cell, spec) in specs.iter().enumerate() {
                // Commit twins spawn threads too: they run in the pool
                // phase, fenced away from the single-threaded cells.
                if phase_of(spec) != phase {
                    continue;
                }
                let r = if let Some((rule_count, compiled)) = spec.rule_scale {
                    run_rule_scale(
                        spec.workload,
                        experiment,
                        spec.batch_size,
                        rule_count,
                        compiled,
                    )
                } else if let Some(sessions) = spec.service {
                    run_service(experiment, sessions, args.service_threads)
                } else {
                    match (spec.trees, spec.pool, spec.commit) {
                        (Some(trees), None, Some(async_commit)) => run_commit_pipeline(
                            spec.workload,
                            spec.strategy,
                            experiment,
                            spec.batch_size,
                            trees,
                            async_commit,
                        ),
                        (None, _, _) => run_jitd_batched(
                            spec.workload,
                            spec.strategy,
                            experiment,
                            spec.batch_size,
                        ),
                        (Some(trees), None, None) => run_fleet_batched(
                            spec.workload,
                            spec.strategy,
                            experiment,
                            spec.batch_size,
                            trees,
                        ),
                        (Some(trees), Some(workers), _) => {
                            run_steal_pool(spec.workload, spec.strategy, experiment, trees, workers)
                        }
                    }
                };
                // Min-of-N applies per metric: total_ns picks the kept
                // run, but the worst-window tail is its own estimator —
                // a preemption spike in an otherwise-fastest pass must
                // not masquerade as the pipeline's intrinsic tail.
                let slot = &mut best[cell];
                match slot {
                    Some(b) => {
                        let worst_window_ns = b.worst_window_ns.min(r.worst_window_ns);
                        let p99_ns = b.p99_ns.min(r.p99_ns);
                        if r.total_ns < b.total_ns {
                            *slot = Some(BatchRunResult {
                                worst_window_ns,
                                p99_ns,
                                ..r
                            });
                        } else {
                            b.worst_window_ns = worst_window_ns;
                            b.p99_ns = p99_ns;
                        }
                    }
                    None => *slot = Some(r),
                }
            }
        }
    }
    let results: Vec<BatchRunResult> = best
        .into_iter()
        .map(|r| r.expect("all cells ran"))
        .collect();
    for r in &results {
        let mut deploy = if r.scheduler == "sync" {
            String::new()
        } else {
            format!("{}:{}", r.scheduler, r.workers)
        };
        if r.commit == "async" {
            deploy.push_str("+async");
        }
        if r.mode == "service" {
            deploy = format!("svc:{}x{}", r.sessions, args.service_threads);
        }
        if r.rule_count > 0 {
            deploy = format!("{}@R{}", r.matcher, r.rule_count);
        }
        eprintln!(
            "  {}/{} K={:<4} T={:<3} {:>12} {:>10.0} ns/op  {:>8} peak bytes  {} rewrites",
            r.workload,
            r.strategy.label(),
            r.batch_size,
            r.trees,
            deploy,
            r.ns_per_op(),
            r.peak_strategy_bytes,
            r.rewrites
        );
    }

    let text = render_report(&sweep, &results);
    // Self-check before writing: the runner must never publish a
    // trajectory its own checker would reject (schema, coverage, and
    // the performance gates all run here). A rejected sweep is kept
    // beside `--out` rather than lost.
    if let Err(e) = publish_report(&args.out, &text) {
        eprintln!("tt-bench: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("tt-bench: wrote {} ({} results)", args.out, results.len());
    ExitCode::SUCCESS
}
