//! The fleet isolation contract: one fleet over N trees must be
//! observationally identical to N independent single-tree runtimes.
//!
//! The fleet ([`AsyncJitd`] at `workers: 0`, drained inline so every run
//! is deterministic) routes an interleaved fleet stream (workloads G/H)
//! to per-shard runtimes over one shared rule set, with per-tree
//! maintenance epochs and one work queue scheduling reorganization. The
//! oracle replays each tree's sub-stream — same per-tree op order, same
//! epoch boundaries, same reorganization bursts — through a plain
//! single-tree [`Jitd`]. For every strategy and batch size the two runs
//! must agree *structurally*: identical final ASTs per tree
//! (s-expression equality), consistent views/indexes against a
//! from-scratch rebuild, and identical rewrite counts. Any cross-shard
//! leakage — a delta staged to the wrong shard's buffer, an epoch commit
//! flushing a neighbor, the queue serving the wrong shard — breaks
//! structural equality immediately.

use proptest::prelude::*;
use std::sync::Arc;
use treetoaster::ast::Record;
use treetoaster::jitd::{jitd_schema, paper_rules, CommitMode, StealConfig};
use treetoaster::prelude::{AsyncJitd, Jitd, Op, RuleConfig, StrategyKind};
use treetoaster::ycsb::{FleetSpec, FleetWorkload};

const RECORDS_PER_TREE: i64 = 48;

fn preload(t: usize) -> Vec<Record> {
    (0..RECORDS_PER_TREE)
        .map(|k| Record::new(k, k * 3 + t as i64))
        .collect()
}

/// Drives an inline fleet through `ops` operations of fleet workload
/// `family` in `batch_size`-op maintenance epochs (per-tree epochs open
/// lazily on first touch; the queue drains the epoch's backlog before
/// the touched trees commit), recording each tree's per-epoch op chunks
/// so the solo oracle can replay them with identical boundaries.
#[allow(clippy::type_complexity)]
fn run_fleet(
    strategy: StrategyKind,
    family: char,
    trees: usize,
    seed: u64,
    ops: usize,
    batch_size: usize,
) -> (Vec<Jitd>, Vec<Vec<Vec<Op>>>) {
    let rules = Arc::new(paper_rules(
        &jitd_schema(),
        RuleConfig { crack_threshold: 8 },
    ));
    let shards = (0..trees)
        .map(|t| Jitd::with_rules(strategy, rules.clone(), preload(t)))
        .collect();
    let steal = StealConfig {
        workers: 0,
        heat_threshold: 1,
    };
    let fleet = AsyncJitd::spawn(shards, steal, CommitMode::Sync);
    let mut driver = FleetWorkload::new(
        FleetSpec::standard(family, trees),
        RECORDS_PER_TREE as u64,
        seed,
    );
    // Load-phase cracking: every shard starts queued, and the drain
    // takes each to quiescence exactly as each solo will.
    fleet.reorganize_pending(u64::MAX);
    // epochs[t] = the op chunks tree t saw, one entry per epoch that
    // touched it.
    let mut epochs: Vec<Vec<Vec<Op>>> = vec![Vec::new(); trees];
    let mut done = 0usize;
    while done < ops {
        let chunk = batch_size.min(ops - done);
        let mut touched: Vec<usize> = Vec::new();
        for _ in 0..chunk {
            let fop = driver.next_op();
            if !touched.contains(&fop.tree) {
                touched.push(fop.tree);
                fleet.begin_batch_on(fop.tree);
                epochs[fop.tree].push(Vec::new());
            }
            fleet.execute_on(fop.tree, &fop.op);
            epochs[fop.tree]
                .last_mut()
                .expect("epoch opened")
                .push(fop.op);
        }
        fleet.reorganize_pending(u64::MAX);
        assert_eq!(fleet.reorg_backlog(), 0, "inline drain left a backlog");
        for &t in &touched {
            fleet.submit_commit_on(t);
        }
        done += chunk;
    }
    (fleet.stop().0, epochs)
}

/// Replays one tree's recorded epochs through an independent single-tree
/// runtime.
fn run_solo(strategy: StrategyKind, t: usize, epochs: &[Vec<Op>]) -> Jitd {
    let mut jitd = Jitd::new(strategy, RuleConfig { crack_threshold: 8 }, preload(t));
    jitd.reorganize_until_quiet(u64::MAX);
    for chunk in epochs {
        jitd.begin_batch();
        for op in chunk {
            jitd.execute(op);
        }
        jitd.reorganize_until_quiet(u64::MAX);
        jitd.commit_batch();
    }
    jitd
}

fn check_equivalence(
    strategy: StrategyKind,
    family: char,
    trees: usize,
    seed: u64,
    ops: usize,
    batch_size: usize,
) -> Result<(), TestCaseError> {
    let label = format!(
        "{} (workload {family}, {trees} trees, K={batch_size}, seed {seed})",
        strategy.label()
    );
    let (mut fleet, epochs) = run_fleet(strategy, family, trees, seed, ops, batch_size);
    let mut fleet_steps = 0u64;
    let mut solo_steps = 0u64;
    for (t, (mine, tree_epochs)) in fleet.iter_mut().zip(&epochs).enumerate() {
        mine.check_strategy_consistent()
            .map_err(|e| TestCaseError::fail(format!("{label}: shard {t} inconsistent: {e}")))?;
        mine.agreement_with_naive()
            .map_err(|e| TestCaseError::fail(format!("{label}: shard {t}: {e}")))?;
        mine.index()
            .check_structure()
            .map_err(|e| TestCaseError::fail(format!("{label}: shard {t}: {e}")))?;
        let solo = run_solo(strategy, t, tree_epochs);
        fleet_steps += mine.stats.steps;
        solo_steps += solo.stats.steps;
        solo.check_strategy_consistent()
            .map_err(|e| TestCaseError::fail(format!("{label}: solo {t} inconsistent: {e}")))?;
        // Strongest check first: identical tree structure.
        let fleet_sexpr =
            treetoaster::ast::sexpr::to_sexpr(mine.index().ast(), mine.index().ast().root());
        let solo_sexpr =
            treetoaster::ast::sexpr::to_sexpr(solo.index().ast(), solo.index().ast().root());
        prop_assert_eq!(
            fleet_sexpr,
            solo_sexpr,
            "{}: tree {} structure diverged from the independent engine",
            &label,
            t
        );
        // And the key/value semantics over the touched key range.
        for key in 0..RECORDS_PER_TREE + 16 {
            prop_assert_eq!(
                mine.index().get(key),
                solo.index().get(key),
                "{}: tree {} read diverged at key {}",
                &label,
                t,
                key
            );
        }
    }
    prop_assert_eq!(
        fleet_steps,
        solo_steps,
        "{}: fleet rewrite count != sum of independent engines",
        &label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One fleet over N trees == N independent single-tree runtimes,
    /// for all five strategies × batch sizes {1, K, ∞} × both fleet
    /// workload shapes.
    #[test]
    fn fleet_equals_independent_engines(
        seed in 0u64..100_000,
        trees in 2usize..4,
        k in 2usize..16,
        ops in 16usize..40,
        family_pick in 0usize..2,
    ) {
        let family = ['G', 'H'][family_pick];
        for strategy in StrategyKind::all() {
            for batch_size in [1usize, k, usize::MAX] {
                check_equivalence(strategy, family, trees, seed, ops, batch_size)?;
            }
        }
    }
}

/// Deterministic regression anchor: one fixed configuration per strategy
/// (fast, always runs, easy to bisect when the proptest shrinks badly —
/// the vendored stub does not shrink at all).
#[test]
fn forest_equivalence_fixed_seed() {
    for strategy in StrategyKind::all() {
        check_equivalence(strategy, 'G', 3, 1234, 48, 7)
            .unwrap_or_else(|e| panic!("{}: {e}", strategy.label()));
    }
}
