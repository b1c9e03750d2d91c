//! The batching correctness contract: for every strategy, a random
//! rewrite/operation sequence applied under epoch-batched maintenance —
//! at batch sizes 1 (the degenerate per-rewrite case), K, and ∞ (one
//! epoch for the whole run) — must leave the strategy's views/indexes
//! identical to a from-scratch rebuild over the final tree.
//!
//! `check_strategy_consistent` is the rebuild oracle: TreeToaster
//! re-scans every pattern (Definition 4 view correctness), the label
//! index diffs against a freshly built index, and the bolt-ons compare
//! their shadow database to the live AST and every materialized map to a
//! from-scratch evaluation.
//!
//! Since the views, posting lists, and epoch buffers moved onto the
//! dense storage layer (`tt_ast::dense`), this suite doubles as its
//! end-to-end exercise: every epoch stages into `NodeMap` pages and must
//! still commit to exactly the rebuild state. The
//! structure-level differential complement is `tests/dense_storage.rs`.

use proptest::prelude::*;
use treetoaster::ast::Record;
use treetoaster::prelude::{Jitd, Op, RuleConfig, StrategyKind, Workload, WorkloadSpec};

/// Drives one seeded workload with `batch_size`-op maintenance epochs
/// (each epoch also runs a reorganization burst before committing).
fn run_batched(
    strategy: StrategyKind,
    workload: char,
    seed: u64,
    ops: usize,
    batch_size: usize,
) -> Jitd {
    let records: Vec<Record> = (0..96).map(|k| Record::new(k, k * 3)).collect();
    let mut jitd = Jitd::new(strategy, RuleConfig { crack_threshold: 8 }, records);
    let mut driver = Workload::new(WorkloadSpec::standard(workload), 96, seed);
    let mut done = 0;
    while done < ops {
        let chunk = batch_size.min(ops - done);
        jitd.begin_batch();
        for _ in 0..chunk {
            let op = driver.next_op();
            jitd.execute(&op);
        }
        jitd.reorganize_until_quiet(u64::MAX);
        jitd.commit_batch();
        done += chunk;
    }
    jitd
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batched_views_equal_rebuild_for_every_strategy(
        seed in 0u64..100_000,
        workload_pick in 0..5usize,
        k in 2..24usize,
        ops in 16..48usize,
    ) {
        let workload = ['A', 'B', 'C', 'D', 'F'][workload_pick];
        for strategy in StrategyKind::all() {
            for batch_size in [1usize, k, usize::MAX] {
                let mut jitd = run_batched(strategy, workload, seed, ops, batch_size);
                jitd.check_strategy_consistent().map_err(|e| {
                    TestCaseError::fail(format!(
                        "{} (workload {workload}, K={batch_size}): {e}",
                        strategy.label()
                    ))
                })?;
                jitd.agreement_with_naive().map_err(TestCaseError::fail)?;
                jitd.index().check_structure().map_err(TestCaseError::fail)?;
            }
        }
    }
}

/// Deterministic complement: identical op streams at batch sizes 1, K,
/// and ∞ must leave *semantically* identical indexes (point reads agree
/// for every key), even though staging changes which eligible site a
/// view pops first.
#[test]
fn batch_size_never_changes_index_semantics() {
    for strategy in StrategyKind::all() {
        let mut snapshots = Vec::new();
        for batch_size in [1usize, 8, usize::MAX] {
            let jitd = run_batched(strategy, 'A', 7177, 64, batch_size);
            let reads: Vec<Option<i64>> = (0..160).map(|key| jitd.index().get(key)).collect();
            snapshots.push((batch_size, reads));
        }
        let (_, reference) = &snapshots[0];
        for (batch_size, reads) in &snapshots[1..] {
            assert_eq!(
                reads,
                reference,
                "{} diverged at K={batch_size}",
                strategy.label()
            );
        }
    }
}

/// Mid-epoch reads return only live matches: interleave finds with
/// batched rewrites and validate each returned site against the naive
/// matcher before applying it (the runtime's `reorganize_step` does this
/// with `match_node` and would panic on a stale site).
#[test]
fn mid_epoch_finds_are_never_stale() {
    for strategy in StrategyKind::all() {
        let records: Vec<Record> = (0..128).map(|k| Record::new(k, k)).collect();
        let mut jitd = Jitd::new(strategy, RuleConfig { crack_threshold: 8 }, records);
        let mut driver = Workload::new(WorkloadSpec::standard('F'), 128, 99);
        for _ in 0..6 {
            jitd.begin_batch();
            for _ in 0..10 {
                let op = driver.next_op();
                jitd.execute(&op);
                // Every reorganize_step inside the open epoch re-derives
                // bindings via match_node — a stale find panics here.
                jitd.reorganize_round();
            }
            jitd.commit_batch();
            jitd.check_strategy_consistent()
                .unwrap_or_else(|e| panic!("{}: {e}", jitd.kind().label()));
        }
        let _ = jitd.index().get(1);
    }
}

/// The degenerate protocol: begin/commit with nothing staged, commits
/// without begins, and strategies that keep no state at all.
#[test]
fn empty_epochs_are_noops() {
    for strategy in StrategyKind::all() {
        let records: Vec<Record> = (0..32).map(|k| Record::new(k, k)).collect();
        let mut jitd = Jitd::new(strategy, RuleConfig { crack_threshold: 8 }, records);
        jitd.commit_batch(); // no open epoch
        jitd.begin_batch();
        jitd.commit_batch(); // open, nothing staged
        jitd.begin_batch();
        jitd.begin_batch(); // reentrant
        jitd.commit_batch();
        jitd.check_strategy_consistent().unwrap();
        jitd.execute(&Op::Read { key: 3 });
    }
}

/// A rewrite outside any epoch must first land the sealed epoch still
/// awaiting its committer: the rewrite's deltas describe a tree that
/// already contains the sealed epoch's insertions. (In a fleet, a
/// worker can reorganize a shard between its `submit_commit` and the
/// next `begin_batch`.)
#[test]
fn out_of_epoch_rewrites_land_the_sealed_epoch_first() {
    for strategy in StrategyKind::all() {
        let records: Vec<Record> = (0..64).map(|k| Record::new(k, k)).collect();
        let mut jitd = Jitd::new(strategy, RuleConfig { crack_threshold: 8 }, records);
        jitd.reorganize_until_quiet(u64::MAX);
        jitd.begin_batch();
        for i in 0..40 {
            jitd.execute(&Op::Insert {
                key: 1_000 + i,
                value: i,
            });
        }
        jitd.submit_commit();
        assert!(
            jitd.reorganize_round() > 0,
            "{}: the sealed inserts are rewritable",
            strategy.label()
        );
        jitd.apply_submitted();
        jitd.reorganize_until_quiet(u64::MAX);
        jitd.check_strategy_consistent()
            .unwrap_or_else(|e| panic!("{}: {e}", strategy.label()));
        jitd.agreement_with_naive()
            .unwrap_or_else(|e| panic!("{}: {e}", strategy.label()));
        for i in 0..40 {
            assert_eq!(jitd.index().get(1_000 + i), Some(i), "{}", strategy.label());
        }
    }
}
