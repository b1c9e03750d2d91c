//! The scheduling-transparency contract: draining the fleet's work
//! queue must be *structurally invisible*.
//!
//! Trees in a fleet are independent, so the scheduler is free to choose
//! which shard's backlog to drain first — queue order with one round per
//! pop and a requeue while the shard stays hot, or plain round-robin —
//! as long as every written shard reaches quiescence before its next
//! operations. This suite drives the same fleet op stream through two
//! inline fleets ([`AsyncJitd`] at `workers: 0`, so both runs are
//! deterministic):
//!
//! - **round-robin**: after each op chunk, every written tree is
//!   reorganized to quiescence in tree-id order, under its own lock;
//! - **queued**: writes feed the heat-gated work queue and the chunk is
//!   drained inline through the pool's own round-and-requeue body
//!   ([`AsyncJitd::reorganize_pending`]).
//!
//! The two runs must agree *structurally*: identical per-tree
//! s-expressions, identical reads, identical rewrite counts. Any
//! divergence means scheduling order leaked into per-tree semantics —
//! exactly the bug class a work-stealing pool must not introduce.

use proptest::prelude::*;
use std::sync::Arc;
use treetoaster::ast::Record;
use treetoaster::jitd::{jitd_schema, paper_rules, StealConfig};
use treetoaster::prelude::{AsyncJitd, Jitd, RuleConfig, StrategyKind};
use treetoaster::ycsb::{FleetSpec, FleetWorkload};

const RECORDS_PER_TREE: i64 = 40;

fn preload(t: usize) -> Vec<Record> {
    (0..RECORDS_PER_TREE)
        .map(|k| Record::new(k, k * 7 + t as i64))
        .collect()
}

/// An inline fleet, cracked to quiescence by draining its initial
/// backlog (every shard starts queued).
fn new_fleet(strategy: StrategyKind, trees: usize) -> AsyncJitd {
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
    let fleet = AsyncJitd::spawn(shards, steal);
    fleet.reorganize_pending(u64::MAX);
    fleet
}

/// Runs `ops` operations of fleet workload `family` in `chunk`-op
/// bursts. `queued` drains each burst through the work queue; otherwise
/// every written tree is ticked to quiescence in id order. Returns the
/// stopped runtimes, the queue's drain count, and how many (chunk,
/// written tree) pairs the stream produced.
fn run(
    strategy: StrategyKind,
    family: char,
    trees: usize,
    seed: u64,
    ops: usize,
    chunk: usize,
    queued: bool,
) -> (Vec<Jitd>, u64, u64) {
    let fleet = new_fleet(strategy, trees);
    let mut driver = FleetWorkload::new(
        FleetSpec::standard(family, trees),
        RECORDS_PER_TREE as u64,
        seed,
    );
    let drained_before = fleet.steal_stats().drained_count;
    let mut written_pairs = 0u64;
    let mut done = 0usize;
    while done < ops {
        let n = chunk.min(ops - done);
        let mut written: Vec<usize> = Vec::new();
        for _ in 0..n {
            let fop = driver.next_op();
            fleet.execute_on(fop.tree, &fop.op);
            if !written.contains(&fop.tree) {
                written.push(fop.tree);
            }
        }
        written_pairs += written.len() as u64;
        if queued {
            fleet.reorganize_pending(u64::MAX);
            assert_eq!(fleet.reorg_backlog(), 0, "inline drain left a backlog");
        } else {
            written.sort_unstable();
            for t in written {
                fleet.with_shard(t, |j| j.reorganize_until_quiet(u64::MAX));
            }
        }
        done += n;
    }
    let drained = fleet.steal_stats().drained_count - drained_before;
    (fleet.stop().0, drained, written_pairs)
}

fn assert_structurally_equal(a: &[Jitd], b: &[Jitd]) {
    let steps = |f: &[Jitd]| f.iter().map(|j| j.stats.steps).sum::<u64>();
    assert_eq!(steps(a), steps(b), "rewrite counts diverged");
    for (t, (ja, jb)) in a.iter().zip(b).enumerate() {
        let (ia, ib) = (ja.index(), jb.index());
        assert_eq!(
            treetoaster::ast::sexpr::to_sexpr(ia.ast(), ia.ast().root()),
            treetoaster::ast::sexpr::to_sexpr(ib.ast(), ib.ast().root()),
            "tree {t} structural divergence"
        );
        for key in 0..RECORDS_PER_TREE + 16 {
            assert_eq!(ia.get(key), ib.get(key), "tree {t} read diverged at {key}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Queued == round-robin for every strategy, all three fleet
    /// workload shapes, and random scales.
    #[test]
    fn stealing_schedule_is_structurally_invisible(
        strategy_idx in 0usize..5,
        family_idx in 0usize..3,
        trees in 2usize..5,
        seed in 0u64..1_000,
        chunk in 1usize..24,
    ) {
        let strategy = StrategyKind::all()[strategy_idx];
        let family = ['G', 'H', 'I'][family_idx];
        let (rr, _, _) = run(strategy, family, trees, seed, 72, chunk, false);
        let (st, _, _) = run(strategy, family, trees, seed, 72, chunk, true);
        assert_structurally_equal(&rr, &st);
        for jitd in rr.iter().chain(&st) {
            jitd.check_strategy_consistent().unwrap();
        }
    }
}

/// Fixed-seed anchor (always runs, easy to bisect): the skewed workload
/// over six trees must produce identical fleets *and* must actually
/// interleave — the queued run serves a shard one round per pop and
/// requeues it while the round fired, so it drains more items than the
/// chunks wrote trees.
#[test]
fn skewed_anchor_requeues_and_stays_equal() {
    let trees = 6;
    let (mut rr, rr_drained, _) = run(StrategyKind::TreeToaster, 'I', trees, 77, 192, 16, false);
    let (mut st, st_drained, written) =
        run(StrategyKind::TreeToaster, 'I', trees, 77, 192, 16, true);
    assert_structurally_equal(&rr, &st);
    assert_eq!(rr_drained, 0, "round-robin never touches the queue");
    assert!(
        st_drained > written,
        "hot shards must come back round after round: {st_drained} drains \
         for {written} written trees"
    );
    for jitd in rr.iter_mut().chain(st.iter_mut()) {
        jitd.agreement_with_naive().unwrap();
        jitd.index().check_structure().unwrap();
    }
}
