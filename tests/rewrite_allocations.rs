//! Heap allocations on the JITD hot path, counted by a global allocator.
//!
//! A read on a warm TreeToaster-maintained index must not allocate at
//! all, a fired push-down rewrite (search, apply, inlined view
//! maintenance) allocates only the handful of small vectors the rewrite
//! record itself carries, and a warm epoch commit (seal, then land)
//! reuses the pages of the epoch before it. A regression that copies
//! node rows or child/attribute vectors per rewrite, or collects an
//! epoch before landing it, shows up here as a count, long before it
//! shows up in a latency figure.
//!
//! The counter is per thread, so the test harness's other threads do
//! not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use treetoaster::ast::Record;
use treetoaster::jitd::{Jitd, RuleConfig, StrategyKind};
use treetoaster::prelude::Op;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` so an allocation during thread teardown is not an error.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter only touches a const-initialized thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const RECORDS: i64 = 4_096;

/// A runtime over the paper's rules whose root has been cracked into a
/// `BinTree`, with a few hundred writes pushed down.
fn warm_jitd(kind: StrategyKind) -> Jitd {
    let records = (0..RECORDS).map(|k| Record::new(k * 2, k)).collect();
    let mut jitd = Jitd::new(kind, RuleConfig::default(), records);
    for i in 0..400 {
        jitd.execute(&Op::Insert {
            key: (i * 7919) % (RECORDS * 2),
            value: i,
        });
        jitd.reorganize_round();
    }
    jitd.reorganize_until_quiet(u64::MAX);
    assert!(jitd.stats.steps > 0, "the warm-up reorganized the index");
    jitd
}

#[test]
fn warm_reads_allocate_nothing() {
    let jitd = warm_jitd(StrategyKind::TreeToaster);
    // Keys that hit the arrays, keys that miss, and keys the warm-up
    // wrote (some still above the arrays in Concat/Singleton nodes).
    let keys: Vec<i64> = (-3..RECORDS * 2 + 3).step_by(13).collect();
    // The first read grows the index's reusable walk stack.
    let _ = jitd.index().get(keys[0]);
    let (n, found) = allocations(|| keys.iter().filter_map(|&k| jitd.index().get(k)).count());
    assert!(found > 0, "some keys are present");
    assert_eq!(n, 0, "{} reads allocated {n} times", keys.len());
}

/// What one fired push-down `reorganize_step` allocates for the rewrite
/// itself: the record's `removed` list and the walk that fills it,
/// `gen_nodes`, and the freed-id list `Ast::free_subtree` returns plus
/// its walk. Node slots are recycled and hold their lists inline,
/// maintenance stages into dense views, and no row is copied.
const REWRITE_ALLOCATIONS: u64 = 5;

/// Debug builds also sort two copies of the freed ids for the assertion
/// that they equal `removed`. The exact release bound holds only without
/// debug assertions; CI runs this binary in release as well.
const DEBUG_CHECK_ALLOCATIONS: u64 = if cfg!(debug_assertions) { 2 } else { 0 };

/// The runtime's three per-rule latency sample vectors grow by doubling,
/// so now and then a step also pays for one growth of each.
const SAMPLE_GROWTH: u64 = 3;

#[test]
fn a_push_down_rewrite_allocates_only_its_record() {
    let mut jitd = warm_jitd(StrategyKind::TreeToaster);
    let rules = jitd.rules().clone();
    let push_downs: Vec<usize> = ["PushDownSingletonBtreeLeft", "PushDownSingletonBtreeRight"]
        .iter()
        .map(|name| rules.by_name(name).expect("paper rule").0)
        .collect();
    let mut counts = Vec::new();
    for i in 0..64 {
        // A fresh key lands in a new Concat(BinTree, Singleton) at the
        // root, which one of the two push-down rules must rewrite.
        jitd.execute(&Op::Insert {
            key: RECORDS * 2 + i,
            value: i,
        });
        let mut fired = false;
        for &rid in &push_downs {
            let (n, step) = allocations(|| jitd.reorganize_step(rid));
            if step.fired {
                counts.push(n);
                fired = true;
                break;
            }
        }
        assert!(fired, "insert {i} was not pushed down");
        jitd.reorganize_until_quiet(u64::MAX);
    }
    let typical = *counts.iter().min().unwrap();
    let worst = *counts.iter().max().unwrap();
    let bound = REWRITE_ALLOCATIONS + DEBUG_CHECK_ALLOCATIONS;
    assert!(
        typical <= bound,
        "a push-down step allocated {typical} times (bound {bound}): {counts:?}"
    );
    assert!(
        worst <= bound + SAMPLE_GROWTH,
        "a push-down step allocated {worst} times (bound {}): {counts:?}",
        bound + SAMPLE_GROWTH
    );
    jitd.check_strategy_consistent().unwrap();
    jitd.agreement_with_naive().unwrap();
}

/// A commit grows the runtime's commit-latency sample vector now and
/// then (it doubles).
const COMMIT_SAMPLE_GROWTH: u64 = 1;

#[test]
fn a_warm_epoch_commit_allocates_nothing() {
    for kind in [StrategyKind::TreeToaster, StrategyKind::Index] {
        let mut jitd = warm_jitd(kind);
        let mut counts = Vec::new();
        // The first epochs allocate the Z-set pages every later epoch
        // reuses; only the cycles after them are counted.
        for epoch in 0..72i64 {
            jitd.begin_batch();
            for i in 0..4 {
                let key = RECORDS * 2 + epoch * 4 + i;
                jitd.execute(&Op::Insert { key, value: i });
            }
            jitd.reorganize_round();
            let bytes = jitd.strategy_memory_bytes();
            let (n, ()) = allocations(|| {
                assert!(jitd.submit_commit(), "the epoch staged deltas");
                assert!(jitd.apply_submitted());
            });
            // A landed node that is the first of its id range needs a
            // new view or posting-list page, or a longer member list:
            // that growth shows in the structure's bytes.
            let grew = jitd.strategy_memory_bytes() > bytes;
            if epoch >= 8 {
                counts.push((n, grew));
            }
        }
        let label = kind.label();
        let mut sorted: Vec<u64> = counts.iter().map(|&(n, _)| n).collect();
        sorted.sort_unstable();
        assert_eq!(
            sorted[sorted.len() / 2],
            0,
            "{label}: a warm commit allocated: {counts:?}"
        );
        for &(n, grew) in &counts {
            assert!(
                grew || n <= COMMIT_SAMPLE_GROWTH,
                "{label}: a commit that grew no structure allocated {n} times: {counts:?}"
            );
        }
        jitd.reorganize_until_quiet(u64::MAX);
        jitd.check_strategy_consistent().unwrap();
        jitd.agreement_with_naive().unwrap();
    }
}
