//! Timing is an observer: a timed run and an untimed run of the same
//! script end on the same tree or plan and agree on every counter, and
//! only the timed run holds durations.
//!
//! Covers the JITD runtime under all five strategies (ops, rewrites,
//! deletes, inline and pipelined epoch commits) and both optimizer
//! optimizers: Catalyst in both search modes and the Orca-style one, on
//! the TPC-H-shaped plans and the UNION-doubling antipattern.

use treetoaster::ast::{Ast, Record};
use treetoaster::jitd::{Jitd, RuleConfig, StrategyKind};
use treetoaster::prelude::Op;
use treetoaster::queryopt::antipattern::union_doubling;
use treetoaster::queryopt::catalyst::{optimize, optimize_timed, Breakdown, SearchMode};
use treetoaster::queryopt::orca::{optimize_orca, optimize_orca_timed, OrcaBreakdown};
use treetoaster::queryopt::tpch;
use treetoaster::ycsb::{Workload, WorkloadSpec};

const RECORDS: i64 = 96;

/// A seeded YCSB-A script with reorganization rounds, a delete, inline
/// epoch commits and pipelined (seal, then land) ones.
fn run_script(jitd: &mut Jitd) {
    let mut workload = Workload::new(WorkloadSpec::standard('A'), RECORDS as u64, 17);
    for epoch in 0..12 {
        jitd.begin_batch();
        for _ in 0..6 {
            jitd.execute(&workload.next_op());
            jitd.reorganize_round();
        }
        match epoch % 3 {
            0 => {
                jitd.commit_batch();
            }
            1 => {
                jitd.submit_commit();
                jitd.apply_submitted();
            }
            _ => {
                jitd.delete(epoch);
                jitd.reorganize_until_quiet(u64::MAX);
                jitd.commit_batch();
            }
        }
    }
    jitd.execute(&Op::Insert {
        key: RECORDS + 1,
        value: 1,
    });
    jitd.reorganize_until_quiet(u64::MAX);
}

/// Every counter a runtime keeps: steps, then matches and rewrites per
/// rule, then the event count of each latency stream.
fn jitd_counts(jitd: &Jitd) -> Vec<u64> {
    let s = &jitd.stats;
    let mut out = vec![s.steps];
    out.extend(&s.rule_matches);
    out.extend(&s.rule_rewrites);
    for streams in [&s.search_ns, &s.rewrite_ns, &s.maintain_ns] {
        out.extend(streams.iter().map(|l| l.len() as u64));
    }
    for l in [&s.op_maintain_ns, &s.op_ns, &s.commit_ns] {
        out.push(l.len() as u64);
    }
    out
}

/// Latencies a runtime kept, over all its streams.
fn jitd_samples(jitd: &Jitd) -> usize {
    let s = &jitd.stats;
    let per_rule = [&s.search_ns, &s.rewrite_ns, &s.maintain_ns]
        .into_iter()
        .flatten()
        .map(|l| l.samples().len());
    let per_runtime = [&s.op_maintain_ns, &s.op_ns, &s.commit_ns]
        .into_iter()
        .map(|l| l.samples().len());
    per_rule.chain(per_runtime).sum()
}

fn tree_hash(ast: &Ast) -> u64 {
    ast.structural_hash(ast.root())
}

#[test]
fn timed_and_untimed_runtimes_agree_for_every_strategy() {
    for kind in StrategyKind::all() {
        let label = kind.label();
        let build = || {
            let records = (0..RECORDS).map(|k| Record::new(k, 3 * k)).collect();
            Jitd::new(kind, RuleConfig { crack_threshold: 8 }, records)
        };
        let mut untimed = build();
        let mut timed = build().timed();
        run_script(&mut untimed);
        run_script(&mut timed);

        assert_eq!(
            tree_hash(untimed.index().ast()),
            tree_hash(timed.index().ast()),
            "{label}: the runs ended on different trees"
        );
        let counts = jitd_counts(&untimed);
        assert_eq!(counts, jitd_counts(&timed), "{label}: counters differ");
        assert!(untimed.stats.steps > 0 && untimed.stats.commit_ns.len() == 12);

        assert_eq!(jitd_samples(&untimed), 0, "{label}: untimed kept latencies");
        assert!(untimed.stats.all_maintenance_samples().is_empty());
        // Every event of a timed runtime keeps exactly one latency.
        let events: u64 = counts[1 + 2 * untimed.rules().len()..].iter().sum();
        assert_eq!(jitd_samples(&timed) as u64, events, "{label}");
        timed.check_strategy_consistent().unwrap();
        timed.agreement_with_naive().unwrap();
    }
}

fn catalyst_counts(bd: &Breakdown) -> [u64; 6] {
    [
        bd.effective_count,
        bd.ineffective_count,
        bd.match_attempts,
        bd.iterations,
        bd.initial_size as u64,
        bd.final_size as u64,
    ]
}

fn orca_counts(bd: &OrcaBreakdown) -> [u64; 5] {
    [
        bd.effective_count,
        bd.rejected_count,
        bd.tasks,
        bd.initial_size as u64,
        bd.final_size as u64,
    ]
}

/// Plans 1–22 are the TPC-H-shaped queries, plan 23 the UNION-doubling
/// antipattern.
const PLANS: std::ops::RangeInclusive<usize> = 1..=23;

fn plan(i: usize) -> Ast {
    if i <= 22 {
        tpch::build_query(i, 11)
    } else {
        union_doubling(3)
    }
}

#[test]
fn timed_and_untimed_optimizers_agree() {
    for mode in [SearchMode::NaiveScan, SearchMode::TreeToasterViews] {
        let mut timed_total = 0;
        for i in PLANS {
            let (mut a, mut b) = (plan(i), plan(i));
            let untimed = optimize(&mut a, mode, 100);
            let timed = optimize_timed(&mut b, mode, 100);
            assert_eq!(tree_hash(&a), tree_hash(&b), "{mode:?} plan {i}");
            assert_eq!(
                catalyst_counts(&untimed),
                catalyst_counts(&timed),
                "{mode:?} plan {i}"
            );
            assert_eq!(untimed.total_ns(), 0, "{mode:?} plan {i}: {untimed:?}");
            timed_total += timed.total_ns();
        }
        assert!(timed_total > 0, "{mode:?}: the timed runs read no clock");
    }

    let mut timed_total = 0;
    for i in PLANS {
        let (mut a, mut b) = (plan(i), plan(i));
        let untimed = optimize_orca(&mut a, u64::MAX);
        let timed = optimize_orca_timed(&mut b, u64::MAX);
        assert_eq!(tree_hash(&a), tree_hash(&b), "Orca plan {i}");
        assert_eq!(orca_counts(&untimed), orca_counts(&timed), "Orca plan {i}");
        assert_eq!(untimed.total_ns(), 0, "Orca plan {i}: {untimed:?}");
        timed_total += timed.total_ns();
    }
    assert!(timed_total > 0, "Orca: the timed runs read no clock");
}
