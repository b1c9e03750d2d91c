//! End-to-end checks on the optimizer simulators: all 22 TPC-H-shaped
//! plans and the antipattern optimize to the same normal form under
//! naive scanning, TreeToaster views, and the Orca-style driver, and the
//! instrumentation invariants the figures rely on hold.

use treetoaster::queryopt::antipattern::union_doubling;
use treetoaster::queryopt::catalyst::{optimize, SearchMode};
use treetoaster::queryopt::orca::optimize_orca;
use treetoaster::queryopt::tpch;

#[test]
fn tpch_naive_and_tt_agree_on_every_query() {
    for q in 1..=22 {
        let mut naive_ast = tpch::build_query(q, 11);
        let mut tt_ast = tpch::build_query(q, 11);
        let naive = optimize(&mut naive_ast, SearchMode::NaiveScan, 100);
        let tt = optimize(&mut tt_ast, SearchMode::TreeToasterViews, 100);
        assert_eq!(
            naive.final_size, tt.final_size,
            "Q{q}: naive={naive:?} tt={tt:?}"
        );
        assert_eq!(
            naive.effective_count, tt.effective_count,
            "Q{q}: same rewrites must fire"
        );
        assert_eq!(tt.ineffective_count, 0, "folded rules never abort");
        naive_ast.validate().unwrap();
        tt_ast.validate().unwrap();
    }
}

#[test]
fn tpch_orca_agrees_on_every_query() {
    for q in 1..=22 {
        let mut cat_ast = tpch::build_query(q, 5);
        let mut orca_ast = tpch::build_query(q, 5);
        let cat = optimize(&mut cat_ast, SearchMode::NaiveScan, 100);
        let orca = optimize_orca(&mut orca_ast, u64::MAX);
        assert_eq!(cat.final_size, orca.final_size, "Q{q}");
        orca_ast.validate().unwrap();
    }
}

#[test]
fn antipattern_agreement_across_drivers() {
    for level in 1..=3 {
        let mut a = union_doubling(level);
        let mut b = union_doubling(level);
        let mut c = union_doubling(level);
        let naive = optimize(&mut a, SearchMode::NaiveScan, 60);
        let tt = optimize(&mut b, SearchMode::TreeToasterViews, 60);
        let orca = optimize_orca(&mut c, u64::MAX);
        assert_eq!(naive.final_size, tt.final_size, "level {level}");
        assert_eq!(naive.final_size, orca.final_size, "level {level}");
    }
}

#[test]
fn search_dominates_naive_but_not_tt() {
    // The paper's core claim, in miniature: on a large plan, naive search
    // is the dominant cost and TreeToaster removes almost all of it.
    let mut naive_ast = union_doubling(4);
    let mut tt_ast = union_doubling(4);
    let naive = optimize(&mut naive_ast, SearchMode::NaiveScan, 60);
    let tt = optimize(&mut tt_ast, SearchMode::TreeToasterViews, 60);
    // A loose bound: in unoptimized test builds the construct-and-discard
    // phases are relatively more expensive than matching, deflating the
    // share (the release-mode figure benches land in the paper's range).
    assert!(
        naive.search_fraction() > 0.15,
        "naive search share too low: {}",
        naive.search_fraction()
    );
    // Compare match attempts, the work behind `search_ns`, so the bound
    // does not ride on a nanosecond clock under a loaded test harness.
    assert!(
        tt.match_attempts < naive.match_attempts / 10,
        "TT match attempts {} should be well under naive {}",
        tt.match_attempts,
        naive.match_attempts
    );
}

#[test]
fn breakdown_counts_are_stable_across_seeds() {
    // Structural determinism: the same (query, seed) optimizes the same
    // way twice.
    for seed in [1, 99] {
        let mut a = tpch::build_query(7, seed);
        let mut b = tpch::build_query(7, seed);
        let bd_a = optimize(&mut a, SearchMode::NaiveScan, 100);
        let bd_b = optimize(&mut b, SearchMode::NaiveScan, 100);
        assert_eq!(bd_a.effective_count, bd_b.effective_count);
        assert_eq!(bd_a.ineffective_count, bd_b.ineffective_count);
        assert_eq!(bd_a.final_size, bd_b.final_size);
    }
}
