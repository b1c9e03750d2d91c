//! The matcher equivalence contract: the rule set's compiled match
//! automaton (`tt_pattern::automaton`), the only matcher the runtime
//! uses, must be *observationally identical* to the per-rule evaluator
//! (`matches_with`), which survives as the reference.
//!
//! Three layers, strongest first:
//!
//! 1. **Candidate-set equality** — over trees evolved by real JITD
//!    reorganization, one `for_each_match` walk must emit exactly the
//!    `(node, rule)` pairs that one `matches_with` evaluation per rule
//!    per node finds, and the single-rule `run_rule` entry must agree
//!    with `matches_with` at every site *including the reconstructed
//!    bindings* (the generators consume them; a permuted environment
//!    would rewrite the wrong subtrees).
//! 2. **Strategy transparency** — every strategy's evolved runtime
//!    passes the per-rule reference at each epoch: its structures equal
//!    a from-scratch rebuild (`check_strategy_consistent`) and it agrees
//!    with a per-rule scan on which rules still match
//!    (`agreement_with_naive`). All five strategies then answer the same
//!    point reads key by key. The matcher is a search implementation
//!    detail; if any strategy can tell the difference, the automaton
//!    changed semantics, not just cost.
//! 3. **Shared-prefix anchor** — a fixed-seed structural check that
//!    overlapping patterns actually share trie states (the compilation's
//!    entire performance story) and still emit independently.

use proptest::prelude::*;
use treetoaster::ast::{Ast, Record};
use treetoaster::jitd::{full_rules, jitd_schema, paper_rules, scaled_rules};
use treetoaster::pattern::{
    dsl, matches_with, AutomatonScratch, Bindings, MatchAutomaton, Pattern,
};
use treetoaster::prelude::{Jitd, RuleConfig, RuleSet, StrategyKind, Workload, WorkloadSpec};

/// Drives a seeded workload through epoch-batched maintenance and
/// returns the runtime — its AST is a realistically reorganized tree
/// (cracked arrays, pushed-down singletons, delete markers).
fn evolved_jitd(strategy: StrategyKind, workload: char, seed: u64, ops: usize) -> Jitd {
    evolve_checked(strategy, workload, seed, ops, |_| Ok(())).expect("no epoch check")
}

/// [`evolved_jitd`], running `at_epoch` after every commit.
fn evolve_checked(
    strategy: StrategyKind,
    workload: char,
    seed: u64,
    ops: usize,
    mut at_epoch: impl FnMut(&mut Jitd) -> Result<(), String>,
) -> Result<Jitd, String> {
    let records: Vec<Record> = (0..96).map(|k| Record::new(k, k * 3)).collect();
    let mut jitd = Jitd::new(strategy, RuleConfig { crack_threshold: 8 }, records);
    let mut driver = Workload::new(WorkloadSpec::standard(workload), 96, seed);
    let mut done = 0;
    while done < ops {
        let chunk = 8.min(ops - done);
        jitd.begin_batch();
        for _ in 0..chunk {
            let op = driver.next_op();
            jitd.execute(&op);
        }
        jitd.reorganize_until_quiet(u64::MAX);
        jitd.commit_batch();
        at_epoch(&mut jitd)?;
        done += chunk;
    }
    Ok(jitd)
}

/// Every `(node, rule)` candidate under the root, per one automaton
/// walk.
fn automaton_candidates(rules: &RuleSet, ast: &Ast) -> Vec<(u32, usize)> {
    let mut scratch = AutomatonScratch::new();
    let mut out = Vec::new();
    rules
        .automaton()
        .for_each_match(ast, ast.root(), &mut scratch, &mut |n, rid, _| {
            out.push((n.index(), rid));
        });
    out.sort_unstable();
    out
}

/// The oracle: one `matches_with` evaluation per rule per node.
fn per_rule_candidates(rules: &RuleSet, ast: &Ast) -> Vec<(u32, usize)> {
    let mut bindings = Bindings::default();
    let mut out = Vec::new();
    for node in ast.descendants(ast.root()) {
        for (rid, rule) in rules.iter() {
            if matches_with(ast, node, &rule.pattern, &mut bindings) {
                out.push((node.index(), rid));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The rule sets the differential sweeps: the paper's five, the
/// appendix extensions, and the paper set padded with shared-structure
/// probe rules (`extra` > 0 exercises wildcard-free prefix merging at
/// depth).
fn rule_sets(extra: usize) -> Vec<RuleSet> {
    let schema = jitd_schema();
    let config = RuleConfig { crack_threshold: 8 };
    vec![
        paper_rules(&schema, config),
        full_rules(&schema, config),
        scaled_rules(&schema, config, extra),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Layer 1: candidate sets and per-site bindings agree on evolved
    /// trees, for every rule set shape.
    #[test]
    fn automaton_matches_per_rule_oracle_on_evolved_trees(
        seed in 0u64..100_000,
        workload_pick in 0..5usize,
        ops in 16..48usize,
        extra in 1..6usize,
    ) {
        let workload = ['A', 'B', 'C', 'D', 'F'][workload_pick];
        let jitd = evolved_jitd(StrategyKind::TreeToaster, workload, seed, ops);
        let ast = jitd.index().ast();
        for rules in rule_sets(extra) {
            let compiled = automaton_candidates(&rules, ast);
            let oracle = per_rule_candidates(&rules, ast);
            prop_assert_eq!(
                &compiled, &oracle,
                "candidate sets diverged (workload {}, {} rules)",
                workload, rules.len()
            );
            // Single-rule agreement, bindings included.
            let mut scratch = AutomatonScratch::new();
            let mut oracle_env = Bindings::default();
            for node in ast.descendants(ast.root()) {
                for (rid, rule) in rules.iter() {
                    let hit = rules.automaton().run_rule(ast, node, rid, &mut scratch);
                    let oracle_hit = matches_with(ast, node, &rule.pattern, &mut oracle_env);
                    prop_assert_eq!(hit, oracle_hit, "run_rule diverged on rule {}", rid);
                    if hit {
                        prop_assert_eq!(
                            scratch.bindings(), &oracle_env,
                            "bindings diverged on rule {}", rid
                        );
                    }
                }
            }
        }
    }

    /// Layer 2: every strategy passes the per-rule reference at each
    /// epoch, and all of them answer the same reads.
    #[test]
    fn every_strategy_is_matcher_transparent(
        seed in 0u64..100_000,
        workload_pick in 0..5usize,
        ops in 16..48usize,
    ) {
        let workload = ['A', 'B', 'C', 'D', 'F'][workload_pick];
        let mut reads: Option<Vec<Option<i64>>> = None;
        for strategy in StrategyKind::all() {
            let jitd = evolve_checked(strategy, workload, seed, ops, |jitd| {
                jitd.check_strategy_consistent()?;
                jitd.agreement_with_naive()
            })
            .map_err(|e| {
                TestCaseError::fail(format!("{} (workload {workload}): {e}", strategy.label()))
            })?;
            prop_assert!(jitd.stats.steps > 0, "{} never reorganized", strategy.label());
            let mine: Vec<Option<i64>> = (0..160).map(|key| jitd.index().get(key)).collect();
            match &reads {
                None => reads = Some(mine),
                Some(first) => prop_assert_eq!(
                    first, &mine,
                    "{} answered different reads", strategy.label()
                ),
            }
        }
    }
}

/// Layer 3, fixed seed: overlapping patterns share prefix states in the
/// trie, and one walk still emits each of them independently where they
/// match.
#[test]
fn shared_prefix_patterns_merge_states_and_emit_together() {
    let schema = jitd_schema();
    // `wide` subsumes `narrow`: same root and left child, but its right
    // child is a wildcard where `narrow` demands an Array.
    let wide = Pattern::compile(
        &schema,
        dsl::node(
            "BinTree",
            "B",
            [dsl::node("Array", "L", [], dsl::tru()), dsl::any()],
            dsl::tru(),
        ),
    );
    let narrow = Pattern::compile(
        &schema,
        dsl::node(
            "BinTree",
            "B",
            [
                dsl::node("Array", "L", [], dsl::tru()),
                dsl::node("Array", "R", [], dsl::tru()),
            ],
            dsl::tru(),
        ),
    );
    let merged = MatchAutomaton::compile([&wide, &narrow]);
    let separate: usize = [&wide, &narrow]
        .into_iter()
        .map(|p| MatchAutomaton::compile([p]).state_count())
        .sum();
    assert!(
        merged.state_count() < separate,
        "overlapping patterns must share trie states: merged {} vs separate {}",
        merged.state_count(),
        separate
    );

    // Probe rules differ only at accept time, so padding the rule set
    // must not grow the trie at all.
    let config = RuleConfig { crack_threshold: 8 };
    assert_eq!(
        scaled_rules(&schema, config, 1).automaton().state_count(),
        scaled_rules(&schema, config, 16).automaton().state_count(),
        "structurally identical probes must collapse onto one trie path"
    );

    // On a cracked tree, every site where `narrow` fires must also emit
    // `wide` — from the same walk, through the shared prefix.
    let jitd = evolved_jitd(StrategyKind::TreeToaster, 'A', 4242, 32);
    let ast = jitd.index().ast();
    let mut scratch = AutomatonScratch::new();
    let mut hits: std::collections::BTreeMap<u32, Vec<usize>> = std::collections::BTreeMap::new();
    merged.for_each_match(ast, ast.root(), &mut scratch, &mut |n, rid, _| {
        hits.entry(n.index()).or_default().push(rid);
    });
    let mut narrow_sites = 0;
    for (node, rids) in &hits {
        if rids.contains(&1) {
            assert!(
                rids.contains(&0),
                "wide subsumes narrow but was not emitted at node {node}"
            );
            narrow_sites += 1;
        }
    }
    assert!(
        narrow_sites > 0,
        "fixture tree must contain BinTree(Array, Array) sites"
    );
}
