//! An Orca-style (Cascades) optimizer driver.
//!
//! Orca "has a more intricate rule scheduling mechanism, but also works
//! by recursive tree traversal during which a pairwise recursive
//! traversal of the pattern AST and AST subtrees is used to check for
//! matches" (paper Appendix A). Key differences from the Catalyst driver
//! that explain Orca's lower search share (5–20% vs 50–60%):
//!
//! - **Task queue instead of sweeps**: (node, rule) pairs are enqueued
//!   once and re-enqueued only for regions a rewrite touched, so far
//!   fewer match attempts happen per effective rewrite.
//! - **Promise before construction**: the rule's `Exfp` promise (our
//!   precise check) runs before any replacement is built, so failed
//!   candidates cost a constraint evaluation, not a discarded subtree.
//! - **Memo bookkeeping**: every produced subtree is hashed into a memo
//!   (group deduplication), a per-rewrite overhead Catalyst doesn't pay.

use crate::catalyst::Optimizer;
use crate::rules::OptRule;
use std::collections::VecDeque;
use tt_ast::{Ast, FxHashSet, NodeId};
use tt_metrics::Clock;
use tt_pattern::{match_node, TreeAttrs};

/// Time/work breakdown for an Orca-style run. The `*_ns` fields are 0
/// unless the run was timed ([`optimize_orca_timed`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct OrcaBreakdown {
    /// Pattern-match + promise evaluation time.
    pub search_ns: u64,
    /// Time applying effective rewrites.
    pub effective_ns: u64,
    /// Memo (group hashing / deduplication) time.
    pub memo_ns: u64,
    /// Rewrites applied.
    pub effective_count: u64,
    /// Candidates whose promise rejected them.
    pub rejected_count: u64,
    /// Tasks processed.
    pub tasks: u64,
    /// Plan size before optimization.
    pub initial_size: usize,
    /// Plan size after optimization.
    pub final_size: usize,
}

impl OrcaBreakdown {
    /// Total time across phases.
    pub fn total_ns(&self) -> u64 {
        self.search_ns + self.effective_ns + self.memo_ns
    }

    /// Fraction of time in search (Figure 15b's axis).
    pub fn search_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.search_ns as f64 / total as f64
        }
    }
}

/// Structural hash of a subtree (labels + attribute values), used for the
/// memo's group signatures.
fn subtree_hash(ast: &Ast, root: NodeId) -> u64 {
    ast.structural_hash(root)
}

/// Runs the Orca-style optimizer to quiescence (or `max_tasks`), with
/// the unfolded rules compiled once for the plan's schema
/// ([`Optimizer::with`]). Untimed: every `*_ns` field reads 0.
pub fn optimize_orca(ast: &mut Ast, max_tasks: u64) -> OrcaBreakdown {
    let schema = ast.schema().clone();
    Optimizer::with(&schema, |opt| opt.optimize_orca(ast, max_tasks))
}

/// [`optimize_orca`] with the wall clock on: the same rewrites and
/// counts, plus the Figure-15 phase times.
pub fn optimize_orca_timed(ast: &mut Ast, max_tasks: u64) -> OrcaBreakdown {
    let schema = ast.schema().clone();
    Optimizer::with(&schema, |opt| {
        opt.optimize_orca_with(ast, max_tasks, Clock::Wall)
    })
}

/// The Orca-style driver over the unfolded `rules`
/// (`Optimizer::optimize_orca_with`).
pub(crate) fn run(ast: &mut Ast, rules: &[OptRule], max_tasks: u64, clock: Clock) -> OrcaBreakdown {
    let mut bd = OrcaBreakdown {
        initial_size: ast.subtree_size(ast.root()),
        ..Default::default()
    };
    let mut memo: FxHashSet<u64> = FxHashSet::default();

    // Initial memo population: Orca copies the input plan into the memo.
    let m0 = clock.now();
    for n in ast.descendants(ast.root()).collect::<Vec<_>>() {
        let h = subtree_hash(ast, n);
        memo.insert(h);
    }
    bd.memo_ns += clock.since(m0);

    // Seed: every (node, rule) pair.
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();
    for n in ast.descendants(ast.root()) {
        for rid in 0..rules.len() {
            queue.push_back((n, rid));
        }
    }

    // Rules are keyed by their pattern's root operator: Orca never runs
    // a rule's recursive match against a group whose operator id cannot
    // match (the xform's pattern root), so most tasks die on a
    // constant-time comparison.
    let root_labels: Vec<Option<tt_ast::Label>> =
        rules.iter().map(|r| r.rule.pattern.root_label()).collect();

    let mut tick = 0u64;
    while let Some((node, rid)) = queue.pop_front() {
        if bd.tasks >= max_tasks {
            break;
        }
        bd.tasks += 1;
        if !ast.is_live(node) {
            continue; // the group was consumed by an earlier rewrite
        }
        let opt = &rules[rid];
        // Pairwise recursive pattern/AST check + promise (Exfp), guarded
        // by the constant-time operator-id comparison.
        let s0 = clock.now();
        let label_ok = root_labels[rid].is_none_or(|l| ast.label(node) == l);
        let matched = if label_ok {
            match_node(ast, node, &opt.rule.pattern)
        } else {
            None
        };
        let verdict = matched.as_ref().map(|bindings| {
            opt.precise
                .as_ref()
                .is_none_or(|c| c.eval(&TreeAttrs { ast, bindings }))
        });
        bd.search_ns += clock.since(s0);

        match (matched, verdict) {
            (Some(bindings), Some(true)) => {
                // Binding extraction: Orca copies the matched expression
                // out of the memo before handing it to the transform.
                let e0 = clock.now();
                let extraction = ast.clone_subtree(node);
                let applied = opt.rule.apply(ast, node, &bindings, tick);
                ast.free_subtree(extraction);
                tick += 1;
                bd.effective_ns += clock.since(e0);
                bd.effective_count += 1;

                // Memo bookkeeping: register the produced group and every
                // new expression, then derive logical + statistics
                // properties for the new region (two attribute walks —
                // Orca's property derivation and stat promise machinery).
                let m1 = clock.now();
                memo.insert(subtree_hash(ast, applied.new_root));
                for &n in applied.inserted() {
                    memo.insert(subtree_hash(ast, n));
                }
                for _ in 0..2 {
                    for n in ast.descendants(applied.new_root) {
                        for v in ast.node(n).attrs() {
                            std::hint::black_box(v.heap_bytes());
                        }
                    }
                }
                bd.memo_ns += clock.since(m1);

                // Re-enqueue the touched region: the replacement, its new
                // nodes, and the parent whose child pointer changed.
                let mut affected: Vec<NodeId> = vec![applied.new_root];
                affected.extend_from_slice(applied.inserted());
                let parent = ast.parent(applied.new_root);
                if !parent.is_null() {
                    affected.push(parent);
                }
                affected.sort_unstable();
                affected.dedup();
                for n in affected {
                    for r in 0..rules.len() {
                        queue.push_back((n, r));
                    }
                }
            }
            (Some(_), Some(false)) => bd.rejected_count += 1,
            _ => {}
        }
    }
    bd.final_size = ast.subtree_size(ast.root());
    bd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antipattern::union_doubling;
    use crate::catalyst::{optimize, SearchMode};
    use crate::schema::{plan_schema, PlanBuilder};

    fn messy_plan(ast: &mut Ast) {
        let mut b = PlanBuilder::new(ast);
        let t1 = b.table(1, [1, 2, 3]);
        let f1 = b.filter(5, [1], t1);
        let f2 = b.filter(6, [2], f1);
        let np = b.noop_project(f2);
        let t2 = b.table(2, [4, 5]);
        let j = b.join(9, np, t2);
        let f3 = b.filter(7, [1], j);
        let pr = b.project([1, 4], f3);
        let w = b.noop_window(pr);
        let root = b.sort(w);
        ast.set_root(root);
    }

    #[test]
    fn orca_reaches_a_reduced_plan() {
        let mut ast = Ast::new(plan_schema());
        messy_plan(&mut ast);
        let bd = optimize_orca(&mut ast, 1_000_000);
        assert!(bd.effective_count >= 4, "{bd:?}");
        assert!(bd.final_size < bd.initial_size);
        ast.validate().unwrap();
    }

    #[test]
    fn orca_and_catalyst_agree_on_plan_size() {
        let mut a = Ast::new(plan_schema());
        messy_plan(&mut a);
        let mut b = Ast::new(plan_schema());
        messy_plan(&mut b);
        let orca = optimize_orca(&mut a, 1_000_000);
        let cat = optimize(&mut b, SearchMode::NaiveScan, 50);
        assert_eq!(orca.final_size, cat.final_size);
    }

    #[test]
    fn orca_search_share_is_lower_than_catalyst_on_large_plans() {
        // Search share in counts, on Figure 15's plans: the (node, rule)
        // pairs each optimizer probes per rewrite candidate it surfaces.
        // Catalyst sweeps every rule over every node of every pass; Orca
        // seeds each pair once and re-enqueues only the region a rewrite
        // touched, so it probes fewer pairs for the same candidates.
        for level in [3, 4] {
            let mut a = union_doubling(level);
            let mut c = union_doubling(level);
            let orca = optimize_orca(&mut a, 10_000_000);
            let cat = optimize(&mut c, SearchMode::NaiveScan, 200);
            let orca_candidates = orca.effective_count + orca.rejected_count;
            let cat_candidates = cat.effective_count + cat.ineffective_count;
            assert!(
                orca.tasks * cat_candidates < cat.match_attempts * orca_candidates,
                "level {level}: orca {} tasks per {orca_candidates} candidates, \
                 catalyst {} attempts per {cat_candidates}",
                orca.tasks,
                cat.match_attempts
            );
            // Both optimizers meet the same candidates, so Orca also probes
            // fewer pairs in total.
            assert_eq!(orca_candidates, cat_candidates, "level {level}");
        }
    }

    #[test]
    fn memo_time_is_nonzero() {
        let mut ast = Ast::new(plan_schema());
        messy_plan(&mut ast);
        let bd = optimize_orca_timed(&mut ast, 1_000_000);
        assert!(bd.memo_ns > 0);
        assert!(bd.tasks > 0);
    }

    #[test]
    fn task_cap_bounds_work() {
        let mut ast = Ast::new(plan_schema());
        messy_plan(&mut ast);
        let bd = optimize_orca(&mut ast, 5);
        assert!(bd.tasks <= 5);
    }
}
