//! Algorithm 3: compile-time elimination of impossible pattern matches.
//!
//! For declarative rules, "the labels and structure of the nodes being
//! removed and those being added are known at compile time" (§6.1). For
//! every (view pattern `q`, fired rule `⟨m, g⟩`) pair we precompute:
//!
//! - which `Gen` positions of `g` could root a `q`-match (`Inline_gen`,
//!   by recursive descent with `Align₀`),
//! - which destroyed `Match` positions of `m` could have rooted a
//!   `q`-match (the "virtually identical process ... for matching removed
//!   nodes"),
//! - which ancestor heights `i ∈ [D(q)]` need re-checking (`Align_i`).
//!   We take the union of generator-side and pattern-side alignments:
//!   an ancestor can *lose* a match that aligned with the removed subtree
//!   or *gain* one aligning with the generated subtree — and an ancestor
//!   whose match never involved the rewrite site must be re-added if it
//!   is re-checked at all, so pre- and post-phases use the same height
//!   set.
//!
//! Reused subtrees are never candidates: a node's match status depends
//! only on its descendants (Figure 5 recurses strictly downward), and a
//! `Reuse` moves a subtree without changing its interior.

use crate::generator::{GenNode, GenPath};
use crate::rules::RewriteRule;
use tt_pattern::{Pattern, PatternNode, VarId};

/// The per-(view, rule) maintenance plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledRulePlan {
    /// `Gen` indices of the fired rule's generator that can root a match
    /// of the view pattern.
    pub gen_candidates: Vec<GenPath>,
    /// Destroyed pattern variables of the fired rule whose positions can
    /// root a match of the view pattern (checked pre-state).
    pub removed_candidates: Vec<VarId>,
    /// Ancestor heights to re-check in both phases.
    pub ancestor_heights: Vec<usize>,
}

impl CompiledRulePlan {
    /// True if firing the rule cannot affect this view at all.
    pub fn is_trivial(&self) -> bool {
        self.gen_candidates.is_empty()
            && self.removed_candidates.is_empty()
            && self.ancestor_heights.is_empty()
    }
}

/// Plans for every (view pattern, fired rule) pair of a rule set. Rules
/// that fail the Definition-7 safety check get no plans (the engine falls
/// back to the maximal-search-set path for them).
///
/// [`RuleSet::from_rules`](crate::RuleSet::from_rules) builds the matrix
/// once, beside the automaton, and every engine over that rule set shares
/// it through [`RuleSet::inline_matrix`](crate::RuleSet::inline_matrix).
#[derive(Debug)]
pub struct InlineMatrix {
    /// `plans[view][rule]`; `None` when `rule` is not safe for inlining.
    plans: Vec<Vec<Option<CompiledRulePlan>>>,
}

impl InlineMatrix {
    /// Builds the matrix for `rules` (views are the rules' own patterns,
    /// one per rule, as in the paper's evaluation; ids are indices).
    pub fn build(rules: &[RewriteRule]) -> InlineMatrix {
        let plans = rules
            .iter()
            .map(|view_rule| {
                rules
                    .iter()
                    .map(|fired| {
                        fired
                            .safe_for_inline()
                            .then(|| compile_plan(&view_rule.pattern, fired))
                    })
                    .collect()
            })
            .collect();
        InlineMatrix { plans }
    }

    /// The plan for maintaining `view` after `fired` fires (`None` when
    /// the fired rule is unsafe for inlining).
    pub fn plan(&self, view: usize, fired: usize) -> Option<&CompiledRulePlan> {
        self.plans[view][fired].as_ref()
    }
}

/// Builds one plan: view pattern `q` against fired rule `⟨m, g⟩`.
fn compile_plan(q: &Pattern, fired: &RewriteRule) -> CompiledRulePlan {
    let mut gen_candidates = Vec::new();
    collect_gen_candidates(q.root(), &fired.generator, &mut gen_candidates);

    let removed_candidates = fired
        .removed_vars()
        .iter()
        .copied()
        .filter(|&v| {
            let pos = fired
                .pattern
                .node_of_var(v)
                .expect("removed var must be a pattern position");
            align0_pat(q.root(), pos)
        })
        .collect();

    let ancestor_heights = (1..=q.depth())
        .filter(|&h| {
            align_h_gen(q.root(), &fired.generator, h)
                || align_h_pat(q.root(), fired.pattern.root(), h)
        })
        .collect();

    CompiledRulePlan {
        gen_candidates,
        removed_candidates,
        ancestor_heights,
    }
}

/// Lines 3–11 of Algorithm 3: recursively descend the generator, marking
/// every `Gen` position whose subtree aligns with `q` at its root.
fn collect_gen_candidates(q: &PatternNode, g: &GenNode, out: &mut Vec<GenPath>) {
    if let GenNode::Gen {
        index, children, ..
    } = g
    {
        if align0_gen(q, g) {
            out.push(*index as usize);
        }
        for c in children {
            collect_gen_candidates(q, c, out);
        }
    }
    // Reuse positions are skipped entirely: their subtrees are unchanged.
}

/// `Align₀` against a generator: do the pattern and the generated shape
/// have equivalent labels (and arities) at equivalent positions?
fn align0_gen(q: &PatternNode, g: &GenNode) -> bool {
    match (q, g) {
        (PatternNode::Any { .. }, _) => true,
        (_, GenNode::Reuse(_)) => true, // label unknown until runtime
        (
            PatternNode::Match {
                label: ql,
                children: qc,
                ..
            },
            GenNode::Gen {
                label: gl,
                children: gc,
                ..
            },
        ) => {
            ql == gl && qc.len() == gc.len() && qc.iter().zip(gc).all(|(qk, gk)| align0_gen(qk, gk))
        }
    }
}

/// `Align₀` against the fired rule's *match pattern*: could a node shaped
/// like `m`'s position root a `q`-match? `m`-side wildcards have unknown
/// shape, so they align conservatively.
fn align0_pat(q: &PatternNode, m: &PatternNode) -> bool {
    match (q, m) {
        (PatternNode::Any { .. }, _) => true,
        (_, PatternNode::Any { .. }) => true,
        (
            PatternNode::Match {
                label: ql,
                children: qc,
                ..
            },
            PatternNode::Match {
                label: ml,
                children: mc,
                ..
            },
        ) => {
            ql == ml && qc.len() == mc.len() && qc.iter().zip(mc).all(|(qk, mk)| align0_pat(qk, mk))
        }
    }
}

/// `Align_d(q, g) = ∃k : Align_{d−1}(q_k, g)` — does the generated root
/// align somewhere at depth `d` below a `q`-match root? Wildcard pattern
/// positions terminate the recursion: nothing below them is inspected by
/// `q`, so changes there cannot affect a `q`-match.
fn align_h_gen(q: &PatternNode, g: &GenNode, d: usize) -> bool {
    if d == 0 {
        return align0_gen(q, g);
    }
    match q {
        PatternNode::Any { .. } => false,
        PatternNode::Match { children, .. } => children.iter().any(|qk| align_h_gen(qk, g, d - 1)),
    }
}

/// `Align_d` for the removed subtree's shape (the fired rule's pattern).
fn align_h_pat(q: &PatternNode, m: &PatternNode, d: usize) -> bool {
    if d == 0 {
        return align0_pat(q, m);
    }
    match q {
        PatternNode::Any { .. } => false,
        PatternNode::Match { children, .. } => children.iter().any(|qk| align_h_pat(qk, m, d - 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{aconst, gen, reuse};
    use crate::rules::RuleSet;
    use std::sync::Arc;
    use tt_ast::schema::arith_schema;
    use tt_ast::{Schema, Value};
    use tt_pattern::dsl as p;

    fn schema() -> Arc<Schema> {
        arith_schema()
    }

    fn add_zero_pattern(s: &Arc<Schema>) -> Pattern {
        Pattern::compile(
            s,
            p::node(
                "Arith",
                "A",
                [
                    p::node("Const", "B", [], p::eq(p::attr("B", "val"), p::int(0))),
                    p::node("Var", "C", [], p::tru()),
                ],
                p::eq(p::attr("A", "op"), p::str_("+")),
            ),
        )
    }

    /// Example 6.1's setting: the rule rewrites its match to Reuse(Var).
    /// Only the Var appears in both pattern and replacement, so "when a
    /// replacement is applied we need only check the parent of a replaced
    /// node for new view updates".
    #[test]
    fn example_6_1_only_parent_rechecked() {
        let s = schema();
        let rule = RewriteRule::new("AddZero", &s, add_zero_pattern(&s), reuse("C"));
        let rules = RuleSet::from_rules(vec![rule]);
        let m = rules.inline_matrix();
        let plan = m.plan(0, 0).expect("safe rule gets a plan");
        assert!(
            plan.gen_candidates.is_empty(),
            "pure-reuse generator creates nothing"
        );
        // The destroyed Arith(+) could itself have rooted a match of q;
        // the destroyed Const cannot (q roots at Arith).
        let pat = &rules.get(0).pattern;
        assert_eq!(plan.removed_candidates, vec![pat.var("A").unwrap()]);
        // D(q)=1 and the replacement (a reused Var of unknown alignment)
        // could sit under an Arith parent → height 1 is checked.
        assert_eq!(plan.ancestor_heights, vec![1]);
    }

    #[test]
    fn gen_candidates_found_by_label_alignment() {
        // Rule: Arith(+, Const0, Var) → Arith(*, Const(1), Reuse(C)).
        // The generated root aligns with q (Arith over Const, Var-reuse),
        // but the generated Const (arity 0, label Const ≠ Arith) does not.
        let s = schema();
        let rule = RewriteRule::new(
            "Rebuild",
            &s,
            add_zero_pattern(&s),
            gen(
                "Arith",
                [("op", aconst(Value::str("*")))],
                [
                    gen("Const", [("val", aconst(Value::Int(1)))], []),
                    reuse("C"),
                ],
            ),
        );
        let rules = RuleSet::from_rules(vec![rule]);
        let m = rules.inline_matrix();
        let plan = m.plan(0, 0).unwrap();
        assert_eq!(plan.gen_candidates, vec![0], "only the root Gen aligns");
    }

    #[test]
    fn label_mismatch_prunes_gen_candidates() {
        // Generator produces only Const nodes; q roots at Arith → no
        // generated candidates, no aligned removal for Const/Var.
        let s = schema();
        let pattern = Pattern::compile(&s, p::node("Var", "V", [], p::tru()));
        let rule = RewriteRule::new(
            "VarToConst",
            &s,
            pattern,
            gen("Const", [("val", aconst(Value::Int(0)))], []),
        );
        let q_rule = RewriteRule::new("AddZero", &s, add_zero_pattern(&s), reuse("C"));
        let rules = RuleSet::from_rules(vec![q_rule, rule]);
        let m = rules.inline_matrix();
        // Maintaining view 0 (AddZero) after rule 1 (VarToConst) fires:
        let plan = m.plan(0, 1).unwrap();
        assert!(
            plan.gen_candidates.is_empty(),
            "Const cannot root an Arith match"
        );
        assert!(
            plan.removed_candidates.is_empty(),
            "a destroyed Var cannot root an Arith match"
        );
        // But the parent could: Var aligns at depth 1 under q (position C).
        assert_eq!(plan.ancestor_heights, vec![1]);
    }

    #[test]
    fn deep_pattern_gets_multiple_heights() {
        let s = schema();
        // q: Arith over (Arith over (Const, _), _) — depth 2, Const at depth 2.
        let q = Pattern::compile(
            &s,
            p::node(
                "Arith",
                "A",
                [
                    p::node(
                        "Arith",
                        "B",
                        [p::node("Const", "C", [], p::tru()), p::any()],
                        p::tru(),
                    ),
                    p::any(),
                ],
                p::tru(),
            ),
        );
        // Rule rewriting a Const to a Const: candidate at heights where a
        // Const can sit: depth 2 only (Arith at 0,1).
        let cpat = Pattern::compile(&s, p::node("Const", "X", [], p::tru()));
        let fired = RewriteRule::new(
            "ConstToConst",
            &s,
            cpat,
            gen("Const", [("val", aconst(Value::Int(9)))], []),
        );
        let qrule = RewriteRule::new(
            "Deep",
            &s,
            q,
            gen("Const", [("val", aconst(Value::Int(0)))], []),
        );
        let rules = RuleSet::from_rules(vec![qrule, fired]);
        let m = rules.inline_matrix();
        let plan = m.plan(0, 1).unwrap();
        // Height 2 aligns through the Const position. Height 1 is also
        // kept because q has an AnyNode child at depth 1 and the paper's
        // Align₀ conservatively treats wildcards as aligned (a rewrite
        // under a wildcard can never actually flip the ancestor's match,
        // but Algorithm 3 does not exploit that).
        assert_eq!(plan.ancestor_heights, vec![1, 2]);
    }

    #[test]
    fn unsafe_rules_get_no_plan() {
        let s = schema();
        // Pattern has an unreused wildcard → unsafe.
        let pat = Pattern::compile(
            &s,
            p::node(
                "Arith",
                "A",
                [p::any_as("q"), p::node("Var", "V", [], p::tru())],
                p::tru(),
            ),
        );
        let unsafe_rule = RewriteRule::new("Drop", &s, pat, reuse("V"));
        let rules = RuleSet::from_rules(vec![unsafe_rule]);
        let m = rules.inline_matrix();
        assert!(m.plan(0, 0).is_none());
    }

    #[test]
    fn arity_mismatch_blocks_alignment() {
        let s = schema();
        // q roots at childless Arith (arity 0); generator builds a
        // two-child Arith → cannot align.
        let q = Pattern::compile(&s, p::node("Arith", "A", [], p::tru()));
        let fired_pat = Pattern::compile(&s, p::node("Var", "V", [], p::tru()));
        let fired = RewriteRule::new(
            "VarToAdd",
            &s,
            fired_pat,
            gen(
                "Arith",
                [("op", aconst(Value::str("+")))],
                [
                    gen("Const", [("val", aconst(Value::Int(0)))], []),
                    gen("Const", [("val", aconst(Value::Int(1)))], []),
                ],
            ),
        );
        let qrule = RewriteRule::new(
            "Q",
            &s,
            q,
            gen("Const", [("val", aconst(Value::Int(0)))], []),
        );
        let rules = RuleSet::from_rules(vec![qrule, fired]);
        let m = rules.inline_matrix();
        let plan = m.plan(0, 1).unwrap();
        assert!(plan.gen_candidates.is_empty());
    }
}
