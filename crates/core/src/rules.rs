//! Declaratively specified rewrite rules `⟨q, g⟩` (paper §6) and their
//! application.
//!
//! A rule pairs a match [`Pattern`] (the nodes to be removed from the
//! tree) with a [`GenNode`] generator (the nodes to be inserted back as
//! replacements). Rule construction validates the **Definition 7 safety**
//! discipline and records, for the inlined maintenance plan, which pattern
//! positions are actually destroyed by an application.

use crate::generator::{compile_generator, GenNode, GenSpec};
use std::sync::Arc;
use tt_ast::{Ast, FxHashMap, Label, NodeId, NodeRow, Schema};
use tt_pattern::{Bindings, MatchAutomaton, Pattern, PatternNode, VarId};

/// A declarative rewrite rule.
#[derive(Debug, Clone)]
pub struct RewriteRule {
    /// Human-readable name (e.g. `"CrackArray"`).
    pub name: String,
    /// The match pattern `q` — what gets removed.
    pub pattern: Pattern,
    /// The generator `g` — what gets inserted.
    pub generator: GenNode,
    /// Pattern `Match` positions destroyed by an application (not reused).
    removed_vars: Vec<VarId>,
    /// Pattern positions the generator reuses (cached at construction so
    /// `apply` never re-walks the generator or allocates to learn them).
    reused_vars: Vec<VarId>,
    /// Whether the rule satisfies the Definition-7 discipline, enabling
    /// the inlined maintenance path (unsafe rules fall back to the
    /// maximal-search-set path, which is always correct).
    safe_for_inline: bool,
}

impl RewriteRule {
    /// Builds and validates a rule. Panics on authoring errors: reusing an
    /// unbound or duplicate variable, reusing nested positions, or reusing
    /// the pattern root (which `replace` could not re-anchor).
    pub fn new(name: &str, schema: &Arc<Schema>, pattern: Pattern, genspec: GenSpec) -> Self {
        let generator = compile_generator(schema, &pattern, genspec);
        let reused = generator.reused_vars();

        // Each variable reused at most once.
        let mut sorted = reused.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(
            before,
            sorted.len(),
            "rule {name}: a variable is reused twice"
        );

        // Root cannot be reused: after detaching it there is nothing left
        // at the replacement site to swap out.
        if let Some(root_var) = pattern.root_var() {
            assert!(
                !reused.contains(&root_var),
                "rule {name}: cannot reuse the pattern root"
            );
        }

        // Reused positions must be pairwise non-nested, or re-attaching
        // one would steal a subtree out of another.
        for &a in &reused {
            for &b in &reused {
                if a != b {
                    assert!(
                        !var_contains(&pattern, a, b),
                        "rule {name}: reused position nests another reused position"
                    );
                }
            }
        }

        let removed_vars = compute_removed_vars(&pattern, &reused);
        let safe_for_inline = all_wildcards_covered(&pattern, &reused);

        RewriteRule {
            name: name.to_string(),
            pattern,
            generator,
            removed_vars,
            reused_vars: reused,
            safe_for_inline,
        }
    }

    /// `Match` positions whose nodes an application frees.
    pub fn removed_vars(&self) -> &[VarId] {
        &self.removed_vars
    }

    /// Pattern positions the generator reuses.
    pub fn reused_vars(&self) -> &[VarId] {
        &self.reused_vars
    }

    /// True if the rule satisfies Definition 7 (every wildcard match is
    /// reused), making the inlined maintenance plan sound.
    pub fn safe_for_inline(&self) -> bool {
        self.safe_for_inline
    }

    /// Applies the rule at `root` (which must match; `bindings` from
    /// [`tt_pattern::match_node`]). Performs the §5.1 pointer swap, frees
    /// the non-reused remainder of the old subtree, and reports everything
    /// downstream maintenance needs.
    ///
    /// Callers that maintain views must notify their engines **before**
    /// calling this (pre-state checks) and after (post-state checks) — see
    /// `MatchSource::{before_replace, after_replace}`.
    pub fn apply(
        &self,
        ast: &mut Ast,
        root: NodeId,
        bindings: &Bindings,
        tick: u64,
    ) -> AppliedRewrite {
        let parent = ast.parent(root);
        let parent_snapshot =
            (!parent.is_null()).then(|| (ast.label(parent), NodeRow::of(ast, parent)));

        // Snapshot the nodes this application will free — `Desc(root)`
        // pruned at reused subtrees — *before* the generator runs: reuse
        // detaches subtrees, which would otherwise corrupt the removed
        // parents' images (their child lists shrink), and bolt-on engines
        // must see `remove()` events matching the rows they inserted.
        // A rule reuses at most a handful of positions, so a linear scan
        // of the cached variable list beats materializing a set.
        let is_reused = |c: NodeId| self.reused_vars.iter().any(|&v| bindings.get(v) == c);
        let mut removed: Vec<(Label, NodeRow)> = Vec::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            removed.push((ast.label(n), NodeRow::of(ast, n)));
            for &c in ast.children(n) {
                if !is_reused(c) {
                    stack.push(c);
                }
            }
        }

        // ⟦g⟧Γ,µ — builds the new subtree, detaching reused nodes.
        let mut gen_nodes = vec![NodeId::NULL; self.generator.gen_count()];
        let new_root = self.generator.eval(ast, bindings, tick, &mut gen_nodes);

        // The single pointer swap.
        ast.replace(root, new_root);

        // Everything left under the old root (reused subtrees were
        // detached by the generator) is garbage.
        let freed = ast.free_subtree(root);
        debug_assert_eq!(
            {
                let mut a: Vec<NodeId> = freed.clone();
                a.sort_unstable();
                a
            },
            {
                let mut b: Vec<NodeId> = removed.iter().map(|(_, r)| r.id).collect();
                b.sort_unstable();
                b
            },
            "pre-computed removal set must equal the freed set"
        );

        let parent_update =
            parent_snapshot.map(|(label, old_row)| (label, old_row, NodeRow::of(ast, parent)));

        AppliedRewrite {
            old_root: root,
            new_root,
            gen_nodes,
            removed,
            parent_update,
        }
    }
}

/// The record of one rule application — the mutable update delta of §6
/// ("the size of this delta is linear in the size of g and m").
#[derive(Debug, Clone)]
pub struct AppliedRewrite {
    /// The replaced node's (now dead) id.
    pub old_root: NodeId,
    /// The replacement subtree root.
    pub new_root: NodeId,
    /// Newly created nodes, dense by the generator's `Gen` preorder index.
    pub gen_nodes: Vec<NodeId>,
    /// Snapshots of the freed nodes (label + relational image) — the
    /// `remove()` events the instrumented compiler reports.
    pub removed: Vec<(Label, NodeRow)>,
    /// If the replacement site had a parent, its (label, old image, new
    /// image): the child-pointer update bolt-on engines must see as a
    /// delete + insert.
    pub parent_update: Option<(Label, NodeRow, NodeRow)>,
}

impl AppliedRewrite {
    /// Ids of newly inserted nodes.
    pub fn inserted(&self) -> &[NodeId] {
        &self.gen_nodes
    }
}

/// A named collection of rewrite rules; rule ids are indices.
///
/// Construction eagerly derives everything the matchers and engines used
/// to recompute per consumer: the compiled [`MatchAutomaton`] over all
/// patterns, the name → id index, and the Definition-7
/// [`RewriteRule::safe_for_inline`] bits. Rule sets are tiny and shared
/// via `Arc` by whole fleets of engines, so paying once here is the
/// right trade.
#[derive(Debug)]
pub struct RuleSet {
    rules: Vec<RewriteRule>,
    /// The compiled multi-rule matcher (rule ids = indices).
    automaton: Arc<MatchAutomaton>,
    /// Name → id (first occurrence wins, like the old linear scan).
    name_index: FxHashMap<String, usize>,
    /// Cached [`RewriteRule::safe_for_inline`] per rule, dense by id.
    inlineable: Vec<bool>,
}

impl Default for RuleSet {
    fn default() -> Self {
        Self::from_rules(Vec::new())
    }
}

impl RuleSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from rules.
    pub fn from_rules(rules: Vec<RewriteRule>) -> Self {
        let automaton = Arc::new(MatchAutomaton::compile(rules.iter().map(|r| &r.pattern)));
        let mut name_index = FxHashMap::default();
        let mut inlineable = Vec::with_capacity(rules.len());
        for (id, rule) in rules.iter().enumerate() {
            name_index.entry(rule.name.clone()).or_insert(id);
            inlineable.push(rule.safe_for_inline());
        }
        Self {
            rules,
            automaton,
            name_index,
            inlineable,
        }
    }

    /// Adds a rule, returning its id. Rebuilds the derived indexes (rule
    /// sets are authored once and tiny; mutation is not a hot path).
    pub fn push(&mut self, rule: RewriteRule) -> usize {
        let mut rules = std::mem::take(&mut self.rules);
        rules.push(rule);
        *self = Self::from_rules(rules);
        self.rules.len() - 1
    }

    /// Rule count.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rule with id `id`.
    pub fn get(&self, id: usize) -> &RewriteRule {
        &self.rules[id]
    }

    /// Looks a rule up by name (hashed; duplicates resolve to the first
    /// occurrence, matching the historical linear scan).
    pub fn by_name(&self, name: &str) -> Option<(usize, &RewriteRule)> {
        self.name_index.get(name).map(|&id| (id, &self.rules[id]))
    }

    /// Iterates `(id, rule)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &RewriteRule)> {
        self.rules.iter().enumerate()
    }

    /// The compiled match automaton over every rule's pattern.
    pub fn automaton(&self) -> &Arc<MatchAutomaton> {
        &self.automaton
    }

    /// Cached [`RewriteRule::safe_for_inline`] bits, dense by rule id —
    /// engines sharing one `Arc<RuleSet>` across thousands of shards
    /// read this instead of re-deriving the classification per shard.
    pub fn inlineable(&self) -> &[bool] {
        &self.inlineable
    }
}

/// True if the pattern position bound by `ancestor` strictly contains the
/// position bound by `descendant`.
fn var_contains(pattern: &Pattern, ancestor: VarId, descendant: VarId) -> bool {
    fn position_of(node: &PatternNode, var: VarId) -> Option<&PatternNode> {
        match node {
            PatternNode::Any { var: v } => (*v == Some(var)).then_some(node),
            PatternNode::Match {
                var: v, children, ..
            } => {
                if *v == var {
                    Some(node)
                } else {
                    children.iter().find_map(|c| position_of(c, var))
                }
            }
        }
    }
    fn binds(node: &PatternNode, var: VarId) -> bool {
        match node {
            PatternNode::Any { var: v } => *v == Some(var),
            PatternNode::Match {
                var: v, children, ..
            } => *v == var || children.iter().any(|c| binds(c, var)),
        }
    }
    let Some(anc) = position_of(pattern.root(), ancestor) else {
        return false;
    };
    match anc {
        PatternNode::Any { .. } => false,
        PatternNode::Match { children, .. } => children.iter().any(|c| binds(c, descendant)),
    }
}

/// Match positions not covered by any reused position (a position is
/// covered if it or one of its pattern ancestors is reused).
fn compute_removed_vars(pattern: &Pattern, reused: &[VarId]) -> Vec<VarId> {
    fn go(node: &PatternNode, reused: &[VarId], covered: bool, out: &mut Vec<VarId>) {
        match node {
            PatternNode::Any { .. } => {}
            PatternNode::Match { var, children, .. } => {
                let covered = covered || reused.contains(var);
                if !covered {
                    out.push(*var);
                }
                for c in children {
                    go(c, reused, covered, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    go(pattern.root(), reused, false, &mut out);
    out
}

/// Definition 7: the generator is safe iff it reuses exactly the wildcard
/// matches of the pattern. Operationally: every `AnyNode` position must be
/// reused itself (which requires it to be named) or sit under a reused
/// position — otherwise an application drops a subtree of statically
/// unknown shape, and the inlined plan could miss view updates inside it.
fn all_wildcards_covered(pattern: &Pattern, reused: &[VarId]) -> bool {
    fn go(node: &PatternNode, reused: &[VarId], covered: bool) -> bool {
        match node {
            PatternNode::Any { var } => {
                covered || var.map(|v| reused.contains(&v)).unwrap_or(false)
            }
            PatternNode::Match { var, children, .. } => {
                let covered = covered || reused.contains(var);
                children.iter().all(|c| go(c, reused, covered))
            }
        }
    }
    go(pattern.root(), reused, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{acopy, gen, reuse};
    use tt_ast::schema::arith_schema;
    use tt_ast::sexpr::{parse_sexpr, to_sexpr};
    use tt_pattern::dsl as p;
    use tt_pattern::match_node;

    fn schema() -> Arc<Schema> {
        arith_schema()
    }

    /// Example 2.2 as a declarative rule: Arith(+, Const(0), Var) → Var.
    fn add_zero_rule() -> RewriteRule {
        let s = schema();
        let pattern = Pattern::compile(
            &s,
            p::node(
                "Arith",
                "A",
                [
                    p::node("Const", "B", [], p::eq(p::attr("B", "val"), p::int(0))),
                    p::node("Var", "C", [], p::tru()),
                ],
                p::eq(p::attr("A", "op"), p::str_("+")),
            ),
        );
        RewriteRule::new("AddZero", &s, pattern, reuse("C"))
    }

    #[test]
    fn apply_example_2_2() {
        let rule = add_zero_rule();
        let mut ast = Ast::new(schema());
        let root = parse_sexpr(
            &mut ast,
            r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="b")) (Var name="x"))"#,
        )
        .unwrap();
        ast.set_root(root);
        let site = ast.children(root)[0];
        let bindings = match_node(&ast, site, &rule.pattern).unwrap();
        let applied = rule.apply(&mut ast, site, &bindings, 0);

        assert_eq!(
            to_sexpr(&ast, ast.root()),
            r#"(Arith op="*" (Var name="b") (Var name="x"))"#
        );
        assert_eq!(applied.inserted().len(), 0, "pure-reuse generator");
        // Freed: the Arith(+) and the Const(0); the Var was reused.
        assert_eq!(applied.removed.len(), 2);
        // Parent's child pointer changed: update reported.
        let (_, old_row, new_row) = applied.parent_update.as_ref().unwrap();
        assert_eq!(old_row.children[0], applied.old_root);
        assert_eq!(new_row.children[0], applied.new_root);
        ast.validate().unwrap();
        assert_eq!(ast.live_count(), 3);
    }

    #[test]
    fn apply_at_root_has_no_parent_update() {
        let rule = add_zero_rule();
        let mut ast = Ast::new(schema());
        let root = parse_sexpr(&mut ast, r#"(Arith op="+" (Const val=0) (Var name="b"))"#).unwrap();
        ast.set_root(root);
        let bindings = match_node(&ast, root, &rule.pattern).unwrap();
        let applied = rule.apply(&mut ast, root, &bindings, 0);
        assert!(applied.parent_update.is_none());
        assert_eq!(ast.root(), applied.new_root);
        assert_eq!(to_sexpr(&ast, ast.root()), r#"(Var name="b")"#);
        ast.validate().unwrap();
    }

    #[test]
    fn generated_subtree_reports_inserted_nodes() {
        // Rewrite Arith(+, Const(0), Var) → Arith(*, Const(1), Reuse(C)).
        let s = schema();
        let pattern = add_zero_rule().pattern;
        let rule = RewriteRule::new(
            "Rebuild",
            &s,
            pattern,
            gen(
                "Arith",
                [("op", crate::generator::aconst(tt_ast::Value::str("*")))],
                [
                    gen(
                        "Const",
                        [("val", crate::generator::aconst(tt_ast::Value::Int(1)))],
                        [],
                    ),
                    reuse("C"),
                ],
            ),
        );
        let mut ast = Ast::new(s);
        let root = parse_sexpr(&mut ast, r#"(Arith op="+" (Const val=0) (Var name="b"))"#).unwrap();
        ast.set_root(root);
        let bindings = match_node(&ast, root, &rule.pattern).unwrap();
        let applied = rule.apply(&mut ast, root, &bindings, 0);
        assert_eq!(applied.inserted().len(), 2);
        assert_eq!(applied.gen_nodes[0], applied.new_root);
        assert_eq!(applied.removed.len(), 2);
        assert_eq!(
            to_sexpr(&ast, ast.root()),
            r#"(Arith op="*" (Const val=1) (Var name="b"))"#
        );
    }

    #[test]
    fn removed_vars_exclude_reused_positions() {
        let rule = add_zero_rule();
        let p_ = &rule.pattern;
        // A and B are destroyed; C is reused.
        assert_eq!(
            rule.removed_vars(),
            &[p_.var("A").unwrap(), p_.var("B").unwrap()]
        );
    }

    #[test]
    fn safety_classification() {
        let s = schema();
        // No wildcards at all → trivially safe.
        assert!(add_zero_rule().safe_for_inline());

        // A named wildcard that is reused → safe.
        let pat = Pattern::compile(
            &s,
            p::node(
                "Arith",
                "A",
                [p::any_as("q"), p::node("Var", "V", [], p::tru())],
                p::tru(),
            ),
        );
        let safe = RewriteRule::new("Safe", &s, pat.clone(), reuse("q"));
        assert!(safe.safe_for_inline());

        // A wildcard that is dropped → unsafe (falls back to generic path).
        let unsafe_rule = RewriteRule::new("Drop", &s, pat, reuse("V"));
        assert!(!unsafe_rule.safe_for_inline());
    }

    #[test]
    #[should_panic(expected = "cannot reuse the pattern root")]
    fn root_reuse_rejected() {
        let s = schema();
        let pat = Pattern::compile(&s, p::node("Const", "B", [], p::tru()));
        let _ = RewriteRule::new("Bad", &s, pat, reuse("B"));
    }

    #[test]
    #[should_panic(expected = "reused twice")]
    fn double_reuse_rejected() {
        let s = schema();
        let pat = Pattern::compile(
            &s,
            p::node("Arith", "A", [p::any_as("q"), p::any()], p::tru()),
        );
        let _ = RewriteRule::new(
            "Bad",
            &s,
            pat,
            gen(
                "Arith",
                [("op", acopy("A", "op"))],
                [reuse("q"), reuse("q")],
            ),
        );
    }

    #[test]
    #[should_panic(expected = "nests another reused position")]
    fn nested_reuse_rejected() {
        let s = schema();
        // B (a Match child) contains wildcard q below it.
        let pat = Pattern::compile(
            &s,
            p::node(
                "Arith",
                "A",
                [
                    p::node("Arith", "B", [p::any_as("q"), p::any()], p::tru()),
                    p::any(),
                ],
                p::tru(),
            ),
        );
        let _ = RewriteRule::new(
            "Bad",
            &s,
            pat,
            gen(
                "Arith",
                [("op", acopy("A", "op"))],
                [reuse("B"), reuse("q")],
            ),
        );
    }

    #[test]
    fn ruleset_lookup() {
        let mut rs = RuleSet::new();
        let id = rs.push(add_zero_rule());
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(id).name, "AddZero");
        assert_eq!(rs.by_name("AddZero").unwrap().0, id);
        assert!(rs.by_name("Missing").is_none());
    }

    #[test]
    fn ruleset_derived_indexes_cover_every_rule() {
        let s = schema();
        let wildcard = RewriteRule::new(
            "AnyRoot",
            &s,
            Pattern::compile(
                &s,
                p::node("Arith", "A", [p::any_as("q"), p::any()], p::tru()),
            ),
            reuse("q"),
        );
        let anywhere = RewriteRule::new(
            "Anywhere",
            &s,
            Pattern::compile(&s, p::any_as("n")),
            // A root `Any` cannot be reused, so generate a fresh leaf.
            gen(
                "Const",
                [("val", crate::generator::aconst(tt_ast::Value::Int(0)))],
                [],
            ),
        );
        let rs = RuleSet::from_rules(vec![add_zero_rule(), wildcard, anywhere]);

        // Cached safety bits agree with the per-rule recomputation.
        let bits: Vec<bool> = rs.iter().map(|(_, r)| r.safe_for_inline()).collect();
        assert_eq!(rs.inlineable(), &bits[..]);

        // The compiled automaton covers the whole set, and `push`
        // rebuilds every derived index.
        assert_eq!(rs.automaton().rule_count(), 3);
        let mut rs = rs;
        let id = rs.push(add_zero_rule());
        assert_eq!(rs.get(id).name, "AddZero");
        assert_eq!(rs.automaton().rule_count(), 4);
        // First pushed name wins duplicate lookups.
        assert_eq!(rs.by_name("AddZero").unwrap().0, 0);
    }
}
