//! The TreeToaster view-maintenance engine (paper §5–6).
//!
//! One [`MatchView`] per rewrite rule. On `replace(R, R′)` the engine
//! applies Algorithm 2 to the **maximal search set** of Definition 6:
//!
//! ```text
//! ⌈R,R′⌉_q = Desc(R) ⊕ {Ancestor_i(R)}_{i∈[D(q)]}
//!          ⊖ Desc(R′) ⊖ {Ancestor_i(R′)}_{i∈[D(q)]}
//! ```
//!
//! realized as two phases around the pointer swap: pre-state matches in
//! `Desc(R)` and the `D(q)` nearest ancestors are subtracted, post-state
//! matches in `Desc(R′)` and the same ancestors are added. For
//! declarative rules that pass the Definition-7 safety check, the engine
//! instead uses the Algorithm-3 inlined plan: only label-aligned
//! generated positions, destroyed positions, and ancestor heights are
//! touched — reused subtrees are skipped entirely.

use crate::batch::DeltaBuffer;
use crate::inline::InlineMatrix;
use crate::rules::RuleSet;
use crate::strategy::{EpochOps, MatchCore, ReplaceCtx, RuleId};
use crate::view::MatchView;
use std::sync::Arc;
use tt_ast::{Ast, NodeId};
use tt_pattern::{AutomatonScratch, Bindings};

/// Maintenance-path selection (the §6.1 ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// Use inlined plans for safe rules, maximal search set otherwise.
    #[default]
    Inlined,
    /// Always use the maximal search set (Definition 6 only).
    Generic,
}

/// The TreeToaster engine: per-rule views over the live AST.
pub struct TreeToasterEngine {
    rules: Arc<RuleSet>,
    views: Vec<MatchView>,
    matrix: InlineMatrix,
    mode: MaintenanceMode,
    /// Open maintenance epoch: deltas stage here (and cancel) instead of
    /// touching the views. `None` = immediate (K=1) maintenance.
    batch: Option<DeltaBuffer>,
    /// An epoch sealed by [`EpochOps::submit_commit`], awaiting its
    /// background committer. Reads overlay it alongside the open batch
    /// (`view ⊕ sealed ⊕ pending` is the up-to-date view); at most one
    /// epoch is ever sealed.
    sealed: Option<DeltaBuffer>,
    /// The previous epoch's drained buffer, kept so its dense pages are
    /// reused by the next [`EpochOps::begin_batch`] instead of being
    /// freed and re-allocated every epoch.
    spare: Option<DeltaBuffer>,
    /// Reusable automaton work buffers, so a steady-state `replace` —
    /// one subtree walk plus a handful of candidate checks — performs
    /// zero heap allocations.
    scratch: AutomatonScratch,
}

impl TreeToasterEngine {
    /// Builds an engine (views empty until [`MatchCore::rebuild`]).
    pub fn new(rules: Arc<RuleSet>) -> Self {
        Self::with_mode(rules, MaintenanceMode::Inlined)
    }

    /// Builds an engine with an explicit maintenance mode. The
    /// Definition-7 safety bits come from the rule set's construction-time
    /// cache ([`RuleSet::inlineable`]) — fleets sharing one
    /// `Arc<RuleSet>` across thousands of shards no longer re-derive the
    /// classification per shard.
    pub fn with_mode(rules: Arc<RuleSet>, mode: MaintenanceMode) -> Self {
        let matrix = InlineMatrix::build(&rules);
        let views = (0..rules.len()).map(|_| MatchView::new()).collect();
        Self {
            rules,
            views,
            matrix,
            mode,
            batch: None,
            sealed: None,
            spare: None,
            scratch: AutomatonScratch::default(),
        }
    }

    /// Net deltas currently staged in an open epoch, plus any sealed
    /// epoch's surviving deltas still awaiting the committer (0 when
    /// fully applied).
    pub fn pending_deltas(&self) -> usize {
        self.batch.as_ref().map_or(0, DeltaBuffer::len)
            + self.sealed.as_ref().map_or(0, DeltaBuffer::len)
    }

    /// `(staged, canceled)` counters of the open epoch's buffer, if any —
    /// `canceled` deltas are maintenance the views never had to absorb.
    pub fn batch_stats(&self) -> Option<(u64, u64)> {
        self.batch.as_ref().map(|b| (b.staged(), b.canceled()))
    }

    /// Routes one view delta through the open epoch (or straight into
    /// the view when none is open). Takes the fields directly so callers
    /// holding a borrow of `self.matrix` or `self.rules` can still stage.
    #[inline]
    fn stage_into(
        batch: &mut Option<DeltaBuffer>,
        views: &mut [MatchView],
        view: usize,
        node: NodeId,
        delta: i64,
    ) {
        match batch {
            Some(buffer) => buffer.stage(view, node, delta),
            None => views[view].add(node, delta),
        }
    }

    /// The view maintained for `rule`.
    pub fn view(&self, rule: RuleId) -> &MatchView {
        &self.views[rule]
    }

    /// The active maintenance mode.
    pub fn mode(&self) -> MaintenanceMode {
        self.mode
    }

    /// Test oracle: every view must equal a from-scratch scan
    /// (Definition 4 view correctness / Lemmas 5.2 and 5.4).
    pub fn check_views_correct(&self, ast: &Ast) -> Result<(), String> {
        for (id, rule) in self.rules.iter() {
            self.views[id].check_consistent()?;
            let expected = tt_pattern::match_set(ast, ast.root(), &rule.pattern);
            if expected.len() != self.views[id].len() {
                return Err(format!(
                    "view {} ({}) has {} members, expected {}",
                    id,
                    rule.name,
                    self.views[id].len(),
                    expected.len()
                ));
            }
            for n in expected {
                if !self.views[id].contains(n) {
                    return Err(format!("view {} ({}) missing {n:?}", id, rule.name));
                }
            }
        }
        Ok(())
    }

    /// Generic phase helper: walk `Desc(root)` and the `D(q)` nearest
    /// ancestors, applying `sign` for every current match.
    ///
    /// One automaton walk over the subtree emits every rule's candidates
    /// at once, then one [`run_at`] per distinct ancestor height covers
    /// the `{Ancestor_i}` part — a rule is staged at height `h` only when
    /// `h ≤ D(q)`, exactly the heights Definition 6 names. The automaton
    /// scratch is engine-owned, so the walk allocates nothing.
    ///
    /// [`run_at`]: tt_pattern::MatchAutomaton::run_at
    fn generic_phase(&mut self, ast: &Ast, root: NodeId, sign: i64) {
        let Self {
            rules,
            views,
            batch,
            scratch,
            ..
        } = self;
        let auto = rules.automaton();
        auto.for_each_match(ast, root, scratch, &mut |n, id, _| {
            Self::stage_into(batch, views, id, n, sign);
        });
        for h in 1..=auto.max_depth() {
            let a = ast.ancestor_at(root, h);
            if a.is_null() {
                break;
            }
            auto.run_at(ast, a, scratch, &mut |id, _| {
                if auto.depth(id) >= h {
                    Self::stage_into(batch, views, id, a, sign);
                }
            });
        }
    }

    /// Inlined pre-phase: check only destroyed candidate positions and
    /// planned ancestor heights.
    fn inlined_pre(&mut self, ast: &Ast, old_root: NodeId, fired: RuleId, bindings: &Bindings) {
        let Self {
            rules,
            views,
            batch,
            matrix,
            scratch,
            ..
        } = self;
        let auto = rules.automaton();
        for id in 0..rules.len() {
            let plan = matrix.plan(id, fired).expect("caller checked plan exists");
            for &var in &plan.removed_candidates {
                let n = bindings.get(var);
                if auto.run_rule(ast, n, id, scratch) {
                    Self::stage_into(batch, views, id, n, -1);
                }
            }
            for &h in &plan.ancestor_heights {
                let a = ast.ancestor_at(old_root, h);
                if !a.is_null() && auto.run_rule(ast, a, id, scratch) {
                    Self::stage_into(batch, views, id, a, -1);
                }
            }
        }
    }

    /// Inlined post-phase: check only aligned generated positions and the
    /// same ancestor heights.
    fn inlined_post(&mut self, ast: &Ast, new_root: NodeId, fired: RuleId, gen_nodes: &[NodeId]) {
        let Self {
            rules,
            views,
            batch,
            matrix,
            scratch,
            ..
        } = self;
        let auto = rules.automaton();
        for id in 0..rules.len() {
            let plan = matrix.plan(id, fired).expect("caller checked plan exists");
            for &gi in &plan.gen_candidates {
                let n = gen_nodes[gi];
                if auto.run_rule(ast, n, id, scratch) {
                    Self::stage_into(batch, views, id, n, 1);
                }
            }
            for &h in &plan.ancestor_heights {
                let a = ast.ancestor_at(new_root, h);
                if !a.is_null() && auto.run_rule(ast, a, id, scratch) {
                    Self::stage_into(batch, views, id, a, 1);
                }
            }
        }
    }

    fn can_inline(&self, rule: RuleId) -> bool {
        self.mode == MaintenanceMode::Inlined && self.rules.inlineable()[rule]
    }
}

impl MatchCore for TreeToasterEngine {
    fn name(&self) -> &'static str {
        "TT"
    }

    fn rebuild(&mut self, ast: &Ast) {
        for v in &mut self.views {
            v.clear();
        }
        // A rebuild supersedes anything staged or sealed: restart the
        // epoch empty (pages retained for the coming deltas).
        if let Some(buffer) = &mut self.batch {
            buffer.reset();
        }
        if let Some(sealed) = self.sealed.take() {
            self.spare = Some(sealed);
        }
        if let Some(spare) = &mut self.spare {
            spare.reset();
        }
        let root = ast.root();
        if root.is_null() {
            return;
        }
        // One traversal for the paper's initial materialization: the
        // automaton emits every rule's matches in a single walk.
        let Self {
            rules,
            views,
            scratch,
            ..
        } = self;
        rules
            .automaton()
            .for_each_match(ast, root, scratch, &mut |n, id, _| {
                views[id].add(n, 1);
            });
    }

    fn find_one(&mut self, _ast: &Ast, rule: RuleId) -> Option<NodeId> {
        // The views are stale by exactly the deltas staged in the open
        // epoch plus any sealed epoch awaiting its committer, and
        // `view ⊕ sealed ⊕ pending` is the up-to-date view — so answer
        // through an overlay instead of forcing a commit. This read-path
        // asymmetry is the point: the bolt-on engines must reconcile
        // their whole event stream to answer the same question. Signed
        // deltas compose, so summing the two buffers' entries per node
        // gives the same overlay as one merged buffer would.
        let sealed = self
            .sealed
            .as_ref()
            .map(|b| b.view_deltas(rule))
            .filter(|p| !p.is_empty());
        let open = self
            .batch
            .as_ref()
            .map(|b| b.view_deltas(rule))
            .filter(|p| !p.is_empty());
        let (first, second) = match (sealed, open) {
            (None, None) => return self.views[rule].any(),
            // Single-buffer overlay — one probe per scanned member. This
            // is the hot shape (a synchronous commit cycle never holds a
            // sealed epoch), so it must not pay for the composed case.
            (Some(p), None) | (None, Some(p)) => {
                if let Some(n) = self.views[rule].iter().find(|&n| !p.contains_key(n)) {
                    return Some(n);
                }
                return p
                    .iter()
                    .filter(|&(n, &d)| self.views[rule].count(n) + d > 0)
                    .map(|(n, _)| n)
                    .next();
            }
            (Some(s), Some(o)) => (s, o),
        };
        let delta =
            |n: NodeId| first.get(n).copied().unwrap_or(0) + second.get(n).copied().unwrap_or(0);
        // Any member neither epoch touched is still a match…
        if let Some(n) = self.views[rule].iter().find(|&n| delta(n) == 0) {
            return Some(n);
        }
        // …otherwise a touched node with positive net support.
        [first, second]
            .iter()
            .flat_map(|p| p.iter())
            .map(|(n, _)| n)
            .find(|&n| self.views[rule].count(n) + delta(n) > 0)
    }

    fn before_replace(&mut self, ast: &Ast, old_root: NodeId, rule: Option<(RuleId, &Bindings)>) {
        if self.batch.is_none() {
            // A rewrite outside an epoch maintains the views in place,
            // so a sealed epoch still awaiting its committer must land
            // first — the direct ±1s below describe a tree the views
            // have not caught up to otherwise. The committer's later
            // pass finds the slot empty and no-ops.
            self.apply_submitted();
        }
        match rule {
            Some((fired, bindings)) if self.can_inline(fired) => {
                self.inlined_pre(ast, old_root, fired, bindings)
            }
            _ => self.generic_phase(ast, old_root, -1),
        }
    }

    fn after_replace(&mut self, ast: &Ast, ctx: &ReplaceCtx<'_>) {
        match &ctx.rule {
            Some(fired) if self.can_inline(fired.rule) => {
                self.inlined_post(ast, ctx.new_root, fired.rule, &fired.applied.gen_nodes);
            }
            _ => self.generic_phase(ast, ctx.new_root, 1),
        }
        #[cfg(debug_assertions)]
        for v in &self.views {
            debug_assert!(v.check_consistent().is_ok(), "view corrupted after replace");
        }
    }

    fn on_graft(&mut self, ast: &Ast, created: &[NodeId]) {
        if self.batch.is_none() {
            // Same ordering rule as `before_replace`: land any sealed
            // epoch before mutating the views directly.
            self.apply_submitted();
        }
        let Self {
            rules,
            views,
            batch,
            scratch,
            ..
        } = self;
        let auto = rules.automaton();
        for &n in created {
            auto.run_at(ast, n, scratch, &mut |id, _| {
                Self::stage_into(batch, views, id, n, 1);
            });
        }
    }

    fn check_consistent(&self, ast: &Ast) -> Result<(), String> {
        if self.batch.as_ref().is_some_and(|b| !b.is_empty()) {
            return Err("engine has staged deltas in an open batch".into());
        }
        if self.sealed.as_ref().is_some_and(|b| !b.is_empty()) {
            return Err("engine has a sealed epoch awaiting its committer".into());
        }
        self.check_views_correct(ast)
    }

    fn memory_bytes(&self) -> usize {
        self.views
            .iter()
            .map(MatchView::memory_bytes)
            .sum::<usize>()
            + self.batch.as_ref().map_or(0, DeltaBuffer::memory_bytes)
            + self.sealed.as_ref().map_or(0, DeltaBuffer::memory_bytes)
            + self.spare.as_ref().map_or(0, DeltaBuffer::memory_bytes)
    }

    fn match_heat(&self) -> usize {
        // Exactly the §4 promise, repurposed as a scheduling signal: the
        // views already know how many rewrite opportunities are live, and
        // the open epoch's net deltas are matches about to land.
        self.views.iter().map(MatchView::len).sum::<usize>() + self.pending_deltas()
    }
}

impl EpochOps for TreeToasterEngine {
    fn begin_batch(&mut self) {
        if self.batch.is_none() {
            let buffer = match self.spare.take() {
                Some(mut spare) if spare.view_count() == self.views.len() => {
                    spare.reset();
                    spare
                }
                _ => DeltaBuffer::new(self.views.len()),
            };
            self.batch = Some(buffer);
        }
    }

    fn commit_batch(&mut self) {
        // Epochs apply in submission order: a sealed epoch always lands
        // before the one committing now.
        self.apply_submitted();
        if let Some(mut buffer) = self.batch.take() {
            buffer.drain_into(&mut self.views);
            #[cfg(debug_assertions)]
            for v in &self.views {
                debug_assert!(v.check_consistent().is_ok(), "view corrupted by commit");
            }
            // Park the drained buffer: its pages serve the next epoch.
            self.spare = Some(buffer);
        }
    }

    fn submit_commit(&mut self) -> bool {
        let Some(buffer) = self.batch.take() else {
            return false;
        };
        // Bounded backpressure: at most one epoch in flight. A second
        // submit before the committer ran applies the old seal inline.
        self.apply_submitted();
        if buffer.is_empty() {
            // Nothing staged: close the epoch without occupying the
            // sealed slot, so the committer is never fed a no-op.
            self.spare = Some(buffer);
            return false;
        }
        self.sealed = Some(buffer);
        true
    }

    fn apply_submitted(&mut self) -> bool {
        let Some(mut sealed) = self.sealed.take() else {
            return false;
        };
        sealed.drain_into(&mut self.views);
        #[cfg(debug_assertions)]
        for v in &self.views {
            debug_assert!(v.check_consistent().is_ok(), "view corrupted by commit");
        }
        self.spare = Some(sealed);
        true
    }

    fn has_submitted(&self) -> bool {
        self.sealed.is_some()
    }

    fn batch_cancellation(&self) -> Option<(u64, u64)> {
        // The open epoch's buffer if one exists; otherwise the drained
        // buffer parked in `spare`, whose counters still describe the
        // last committed epoch (reset happens at the next begin).
        self.batch
            .as_ref()
            .or(self.sealed.as_ref())
            .or(self.spare.as_ref())
            .map(|b| (b.staged(), b.canceled()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::reuse;
    use crate::rules::RewriteRule;
    use crate::strategy::RuleFired;
    use tt_ast::schema::arith_schema;
    use tt_ast::sexpr::parse_sexpr;
    use tt_ast::{Schema, Value};
    use tt_pattern::dsl as p;
    use tt_pattern::{match_node, Pattern};

    fn schema() -> Arc<Schema> {
        arith_schema()
    }

    fn add_zero_rule(s: &Arc<Schema>) -> RewriteRule {
        let pattern = Pattern::compile(
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
        );
        RewriteRule::new("AddZero", s, pattern, reuse("C"))
    }

    /// Mul-by-one elimination: Arith(*, Const(1), Var) → Var. A second
    /// rule so cross-view maintenance is exercised.
    fn mul_one_rule(s: &Arc<Schema>) -> RewriteRule {
        let pattern = Pattern::compile(
            s,
            p::node(
                "Arith",
                "M",
                [
                    p::node("Const", "K", [], p::eq(p::attr("K", "val"), p::int(1))),
                    p::node("Var", "V", [], p::tru()),
                ],
                p::eq(p::attr("M", "op"), p::str_("*")),
            ),
        );
        RewriteRule::new("MulOne", s, pattern, reuse("V"))
    }

    fn rules() -> Arc<RuleSet> {
        let s = schema();
        Arc::new(RuleSet::from_rules(vec![
            add_zero_rule(&s),
            mul_one_rule(&s),
        ]))
    }

    fn tree(text: &str) -> Ast {
        let mut ast = Ast::new(schema());
        let id = parse_sexpr(&mut ast, text).unwrap();
        ast.set_root(id);
        ast
    }

    /// Applies rule `rid` at `site` with full engine notification.
    fn fire(engine: &mut TreeToasterEngine, ast: &mut Ast, rid: usize, site: NodeId) {
        let rules = engine.rules.clone();
        let rule = rules.get(rid);
        let bindings = match_node(ast, site, &rule.pattern).expect("site must match");
        engine.before_replace(ast, site, Some((rid, &bindings)));
        let applied = rule.apply(ast, site, &bindings, 0);
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
        engine.after_replace(ast, &ctx);
    }

    #[test]
    fn rebuild_materializes_views() {
        let mut ast =
            tree(r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="b")) (Var name="x"))"#);
        let mut engine = TreeToasterEngine::new(rules());
        engine.rebuild(&ast);
        assert_eq!(engine.view(0).len(), 1, "one AddZero site");
        assert_eq!(
            engine.view(1).len(),
            0,
            "no MulOne site (left child is Arith)"
        );
        engine.check_views_correct(&ast).unwrap();
        let _ = &mut ast;
    }

    #[test]
    fn fire_updates_own_and_other_views_inlined() {
        // After AddZero fires, the root becomes Arith(*, Var(b), Var(x)) —
        // still no MulOne match (needs Const(1) child), and the AddZero
        // view must drain.
        let mut ast =
            tree(r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="b")) (Var name="x"))"#);
        let mut engine = TreeToasterEngine::new(rules());
        engine.rebuild(&ast);
        let site = engine.find_one(&ast, 0).unwrap();
        fire(&mut engine, &mut ast, 0, site);
        assert!(engine.view(0).is_empty());
        engine.check_views_correct(&ast).unwrap();
        ast.validate().unwrap();
    }

    #[test]
    fn cascading_rewrites_create_new_matches() {
        // MulOne at the inner node exposes an AddZero at the root:
        // (+ (* (Const 1) (Var v)) ...) — wait: build a tree where firing
        // rule 1 creates a match for rule 0:
        //   (Arith + (Const 0) (Var y))  after rewriting the inner
        // Start: (Arith + (Const 0) (Arith * (Const 1) (Var y)))
        // Root doesn't match AddZero yet (right child is Arith, not Var).
        // Firing MulOne turns the right child into Var(y) → root matches.
        let mut ast =
            tree(r#"(Arith op="+" (Const val=0) (Arith op="*" (Const val=1) (Var name="y")))"#);
        let mut engine = TreeToasterEngine::new(rules());
        engine.rebuild(&ast);
        assert!(engine.view(0).is_empty(), "root not yet eligible");
        let site = engine.find_one(&ast, 1).expect("MulOne site exists");
        fire(&mut engine, &mut ast, 1, site);
        engine.check_views_correct(&ast).unwrap();
        assert_eq!(engine.view(0).len(), 1, "ancestor became an AddZero match");
        // Drain it too.
        let site = engine.find_one(&ast, 0).unwrap();
        fire(&mut engine, &mut ast, 0, site);
        engine.check_views_correct(&ast).unwrap();
        assert!(engine.view(0).is_empty());
        assert!(engine.view(1).is_empty());
        assert_eq!(
            tt_ast::sexpr::to_sexpr(&ast, ast.root()),
            r#"(Var name="y")"#
        );
    }

    #[test]
    fn generic_mode_agrees_with_inlined() {
        let build = |mode| {
            let mut ast =
                tree(r#"(Arith op="+" (Const val=0) (Arith op="*" (Const val=1) (Var name="y")))"#);
            let mut engine = TreeToasterEngine::with_mode(rules(), mode);
            engine.rebuild(&ast);
            let site = engine.find_one(&ast, 1).unwrap();
            fire(&mut engine, &mut ast, 1, site);
            engine.check_views_correct(&ast).unwrap();
            (engine.view(0).len(), engine.view(1).len())
        };
        assert_eq!(
            build(MaintenanceMode::Inlined),
            build(MaintenanceMode::Generic)
        );
    }

    #[test]
    fn automaton_maintenance_agrees_with_per_rule_oracle() {
        // Drive the cascade to quiescence under both maintenance modes;
        // `check_views_correct` rescans with the per-rule evaluator after
        // every rewrite, so this differentially checks the automaton's
        // rebuild, inlined, and generic paths at once. The fixpoint must
        // be the one the evaluator alone reaches.
        let run = |mode| {
            let mut ast =
                tree(r#"(Arith op="+" (Const val=0) (Arith op="*" (Const val=1) (Var name="y")))"#);
            let mut engine = TreeToasterEngine::with_mode(rules(), mode);
            engine.rebuild(&ast);
            engine.check_views_correct(&ast).unwrap();
            while let Some((rid, site)) =
                (0..2).find_map(|r| engine.find_one(&ast, r).map(|n| (r, n)))
            {
                fire(&mut engine, &mut ast, rid, site);
                engine.check_views_correct(&ast).unwrap();
            }
            tt_ast::sexpr::to_sexpr(&ast, ast.root())
        };
        for mode in [MaintenanceMode::Inlined, MaintenanceMode::Generic] {
            assert_eq!(run(mode), r#"(Var name="y")"#);
        }
    }

    #[test]
    fn manual_replace_uses_generic_path() {
        // A mutation outside any rule (rule = None) must still keep views
        // exact: replace Var(x) with Const(0) by hand.
        let mut ast = tree(r#"(Arith op="+" (Const val=0) (Var name="x"))"#);
        let mut engine = TreeToasterEngine::new(rules());
        engine.rebuild(&ast);
        assert_eq!(engine.view(0).len(), 1);
        let root = ast.root();
        let x = ast.children(root)[1];
        let s = ast.schema().clone();
        let zero = ast.alloc(s.expect_label("Const"), vec![Value::Int(0)], vec![]);
        engine.before_replace(&ast, x, None);
        ast.replace(x, zero);
        let removed = vec![(s.expect_label("Var"), tt_ast::NodeRow::of(&ast, x))];
        ast.free_subtree(x);
        let ctx = ReplaceCtx {
            old_root: x,
            new_root: zero,
            removed: &removed,
            inserted: &[zero],
            parent_update: None,
            rule: None,
        };
        engine.after_replace(&ast, &ctx);
        engine.check_views_correct(&ast).unwrap();
        assert!(
            engine.view(0).is_empty(),
            "root no longer matches (Var became Const)"
        );
    }

    #[test]
    fn graft_adds_new_matches_only() {
        // Wrap the root in a new Arith(+) whose right child is a Var:
        // the wrapper itself becomes an AddZero match.
        let mut ast = tree(r#"(Const val=0)"#);
        let mut engine = TreeToasterEngine::new(rules());
        engine.rebuild(&ast);
        let s = ast.schema().clone();
        let old_root = ast.root();
        ast.detach(old_root);
        let v = ast.alloc(s.expect_label("Var"), vec![Value::str("z")], vec![]);
        let wrap = ast.alloc(
            s.expect_label("Arith"),
            vec![Value::str("+")],
            vec![old_root, v],
        );
        ast.set_root(wrap);
        engine.on_graft(&ast, &[v, wrap]);
        engine.check_views_correct(&ast).unwrap();
        assert_eq!(engine.view(0).len(), 1);
        assert_eq!(engine.find_one(&ast, 0), Some(wrap));
    }

    #[test]
    fn find_one_is_constant_time_view_pop() {
        let mut ast = tree(
            r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="a")) (Arith op="+" (Const val=0) (Var name="b")))"#,
        );
        let mut engine = TreeToasterEngine::new(rules());
        engine.rebuild(&ast);
        assert_eq!(engine.view(0).len(), 2);
        // Draining both sites leaves the tree AddZero-free.
        while let Some(site) = engine.find_one(&ast, 0) {
            fire(&mut engine, &mut ast, 0, site);
        }
        engine.check_views_correct(&ast).unwrap();
        assert_eq!(
            tt_ast::sexpr::to_sexpr(&ast, ast.root()),
            r#"(Arith op="*" (Var name="a") (Var name="b"))"#
        );
    }

    #[test]
    fn batched_cascade_matches_immediate_maintenance() {
        // Same two-rewrite cascade as `cascading_rewrites_create_new_matches`,
        // but inside one epoch: mid-epoch finds must see through the
        // overlay, and the commit must leave the views exactly correct.
        let mut ast =
            tree(r#"(Arith op="+" (Const val=0) (Arith op="*" (Const val=1) (Var name="y")))"#);
        let mut engine = TreeToasterEngine::new(rules());
        engine.rebuild(&ast);
        engine.begin_batch();
        let site = engine.find_one(&ast, 1).expect("MulOne site exists");
        fire(&mut engine, &mut ast, 1, site);
        assert!(
            engine.pending_deltas() > 0,
            "deltas staged, views untouched"
        );
        let site = engine
            .find_one(&ast, 0)
            .expect("overlay exposes the new AddZero match mid-epoch");
        fire(&mut engine, &mut ast, 0, site);
        let (staged, canceled) = engine.batch_stats().unwrap();
        assert!(staged >= 2);
        assert!(
            canceled >= 2,
            "the AddZero match born and consumed in-epoch must cancel"
        );
        engine.commit_batch();
        engine.check_views_correct(&ast).unwrap();
        engine.check_consistent(&ast).unwrap();
        assert!(engine.view(0).is_empty());
        assert!(engine.view(1).is_empty());
        assert_eq!(
            tt_ast::sexpr::to_sexpr(&ast, ast.root()),
            r#"(Var name="y")"#
        );
    }

    #[test]
    fn epoch_buffers_are_recycled_across_epochs() {
        // Two sites, drained one per epoch: the second epoch must reuse
        // the first epoch's drained buffer (and its pages) instead of
        // allocating a fresh one, so memory stays flat across epochs.
        let mut ast = tree(
            r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="a")) (Arith op="+" (Const val=0) (Var name="b")))"#,
        );
        let mut engine = TreeToasterEngine::new(rules());
        engine.rebuild(&ast);
        engine.begin_batch();
        let site = engine.find_one(&ast, 0).unwrap();
        fire(&mut engine, &mut ast, 0, site);
        engine.commit_batch();
        let after_first = engine.memory_bytes();
        engine.begin_batch();
        assert_eq!(
            engine.batch_stats(),
            Some((0, 0)),
            "recycled buffer starts the epoch with fresh counters"
        );
        let site = engine.find_one(&ast, 0).unwrap();
        fire(&mut engine, &mut ast, 0, site);
        engine.commit_batch();
        engine.check_consistent(&ast).unwrap();
        assert!(
            engine.memory_bytes() <= after_first,
            "second epoch re-allocated pages: {} > {after_first}",
            engine.memory_bytes()
        );
    }

    #[test]
    fn batch_protocol_is_reentrant_and_degenerate_without_deltas() {
        let ast = tree(r#"(Arith op="+" (Const val=0) (Var name="x"))"#);
        let mut engine = TreeToasterEngine::new(rules());
        engine.rebuild(&ast);
        // begin twice, commit twice, commit without begin: all legal.
        engine.begin_batch();
        engine.begin_batch();
        assert_eq!(engine.find_one(&ast, 0), Some(ast.root()), "empty overlay");
        engine.commit_batch();
        engine.commit_batch();
        engine.check_consistent(&ast).unwrap();
        assert_eq!(engine.view(0).len(), 1);
    }

    #[test]
    fn check_consistent_rejects_open_dirty_batch() {
        let mut ast =
            tree(r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="b")) (Var name="x"))"#);
        let mut engine = TreeToasterEngine::new(rules());
        engine.rebuild(&ast);
        engine.begin_batch();
        let site = engine.find_one(&ast, 0).unwrap();
        fire(&mut engine, &mut ast, 0, site);
        assert!(engine.check_consistent(&ast).is_err());
        engine.commit_batch();
        engine.check_consistent(&ast).unwrap();
    }

    #[test]
    fn memory_is_views_only() {
        let ast = tree(r#"(Arith op="+" (Const val=0) (Var name="x"))"#);
        let mut engine = TreeToasterEngine::new(rules());
        engine.rebuild(&ast);
        let bytes = engine.memory_bytes();
        assert!(bytes > 0);
        // Far smaller than a shadow copy of any real AST: with one match,
        // the cost is dominated by the single lazily allocated 256-slot
        // page the match falls in (page-granular accounting is honest —
        // see tt_ast::dense), plus the empty second view.
        assert!(bytes < 16 * 1024, "view memory should be tiny: {bytes}");
    }
}
