//! The one bolt-on engine (paper §3): everything Classic and DBT share
//! around the single decision that separates them.
//!
//! A bolt-on engine sees the AST only as the flat node-event stream of
//! its relational encoding, so it keeps a projected **shadow copy** of
//! the pattern-relevant tree, replays every insert/delete through one
//! [`JoinPlan`] per rule, and coalesces events inside an epoch with a
//! [`DeltaLog`]. [`BoltOnIvm`] owns all of that once; the plans decide
//! only which join results are materialized:
//!
//! - [`crate::classic::PrefixPlan`] — one left-deep plan with every
//!   prefix join kept (the evaluation's **Classic**);
//! - [`crate::dbtoaster::SubsetPlan`] — one map per connected sub-join
//!   (the evaluation's **DBT**).

use crate::batch::DeltaLog;
use crate::common::{self, PreImage, ViewCore};
use std::sync::Arc;
use treetoaster_core::{EpochOps, MatchCore, ReplaceCtx, RuleId, RuleSet};
use tt_ast::{Ast, Label, NodeId, NodeRow};
use tt_pattern::{Bindings, SqlQuery};
use tt_relational::{Database, JoinRow, NodeDelta};

/// How one pattern's join results are materialized and maintained.
pub trait JoinPlan: Send {
    /// Strategy name as used in the paper's figures.
    const NAME: &'static str;

    /// Builds the (empty) plan for one pattern query.
    fn new(query: SqlQuery) -> Self;

    /// The pattern query this plan maintains.
    fn query(&self) -> &SqlQuery;

    /// Processes one tuple delta arriving at atom `atom`. `db` is the
    /// shadow copy with `row` still present for a deletion and already
    /// present for an insertion.
    fn process(&mut self, db: &Database, row: &NodeRow, atom: usize, sign: i64);

    /// The pattern's top view.
    fn view(&self) -> &ViewCore;

    /// Drops every materialized row.
    fn clear(&mut self);

    /// Approximate heap bytes of the materialized state.
    fn memory_bytes(&self) -> usize;

    /// Test oracle for the plan's own state beyond [`JoinPlan::view`],
    /// given the from-scratch evaluation of its query.
    fn check_internal(&self, expected: &[JoinRow]) -> Result<(), String>;
}

/// A bolt-on IVM strategy: a shadow database, an epoch log, and one
/// [`JoinPlan`] per rule.
pub struct BoltOnIvm<P> {
    rules: Arc<RuleSet>,
    /// The projected shadow copy of the pattern-relevant tree (§3.2).
    pub(crate) db: Database,
    /// One plan per rule, indexed by [`RuleId`].
    pub(crate) plans: Vec<P>,
    /// Epoch-scoped coalescing of the node event stream. Bolt-ons can
    /// only answer `find_one` from reconciled state, so reads inside an
    /// open epoch flush the log first (coalescing whatever accumulated
    /// since the last read) — the asymmetry §3.2 predicts.
    log: DeltaLog,
    /// Net delta stream of an epoch sealed by `submit_commit`, awaiting
    /// its background committer. Replay order within the vec is the
    /// order `take_pending` emitted (removals before insertions per
    /// epoch), and a second sealed epoch appends after the first, so a
    /// sequential replay is always equivalent to the synchronous path.
    sealed: Vec<NodeDelta>,
    /// Rows of the replacement in flight, from `before_replace`.
    pre: PreImage,
}

impl<P: JoinPlan> BoltOnIvm<P> {
    /// Builds the strategy; call [`MatchCore::rebuild`] after loading.
    pub fn new(rules: Arc<RuleSet>, ast: &Ast) -> Self {
        let plans: Vec<P> = rules
            .iter()
            .map(|(_, r)| P::new(SqlQuery::from_pattern(&r.pattern)))
            .collect();
        let db = Self::fresh_db(ast, &plans);
        BoltOnIvm {
            rules,
            db,
            plans,
            log: DeltaLog::new(),
            sealed: Vec::new(),
            pre: PreImage::default(),
        }
    }

    /// A projected shadow database: unnecessary fields projected away
    /// (§3.2), keeping only attributes the patterns' constraints read.
    fn fresh_db(ast: &Ast, plans: &[P]) -> Database {
        let refs: Vec<&SqlQuery> = plans.iter().map(P::query).collect();
        let projection = tt_relational::Projection::for_queries(ast.schema(), &refs);
        Database::with_projection(ast.schema().clone(), projection)
    }

    /// Sequentially applies one node-granularity delta: deletions probe
    /// then remove from the shadow copy; insertions add then probe.
    fn apply_delta(&mut self, delta: &NodeDelta) {
        match delta {
            NodeDelta::Remove(label, row) => {
                for plan in &mut self.plans {
                    feed(plan, &self.db, *label, row, -1);
                }
                self.db.remove(*label, row.id);
            }
            NodeDelta::Insert(label, row) => {
                self.db.insert(*label, row.clone());
                for plan in &mut self.plans {
                    feed(plan, &self.db, *label, row, 1);
                }
            }
        }
    }

    /// Routes node events through the epoch log: staged inside an open
    /// epoch, applied at once outside one. Out-of-epoch events apply
    /// directly, so a sealed epoch still awaiting its committer replays
    /// first to keep the event stream in submission order.
    fn stream(&mut self, deltas: impl IntoIterator<Item = NodeDelta>) {
        if !self.log.is_open() {
            self.apply_submitted();
        }
        for delta in deltas {
            if let Some(delta) = self.log.absorb(delta) {
                self.apply_delta(&delta);
            }
        }
    }

    /// Replays everything staged in the open epoch through the normal
    /// sequential path — net deltas only, opposing pairs already gone.
    /// A sealed epoch awaiting its committer replays first (the owning
    /// session may apply it early; the committer's later `apply_submitted`
    /// then finds the slot empty), preserving epoch order.
    fn flush_pending(&mut self) {
        self.apply_submitted();
        for delta in self.log.take_pending() {
            self.apply_delta(&delta);
        }
    }

    /// Test oracle: the top view of each pattern must equal a from-scratch
    /// evaluation over the shadow database, row by row, and so must the
    /// plan's own state.
    pub fn check_views_correct(&self) -> Result<(), String> {
        for (id, plan) in self.plans.iter().enumerate() {
            let expected = tt_relational::evaluate(&self.db, plan.query());
            let view = plan.view();
            if view.len() != expected.len() {
                return Err(format!(
                    "{} view {id} has {} rows, expected {}",
                    P::NAME,
                    view.len(),
                    expected.len()
                ));
            }
            if let Some(row) = expected.iter().find(|row| view.multiplicity(row) != 1) {
                return Err(format!("{} view {id} missing row {row:?}", P::NAME));
            }
            plan.check_internal(&expected)
                .map_err(|e| format!("{} view {id}: {e}", P::NAME))?;
        }
        Ok(())
    }

    /// The rule set this engine serves.
    pub fn rules(&self) -> &Arc<RuleSet> {
        &self.rules
    }
}

/// Feeds one tuple delta to every atom of `plan` that `label` aliases.
/// For self-joins such as `Project(Project(…))`, atoms go ascending for
/// deletions and descending for insertions, so each step sees exactly
/// the telescoped database state it needs (`Q(R−t) − Q(R)` decomposed
/// one occurrence at a time).
fn feed<P: JoinPlan>(plan: &mut P, db: &Database, label: Label, row: &NodeRow, sign: i64) {
    let width = plan.query().width();
    for i in 0..width {
        let atom = if sign < 0 { i } else { width - 1 - i };
        if plan.query().atoms[atom].label == label {
            plan.process(db, row, atom, sign);
        }
    }
}

impl<P: JoinPlan> MatchCore for BoltOnIvm<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn rebuild(&mut self, ast: &Ast) {
        self.db = Self::fresh_db(ast, &self.plans);
        for plan in &mut self.plans {
            plan.clear();
        }
        self.log.clear();
        self.sealed.clear();
        if ast.root().is_null() {
            return;
        }
        // Replay every node as an insertion through the incremental path.
        for n in ast.descendants(ast.root()) {
            let label = ast.label(n);
            let row = NodeRow::of(ast, n);
            self.apply_delta(&NodeDelta::Insert(label, row));
        }
    }

    fn find_one(&mut self, _ast: &Ast, rule: RuleId) -> Option<NodeId> {
        self.flush_pending();
        self.plans[rule].view().any_root()
    }

    fn before_replace(&mut self, ast: &Ast, old_root: NodeId, rule: Option<(RuleId, &Bindings)>) {
        // Node-granularity engines act on the post event stream, but the
        // rows it removes must be read while the tree is intact.
        self.pre.capture(&self.rules, ast, old_root, rule);
    }

    fn after_replace(&mut self, ast: &Ast, ctx: &ReplaceCtx<'_>) {
        let deltas = self.pre.deltas(ast, ctx);
        self.stream(deltas);
    }

    fn on_graft(&mut self, ast: &Ast, created: &[NodeId]) {
        self.stream(
            created
                .iter()
                .map(|&n| NodeDelta::Insert(ast.label(n), NodeRow::of(ast, n))),
        );
    }

    fn check_consistent(&self, ast: &Ast) -> Result<(), String> {
        if !self.log.is_empty() {
            return Err(format!(
                "{} engine has staged deltas in an open batch",
                P::NAME
            ));
        }
        if !self.sealed.is_empty() {
            return Err(format!(
                "{} engine has a sealed epoch awaiting its committer",
                P::NAME
            ));
        }
        common::check_shadow_db(&self.db, ast)?;
        self.check_views_correct()
    }

    fn memory_bytes(&self) -> usize {
        // Shadow copy + materialized joins + staged deltas: the §3.2
        // overhead story.
        self.db.memory_bytes()
            + self.plans.iter().map(P::memory_bytes).sum::<usize>()
            + self.log.memory_bytes()
            + self.sealed.capacity() * std::mem::size_of::<NodeDelta>()
            + self
                .sealed
                .iter()
                .map(|d| d.row().heap_bytes())
                .sum::<usize>()
    }

    fn match_heat(&self) -> usize {
        // Materialized match-view sizes; the unflushed delta log and any
        // sealed-but-unapplied epoch are work the views haven't absorbed
        // yet, so they count as heat too.
        self.plans.iter().map(|p| p.view().len()).sum::<usize>()
            + self.log.len()
            + self.sealed.len()
    }
}

impl<P: JoinPlan> EpochOps for BoltOnIvm<P> {
    fn begin_batch(&mut self) {
        self.log.begin();
    }

    fn submit_commit(&mut self) -> bool {
        // Appending preserves replay order even when the previous sealed
        // epoch is still in flight: the committer drains the whole vec
        // sequentially, which is exactly the synchronous apply order.
        let pending = self.log.take_pending();
        self.log.end();
        if pending.is_empty() {
            return false;
        }
        if self.sealed.is_empty() {
            self.sealed = pending;
        } else {
            self.sealed.extend(pending);
        }
        true
    }

    fn apply_submitted(&mut self) -> bool {
        if self.sealed.is_empty() {
            return false;
        }
        let sealed = std::mem::take(&mut self.sealed);
        for delta in &sealed {
            self.apply_delta(delta);
        }
        true
    }

    fn has_submitted(&self) -> bool {
        !self.sealed.is_empty()
    }

    fn batch_cancellation(&self) -> Option<(u64, u64)> {
        Some(self.log.epoch_stats())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::classic::PrefixPlan;
    use crate::dbtoaster::SubsetPlan;
    use treetoaster_core::generator::reuse;
    use treetoaster_core::{RewriteRule, RuleFired};
    use tt_ast::schema::arith_schema;
    use tt_ast::sexpr::{parse_sexpr, to_sexpr};
    use tt_ast::Value;
    use tt_pattern::dsl as p;
    use tt_pattern::{find_first, match_node, Pattern};

    /// `Arith(op) ⋈ Const(val) ⋈ Var`: `AddZero` for `op="+"`, `val=0`.
    fn arith_rule(name: &str, op: &str, val: i64, reused: &str) -> RewriteRule {
        let s = arith_schema();
        let pattern = Pattern::compile(
            &s,
            p::node(
                "Arith",
                "A",
                [
                    p::node("Const", "B", [], p::eq(p::attr("B", "val"), p::int(val))),
                    p::node("Var", reused, [], p::tru()),
                ],
                p::eq(p::attr("A", "op"), p::str_(op)),
            ),
        );
        RewriteRule::new(name, &s, pattern, reuse(reused))
    }

    /// The running example's rule set: `AddZero` alone.
    pub(crate) fn rules() -> Arc<RuleSet> {
        Arc::new(RuleSet::from_rules(vec![arith_rule(
            "AddZero", "+", 0, "C",
        )]))
    }

    /// Parses `text` into a rooted arithmetic tree.
    pub(crate) fn tree(text: &str) -> Ast {
        let mut ast = Ast::new(arith_schema());
        let id = parse_sexpr(&mut ast, text).unwrap();
        ast.set_root(id);
        ast
    }

    /// Fires rule `rid` at `site` with the notifications a host sends.
    pub(crate) fn fire<P: JoinPlan>(
        engine: &mut BoltOnIvm<P>,
        ast: &mut Ast,
        rid: usize,
        site: NodeId,
    ) {
        let rules = engine.rules().clone();
        let rule = rules.get(rid);
        let bindings = match_node(ast, site, &rule.pattern).unwrap();
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

    /// The first `rid` site by the naive matcher, which leaves the
    /// engine's epoch log untouched (`find_one` would flush it).
    fn naive_site(ast: &Ast, rules: &RuleSet, rid: usize) -> NodeId {
        find_first(ast, ast.root(), &rules.get(rid).pattern)
            .unwrap()
            .0
    }

    /// A rewrite below a non-site makes its parent an `AddZero` site.
    /// Run by `classic::tests` and `dbtoaster::tests` on their plan.
    pub(crate) fn cascading_rewrite_exposes_parent_match<P: JoinPlan>() {
        let rules = Arc::new(RuleSet::from_rules(vec![
            arith_rule("AddZero", "+", 0, "C"),
            arith_rule("MulOne", "*", 1, "V"),
        ]));
        let mut ast =
            tree(r#"(Arith op="+" (Const val=0) (Arith op="*" (Const val=1) (Var name="y")))"#);
        let mut engine = BoltOnIvm::<P>::new(rules, &ast);
        engine.rebuild(&ast);
        assert!(engine.find_one(&ast, 0).is_none());
        let site = engine.find_one(&ast, 1).unwrap();
        fire(&mut engine, &mut ast, 1, site);
        engine.check_views_correct().unwrap();
        let site = engine
            .find_one(&ast, 0)
            .unwrap_or_else(|| panic!("{}: parent became an AddZero site", P::NAME));
        fire(&mut engine, &mut ast, 0, site);
        engine.check_views_correct().unwrap();
        assert_eq!(to_sexpr(&ast, ast.root()), r#"(Var name="y")"#);
    }

    /// A pattern that repeats a label counts both nested sites.
    /// Run by `classic::tests` and `dbtoaster::tests` on their plan.
    pub(crate) fn self_join_pattern_counts_correctly<P: JoinPlan>() {
        // Pattern with repeated label: Arith over (Arith, Any).
        let s = arith_schema();
        let pattern = Pattern::compile(
            &s,
            p::node(
                "Arith",
                "A",
                [
                    p::node("Arith", "B", [p::any(), p::any()], p::tru()),
                    p::any(),
                ],
                p::tru(),
            ),
        );
        let rule = RewriteRule::new(
            "Nested",
            &s,
            pattern,
            treetoaster_core::generator::gen(
                "Const",
                [("val", treetoaster_core::generator::aconst(Value::Int(0)))],
                [],
            ),
        );
        let rules = Arc::new(RuleSet::from_rules(vec![rule]));
        // ((2*y)+x)*z shape: Arith(Arith(Arith(c,v),v),v) — two nested sites.
        let ast = tree(
            r#"(Arith op="*" (Arith op="+" (Arith op="*" (Const val=2) (Var name="y")) (Var name="x")) (Var name="z"))"#,
        );
        let mut engine = BoltOnIvm::<P>::new(rules, &ast);
        engine.rebuild(&ast);
        engine.check_views_correct().unwrap();
        assert_eq!(engine.plans[0].view().len(), 2, "{}", P::NAME);
    }

    /// Two rewrites in one epoch telescope their parent updates in the log.
    /// Run by `classic::tests` and `dbtoaster::tests` on their plan.
    pub(crate) fn batched_epoch_coalesces_and_commits_correctly<P: JoinPlan>() {
        // Two AddZero sites under one parent, fired inside one epoch.
        // The two parent-image updates must telescope in the log
        // before commit replays the net stream.
        let mut ast = tree(
            r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="a")) (Arith op="+" (Const val=0) (Var name="b")))"#,
        );
        let rules = rules();
        let mut engine = BoltOnIvm::<P>::new(rules.clone(), &ast);
        engine.rebuild(&ast);
        engine.begin_batch();
        for _ in 0..2 {
            let site = naive_site(&ast, &rules, 0);
            fire(&mut engine, &mut ast, 0, site);
        }
        assert!(engine.log.staged() > 0, "{}", P::NAME);
        engine.commit_batch();
        assert!(
            engine.log.coalesced() >= 2,
            "{}: overlapping parent updates must cancel",
            P::NAME
        );
        engine.check_consistent(&ast).unwrap();
        assert!(engine.find_one(&ast, 0).is_none());
        ast.validate().unwrap();
    }

    #[test]
    fn mid_epoch_find_reconciles_on_read() {
        fn run<P: JoinPlan>() {
            let mut ast = tree(
                r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="b")) (Var name="x"))"#,
            );
            let mut engine = BoltOnIvm::<P>::new(rules(), &ast);
            engine.rebuild(&ast);
            engine.begin_batch();
            let site = engine.find_one(&ast, 0).unwrap();
            fire(&mut engine, &mut ast, 0, site);
            // The bolt-on cannot overlay: the read flushes the pending log.
            assert!(engine.find_one(&ast, 0).is_none(), "{}", P::NAME);
            engine.commit_batch();
            engine.check_consistent(&ast).unwrap();
        }
        run::<PrefixPlan>();
        run::<SubsetPlan>();
    }

    #[test]
    fn sealed_epoch_replays_before_later_events() {
        fn run<P: JoinPlan>() {
            // AddZero at the inner `+` turns the outer `+` into a site.
            let mut ast =
                tree(r#"(Arith op="+" (Const val=0) (Arith op="+" (Const val=0) (Var name="y")))"#);
            let rules = rules();
            let mut engine = BoltOnIvm::<P>::new(rules.clone(), &ast);
            engine.rebuild(&ast);
            engine.begin_batch();
            let inner = naive_site(&ast, &rules, 0);
            fire(&mut engine, &mut ast, 0, inner);
            assert!(engine.submit_commit(), "{}: the epoch is sealed", P::NAME);

            // Outside any epoch, and with no `find_one` to flush the
            // sealed epoch: graft `Arith(*, root, Var z)` above the root
            // (its nodes reuse the arena ids the sealed epoch freed)…
            let outer = ast.root();
            let schema = ast.schema().clone();
            ast.detach(outer);
            let z = ast.alloc(schema.label("Var").unwrap(), [Value::str("z")], []);
            let top = ast.alloc(
                schema.label("Arith").unwrap(),
                [Value::str("*")],
                [outer, z],
            );
            ast.set_root(top);
            engine.on_graft(&ast, &[z, top]);
            // …then rewrite the site whose row the sealed epoch inserted.
            assert_eq!(naive_site(&ast, &rules, 0), outer);
            fire(&mut engine, &mut ast, 0, outer);

            // A committer arriving late must find nothing left to replay
            // behind the later events.
            engine.apply_submitted();
            engine.check_consistent(&ast).unwrap();
            assert!(engine.find_one(&ast, 0).is_none(), "{}", P::NAME);
            assert_eq!(
                to_sexpr(&ast, ast.root()),
                r#"(Arith op="*" (Var name="y") (Var name="z"))"#
            );
        }
        run::<PrefixPlan>();
        run::<SubsetPlan>();
    }

    #[test]
    fn memory_includes_shadow_copy() {
        fn run<P: JoinPlan>() {
            let ast = tree(r#"(Arith op="+" (Const val=0) (Var name="b"))"#);
            let mut engine = BoltOnIvm::<P>::new(rules(), &ast);
            engine.rebuild(&ast);
            assert!(engine.memory_bytes() > 0, "{}", P::NAME);
            assert!(engine.memory_bytes() >= engine.db.memory_bytes());
        }
        run::<PrefixPlan>();
        run::<SubsetPlan>();
    }
}
