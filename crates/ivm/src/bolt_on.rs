//! The one bolt-on engine (paper §3): everything Classic and DBT share
//! around the single decision that separates them.
//!
//! A bolt-on engine sees the AST only as the flat node-event stream of
//! its relational encoding, so it keeps a projected **shadow copy** of
//! the pattern-relevant tree and replays every insert/delete through one
//! [`JoinPlan`] per rule. [`BoltOnIvm`] owns all of that once; the plans
//! decide only which join results are materialized:
//!
//! - [`crate::classic::PrefixPlan`] — one left-deep plan with every
//!   prefix join kept (the evaluation's **Classic**);
//! - [`crate::dbtoaster::SubsetPlan`] — one map per connected sub-join
//!   (the evaluation's **DBT**).
//!
//! ### Epochs
//!
//! The shadow copy is the integral of the event stream, so an epoch
//! records only each touched node's latest image, or that the node was
//! destroyed. Landing the epoch diffs each entry against the shadow copy
//! (label and projected row): first it removes, in ascending id order,
//! the row of every node that is gone or whose image changed, then it
//! inserts every new or changed image. A node born and destroyed in the
//! epoch, or re-imaged back to its old row, never reaches the plans.
//! Outside an epoch each event applies directly, after any sealed epoch
//! lands.

use crate::common::{self, PreImage, ViewCore};
use std::sync::Arc;
use treetoaster_core::{EpochOps, MatchCore, ReplaceCtx, RuleId, RuleSet};
use tt_ast::{Ast, Label, NodeId, NodeMap, NodeRow};
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

/// One epoch: each node it touched → its latest (projected) image, or
/// `None` once the node is destroyed.
type Images = NodeMap<Option<(Label, NodeRow)>>;

/// A bolt-on IVM strategy: a shadow database, the open and sealed
/// epochs, and one [`JoinPlan`] per rule.
pub struct BoltOnIvm<P> {
    rules: Arc<RuleSet>,
    /// The projected shadow copy of the pattern-relevant tree (§3.2).
    pub(crate) db: Database,
    /// One plan per rule, indexed by [`RuleId`].
    pub(crate) plans: Vec<P>,
    /// True between `begin_batch` and `submit_commit`.
    in_epoch: bool,
    /// The open epoch. Bolt-ons can only answer `find_one` from the
    /// shadow copy, so a read inside an epoch lands it first — the
    /// asymmetry §3.2 predicts.
    open: Images,
    /// The epoch sealed by `submit_commit`, awaiting its committer. It
    /// lands before any later event does, so events reach the plans in
    /// submission order.
    sealed: Images,
    /// `(staged, emitted)` events of the open, else the most recently
    /// closed, epoch. Emission is counted when the epoch lands.
    counts: (u64, u64),
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
            in_epoch: false,
            open: Images::new(),
            sealed: Images::new(),
            counts: (0, 0),
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

    /// Stages node events in the open epoch. Outside an epoch the sealed
    /// epoch lands first and each event then applies directly.
    fn stream(&mut self, deltas: impl IntoIterator<Item = NodeDelta>) {
        if self.in_epoch {
            deltas.into_iter().for_each(|delta| self.stage(delta));
            return;
        }
        self.land_sealed();
        for delta in deltas {
            match delta {
                NodeDelta::Remove(label, row) => {
                    remove(&mut self.db, &mut self.plans, label, row.id)
                }
                NodeDelta::Insert(label, row) => insert(&mut self.db, &mut self.plans, label, row),
            }
        }
    }

    /// Records one event as its node's latest image. The node's current
    /// image is looked up in the open epoch, then the sealed one, then
    /// the shadow copy; an insert of a present node or a remove of an
    /// absent one breaks the stream's alternation and panics.
    fn stage(&mut self, delta: NodeDelta) {
        let (is_insert, label, mut row) = match delta {
            NodeDelta::Insert(label, row) => (true, label, row),
            NodeDelta::Remove(label, row) => (false, label, row),
        };
        let id = row.id;
        let current = match self.open.get(id).or_else(|| self.sealed.get(id)) {
            Some(image) => image.as_ref().map(|&(label, _)| label),
            None => self.db.find_row(id).map(|(label, _)| label),
        };
        let expected = if is_insert { None } else { Some(label) };
        assert!(
            current == expected,
            "delta stream violated insert/remove alternation for {id:?}: \
             the node is {current:?}, the event needs {expected:?}"
        );
        self.counts.0 += 1;
        let image = is_insert.then(|| {
            if let Some(projection) = self.db.projection() {
                projection.apply(label, &mut row);
            }
            (label, row)
        });
        self.open.insert(id, image);
    }

    /// Lands the sealed epoch, if any. Its events count as emitted only
    /// while no newer epoch is open.
    fn land_sealed(&mut self) -> bool {
        if self.sealed.is_empty() {
            return false;
        }
        let emitted = land(&mut self.db, &mut self.plans, &mut self.sealed);
        if !self.in_epoch {
            self.counts.1 += emitted;
        }
        true
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

/// Lands `epoch` on the shadow copy and the plans, leaving it empty with
/// its pages kept: each entry minus the image the shadow copy holds,
/// removals before insertions. Returns the number of row events fed.
fn land<P: JoinPlan>(db: &mut Database, plans: &mut [P], epoch: &mut Images) -> u64 {
    let mut emitted = 0;
    for (id, image) in epoch.iter() {
        let Some((label, old)) = db.find_row(id) else {
            continue;
        };
        if image
            .as_ref()
            .is_some_and(|(l, row)| *l == label && row == old)
        {
            continue;
        }
        remove(db, plans, label, id);
        emitted += 1;
    }
    for (id, image) in epoch.drain() {
        match image {
            // Unchanged images are still in the shadow copy.
            Some((label, row)) if db.table(label).get(id).is_none() => {
                insert(db, plans, label, row);
                emitted += 1;
            }
            _ => {}
        }
    }
    emitted
}

/// Feeds the removal of a row to every plan, then drops it from the
/// shadow copy.
fn remove<P: JoinPlan>(db: &mut Database, plans: &mut [P], label: Label, id: NodeId) {
    let row = db
        .table(label)
        .get(id)
        .expect("removed row is in the shadow copy");
    for plan in plans {
        feed(plan, db, label, row, -1);
    }
    db.remove(label, id);
}

/// Adds one row to the shadow copy, then feeds it to every plan.
fn insert<P: JoinPlan>(db: &mut Database, plans: &mut [P], label: Label, row: NodeRow) {
    let id = row.id;
    db.insert(label, row);
    let row = db.table(label).get(id).expect("row just inserted");
    for plan in plans {
        feed(plan, db, label, row, 1);
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

/// Heap bytes of one epoch: its pages plus the rows it holds.
fn staged_bytes(epoch: &Images) -> usize {
    epoch.memory_bytes()
        + epoch
            .iter()
            .filter_map(|(_, image)| image.as_ref())
            .map(|(_, row)| row.heap_bytes())
            .sum::<usize>()
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
        // Drained rather than cleared, so the staged rows' heap is freed
        // now instead of lingering unreported in stale pages.
        self.open.drain().for_each(drop);
        self.sealed.drain().for_each(drop);
        if ast.root().is_null() {
            return;
        }
        // Replay every node as an insertion through the incremental path.
        for n in ast.descendants(ast.root()) {
            insert(
                &mut self.db,
                &mut self.plans,
                ast.label(n),
                NodeRow::of(ast, n),
            );
        }
    }

    fn find_one(&mut self, _ast: &Ast, rule: RuleId) -> Option<NodeId> {
        self.land_sealed();
        let emitted = land(&mut self.db, &mut self.plans, &mut self.open);
        if self.in_epoch {
            self.counts.1 += emitted;
        }
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
        if !self.open.is_empty() {
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
        // Shadow copy + materialized joins + staged epochs: the §3.2
        // overhead story.
        self.db.memory_bytes()
            + self.plans.iter().map(P::memory_bytes).sum::<usize>()
            + staged_bytes(&self.open)
            + staged_bytes(&self.sealed)
    }

    fn match_heat(&self) -> usize {
        // Materialized match-view sizes; the open and sealed epochs are
        // work the views haven't absorbed yet, so they count as heat too.
        self.plans.iter().map(|p| p.view().len()).sum::<usize>()
            + self.open.len()
            + self.sealed.len()
    }
}

impl<P: JoinPlan> EpochOps for BoltOnIvm<P> {
    fn begin_batch(&mut self) {
        if !self.in_epoch {
            self.in_epoch = true;
            self.counts = (0, 0);
        }
    }

    fn submit_commit(&mut self) -> bool {
        if !self.in_epoch {
            return false;
        }
        // At most one epoch in flight: an older seal lands first.
        self.land_sealed();
        self.in_epoch = false;
        std::mem::swap(&mut self.open, &mut self.sealed);
        !self.sealed.is_empty()
    }

    fn apply_submitted(&mut self) -> bool {
        self.land_sealed()
    }

    fn has_submitted(&self) -> bool {
        !self.sealed.is_empty()
    }

    fn batch_cancellation(&self) -> Option<(u64, u64)> {
        let (staged, emitted) = self.counts;
        Some((staged, staged - emitted))
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
    /// engine's open epoch unlanded (`find_one` would land it).
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

    /// Two rewrites in one epoch telescope their parent updates.
    /// Run by `classic::tests` and `dbtoaster::tests` on their plan.
    pub(crate) fn batched_epoch_coalesces_and_commits_correctly<P: JoinPlan>() {
        // Two AddZero sites under one parent, fired inside one epoch.
        // The two parent-image updates must telescope before the
        // epoch lands.
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
        engine.commit_batch();
        let (staged, canceled) = engine.batch_cancellation().unwrap();
        assert!(staged > 0, "{}", P::NAME);
        assert!(
            canceled >= 2,
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
            // The bolt-on cannot overlay: the read lands the open epoch.
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

            // Outside any epoch, and with no `find_one` to land the
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

    /// A plan that only records the row events it is fed, in order, as
    /// `(sign, label, id, children)`.
    struct Recorder {
        query: SqlQuery,
        view: ViewCore,
        fed: Vec<(i64, Label, u32, Vec<u32>)>,
    }

    impl JoinPlan for Recorder {
        const NAME: &'static str = "Recorder";

        fn new(query: SqlQuery) -> Self {
            Recorder {
                query,
                view: ViewCore::default(),
                fed: Vec::new(),
            }
        }

        fn query(&self) -> &SqlQuery {
            &self.query
        }

        fn process(&mut self, _db: &Database, row: &NodeRow, atom: usize, sign: i64) {
            let children = row.children.iter().map(|c| c.index()).collect();
            let label = self.query.atoms[atom].label;
            self.fed.push((sign, label, row.id.index(), children));
        }

        fn view(&self) -> &ViewCore {
            &self.view
        }

        fn clear(&mut self) {
            self.fed.clear();
        }

        fn memory_bytes(&self) -> usize {
            0
        }

        fn check_internal(&self, _expected: &[JoinRow]) -> Result<(), String> {
            Ok(())
        }
    }

    /// A recording engine over an empty tree; `AddZero` has one atom per
    /// arithmetic label, so each landed row event is recorded once.
    fn recorder() -> BoltOnIvm<Recorder> {
        let mut engine = BoltOnIvm::<Recorder>::new(rules(), &Ast::new(arith_schema()));
        engine.rebuild(&Ast::new(arith_schema()));
        engine
    }

    fn label(name: &str) -> Label {
        arith_schema().label(name).unwrap()
    }

    /// A row of `name` (`Arith` takes children, the leaves none).
    fn row(name: &str, id: u32, children: &[u32]) -> (Label, NodeRow) {
        let row = NodeRow {
            id: NodeId::from_index(id),
            attrs: vec![Value::Unit],
            children: children.iter().map(|&c| NodeId::from_index(c)).collect(),
        };
        (label(name), row)
    }

    fn ins((label, row): (Label, NodeRow)) -> NodeDelta {
        NodeDelta::Insert(label, row)
    }

    fn rem((label, row): (Label, NodeRow)) -> NodeDelta {
        NodeDelta::Remove(label, row)
    }

    /// Applies `events` outside any epoch and forgets what they fed.
    fn preload(engine: &mut BoltOnIvm<Recorder>, events: Vec<NodeDelta>) {
        engine.stream(events);
        engine.plans[0].fed.clear();
    }

    /// Runs `events` as one epoch, one `stream` call per event, and
    /// returns what landing fed the plan.
    fn epoch(
        engine: &mut BoltOnIvm<Recorder>,
        events: Vec<NodeDelta>,
    ) -> Vec<(i64, Label, u32, Vec<u32>)> {
        engine.begin_batch();
        for event in events {
            engine.stream([event]);
        }
        engine.commit_batch();
        std::mem::take(&mut engine.plans[0].fed)
    }

    #[test]
    fn insert_then_remove_annihilates() {
        let mut engine = recorder();
        let fed = epoch(
            &mut engine,
            vec![ins(row("Const", 1, &[])), rem(row("Const", 1, &[]))],
        );
        assert!(fed.is_empty());
        assert_eq!(engine.batch_cancellation(), Some((2, 2)));
        assert!(engine.db.is_empty());
    }

    #[test]
    fn remove_then_identical_reinsert_is_unchanged() {
        let mut engine = recorder();
        preload(&mut engine, vec![ins(row("Arith", 7, &[3]))]);
        let fed = epoch(
            &mut engine,
            vec![rem(row("Arith", 7, &[3])), ins(row("Arith", 7, &[3]))],
        );
        assert!(fed.is_empty());
        assert_eq!(engine.batch_cancellation(), Some((2, 2)));
    }

    #[test]
    fn overlapping_parent_updates_telescope() {
        // Image A→B then B→C on the same parent node: only A→C lands.
        let mut engine = recorder();
        preload(&mut engine, vec![ins(row("Arith", 5, &[10]))]);
        let fed = epoch(
            &mut engine,
            vec![
                rem(row("Arith", 5, &[10])),
                ins(row("Arith", 5, &[11])),
                rem(row("Arith", 5, &[11])),
                ins(row("Arith", 5, &[12])),
            ],
        );
        let arith = label("Arith");
        assert_eq!(fed, [(-1, arith, 5, vec![10]), (1, arith, 5, vec![12])]);
        assert_eq!(engine.batch_cancellation(), Some((4, 2)));
    }

    #[test]
    fn id_reuse_across_labels_emits_both_sides() {
        // Node freed under one label, arena slot reused under another.
        let mut engine = recorder();
        preload(&mut engine, vec![ins(row("Const", 4, &[]))]);
        let fed = epoch(
            &mut engine,
            vec![rem(row("Const", 4, &[])), ins(row("Var", 4, &[]))],
        );
        assert_eq!(
            fed,
            [
                (-1, label("Const"), 4, vec![]),
                (1, label("Var"), 4, vec![])
            ]
        );
    }

    #[test]
    fn removals_emit_before_insertions() {
        // Even where the inserted node has the lower id.
        let mut engine = recorder();
        preload(&mut engine, vec![ins(row("Const", 2, &[]))]);
        let fed = epoch(
            &mut engine,
            vec![ins(row("Const", 1, &[])), rem(row("Const", 2, &[]))],
        );
        let c = label("Const");
        assert_eq!(fed, [(-1, c, 2, vec![]), (1, c, 1, vec![])]);
    }

    #[test]
    fn born_died_reborn_keeps_last_image() {
        let mut engine = recorder();
        let fed = epoch(
            &mut engine,
            vec![
                ins(row("Arith", 9, &[1])),
                rem(row("Arith", 9, &[1])),
                ins(row("Arith", 9, &[2])),
            ],
        );
        assert_eq!(fed, [(1, label("Arith"), 9, vec![2])]);
    }

    #[test]
    fn mid_epoch_flush_lets_the_epoch_continue() {
        let mut engine = recorder();
        let ast = Ast::new(arith_schema());
        let c = label("Const");
        engine.begin_batch();
        engine.stream([ins(row("Const", 1, &[]))]);
        engine.find_one(&ast, 0);
        assert_eq!(engine.plans[0].fed, [(1, c, 1, vec![])]);
        assert!(engine.in_epoch, "a read does not close the epoch");
        engine.stream([ins(row("Const", 2, &[]))]);
        assert_eq!(engine.plans[0].fed.len(), 1, "later events stay staged");
        engine.commit_batch();
        assert_eq!(engine.plans[0].fed, [(1, c, 1, vec![]), (1, c, 2, vec![])]);
        assert_eq!(engine.batch_cancellation(), Some((2, 0)));
    }

    #[test]
    #[should_panic(expected = "alternation")]
    fn double_insert_is_a_protocol_violation() {
        let mut engine = recorder();
        engine.begin_batch();
        engine.stream([ins(row("Const", 1, &[]))]);
        engine.stream([ins(row("Const", 1, &[]))]);
    }

    #[test]
    fn open_epoch_sees_the_unlanded_sealed_epoch() {
        // The sealed epoch destroys node 5 and creates node 6; the open
        // epoch re-creates 5 and destroys 6. Both are legal only if the
        // open epoch's lookups go through the sealed one.
        let mut engine = recorder();
        preload(&mut engine, vec![ins(row("Arith", 5, &[10]))]);
        engine.begin_batch();
        engine.stream([rem(row("Arith", 5, &[10])), ins(row("Const", 6, &[]))]);
        assert!(engine.submit_commit());
        engine.begin_batch();
        engine.stream([ins(row("Arith", 5, &[12])), rem(row("Const", 6, &[]))]);
        assert!(engine.plans[0].fed.is_empty(), "nothing has landed yet");
        engine.commit_batch();
        let (a, c) = (label("Arith"), label("Const"));
        assert_eq!(
            engine.plans[0].fed,
            [
                (-1, a, 5, vec![10]),
                (1, c, 6, vec![]),
                (-1, c, 6, vec![]),
                (1, a, 5, vec![12])
            ],
            "the sealed epoch lands whole before the open one"
        );
        assert!(!engine.has_submitted());
        assert_eq!(engine.db.len(), 1);
    }
}
