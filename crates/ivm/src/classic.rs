//! Classic cascading IVM (Ross et al. \[35\]; the evaluation's **Classic**,
//! i.e. DBToaster with `--depth=1`).
//!
//! For each pattern query, one left-deep join plan over the atoms in
//! pattern preorder, with **every prefix join materialized**: for the
//! running example `(Arith ⋈ Const) ⋈ Var`, both `P₁ = σ(Arith)` and
//! `P₂ = P₁ ⋈ Const` are kept, so a tuple inserted into `Var` only needs
//! the cheap join `P₂ ⋈ t` (Example 3.3). The flip side — the paper's
//! point — is that "updates are now (slightly) more expensive as multiple
//! views may need to be updated", and updates to relations *early* in the
//! plan cascade through every suffix level.
//!
//! Deltas arrive at node granularity. For a tuple whose label aliases
//! several atoms (self-joins such as `Project(Project(…))`), atoms are
//! processed ascending for deletions and descending for insertions; each
//! step then sees exactly the telescoped database state it needs
//! (`Q(R−t) − Q(R)` decomposed one occurrence at a time).

use crate::common::{self, ViewCore};
use std::sync::Arc;
use treetoaster_core::{EpochOps, MatchCore, ReplaceCtx, RuleId, RuleSet};
use tt_ast::{Ast, FxHashMap, NodeId, NodeRow};
use tt_pattern::{Bindings, SqlQuery, VarId};
use tt_relational::{Database, NodeDelta};

/// A materialized prefix join `P_i` (atoms `0..=i` of the plan).
#[derive(Debug, Default)]
struct PrefixTable {
    /// Partial row (full variable space, unbound = NULL) → (multiplicity,
    /// the join key the *next* atom must equal, or NULL if inextensible).
    rows: FxHashMap<Box<[NodeId]>, (i64, NodeId)>,
    /// next-join-key → rows, for `ΔP = P ⋈ t` probes.
    by_next_key: FxHashMap<NodeId, Vec<Box<[NodeId]>>>,
}

impl PrefixTable {
    fn add(&mut self, row: &[NodeId], next_key: NodeId, delta: i64) {
        let entry = self.rows.entry(row.into()).or_insert((0, next_key));
        let old_positive = entry.0 > 0;
        entry.0 += delta;
        let stored_key = entry.1;
        let new_positive = entry.0 > 0;
        if entry.0 == 0 {
            self.rows.remove(row);
        }
        match (old_positive, new_positive) {
            (false, true) if !stored_key.is_null() => {
                self.by_next_key
                    .entry(stored_key)
                    .or_default()
                    .push(row.into());
            }
            (true, false) if !stored_key.is_null() => {
                let bucket = self
                    .by_next_key
                    .get_mut(&stored_key)
                    .expect("indexed row missing bucket");
                let at = bucket
                    .iter()
                    .position(|r| r.as_ref() == row)
                    .expect("indexed row missing");
                bucket.swap_remove(at);
                if bucket.is_empty() {
                    self.by_next_key.remove(&stored_key);
                }
            }
            _ => {}
        }
    }

    fn probe(&self, key: NodeId) -> impl Iterator<Item = &Box<[NodeId]>> {
        self.by_next_key.get(&key).into_iter().flatten()
    }

    fn memory_bytes(&self) -> usize {
        let width = self.rows.keys().next().map_or(0, |k| k.len()) * std::mem::size_of::<NodeId>();
        self.rows.capacity() * (1 + std::mem::size_of::<(Box<[NodeId]>, (i64, NodeId))>() + width)
            + self
                .by_next_key
                .values()
                .map(|v| v.capacity() * (std::mem::size_of::<Box<[NodeId]>>() + width))
                .sum::<usize>()
    }
}

/// Per-pattern state: the plan, its filter schedule, the prefixes, and
/// the top view.
struct ClassicQuery {
    query: SqlQuery,
    /// For atom `i ≥ 1`: `(parent var, child index)` of its join edge.
    parent_edges: Vec<(VarId, usize)>,
    /// For level `i`: filter indices that first become evaluable there.
    filter_levels: Vec<Vec<usize>>,
    /// Prefixes `P_0 … P_{k−2}` (the last level is the view itself).
    prefixes: Vec<PrefixTable>,
    view: ViewCore,
}

impl ClassicQuery {
    fn new(query: SqlQuery) -> ClassicQuery {
        let k = query.width();
        let parent_edges: Vec<(VarId, usize)> = query.atoms[1..]
            .iter()
            .map(|atom| {
                let join = query
                    .joins
                    .iter()
                    .find(|j| j.child == atom.var)
                    .expect("non-root atom joins a parent");
                (join.parent, join.child_index)
            })
            .collect();
        // Schedule each filter at the earliest level where its variables
        // are all bound.
        let atom_vars: Vec<VarId> = query.atoms.iter().map(|a| a.var).collect();
        let mut filter_levels: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (fi, (_, constraint)) in query.filters.iter().enumerate() {
            let vars = common::filter_vars(constraint, &atom_vars);
            let level = vars
                .iter()
                .map(|v| {
                    atom_vars
                        .iter()
                        .position(|a| a == v)
                        .expect("filter var is an atom")
                })
                .max()
                .unwrap_or(0);
            filter_levels[level].push(fi);
        }
        let root_var = query.root_var();
        ClassicQuery {
            query,
            parent_edges,
            filter_levels,
            prefixes: (0..k.saturating_sub(1))
                .map(|_| PrefixTable::default())
                .collect(),
            view: ViewCore::new(root_var),
        }
    }

    /// Atom indices aliasing `label`.
    fn atoms_for(&self, label: tt_ast::Label) -> Vec<usize> {
        self.query
            .atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.label == label)
            .map(|(i, _)| i)
            .collect()
    }

    /// The join key the next atom after level `i` must equal, for `row`.
    fn next_key(&self, db: &Database, level: usize, row: &[NodeId]) -> NodeId {
        if level + 1 >= self.query.width() {
            return NodeId::NULL;
        }
        let (parent_var, child_index) = self.parent_edges[level];
        let parent_id = row[parent_var.0 as usize];
        let parent_label = self.query.atom(parent_var).label;
        let Some(parent_row) = db.table(parent_label).get(parent_id) else {
            return NodeId::NULL;
        };
        parent_row
            .children
            .get(child_index)
            .copied()
            .unwrap_or(NodeId::NULL)
    }

    /// Applies a delta row at `level`, updating the prefix (or the view
    /// at the last level).
    fn apply_level(&mut self, db: &Database, level: usize, row: &[NodeId], sign: i64) {
        if level + 1 == self.query.width() {
            self.view.add(row, sign);
        } else {
            let key = self.next_key(db, level, row);
            self.prefixes[level].add(row, key, sign);
        }
    }

    /// Processes one tuple delta arriving at atom `j`.
    fn process(&mut self, db: &Database, t: &NodeRow, j: usize, sign: i64) {
        let k = self.query.width();
        if !common::arity_ok(&self.query, j, t) {
            return;
        }
        let var_j = self.query.atoms[j].var.0 as usize;
        // Level-j delta rows.
        let mut delta: Vec<Box<[NodeId]>> = Vec::new();
        if j == 0 {
            let mut row = vec![NodeId::NULL; self.query.var_space];
            row[var_j] = t.id;
            if common::eval_filters(db, &self.query, &row, &self.filter_levels[0]) {
                delta.push(row.into_boxed_slice());
            }
        } else {
            // ΔP_j = P_{j−1} ⋈ t (Example 3.3's cheap join).
            let candidates: Vec<Box<[NodeId]>> =
                self.prefixes[j - 1].probe(t.id).cloned().collect();
            for base in candidates {
                let mut row = base.to_vec();
                row[var_j] = t.id;
                if common::eval_filters(db, &self.query, &row, &self.filter_levels[j]) {
                    delta.push(row.into_boxed_slice());
                }
            }
        }
        for row in &delta {
            self.apply_level(db, j, row, sign);
        }
        // Cascade through the suffix levels.
        let mut frontier = delta;
        for i in (j + 1)..k {
            let atom = &self.query.atoms[i];
            let var_i = atom.var.0 as usize;
            let (parent_var, child_index) = self.parent_edges[i - 1];
            let parent_label = self.query.atom(parent_var).label;
            let mut next = Vec::with_capacity(frontier.len());
            for base in &frontier {
                let parent_id = base[parent_var.0 as usize];
                let Some(parent_row) = db.table(parent_label).get(parent_id) else {
                    continue;
                };
                let Some(&child_id) = parent_row.children.get(child_index) else {
                    continue;
                };
                let Some(child_row) = db.table(atom.label).get(child_id) else {
                    continue;
                };
                if !common::arity_ok(&self.query, i, child_row) {
                    continue;
                }
                let mut row = base.to_vec();
                row[var_i] = child_id;
                if common::eval_filters(db, &self.query, &row, &self.filter_levels[i]) {
                    next.push(row.into_boxed_slice());
                }
            }
            for row in &next {
                self.apply_level(db, i, row, sign);
            }
            frontier = next;
        }
    }

    fn clear(&mut self) {
        for p in &mut self.prefixes {
            p.rows.clear();
            p.by_next_key.clear();
        }
        self.view.clear();
    }

    fn memory_bytes(&self) -> usize {
        self.prefixes
            .iter()
            .map(PrefixTable::memory_bytes)
            .sum::<usize>()
            + self.view.memory_bytes()
    }
}

/// The **Classic** bolt-on strategy.
pub struct ClassicIvm {
    rules: Arc<RuleSet>,
    db: Database,
    queries: Vec<ClassicQuery>,
    /// Epoch-scoped coalescing of the node event stream. Bolt-ons can
    /// only answer `find_one` from reconciled state, so reads inside an
    /// open epoch flush the log first (coalescing whatever accumulated
    /// since the last read) — the asymmetry §3.2 predicts.
    log: crate::batch::DeltaLog,
    /// Net delta stream of an epoch sealed by `submit_commit`, awaiting
    /// its background committer. Replay order within the vec is the
    /// order `take_pending` emitted (removals before insertions per
    /// epoch), and a second sealed epoch appends after the first, so a
    /// sequential replay is always equivalent to the synchronous path.
    sealed: Vec<NodeDelta>,
    /// Rows of the replacement in flight, from `before_replace`.
    pre: common::PreImage,
}

impl ClassicIvm {
    /// Builds the strategy; call [`MatchCore::rebuild`] after loading.
    pub fn new(rules: Arc<RuleSet>, ast: &Ast) -> ClassicIvm {
        let queries: Vec<ClassicQuery> = rules
            .iter()
            .map(|(_, r)| ClassicQuery::new(SqlQuery::from_pattern(&r.pattern)))
            .collect();
        let db = Self::fresh_db(ast, &queries);
        ClassicIvm {
            rules,
            db,
            queries,
            log: crate::batch::DeltaLog::new(),
            sealed: Vec::new(),
            pre: common::PreImage::default(),
        }
    }

    /// A projected shadow database: unnecessary fields projected away
    /// (§3.2), keeping only attributes the patterns' constraints read.
    fn fresh_db(ast: &Ast, queries: &[ClassicQuery]) -> Database {
        let refs: Vec<&SqlQuery> = queries.iter().map(|q| &q.query).collect();
        let projection = tt_relational::Projection::for_queries(ast.schema(), &refs);
        Database::with_projection(ast.schema().clone(), projection)
    }

    /// Sequentially applies one node-granularity delta: deletions probe
    /// then remove from the shadow copy; insertions add then probe.
    fn apply_delta(&mut self, delta: &NodeDelta) {
        match delta {
            NodeDelta::Remove(label, row) => {
                for q in &mut self.queries {
                    for j in q.atoms_for(*label) {
                        q.process(&self.db, row, j, -1);
                    }
                }
                self.db.remove(*label, row.id);
            }
            NodeDelta::Insert(label, row) => {
                self.db.insert(*label, row.clone());
                for q in &mut self.queries {
                    for j in q.atoms_for(*label).into_iter().rev() {
                        q.process(&self.db, row, j, 1);
                    }
                }
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
    /// evaluation over the shadow database.
    pub fn check_views_correct(&self) -> Result<(), String> {
        for (id, q) in self.queries.iter().enumerate() {
            let expected = tt_relational::evaluate(&self.db, &q.query);
            if expected.len() != q.view.len() {
                return Err(format!(
                    "classic view {} has {} rows, expected {}",
                    id,
                    q.view.len(),
                    expected.len()
                ));
            }
            for row in &expected {
                let found = q
                    .view
                    .iter()
                    .any(|(r, c)| r.as_ref() == row.as_ref() && c == 1);
                if !found {
                    return Err(format!("classic view {id} missing row {row:?}"));
                }
            }
        }
        Ok(())
    }

    /// The rule set this engine serves.
    pub fn rules(&self) -> &Arc<RuleSet> {
        &self.rules
    }
}

impl MatchCore for ClassicIvm {
    fn name(&self) -> &'static str {
        "Classic"
    }

    fn rebuild(&mut self, ast: &Ast) {
        self.db = Self::fresh_db(ast, &self.queries);
        for q in &mut self.queries {
            q.clear();
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
        self.queries[rule].view.any_root()
    }

    fn before_replace(&mut self, ast: &Ast, old_root: NodeId, rule: Option<(RuleId, &Bindings)>) {
        // Node-granularity engines act on the post event stream, but the
        // rows it removes must be read while the tree is intact.
        self.pre.capture(&self.rules, ast, old_root, rule);
    }

    fn after_replace(&mut self, ast: &Ast, ctx: &ReplaceCtx<'_>) {
        if !self.log.is_open() {
            // Out-of-epoch events apply directly, so a sealed epoch
            // still awaiting its committer must replay first to keep
            // the event stream in submission order.
            self.apply_submitted();
        }
        for delta in self.pre.deltas(ast, ctx) {
            if let Some(delta) = self.log.absorb(delta) {
                self.apply_delta(&delta);
            }
        }
    }

    fn on_graft(&mut self, ast: &Ast, created: &[NodeId]) {
        if !self.log.is_open() {
            // Same ordering rule as `after_replace`.
            self.apply_submitted();
        }
        for &n in created {
            let delta = NodeDelta::Insert(ast.label(n), NodeRow::of(ast, n));
            if let Some(delta) = self.log.absorb(delta) {
                self.apply_delta(&delta);
            }
        }
    }

    fn check_consistent(&self, ast: &Ast) -> Result<(), String> {
        if !self.log.is_empty() {
            return Err("classic engine has staged deltas in an open batch".into());
        }
        if !self.sealed.is_empty() {
            return Err("classic engine has a sealed epoch awaiting its committer".into());
        }
        common::check_shadow_db(&self.db, ast)?;
        self.check_views_correct()
    }

    fn memory_bytes(&self) -> usize {
        // Shadow copy + prefixes + views + staged deltas: the §3.2
        // overhead story.
        self.db.memory_bytes()
            + self
                .queries
                .iter()
                .map(ClassicQuery::memory_bytes)
                .sum::<usize>()
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
        self.queries.iter().map(|q| q.view.len()).sum::<usize>()
            + self.log.len()
            + self.sealed.len()
    }
}

impl EpochOps for ClassicIvm {
    fn begin_batch(&mut self) {
        self.log.begin();
    }

    fn commit_batch(&mut self) {
        self.flush_pending();
        self.log.end();
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
        self.sealed.extend(pending);
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
mod tests {
    use super::*;
    use treetoaster_core::generator::reuse;
    use treetoaster_core::{RewriteRule, RuleFired};
    use tt_ast::schema::arith_schema;
    use tt_ast::sexpr::parse_sexpr;
    use tt_pattern::dsl as p;
    use tt_pattern::{match_node, Pattern};

    fn rules() -> Arc<RuleSet> {
        let s = arith_schema();
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
        Arc::new(RuleSet::from_rules(vec![RewriteRule::new(
            "AddZero",
            &s,
            pattern,
            reuse("C"),
        )]))
    }

    fn tree(text: &str) -> Ast {
        let mut ast = Ast::new(arith_schema());
        let id = parse_sexpr(&mut ast, text).unwrap();
        ast.set_root(id);
        ast
    }

    fn fire(engine: &mut ClassicIvm, ast: &mut Ast, rid: usize, site: NodeId) {
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

    #[test]
    fn rebuild_materializes_view_and_prefixes() {
        let ast = tree(r#"(Arith op="+" (Const val=0) (Var name="b"))"#);
        let mut engine = ClassicIvm::new(rules(), &ast);
        engine.rebuild(&ast);
        engine.check_views_correct().unwrap();
        assert_eq!(engine.queries[0].view.len(), 1);
        // Prefix P0 (σ Arith with op=+) and P1 (⋈ Const val=0) exist.
        assert_eq!(engine.queries[0].prefixes.len(), 2);
        assert_eq!(engine.queries[0].prefixes[0].rows.len(), 1);
        assert_eq!(engine.queries[0].prefixes[1].rows.len(), 1);
    }

    #[test]
    fn filters_prune_prefixes() {
        // op="*" fails the level-0 filter: nothing materializes.
        let ast = tree(r#"(Arith op="*" (Const val=0) (Var name="b"))"#);
        let mut engine = ClassicIvm::new(rules(), &ast);
        engine.rebuild(&ast);
        assert!(engine.queries[0].view.is_empty());
        assert!(engine.queries[0].prefixes[0].rows.is_empty());
        engine.check_views_correct().unwrap();
    }

    #[test]
    fn rewrite_drains_view() {
        let mut ast =
            tree(r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="b")) (Var name="x"))"#);
        let mut engine = ClassicIvm::new(rules(), &ast);
        engine.rebuild(&ast);
        let site = engine.find_one(&ast, 0).unwrap();
        fire(&mut engine, &mut ast, 0, site);
        engine.check_views_correct().unwrap();
        assert!(engine.find_one(&ast, 0).is_none());
        // Shadow copy tracks the new tree size (3 nodes).
        assert_eq!(engine.db.len(), 3);
        ast.validate().unwrap();
    }

    #[test]
    fn cascading_rewrite_exposes_parent_match() {
        let s = arith_schema();
        let mul_one = {
            let pattern = Pattern::compile(
                &s,
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
            RewriteRule::new("MulOne", &s, pattern, reuse("V"))
        };
        let add_zero = {
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
        };
        let rules = Arc::new(RuleSet::from_rules(vec![add_zero, mul_one]));
        let mut ast =
            tree(r#"(Arith op="+" (Const val=0) (Arith op="*" (Const val=1) (Var name="y")))"#);
        let mut engine = ClassicIvm::new(rules, &ast);
        engine.rebuild(&ast);
        assert!(engine.find_one(&ast, 0).is_none());
        let site = engine.find_one(&ast, 1).unwrap();
        fire(&mut engine, &mut ast, 1, site);
        engine.check_views_correct().unwrap();
        assert!(
            engine.find_one(&ast, 0).is_some(),
            "parent became an AddZero site"
        );
        let site = engine.find_one(&ast, 0).unwrap();
        fire(&mut engine, &mut ast, 0, site);
        engine.check_views_correct().unwrap();
        assert_eq!(
            tt_ast::sexpr::to_sexpr(&ast, ast.root()),
            r#"(Var name="y")"#
        );
    }

    #[test]
    fn self_join_pattern_counts_correctly() {
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
                [(
                    "val",
                    treetoaster_core::generator::aconst(tt_ast::Value::Int(0)),
                )],
                [],
            ),
        );
        let rules = Arc::new(RuleSet::from_rules(vec![rule]));
        // ((2*y)+x)*z shape: Arith(Arith(Arith(c,v),v),v) — two nested sites.
        let ast = tree(
            r#"(Arith op="*" (Arith op="+" (Arith op="*" (Const val=2) (Var name="y")) (Var name="x")) (Var name="z"))"#,
        );
        let mut engine = ClassicIvm::new(rules, &ast);
        engine.rebuild(&ast);
        engine.check_views_correct().unwrap();
        assert_eq!(engine.queries[0].view.len(), 2);
    }

    #[test]
    fn batched_epoch_coalesces_and_commits_correctly() {
        // Two AddZero sites under one parent, fired inside one epoch.
        // Sites are located with the naive matcher so the engine's log is
        // never flushed mid-epoch; the two parent-image updates must
        // telescope in the log before commit replays the net stream.
        let mut ast = tree(
            r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="a")) (Arith op="+" (Const val=0) (Var name="b")))"#,
        );
        let rules = rules();
        let mut engine = ClassicIvm::new(rules.clone(), &ast);
        engine.rebuild(&ast);
        engine.begin_batch();
        for _ in 0..2 {
            let (site, _) =
                tt_pattern::find_first(&ast, ast.root(), &rules.get(0).pattern).unwrap();
            fire(&mut engine, &mut ast, 0, site);
        }
        assert!(engine.log.staged() > 0);
        engine.commit_batch();
        assert!(
            engine.log.coalesced() >= 2,
            "overlapping parent updates must cancel"
        );
        engine.check_consistent(&ast).unwrap();
        assert!(engine.find_one(&ast, 0).is_none());
        ast.validate().unwrap();
    }

    #[test]
    fn mid_epoch_find_reconciles_on_read() {
        let mut ast =
            tree(r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="b")) (Var name="x"))"#);
        let mut engine = ClassicIvm::new(rules(), &ast);
        engine.rebuild(&ast);
        engine.begin_batch();
        let site = engine.find_one(&ast, 0).unwrap();
        fire(&mut engine, &mut ast, 0, site);
        // The bolt-on cannot overlay: the read flushes the pending log.
        assert!(engine.find_one(&ast, 0).is_none());
        engine.commit_batch();
        engine.check_consistent(&ast).unwrap();
    }

    #[test]
    fn memory_includes_shadow_copy() {
        let ast = tree(r#"(Arith op="+" (Const val=0) (Var name="b"))"#);
        let mut engine = ClassicIvm::new(rules(), &ast);
        engine.rebuild(&ast);
        assert!(engine.memory_bytes() > 0);
        assert!(engine.memory_bytes() >= engine.db.memory_bytes());
    }
}
