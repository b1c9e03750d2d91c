//! DBToaster-style higher-order IVM (Koch et al. \[24\]; the evaluation's
//! **DBT**).
//!
//! "With DBToaster, Koch et al. proposed instead materializing all
//! possible query plans" (§3.1). For a tree-shaped pattern join this
//! means one materialized map `M_S` for **every connected sub-join `S`**
//! of the pattern: the singletons (a filtered shadow copy of each base
//! relation), every intermediate, and the full view. A single-tuple delta
//! at atom `j` is then answered without touching base relations: join the
//! tuple with the already-materialized maps of the connected components
//! of `S ∖ {j}`, for every `S ∋ j`.
//!
//! The paper's running example materializes exactly two extra views
//! (`{Arith,Const}` and `{Arith,Var}`) beyond the bases and the full
//! join — and the count "grows combinatorially with the join width",
//! which is the memory overhead Figures 11/13 show.

use crate::common::{self, ViewCore};
use std::sync::Arc;
use treetoaster_core::{EpochOps, MatchCore, ReplaceCtx, RuleId, RuleSet};
use tt_ast::{Ast, FxHashMap, Label, NodeId, NodeRow};
use tt_pattern::{Bindings, SqlQuery, VarId};
use tt_relational::{Database, NodeDelta};

/// How a materialized subset computes its key for one boundary edge.
#[derive(Debug, Clone, Copy)]
enum BoundaryKind {
    /// Subset holds the edge's parent atom: key is that row's child
    /// pointer (a shadow-database lookup at insert time).
    HoldsParent {
        parent_var: VarId,
        child_index: usize,
    },
    /// Subset holds the edge's child atom: key is the bound child id.
    HoldsChild { child_var: VarId },
}

#[derive(Debug, Clone, Copy)]
struct BoundaryEdge {
    join_index: usize,
    kind: BoundaryKind,
}

/// How the delta tuple probes one component of `S ∖ {j}`.
#[derive(Debug, Clone, Copy)]
enum KeyFrom {
    /// Component holds the parent side; probe with `t.id`.
    TupleId,
    /// Component holds the child side; probe with `t.children[k]`.
    TupleChild { child_index: usize },
}

#[derive(Debug, Clone, Copy)]
struct ComponentLink {
    subset_index: usize,
    join_index: usize,
    key_from: KeyFrom,
}

/// Update plan for a delta arriving at one member atom of a subset.
#[derive(Debug, Clone)]
struct MemberPlan {
    components: Vec<ComponentLink>,
    /// Filters first enforceable when this member joins its components.
    filters: Vec<usize>,
}

#[derive(Debug, Default)]
struct RowMeta {
    mult: i64,
    /// `(join_index, key)` pairs captured at insert time so deletions
    /// need no lookups.
    keys: Vec<(usize, NodeId)>,
}

/// Rows of a materialized map grouped by one boundary-edge key.
type RowsByKey = FxHashMap<NodeId, Vec<Box<[NodeId]>>>;

/// Signed row deltas destined for one materialized subset.
type RowDeltas = Vec<(Box<[NodeId]>, i64)>;

/// One materialized map `M_S`.
struct SubsetState {
    /// Sorted atom indices.
    atoms: Vec<usize>,
    rows: FxHashMap<Box<[NodeId]>, RowMeta>,
    /// Per boundary edge: key → rows.
    indexes: FxHashMap<usize, RowsByKey>,
    boundary: Vec<BoundaryEdge>,
    /// Aligned with `atoms`.
    member_plans: Vec<MemberPlan>,
}

impl SubsetState {
    fn add_row(&mut self, db: &Database, query: &SqlQuery, row: &[NodeId], delta: i64) {
        if delta == 0 {
            return;
        }
        let entry = self.rows.entry(row.into()).or_default();
        if entry.mult == 0 && entry.keys.is_empty() {
            // Fresh row: capture boundary keys now.
            entry.keys = self
                .boundary
                .iter()
                .map(|b| {
                    let key = match b.kind {
                        BoundaryKind::HoldsChild { child_var } => row[child_var.0 as usize],
                        BoundaryKind::HoldsParent {
                            parent_var,
                            child_index,
                        } => {
                            let parent_id = row[parent_var.0 as usize];
                            let label = query.atom(parent_var).label;
                            db.table(label)
                                .get(parent_id)
                                .and_then(|r| r.children.get(child_index).copied())
                                .unwrap_or(NodeId::NULL)
                        }
                    };
                    (b.join_index, key)
                })
                .collect();
        }
        let old_positive = entry.mult > 0;
        entry.mult += delta;
        let new_positive = entry.mult > 0;
        let keys = entry.keys.clone();
        if entry.mult == 0 {
            self.rows.remove(row);
        }
        match (old_positive, new_positive) {
            (false, true) => {
                for (join_index, key) in keys {
                    if !key.is_null() {
                        self.indexes
                            .entry(join_index)
                            .or_default()
                            .entry(key)
                            .or_default()
                            .push(row.into());
                    }
                }
            }
            (true, false) => {
                for (join_index, key) in keys {
                    if key.is_null() {
                        continue;
                    }
                    let by_key = self.indexes.get_mut(&join_index).expect("index exists");
                    let bucket = by_key.get_mut(&key).expect("bucket exists");
                    let at = bucket
                        .iter()
                        .position(|r| r.as_ref() == row)
                        .expect("indexed row present");
                    bucket.swap_remove(at);
                    if bucket.is_empty() {
                        by_key.remove(&key);
                    }
                }
            }
            _ => {}
        }
    }

    fn probe(&self, join_index: usize, key: NodeId) -> &[Box<[NodeId]>] {
        self.indexes
            .get(&join_index)
            .and_then(|m| m.get(&key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn mult_of(&self, row: &[NodeId]) -> i64 {
        self.rows.get(row).map(|m| m.mult).unwrap_or(0)
    }

    fn memory_bytes(&self) -> usize {
        let width = self.rows.keys().next().map_or(0, |k| k.len()) * std::mem::size_of::<NodeId>();
        let rows = self.rows.capacity()
            * (1 + std::mem::size_of::<(Box<[NodeId]>, RowMeta)>()
                + width
                + self.boundary.len() * std::mem::size_of::<(usize, NodeId)>());
        let idx: usize = self
            .indexes
            .values()
            .flat_map(|m| m.values())
            .map(|v| v.capacity() * (std::mem::size_of::<Box<[NodeId]>>() + width))
            .sum();
        rows + idx
    }
}

/// Per-pattern DBToaster state.
struct DbtQuery {
    query: SqlQuery,
    subsets: Vec<SubsetState>,
    full_index: usize,
    view: ViewCore,
}

impl DbtQuery {
    fn new(query: SqlQuery) -> DbtQuery {
        let k = query.width();
        let atom_of_var: FxHashMap<VarId, usize> = query
            .atoms
            .iter()
            .enumerate()
            .map(|(i, a)| (a.var, i))
            .collect();
        // Join-tree adjacency between atom indices.
        let edges: Vec<(usize, usize)> = query
            .joins
            .iter()
            .map(|j| (atom_of_var[&j.parent], atom_of_var[&j.child]))
            .collect();
        let connected = |mask: u32| -> bool {
            let start = (0..k).find(|i| mask & (1 << i) != 0).unwrap();
            let mut seen = 1u32 << start;
            let mut frontier = vec![start];
            while let Some(a) = frontier.pop() {
                for (ji, &(p, c)) in edges.iter().enumerate() {
                    let _ = ji;
                    for (u, v) in [(p, c), (c, p)] {
                        if u == a && mask & (1 << v) != 0 && seen & (1 << v) == 0 {
                            seen |= 1 << v;
                            frontier.push(v);
                        }
                    }
                }
            }
            seen == mask
        };
        let mut masks: Vec<u32> = (1u32..(1 << k)).filter(|&m| connected(m)).collect();
        masks.sort_by_key(|m| m.count_ones());
        let index_of_mask: FxHashMap<u32, usize> =
            masks.iter().enumerate().map(|(i, &m)| (m, i)).collect();

        let atom_vars: Vec<VarId> = query.atoms.iter().map(|a| a.var).collect();
        let filter_var_sets: Vec<Vec<usize>> = query
            .filters
            .iter()
            .map(|(_, c)| {
                common::filter_vars(c, &atom_vars)
                    .into_iter()
                    .map(|v| atom_of_var[&v])
                    .collect()
            })
            .collect();
        let vars_in = |mask: u32, vars: &[usize]| vars.iter().all(|&a| mask & (1 << a) != 0);

        let subsets: Vec<SubsetState> = masks
            .iter()
            .map(|&mask| {
                let atoms: Vec<usize> = (0..k).filter(|i| mask & (1 << i) != 0).collect();
                let boundary: Vec<BoundaryEdge> = edges
                    .iter()
                    .enumerate()
                    .filter_map(|(ji, &(p, c))| {
                        let p_in = mask & (1 << p) != 0;
                        let c_in = mask & (1 << c) != 0;
                        match (p_in, c_in) {
                            (true, false) => Some(BoundaryEdge {
                                join_index: ji,
                                kind: BoundaryKind::HoldsParent {
                                    parent_var: query.joins[ji].parent,
                                    child_index: query.joins[ji].child_index,
                                },
                            }),
                            (false, true) => Some(BoundaryEdge {
                                join_index: ji,
                                kind: BoundaryKind::HoldsChild {
                                    child_var: query.joins[ji].child,
                                },
                            }),
                            _ => None,
                        }
                    })
                    .collect();
                let member_plans: Vec<MemberPlan> = atoms
                    .iter()
                    .map(|&j| {
                        let rem = mask & !(1 << j);
                        // Connected components of rem.
                        let mut comp_masks: Vec<u32> = Vec::new();
                        let mut left = rem;
                        while left != 0 {
                            let start = left.trailing_zeros() as usize;
                            let mut seen = 1u32 << start;
                            let mut frontier = vec![start];
                            while let Some(a) = frontier.pop() {
                                for &(p, c) in &edges {
                                    for (u, v) in [(p, c), (c, p)] {
                                        if u == a && rem & (1 << v) != 0 && seen & (1 << v) == 0 {
                                            seen |= 1 << v;
                                            frontier.push(v);
                                        }
                                    }
                                }
                            }
                            comp_masks.push(seen);
                            left &= !seen;
                        }
                        let components: Vec<ComponentLink> = comp_masks
                            .iter()
                            .map(|&cm| {
                                // The unique edge connecting j to this component.
                                let (ji, &(p, c)) = edges
                                    .iter()
                                    .enumerate()
                                    .find(|(_, &(p, c))| {
                                        (p == j && cm & (1 << c) != 0)
                                            || (c == j && cm & (1 << p) != 0)
                                    })
                                    .expect("component attaches to j");
                                let key_from = if c == j {
                                    // Component holds the parent side.
                                    KeyFrom::TupleId
                                } else {
                                    debug_assert_eq!(p, j);
                                    KeyFrom::TupleChild {
                                        child_index: query.joins[ji].child_index,
                                    }
                                };
                                ComponentLink {
                                    subset_index: index_of_mask[&cm],
                                    join_index: ji,
                                    key_from,
                                }
                            })
                            .collect();
                        let filters: Vec<usize> = filter_var_sets
                            .iter()
                            .enumerate()
                            .filter(|(_, vars)| {
                                vars_in(mask, vars)
                                    && !comp_masks.iter().any(|&cm| vars_in(cm, vars))
                            })
                            .map(|(fi, _)| fi)
                            .collect();
                        MemberPlan {
                            components,
                            filters,
                        }
                    })
                    .collect();
                SubsetState {
                    atoms,
                    rows: FxHashMap::default(),
                    indexes: FxHashMap::default(),
                    boundary,
                    member_plans,
                }
            })
            .collect();

        let full_index = index_of_mask[&((1u32 << k) - 1)];
        let root_var = query.root_var();
        DbtQuery {
            query,
            subsets,
            full_index,
            view: ViewCore::new(root_var),
        }
    }

    fn atoms_for(&self, label: Label) -> Vec<usize> {
        self.query
            .atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.label == label)
            .map(|(i, _)| i)
            .collect()
    }

    /// Processes one tuple delta at atom `j`: for every materialized
    /// `M_S` with `j ∈ S`, join `t` against the components of `S ∖ {j}`.
    fn process(&mut self, db: &Database, t: &NodeRow, j: usize, sign: i64) {
        if !common::arity_ok(&self.query, j, t) {
            return;
        }
        let var_j = self.query.atoms[j].var.0 as usize;
        // Compute all subset deltas first (components never contain j, so
        // no subset read here is mutated in this step).
        let mut deltas: Vec<(usize, RowDeltas)> = Vec::new();
        for (si, subset) in self.subsets.iter().enumerate() {
            let Some(pos) = subset.atoms.iter().position(|&a| a == j) else {
                continue;
            };
            let plan = &subset.member_plans[pos];
            let mut base = vec![NodeId::NULL; self.query.var_space];
            base[var_j] = t.id;
            let mut partials: Vec<(Box<[NodeId]>, i64)> = vec![(base.into_boxed_slice(), 1)];
            for link in &plan.components {
                let key = match link.key_from {
                    KeyFrom::TupleId => t.id,
                    KeyFrom::TupleChild { child_index } => match t.children.get(child_index) {
                        Some(&c) => c,
                        None => {
                            partials.clear();
                            break;
                        }
                    },
                };
                let comp = &self.subsets[link.subset_index];
                let comp_rows = comp.probe(link.join_index, key);
                let mut merged = Vec::with_capacity(partials.len() * comp_rows.len());
                for (row, mult) in &partials {
                    for crow in comp_rows {
                        let cmult = comp.mult_of(crow);
                        let mut out = row.clone();
                        for (slot, &v) in out.iter_mut().zip(crow.iter()) {
                            if !v.is_null() {
                                *slot = v;
                            }
                        }
                        merged.push((out, mult * cmult));
                    }
                }
                partials = merged;
                if partials.is_empty() {
                    break;
                }
            }
            partials.retain(|(row, _)| common::eval_filters(db, &self.query, row, &plan.filters));
            if !partials.is_empty() {
                deltas.push((si, partials));
            }
        }
        for (si, rows) in deltas {
            for (row, mult) in rows {
                self.subsets[si].add_row(db, &self.query, &row, sign * mult);
                if si == self.full_index {
                    self.view.add(&row, sign * mult);
                }
            }
        }
    }

    fn clear(&mut self) {
        for s in &mut self.subsets {
            s.rows.clear();
            s.indexes.clear();
        }
        self.view.clear();
    }

    fn memory_bytes(&self) -> usize {
        self.subsets
            .iter()
            .map(SubsetState::memory_bytes)
            .sum::<usize>()
            + self.view.memory_bytes()
    }
}

/// The **DBT** bolt-on strategy.
pub struct DbtIvm {
    rules: Arc<RuleSet>,
    db: Database,
    queries: Vec<DbtQuery>,
    /// Epoch-scoped coalescing of the node event stream (see
    /// [`crate::batch::DeltaLog`]); reads inside an open epoch flush it.
    log: crate::batch::DeltaLog,
    /// Net delta stream of an epoch sealed by `submit_commit`, awaiting
    /// its background committer (see [`crate::classic::ClassicIvm`] for
    /// the replay-order contract).
    sealed: Vec<NodeDelta>,
    /// Rows of the replacement in flight, from `before_replace`.
    pre: common::PreImage,
}

impl DbtIvm {
    /// Builds the strategy; call [`MatchCore::rebuild`] after loading.
    pub fn new(rules: Arc<RuleSet>, ast: &Ast) -> DbtIvm {
        let queries: Vec<DbtQuery> = rules
            .iter()
            .map(|(_, r)| DbtQuery::new(SqlQuery::from_pattern(&r.pattern)))
            .collect();
        let db = Self::fresh_db(ast, &queries);
        DbtIvm {
            rules,
            db,
            queries,
            log: crate::batch::DeltaLog::new(),
            sealed: Vec::new(),
            pre: common::PreImage::default(),
        }
    }

    /// A projected shadow database (§3.2).
    fn fresh_db(ast: &Ast, queries: &[DbtQuery]) -> Database {
        let refs: Vec<&SqlQuery> = queries.iter().map(|q| &q.query).collect();
        let projection = tt_relational::Projection::for_queries(ast.schema(), &refs);
        Database::with_projection(ast.schema().clone(), projection)
    }

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
    /// A sealed epoch awaiting its committer replays first, preserving
    /// epoch order.
    fn flush_pending(&mut self) {
        self.apply_submitted();
        for delta in self.log.take_pending() {
            self.apply_delta(&delta);
        }
    }

    /// Number of materialized maps for rule `rule` (the paper counts 2
    /// extra beyond bases + view for the running example).
    pub fn materialized_map_count(&self, rule: RuleId) -> usize {
        self.queries[rule].subsets.len()
    }

    /// Test oracle: the full-set map must equal a from-scratch evaluation.
    pub fn check_views_correct(&self) -> Result<(), String> {
        for (id, q) in self.queries.iter().enumerate() {
            let expected = tt_relational::evaluate(&self.db, &q.query);
            let full = &q.subsets[q.full_index];
            if expected.len() != full.rows.len() {
                return Err(format!(
                    "dbt view {} has {} rows, expected {}",
                    id,
                    full.rows.len(),
                    expected.len()
                ));
            }
            for row in &expected {
                if full.mult_of(row) != 1 {
                    return Err(format!("dbt view {id} wrong multiplicity for {row:?}"));
                }
            }
            if q.view.len() != expected.len() {
                return Err(format!("dbt ViewCore out of sync for {id}"));
            }
        }
        Ok(())
    }

    /// The rule set this engine serves.
    pub fn rules(&self) -> &Arc<RuleSet> {
        &self.rules
    }
}

impl MatchCore for DbtIvm {
    fn name(&self) -> &'static str {
        "DBT"
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
            return Err("dbt engine has staged deltas in an open batch".into());
        }
        if !self.sealed.is_empty() {
            return Err("dbt engine has a sealed epoch awaiting its committer".into());
        }
        common::check_shadow_db(&self.db, ast)?;
        self.check_views_correct()
    }

    fn memory_bytes(&self) -> usize {
        self.db.memory_bytes()
            + self
                .queries
                .iter()
                .map(DbtQuery::memory_bytes)
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

impl EpochOps for DbtIvm {
    fn begin_batch(&mut self) {
        self.log.begin();
    }

    fn commit_batch(&mut self) {
        self.flush_pending();
        self.log.end();
    }

    fn submit_commit(&mut self) -> bool {
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
    use treetoaster_core::{ReplaceCtx, RewriteRule, RuleFired};
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

    fn fire(engine: &mut DbtIvm, ast: &mut Ast, rid: usize, site: NodeId) {
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
    fn running_example_materializes_six_maps() {
        // Atoms {A,B,C} with edges A−B, A−C: connected subsets are
        // {A},{B},{C},{AB},{AC},{ABC} — the two "additional view queries"
        // the paper counts are {AB} and {AC}.
        let ast = tree(r#"(Const val=1)"#);
        let engine = DbtIvm::new(rules(), &ast);
        assert_eq!(engine.materialized_map_count(0), 6);
    }

    #[test]
    fn rebuild_and_view_correct() {
        let ast = tree(r#"(Arith op="+" (Const val=0) (Var name="b"))"#);
        let mut engine = DbtIvm::new(rules(), &ast);
        engine.rebuild(&ast);
        engine.check_views_correct().unwrap();
        assert!(engine.queries[0].view.any_root().is_some());
    }

    #[test]
    fn rewrite_drains_view_and_maps() {
        let mut ast =
            tree(r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="b")) (Var name="x"))"#);
        let mut engine = DbtIvm::new(rules(), &ast);
        engine.rebuild(&ast);
        let site = engine.find_one(&ast, 0).unwrap();
        fire(&mut engine, &mut ast, 0, site);
        engine.check_views_correct().unwrap();
        assert!(engine.find_one(&ast, 0).is_none());
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
        let add_zero_rule = rules().get(0).clone();
        let rules = Arc::new(RuleSet::from_rules(vec![add_zero_rule, mul_one]));
        let mut ast =
            tree(r#"(Arith op="+" (Const val=0) (Arith op="*" (Const val=1) (Var name="y")))"#);
        let mut engine = DbtIvm::new(rules, &ast);
        engine.rebuild(&ast);
        assert!(engine.find_one(&ast, 0).is_none());
        let site = engine.find_one(&ast, 1).unwrap();
        fire(&mut engine, &mut ast, 1, site);
        engine.check_views_correct().unwrap();
        let site = engine.find_one(&ast, 0).expect("parent became a match");
        fire(&mut engine, &mut ast, 0, site);
        engine.check_views_correct().unwrap();
        assert_eq!(
            tt_ast::sexpr::to_sexpr(&ast, ast.root()),
            r#"(Var name="y")"#
        );
    }

    #[test]
    fn self_join_pattern_counts_correctly() {
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
        let ast = tree(
            r#"(Arith op="*" (Arith op="+" (Arith op="*" (Const val=2) (Var name="y")) (Var name="x")) (Var name="z"))"#,
        );
        let mut engine = DbtIvm::new(rules, &ast);
        engine.rebuild(&ast);
        engine.check_views_correct().unwrap();
        assert_eq!(engine.queries[0].view.len(), 2);
    }

    #[test]
    fn batched_epoch_coalesces_and_commits_correctly() {
        let mut ast = tree(
            r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="a")) (Arith op="+" (Const val=0) (Var name="b")))"#,
        );
        let rules = rules();
        let mut engine = DbtIvm::new(rules.clone(), &ast);
        engine.rebuild(&ast);
        engine.begin_batch();
        for _ in 0..2 {
            let (site, _) =
                tt_pattern::find_first(&ast, ast.root(), &rules.get(0).pattern).unwrap();
            fire(&mut engine, &mut ast, 0, site);
        }
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
    fn dbt_uses_more_memory_than_classic_shape() {
        // Not a strict benchmark, but the combinatorial materialization
        // must cost at least as much as the shadow db alone.
        let ast = tree(r#"(Arith op="+" (Const val=0) (Var name="b"))"#);
        let mut engine = DbtIvm::new(rules(), &ast);
        engine.rebuild(&ast);
        assert!(engine.memory_bytes() > engine.db.memory_bytes());
    }
}
