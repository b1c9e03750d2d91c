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
//! Everything around the plan — the shadow database, the node-event
//! stream, epochs — is the shared [`BoltOnIvm`] shell.

use crate::bolt_on::{BoltOnIvm, JoinPlan};
use crate::common::{self, ViewCore};
use tt_ast::{FxHashMap, NodeId, NodeRow};
use tt_pattern::{SqlQuery, VarId};
use tt_relational::{Database, JoinRow};

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

/// Classic's join plan for one pattern: the left-deep atom order, its
/// filter schedule, the materialized prefixes, and the top view.
pub struct PrefixPlan {
    query: SqlQuery,
    /// For atom `i ≥ 1`: `(parent var, child index)` of its join edge.
    parent_edges: Vec<(VarId, usize)>,
    /// For level `i`: filter indices that first become evaluable there.
    filter_levels: Vec<Vec<usize>>,
    /// Prefixes `P_0 … P_{k−2}` (the last level is the view itself).
    prefixes: Vec<PrefixTable>,
    view: ViewCore,
}

impl JoinPlan for PrefixPlan {
    const NAME: &'static str = "Classic";

    fn new(query: SqlQuery) -> PrefixPlan {
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
        PrefixPlan {
            query,
            parent_edges,
            filter_levels,
            prefixes: (0..k.saturating_sub(1))
                .map(|_| PrefixTable::default())
                .collect(),
            view: ViewCore::new(root_var),
        }
    }

    fn query(&self) -> &SqlQuery {
        &self.query
    }

    /// Processes one tuple delta arriving at atom `j`: the cheap join
    /// at level `j`, then the cascade through every suffix level.
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
            for base in self.prefixes[j - 1].probe(t.id) {
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

    fn view(&self) -> &ViewCore {
        &self.view
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

    /// Every materialized prefix row is one partial match, held once.
    fn check_internal(&self, _expected: &[JoinRow]) -> Result<(), String> {
        for (level, prefix) in self.prefixes.iter().enumerate() {
            if let Some((row, (mult, _))) = prefix.rows.iter().find(|(_, (m, _))| *m != 1) {
                return Err(format!(
                    "prefix P{level} holds {row:?} with multiplicity {mult}"
                ));
            }
        }
        Ok(())
    }
}

impl PrefixPlan {
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
}

/// The **Classic** bolt-on strategy.
pub type ClassicIvm = BoltOnIvm<PrefixPlan>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bolt_on::tests::{fire, rules, tree};
    use treetoaster_core::MatchCore;

    #[test]
    fn cascading_rewrite_exposes_parent_match() {
        crate::bolt_on::tests::cascading_rewrite_exposes_parent_match::<PrefixPlan>();
    }

    #[test]
    fn self_join_pattern_counts_correctly() {
        crate::bolt_on::tests::self_join_pattern_counts_correctly::<PrefixPlan>();
    }

    #[test]
    fn batched_epoch_coalesces_and_commits_correctly() {
        crate::bolt_on::tests::batched_epoch_coalesces_and_commits_correctly::<PrefixPlan>();
    }

    #[test]
    fn rebuild_materializes_view_and_prefixes() {
        let ast = tree(r#"(Arith op="+" (Const val=0) (Var name="b"))"#);
        let mut engine = ClassicIvm::new(rules(), &ast);
        engine.rebuild(&ast);
        engine.check_views_correct().unwrap();
        assert_eq!(engine.plans[0].view.len(), 1);
        // Prefix P0 (σ Arith with op=+) and P1 (⋈ Const val=0) exist.
        assert_eq!(engine.plans[0].prefixes.len(), 2);
        assert_eq!(engine.plans[0].prefixes[0].rows.len(), 1);
        assert_eq!(engine.plans[0].prefixes[1].rows.len(), 1);
    }

    #[test]
    fn filters_prune_prefixes() {
        // op="*" fails the level-0 filter: nothing materializes.
        let ast = tree(r#"(Arith op="*" (Const val=0) (Var name="b"))"#);
        let mut engine = ClassicIvm::new(rules(), &ast);
        engine.rebuild(&ast);
        assert!(engine.plans[0].view.is_empty());
        assert!(engine.plans[0].prefixes[0].rows.is_empty());
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
}
