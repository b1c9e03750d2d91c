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
//!
//! Everything around the plan — the shadow database, the node-event
//! stream, epochs — is the shared [`BoltOnIvm`] shell.

use crate::bolt_on::{BoltOnIvm, JoinPlan};
use crate::common::{self, ViewCore};
use treetoaster_core::RuleId;
use tt_ast::{FxHashMap, NodeId, NodeRow};
use tt_pattern::{SqlQuery, VarId};
use tt_relational::{Database, JoinRow};

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

/// The atoms reachable from `start` over join-tree `edges` without
/// leaving the atom set `within` (both as bitmasks over atom indices).
fn component(edges: &[(usize, usize)], within: u32, start: usize) -> u32 {
    let mut seen = 1u32 << start;
    let mut frontier = vec![start];
    while let Some(a) = frontier.pop() {
        for &(p, c) in edges {
            for (u, v) in [(p, c), (c, p)] {
                if u == a && within & (1 << v) != 0 && seen & (1 << v) == 0 {
                    seen |= 1 << v;
                    frontier.push(v);
                }
            }
        }
    }
    seen
}

/// DBT's join plan for one pattern: a materialized map per connected
/// sub-join, with the full join's rows also kept as the top view.
pub struct SubsetPlan {
    query: SqlQuery,
    subsets: Vec<SubsetState>,
    full_index: usize,
    view: ViewCore,
}

impl JoinPlan for SubsetPlan {
    const NAME: &'static str = "DBT";

    fn new(query: SqlQuery) -> SubsetPlan {
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
        let connected = |mask: u32| component(&edges, mask, mask.trailing_zeros() as usize) == mask;
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
                            let seen = component(&edges, rem, left.trailing_zeros() as usize);
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
        SubsetPlan {
            query,
            subsets,
            full_index,
            view: ViewCore::new(root_var),
        }
    }

    fn query(&self) -> &SqlQuery {
        &self.query
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

    fn view(&self) -> &ViewCore {
        &self.view
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

    /// The full-subset map must hold every expected row exactly once.
    fn check_internal(&self, expected: &[JoinRow]) -> Result<(), String> {
        let full = &self.subsets[self.full_index];
        if full.rows.len() != expected.len() {
            return Err(format!(
                "full-subset map has {} rows, expected {}",
                full.rows.len(),
                expected.len()
            ));
        }
        if let Some(row) = expected.iter().find(|row| full.mult_of(row) != 1) {
            return Err(format!(
                "full-subset map has the wrong multiplicity for {row:?}"
            ));
        }
        Ok(())
    }
}

/// The **DBT** bolt-on strategy.
pub type DbtIvm = BoltOnIvm<SubsetPlan>;

impl DbtIvm {
    /// Number of materialized maps for rule `rule` (the paper counts 2
    /// extra beyond bases + view for the running example).
    pub fn materialized_map_count(&self, rule: RuleId) -> usize {
        self.plans[rule].subsets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bolt_on::tests::{fire, rules, tree};
    use treetoaster_core::MatchCore;

    #[test]
    fn cascading_rewrite_exposes_parent_match() {
        crate::bolt_on::tests::cascading_rewrite_exposes_parent_match::<SubsetPlan>();
    }

    #[test]
    fn self_join_pattern_counts_correctly() {
        crate::bolt_on::tests::self_join_pattern_counts_correctly::<SubsetPlan>();
    }

    #[test]
    fn batched_epoch_coalesces_and_commits_correctly() {
        crate::bolt_on::tests::batched_epoch_coalesces_and_commits_correctly::<SubsetPlan>();
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
        assert!(engine.plans[0].view.any_root().is_some());
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
    fn dbt_uses_more_memory_than_classic_shape() {
        // Not a strict benchmark, but the combinatorial materialization
        // must cost at least as much as the shadow db alone.
        let ast = tree(r#"(Arith op="+" (Const val=0) (Var name="b"))"#);
        let mut engine = DbtIvm::new(rules(), &ast);
        engine.rebuild(&ast);
        assert!(engine.memory_bytes() > engine.db.memory_bytes());
    }
}
