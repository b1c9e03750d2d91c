//! Shared plumbing for the bolt-on engine and its join plans.

use treetoaster_core::{MatchView, ReplaceCtx, RuleId, RuleSet};
use tt_ast::{Ast, Label, NodeId, NodeRow};
use tt_pattern::{Bindings, Constraint, SqlQuery, VarId};
use tt_relational::{Database, NodeDelta, RowAttrs};

/// The rows one replacement destroys, as a bolt-on engine must report
/// them: taken in `before_replace`, while the tree is still intact,
/// because a rewrite reports freed nodes by id only.
///
/// The bolt-on engine keeps one and translates every replacement through
/// it, so Classic and DBT see the same node-granularity stream.
#[derive(Debug)]
pub struct PreImage {
    /// The replaced node (checked against the replacement reported).
    site: NodeId,
    /// Whether the walk was pruned at a fired rule's reused positions,
    /// making `removed` exactly the freed set.
    pruned: bool,
    /// Rows of `Desc(site)`, in the order a rule application frees them.
    removed: Vec<(Label, NodeRow)>,
    /// The site's parent and its row before the swap.
    parent: Option<(Label, NodeRow)>,
}

impl Default for PreImage {
    fn default() -> Self {
        PreImage {
            site: NodeId::NULL,
            pruned: false,
            removed: Vec::new(),
            parent: None,
        }
    }
}

impl PreImage {
    /// Captures the pre-image of replacing `site`. For a fired rule the
    /// walk stops at the subtrees its generator reuses, which survive
    /// the rewrite; for a manual mutation it takes all of `Desc(site)`,
    /// and [`PreImage::deltas`] keeps the rows the caller reports freed.
    pub fn capture(
        &mut self,
        rules: &RuleSet,
        ast: &Ast,
        site: NodeId,
        rule: Option<(RuleId, &Bindings)>,
    ) {
        let reused = rule.map(|(rid, bindings)| (rules.get(rid).reused_vars(), bindings));
        let is_reused = |c: NodeId| {
            reused.is_some_and(|(vars, bindings)| vars.iter().any(|&v| bindings.get(v) == c))
        };
        self.site = site;
        self.pruned = rule.is_some();
        self.removed.clear();
        let mut stack = vec![site];
        while let Some(n) = stack.pop() {
            self.removed.push((ast.label(n), NodeRow::of(ast, n)));
            stack.extend(ast.children(n).iter().copied().filter(|&c| !is_reused(c)));
        }
        let parent = ast.parent(site);
        self.parent = (!parent.is_null()).then(|| (ast.label(parent), NodeRow::of(ast, parent)));
    }

    /// Translates the captured replacement into the flat node event
    /// stream a bolt-on engine understands: all removals first
    /// (including the parent's old row — a child-pointer update is a
    /// delete + insert at this granularity), then all insertions, the
    /// parent's new row read from the AST last.
    pub fn deltas(&mut self, ast: &Ast, ctx: &ReplaceCtx<'_>) -> Vec<NodeDelta> {
        assert_eq!(
            self.site, ctx.old_root,
            "no pre-image captured for this replacement (before_replace not called)"
        );
        self.site = NodeId::NULL;
        let mut out = Vec::with_capacity(ctx.removed.len() + ctx.inserted.len() + 2);
        if self.pruned {
            debug_assert!(
                self.removed.len() == ctx.removed.len()
                    && self
                        .removed
                        .iter()
                        .zip(ctx.removed)
                        .all(|((_, row), &(_, id))| row.id == id),
                "captured pre-image must list exactly the freed nodes"
            );
            out.extend(
                self.removed
                    .drain(..)
                    .map(|(label, row)| NodeDelta::Remove(label, row)),
            );
        } else {
            out.extend(
                self.removed
                    .drain(..)
                    .filter(|(_, row)| ctx.removed.iter().any(|&(_, id)| id == row.id))
                    .map(|(label, row)| NodeDelta::Remove(label, row)),
            );
        }
        let parent = self.parent.take();
        if let Some(&(label, id)) = ctx.parent_update {
            let (_, old_row) = parent
                .filter(|(_, row)| row.id == id)
                .expect("the updated parent is the captured site's parent");
            out.push(NodeDelta::Remove(label, old_row));
        }
        for &n in ctx.inserted {
            out.push(NodeDelta::Insert(ast.label(n), NodeRow::of(ast, n)));
        }
        if let Some(&(label, id)) = ctx.parent_update {
            out.push(NodeDelta::Insert(label, NodeRow::of(ast, id)));
        }
        out
    }
}

/// Test oracle: the shadow database must mirror the live AST node for
/// node — same ids, labels, and child pointers (attributes may be
/// projected away, so they are not compared).
pub fn check_shadow_db(db: &Database, ast: &Ast) -> Result<(), String> {
    let root = ast.root();
    let live = if root.is_null() {
        0
    } else {
        ast.descendants(root).count()
    };
    if db.len() != live {
        return Err(format!(
            "shadow db has {} rows, tree has {live} nodes",
            db.len()
        ));
    }
    if root.is_null() {
        return Ok(());
    }
    for n in ast.descendants(root) {
        let Some(row) = db.table(ast.label(n)).get(n) else {
            return Err(format!("shadow db missing node {n:?}"));
        };
        if row.children != ast.children(n) {
            return Err(format!("shadow db stale children for {n:?}"));
        }
    }
    Ok(())
}

/// The materialized top view of one pattern: full join rows with
/// multiplicities, plus a [`MatchView`] over match roots for the O(1)
/// `find_one` the host compiler calls.
#[derive(Debug, Default)]
pub struct ViewCore {
    /// Join rows (full variable space, wildcards NULL) → multiplicity.
    rows: tt_ast::FxHashMap<Box<[NodeId]>, i64>,
    /// Root atoms of positive rows.
    roots: MatchView,
    root_var: usize,
}

impl ViewCore {
    /// Creates an empty view for a query rooted at `root_var`.
    pub fn new(root_var: VarId) -> ViewCore {
        ViewCore {
            root_var: root_var.0 as usize,
            ..Default::default()
        }
    }

    /// Applies one row delta.
    pub fn add(&mut self, row: &[NodeId], delta: i64) {
        if delta == 0 {
            return;
        }
        let entry = self.rows.entry(row.into()).or_insert(0);
        let old_positive = *entry > 0;
        *entry += delta;
        let new_positive = *entry > 0;
        if *entry == 0 {
            self.rows.remove(row);
        }
        match (old_positive, new_positive) {
            (false, true) => self.roots.add(row[self.root_var], 1),
            (true, false) => self.roots.add(row[self.root_var], -1),
            _ => {}
        }
    }

    /// An arbitrary current match root.
    pub fn any_root(&self) -> Option<NodeId> {
        self.roots.any()
    }

    /// The multiplicity of `row` (0 if absent).
    pub fn multiplicity(&self, row: &[NodeId]) -> i64 {
        self.rows.get(row).copied().unwrap_or(0)
    }

    /// Number of materialized rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows are materialized.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Clears all state.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.roots.clear();
    }

    /// Approximate heap bytes.
    pub fn memory_bytes(&self) -> usize {
        let row_width =
            std::mem::size_of::<NodeId>() * self.rows.keys().next().map_or(0, |k| k.len());
        self.rows.capacity() * (1 + std::mem::size_of::<(Box<[NodeId]>, i64)>() + row_width)
            + self.roots.memory_bytes()
    }
}

/// Filter scheduling: the earliest point at which each `θ` fragment can be
/// evaluated. `vars` are the filter's referenced variables; host-predicate
/// fragments report "needs everything".
pub fn filter_vars(constraint: &Constraint, all_atoms: &[VarId]) -> Vec<VarId> {
    if constraint.has_host_pred() {
        return all_atoms.to_vec();
    }
    let mut vars = Vec::new();
    constraint.vars(&mut vars);
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// Evaluates the filters listed by `indices` on a (partial) row.
pub fn eval_filters(db: &Database, query: &SqlQuery, row: &[NodeId], indices: &[usize]) -> bool {
    let src = RowAttrs { db, query, row };
    indices.iter().all(|&i| query.filters[i].1.eval(&src))
}

/// Evaluates a single-row arity test for `atom_index`.
pub fn arity_ok(query: &SqlQuery, atom_index: usize, row: &NodeRow) -> bool {
    row.children.len() == query.atoms[atom_index].arity
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn viewcore_add_remove_roundtrip() {
        let mut v = ViewCore::new(VarId(0));
        let row: Vec<NodeId> = vec![nid(1), nid(2)];
        v.add(&row, 1);
        assert_eq!(v.len(), 1);
        assert_eq!(v.any_root(), Some(nid(1)));
        v.add(&row, -1);
        assert!(v.is_empty());
        assert_eq!(v.any_root(), None);
    }

    #[test]
    fn viewcore_multiplicity_transients() {
        let mut v = ViewCore::new(VarId(0));
        let row: Vec<NodeId> = vec![nid(1)];
        v.add(&row, -1);
        assert_eq!(v.any_root(), None, "negative rows are not visible");
        v.add(&row, 2);
        assert_eq!(v.any_root(), Some(nid(1)));
        v.add(&row, -1);
        assert_eq!(v.any_root(), None);
        assert!(v.is_empty());
    }

    #[test]
    fn viewcore_root_var_respected() {
        let mut v = ViewCore::new(VarId(1));
        let row: Vec<NodeId> = vec![nid(9), nid(7)];
        v.add(&row, 1);
        assert_eq!(v.any_root(), Some(nid(7)));
    }

    #[test]
    fn distinct_rows_same_root_counted() {
        // Two different rows with the same root (possible transiently):
        // the root stays visible until both are gone.
        let mut v = ViewCore::new(VarId(0));
        v.add(&[nid(1), nid(2)], 1);
        v.add(&[nid(1), nid(3)], 1);
        v.add(&[nid(1), nid(2)], -1);
        assert_eq!(v.any_root(), Some(nid(1)));
        v.add(&[nid(1), nid(3)], -1);
        assert_eq!(v.any_root(), None);
    }
}
