//! A Spark-`LogicalPlan`-shaped schema (paper Appendix C).
//!
//! Every operator carries the two attributes the Appendix-D patterns
//! lean on — `output` (the attribute set the operator produces) and
//! `references` (the attributes it consumes) — plus a few per-operator
//! extras (`deterministic`, `cond`, `joinType`, `windowEmpty`, …).
//! Attribute sets are [`tt_ast::IntSet`]s of column ids.

use std::sync::{Arc, OnceLock};
use tt_ast::{Ast, AttrName, IntSet, Label, NodeId, Schema, Value};

/// The logical-plan schema: one process-wide value, built on first use.
/// Every call returns a clone of the same `Arc`, so plans built from it
/// are recognized by [`catalyst::optimize`](crate::catalyst::optimize)
/// and served by the optimizer compiled once for this schema.
pub fn plan_schema() -> Arc<Schema> {
    static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
    SCHEMA.get_or_init(build_plan_schema).clone()
}

/// Builds a fresh, unshared copy of the logical-plan schema (equal to
/// [`plan_schema`] but a distinct `Arc`).
pub fn build_plan_schema() -> Arc<Schema> {
    Schema::builder()
        // Leaf: a base relation scan.
        .label("Table", &["output", "references", "relid"], 0)
        // Leaf: materialized local data (ConvertToLocalRelation's target).
        .label("LocalRelation", &["output", "references"], 0)
        .label("Project", &["output", "references", "deterministic"], 1)
        .label(
            "Filter",
            &["output", "references", "cond", "deterministic"],
            1,
        )
        .label("Join", &["output", "references", "joinType", "cond"], 2)
        .label(
            "Aggregate",
            &["output", "references", "groupingNonEmpty", "deterministic"],
            1,
        )
        .label("UnionAll", &["output", "references"], 2)
        .label("Sort", &["output", "references"], 1)
        .label("Distinct", &["output", "references"], 1)
        .label("Window", &["output", "references", "windowEmpty"], 1)
        .label("GlobalLimit", &["output", "references", "limit"], 1)
        .label("LocalLimit", &["output", "references", "limit"], 1)
        .finish()
}

/// Interned handles for hot-path access.
#[derive(Debug, Clone, Copy)]
pub struct PlanLabels {
    /// `Table`.
    pub table: Label,
    /// `LocalRelation`.
    pub local_relation: Label,
    /// `Project`.
    pub project: Label,
    /// `Filter`.
    pub filter: Label,
    /// `Join`.
    pub join: Label,
    /// `Aggregate`.
    pub aggregate: Label,
    /// `UnionAll`.
    pub union_all: Label,
    /// `Sort`.
    pub sort: Label,
    /// `Distinct`.
    pub distinct: Label,
    /// `Window`.
    pub window: Label,
    /// `GlobalLimit`.
    pub global_limit: Label,
    /// `LocalLimit`.
    pub local_limit: Label,
    /// `output`.
    pub output: AttrName,
    /// `references`.
    pub references: AttrName,
    /// `deterministic`.
    pub deterministic: AttrName,
    /// `cond`.
    pub cond: AttrName,
    /// `joinType`.
    pub join_type: AttrName,
    /// `windowEmpty`.
    pub window_empty: AttrName,
    /// `limit`.
    pub limit: AttrName,
    /// `groupingNonEmpty`.
    pub grouping_non_empty: AttrName,
    /// `relid`.
    pub relid: AttrName,
}

impl PlanLabels {
    /// Interns from the plan schema.
    pub fn of(schema: &Schema) -> PlanLabels {
        PlanLabels {
            table: schema.expect_label("Table"),
            local_relation: schema.expect_label("LocalRelation"),
            project: schema.expect_label("Project"),
            filter: schema.expect_label("Filter"),
            join: schema.expect_label("Join"),
            aggregate: schema.expect_label("Aggregate"),
            union_all: schema.expect_label("UnionAll"),
            sort: schema.expect_label("Sort"),
            distinct: schema.expect_label("Distinct"),
            window: schema.expect_label("Window"),
            global_limit: schema.expect_label("GlobalLimit"),
            local_limit: schema.expect_label("LocalLimit"),
            output: schema.expect_attr("output"),
            references: schema.expect_attr("references"),
            deterministic: schema.expect_attr("deterministic"),
            cond: schema.expect_attr("cond"),
            join_type: schema.expect_attr("joinType"),
            window_empty: schema.expect_attr("windowEmpty"),
            limit: schema.expect_attr("limit"),
            grouping_non_empty: schema.expect_attr("groupingNonEmpty"),
            relid: schema.expect_attr("relid"),
        }
    }

    /// The output set of any plan node.
    pub fn output_of(&self, ast: &Ast, node: NodeId) -> Arc<IntSet> {
        ast.attr(node, self.output).as_set().clone()
    }
}

/// Convenience builders for plan nodes (used by the TPC-H and antipattern
/// generators and by tests).
pub struct PlanBuilder<'a> {
    /// The AST under construction.
    pub ast: &'a mut Ast,
    /// Interned handles.
    pub l: PlanLabels,
}

impl<'a> PlanBuilder<'a> {
    /// Wraps an AST.
    pub fn new(ast: &'a mut Ast) -> PlanBuilder<'a> {
        let l = PlanLabels::of(ast.schema());
        PlanBuilder { ast, l }
    }

    fn set(cols: impl IntoIterator<Item = u32>) -> Value {
        Value::set(cols)
    }

    /// A base-table scan producing `cols`.
    pub fn table(&mut self, relid: i64, cols: impl IntoIterator<Item = u32>) -> NodeId {
        let out = Self::set(cols);
        self.ast
            .alloc(self.l.table, [out, Value::set([]), Value::Int(relid)], [])
    }

    /// A local relation producing `cols`.
    pub fn local_relation(&mut self, cols: impl IntoIterator<Item = u32>) -> NodeId {
        self.ast
            .alloc(self.l.local_relation, [Self::set(cols), Value::set([])], [])
    }

    /// A projection to `cols`.
    pub fn project(&mut self, cols: impl IntoIterator<Item = u32>, child: NodeId) -> NodeId {
        let refs = self.l.output_of(self.ast, child);
        self.ast.alloc(
            self.l.project,
            [Self::set(cols), Value::Set(refs), Value::Bool(true)],
            [child],
        )
    }

    /// A deterministic filter with synthetic condition id `cond` reading
    /// `refs`.
    pub fn filter(
        &mut self,
        cond: i64,
        refs: impl IntoIterator<Item = u32>,
        child: NodeId,
    ) -> NodeId {
        let out = self.l.output_of(self.ast, child);
        self.ast.alloc(
            self.l.filter,
            [
                Value::Set(out),
                Self::set(refs),
                Value::Int(cond),
                Value::Bool(true),
            ],
            [child],
        )
    }

    /// An inner join with synthetic condition id.
    pub fn join(&mut self, cond: i64, left: NodeId, right: NodeId) -> NodeId {
        let lo = self.l.output_of(self.ast, left);
        let ro = self.l.output_of(self.ast, right);
        let out = lo.union(&ro);
        self.ast.alloc(
            self.l.join,
            [
                Value::Set(Arc::new(out)),
                Value::set([]),
                Value::str("Inner"),
                Value::Int(cond),
            ],
            [left, right],
        )
    }

    /// An aggregate producing `cols` with non-empty grouping.
    pub fn aggregate(&mut self, cols: impl IntoIterator<Item = u32>, child: NodeId) -> NodeId {
        let refs = self.l.output_of(self.ast, child);
        self.ast.alloc(
            self.l.aggregate,
            [
                Self::set(cols),
                Value::Set(refs),
                Value::Bool(true),
                Value::Bool(true),
            ],
            [child],
        )
    }

    /// A binary UNION ALL.
    pub fn union_all(&mut self, left: NodeId, right: NodeId) -> NodeId {
        let out = self.l.output_of(self.ast, left);
        self.ast.alloc(
            self.l.union_all,
            [Value::Set(out), Value::set([])],
            [left, right],
        )
    }

    /// A sort.
    pub fn sort(&mut self, child: NodeId) -> NodeId {
        let out = self.l.output_of(self.ast, child);
        self.ast.alloc(
            self.l.sort,
            [Value::Set(out.clone()), Value::Set(out)],
            [child],
        )
    }

    /// A distinct.
    pub fn distinct(&mut self, child: NodeId) -> NodeId {
        let out = self.l.output_of(self.ast, child);
        self.ast
            .alloc(self.l.distinct, [Value::Set(out), Value::set([])], [child])
    }

    /// A no-op projection (same output as its child) — RemoveNoopOperators
    /// bait.
    pub fn noop_project(&mut self, child: NodeId) -> NodeId {
        let out = self.l.output_of(self.ast, child);
        self.ast.alloc(
            self.l.project,
            [Value::Set(out.clone()), Value::Set(out), Value::Bool(true)],
            [child],
        )
    }

    /// An empty window (RemoveNoopOperators bait).
    pub fn noop_window(&mut self, child: NodeId) -> NodeId {
        let out = self.l.output_of(self.ast, child);
        self.ast.alloc(
            self.l.window,
            [Value::Set(out), Value::set([]), Value::Bool(true)],
            [child],
        )
    }

    /// A global/local limit pair as Spark produces for LIMIT.
    pub fn limit(&mut self, n: i64, child: NodeId) -> NodeId {
        let out = self.l.output_of(self.ast, child);
        let local = self.ast.alloc(
            self.l.local_limit,
            [Value::Set(out.clone()), Value::set([]), Value::Int(n)],
            [child],
        );
        self.ast.alloc(
            self.l.global_limit,
            [Value::Set(out), Value::set([]), Value::Int(n)],
            [local],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_all_operators() {
        let s = plan_schema();
        assert_eq!(s.label_count(), 12);
        let l = PlanLabels::of(&s);
        assert_eq!(s.def(l.join).max_children, 2);
        assert_eq!(s.def(l.table).max_children, 0);
    }

    #[test]
    fn builder_constructs_consistent_plans() {
        let s = plan_schema();
        let mut ast = Ast::new(s);
        let mut b = PlanBuilder::new(&mut ast);
        let t = b.table(1, [1, 2, 3]);
        let f = b.filter(7, [1], t);
        let p = b.project([2, 3], f);
        let l = b.l;
        ast.set_root(p);
        ast.validate().unwrap();
        assert_eq!(ast.subtree_size(p), 3);
        // Filter output = child output; project output as requested.
        assert!(l.output_of(&ast, f).contains(2));
        assert_eq!(l.output_of(&ast, p).len(), 2);
    }

    #[test]
    fn join_output_is_union() {
        let s = plan_schema();
        let mut ast = Ast::new(s);
        let mut b = PlanBuilder::new(&mut ast);
        let a = b.table(1, [1, 2]);
        let c = b.table(2, [3]);
        let j = b.join(9, a, c);
        let l = b.l;
        assert_eq!(
            l.output_of(&ast, j).iter().collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn noop_project_matches_child_output() {
        let s = plan_schema();
        let mut ast = Ast::new(s);
        let mut b = PlanBuilder::new(&mut ast);
        let t = b.table(1, [4, 5]);
        let np = b.noop_project(t);
        let l = b.l;
        assert_eq!(*l.output_of(&ast, np), *l.output_of(&ast, t));
    }
}
