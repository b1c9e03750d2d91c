//! Secondary index on AST node labels (paper §4.1).
//!
//! "For each node label, the index maintains pointers to all nodes with
//! that label. Updates to the AST are propagated into the index. Pattern
//! match queries can use this index to scan a subset of the AST that
//! includes only nodes with the appropriate label" — Algorithm 1.
//!
//! This is the **Index** baseline of the evaluation: maintenance is one
//! hash insert/remove per changed node (cheap, small), but a search still
//! re-checks recursive sub-patterns and constraints on every candidate,
//! which is why it scales poorly on update-heavy workloads (Figure 10's
//! workloads A and F).

use tt_ast::{Ast, Label, NodeId, NodeMap, Schema};
use tt_pattern::{Pattern, PatternNode};

/// One label's posting list: a dense vector for cheap iteration plus a
/// page-backed position map (`tt_ast::dense::NodeMap`) for O(1) removal
/// (`swap_remove`) with no hashing on the per-node maintenance path.
#[derive(Debug, Default)]
struct Bucket {
    items: Vec<NodeId>,
    pos: NodeMap<u32>,
}

impl Bucket {
    fn insert(&mut self, id: NodeId) {
        debug_assert!(!self.pos.contains_key(id), "{id:?} indexed twice");
        self.pos.insert(id, self.items.len() as u32);
        self.items.push(id);
    }

    fn remove(&mut self, id: NodeId) {
        let Some(at) = self.pos.remove(id) else {
            panic!("removing unindexed node {id:?}");
        };
        let at = at as usize;
        self.items.swap_remove(at);
        if let Some(&moved) = self.items.get(at) {
            self.pos.insert(moved, at as u32);
        }
    }

    fn memory_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<NodeId>() + self.pos.memory_bytes()
    }
}

/// The label index: `ℓ → { nodes with label ℓ }`.
#[derive(Debug)]
pub struct LabelIndex {
    buckets: Vec<Bucket>,
}

impl LabelIndex {
    /// An empty index over `schema`'s labels.
    pub fn new(schema: &Schema) -> LabelIndex {
        LabelIndex {
            buckets: (0..schema.label_count())
                .map(|_| Bucket::default())
                .collect(),
        }
    }

    /// Builds the index for every node reachable from `root`.
    pub fn build_from(ast: &Ast, root: NodeId) -> LabelIndex {
        let mut idx = LabelIndex::new(ast.schema());
        if !root.is_null() {
            for n in ast.descendants(root) {
                idx.insert(ast.label(n), n);
            }
        }
        idx
    }

    /// Registers a new node.
    #[inline]
    pub fn insert(&mut self, label: Label, id: NodeId) {
        self.buckets[label.0 as usize].insert(id);
    }

    /// Unregisters a removed node.
    #[inline]
    pub fn remove(&mut self, label: Label, id: NodeId) {
        self.buckets[label.0 as usize].remove(id);
    }

    /// All nodes currently carrying `label` (arbitrary order).
    #[inline]
    pub fn nodes(&self, label: Label) -> &[NodeId] {
        &self.buckets[label.0 as usize].items
    }

    /// Number of nodes with `label`.
    pub fn len(&self, label: Label) -> usize {
        self.buckets[label.0 as usize].items.len()
    }

    /// Total indexed nodes.
    pub fn total_len(&self) -> usize {
        self.buckets.iter().map(|b| b.items.len()).sum()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// Algorithm 1: scan the posting list for the pattern's root label,
    /// restricted to candidates passing `live`, and return the first
    /// that `matches` accepts (the caller re-checks the full pattern —
    /// recursive matches and constraints). `root_label` is `None` for
    /// an `AnyNode` pattern root: the whole tree matches, so only the
    /// AST root is checked (line 2 of the algorithm).
    ///
    /// Batched maintenance uses `live` as its read overlay: posting-list
    /// entries staged for removal in an open epoch may point at freed
    /// (or reused) arena slots, so they must be skipped *before* the
    /// matcher dereferences them.
    pub fn lookup_where(
        &self,
        ast: &Ast,
        root_label: Option<Label>,
        live: impl Fn(Label, NodeId) -> bool,
        mut matches: impl FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        match root_label {
            None => {
                let root = ast.root();
                (!root.is_null() && matches(root)).then_some(root)
            }
            Some(label) => self
                .nodes(label)
                .iter()
                .copied()
                .filter(|&n| live(label, n))
                .find(|&n| matches(n)),
        }
    }

    /// All matches found through the index (for tests/oracles).
    pub fn index_lookup_all(&self, ast: &Ast, pattern: &Pattern) -> Vec<NodeId> {
        match pattern.root() {
            PatternNode::Any { .. } => tt_pattern::match_set(ast, ast.root(), pattern),
            PatternNode::Match { label, .. } => self
                .nodes(*label)
                .iter()
                .copied()
                .filter(|&n| tt_pattern::matches(ast, n, pattern))
                .collect(),
        }
    }

    /// Approximate heap bytes (the paper reports ~28 bytes per node for a
    /// C++ `unordered_set`; our bucket layout is in the same regime).
    pub fn memory_bytes(&self) -> usize {
        self.buckets.iter().map(Bucket::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_ast::schema::arith_schema;
    use tt_ast::sexpr::parse_sexpr;
    use tt_pattern::dsl::*;
    use tt_pattern::{match_node, matches};

    fn tree(text: &str) -> (Ast, NodeId) {
        let mut ast = Ast::new(arith_schema());
        let id = parse_sexpr(&mut ast, text).unwrap();
        ast.set_root(id);
        (ast, id)
    }

    fn add_zero(ast: &Ast) -> Pattern {
        Pattern::compile(
            ast.schema(),
            node(
                "Arith",
                "A",
                [
                    node("Const", "B", [], eq(attr("B", "val"), int(0))),
                    node("Var", "C", [], tru()),
                ],
                eq(attr("A", "op"), str_("+")),
            ),
        )
    }

    #[test]
    fn build_counts_labels() {
        let (ast, root) =
            tree(r#"(Arith op="+" (Arith op="*" (Const val=2) (Var name="y")) (Var name="x"))"#);
        let idx = LabelIndex::build_from(&ast, root);
        let schema = ast.schema();
        assert_eq!(idx.len(schema.expect_label("Arith")), 2);
        assert_eq!(idx.len(schema.expect_label("Const")), 1);
        assert_eq!(idx.len(schema.expect_label("Var")), 2);
        assert_eq!(idx.total_len(), 5);
    }

    #[test]
    fn example_4_1_lookup() {
        // "retrieve a list of all Arith nodes from the index and
        //  iteratively check each for a pattern match."
        let (ast, root) = tree(r#"(Arith op="+" (Const val=0) (Var name="b"))"#);
        let idx = LabelIndex::build_from(&ast, root);
        let q = add_zero(&ast);
        let found = idx.lookup_where(&ast, q.root_label(), |_, _| true, |n| matches(&ast, n, &q));
        assert_eq!(found, Some(root));
        let bindings = match_node(&ast, root, &q).unwrap();
        assert_eq!(bindings.get(q.var("A").unwrap()), root);
    }

    #[test]
    fn lookup_misses_when_constraint_fails() {
        let (ast, root) = tree(r#"(Arith op="+" (Const val=3) (Var name="b"))"#);
        let idx = LabelIndex::build_from(&ast, root);
        let q = add_zero(&ast);
        let found = idx.lookup_where(&ast, q.root_label(), |_, _| true, |n| matches(&ast, n, &q));
        assert!(found.is_none());
    }

    #[test]
    fn maintenance_tracks_insert_remove() {
        let (mut ast, root) = tree(r#"(Arith op="*" (Const val=2) (Var name="y"))"#);
        let mut idx = LabelIndex::build_from(&ast, root);
        let schema = ast.schema().clone();
        let constant = schema.expect_label("Const");
        // Replace Var(y) with Const(0): one remove + one insert.
        let y = ast.children(root)[1];
        let zero = ast.alloc(constant, vec![tt_ast::Value::Int(0)], vec![]);
        idx.insert(constant, zero);
        ast.replace(y, zero);
        idx.remove(schema.expect_label("Var"), y);
        ast.free_subtree(y);
        assert_eq!(idx.len(constant), 2);
        assert_eq!(idx.len(schema.expect_label("Var")), 0);
        assert_eq!(idx.total_len(), 3);
    }

    #[test]
    fn swap_remove_keeps_positions_consistent() {
        let schema = arith_schema();
        let mut idx = LabelIndex::new(&schema);
        let constant = schema.expect_label("Const");
        let ids: Vec<NodeId> = (0..10).map(NodeId::from_index).collect();
        for &id in &ids {
            idx.insert(constant, id);
        }
        // Remove from the middle, then the ends.
        idx.remove(constant, ids[4]);
        idx.remove(constant, ids[0]);
        idx.remove(constant, ids[9]);
        assert_eq!(idx.len(constant), 7);
        for &id in &[ids[1], ids[5], ids[8]] {
            assert!(idx.nodes(constant).contains(&id));
        }
        for &id in &[ids[0], ids[4], ids[9]] {
            assert!(!idx.nodes(constant).contains(&id));
        }
    }

    #[test]
    #[should_panic(expected = "unindexed")]
    fn remove_of_missing_node_panics() {
        let schema = arith_schema();
        let mut idx = LabelIndex::new(&schema);
        idx.remove(schema.expect_label("Const"), NodeId::from_index(1));
    }

    #[test]
    fn filtered_lookup_skips_dead_candidates() {
        // Two AddZero sites; filtering the first one out must surface
        // the second, and filtering both must miss.
        let (ast, root) = tree(
            r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="a")) (Arith op="+" (Const val=0) (Var name="b")))"#,
        );
        let idx = LabelIndex::build_from(&ast, root);
        let q = add_zero(&ast);
        let first = ast.children(root)[0];
        let second = ast.children(root)[1];
        let label = q.root_label();
        let check = |n| matches(&ast, n, &q);
        let got = idx.lookup_where(&ast, label, |_, n| n != first, check);
        assert_eq!(got, Some(second));
        assert!(idx
            .lookup_where(&ast, label, |_, n| n != first && n != second, check)
            .is_none());
    }

    #[test]
    fn lookup_all_agrees_with_naive_matcher() {
        let (ast, root) =
            tree(r#"(Arith op="+" (Arith op="+" (Const val=0) (Var name="a")) (Var name="b"))"#);
        let idx = LabelIndex::build_from(&ast, root);
        let q = add_zero(&ast);
        let mut via_index = idx.index_lookup_all(&ast, &q);
        let mut naive = tt_pattern::match_set(&ast, root, &q);
        via_index.sort();
        naive.sort();
        assert_eq!(via_index, naive);
    }

    #[test]
    fn memory_accounting_nonzero_after_build() {
        let (ast, root) = tree(r#"(Arith op="*" (Const val=2) (Var name="y"))"#);
        let idx = LabelIndex::build_from(&ast, root);
        assert!(idx.memory_bytes() > 0);
    }
}
