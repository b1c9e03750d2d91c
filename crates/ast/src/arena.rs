//! The mutable AST arena.
//!
//! Nodes are stored in slot vector indexed by [`NodeId`]; children are id
//! arrays and every node carries a parent back-pointer (the paper's §5.1
//! notes ancestors "may be derived ... by extending the AST definition with
//! parent pointers" — we do exactly that). A rewrite is [`Ast::replace`]:
//! one pointer swap in the parent's child slot, leaving the displaced
//! subtree detached for the caller to free (or partially reuse) —
//! mirroring how the JITD compiler applies `⟨pattern, generator⟩` rules.

use crate::schema::{AttrName, Label, Schema};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Compact node handle: an index into the arena's slot vector.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Sentinel for "no node" (detached parents, empty roots).
    pub const NULL: NodeId = NodeId(u32::MAX);

    /// True for the null sentinel.
    #[inline]
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }

    /// Raw index (used by the relational encoding as the `id` column).
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from a raw index (used by the relational decoding).
    #[inline]
    pub fn from_index(index: u32) -> NodeId {
        NodeId(index)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "n∅")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// One AST node: `(label, attributes, children)` plus the parent pointer.
#[derive(Debug, Clone)]
pub struct Node {
    label: Label,
    attrs: Vec<Value>,
    children: Vec<NodeId>,
    parent: NodeId,
}

impl Node {
    /// The node's label.
    #[inline]
    pub fn label(&self) -> Label {
        self.label
    }

    /// Attribute values in schema storage order.
    #[inline]
    pub fn attrs(&self) -> &[Value] {
        &self.attrs
    }

    /// Child ids in order.
    #[inline]
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Parent id ([`NodeId::NULL`] for the root or detached nodes).
    #[inline]
    pub fn parent(&self) -> NodeId {
        self.parent
    }

    /// True if the node has no children (`isleaf` in the paper).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The arena-backed mutable AST.
pub struct Ast {
    schema: Arc<Schema>,
    slots: Vec<Option<Node>>,
    free: Vec<u32>,
    root: NodeId,
    live: usize,
}

impl Ast {
    /// Creates an empty AST over `schema` (no root yet).
    pub fn new(schema: Arc<Schema>) -> Self {
        Self {
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            root: NodeId::NULL,
            live: 0,
        }
    }

    /// The schema this AST follows.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Current root ([`NodeId::NULL`] if unset).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of live nodes (attached or detached).
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Allocates a node. Children must be live and detached; they become
    /// children of the new node. Panics on schema violations.
    pub fn alloc(&mut self, label: Label, attrs: Vec<Value>, children: Vec<NodeId>) -> NodeId {
        let def = self.schema.def(label);
        assert_eq!(
            attrs.len(),
            def.attrs.len(),
            "label {} expects {} attributes, got {}",
            def.name,
            def.attrs.len(),
            attrs.len()
        );
        assert!(
            children.len() <= def.max_children,
            "label {} allows at most {} children, got {}",
            def.name,
            def.max_children,
            children.len()
        );
        let id = match self.free.pop() {
            Some(idx) => NodeId(idx),
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena exhausted");
                self.slots.push(None);
                NodeId(idx)
            }
        };
        for &c in &children {
            let child = self.node_mut(c);
            assert!(child.parent.is_null(), "child {c:?} already attached");
            child.parent = id;
        }
        self.slots[id.0 as usize] = Some(Node {
            label,
            attrs,
            children,
            parent: NodeId::NULL,
        });
        self.live += 1;
        id
    }

    /// Designates a detached node as the root.
    pub fn set_root(&mut self, id: NodeId) {
        assert!(self.node(id).parent.is_null(), "root must be detached");
        self.root = id;
    }

    /// True if `id` refers to a live node.
    #[inline]
    pub fn is_live(&self, id: NodeId) -> bool {
        !id.is_null() && (id.0 as usize) < self.slots.len() && self.slots[id.0 as usize].is_some()
    }

    /// Immutable node access; panics on dead ids (a stale-id bug).
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        self.slots[id.0 as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("dead node {id:?}"))
    }

    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.slots[id.0 as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("dead node {id:?}"))
    }

    /// The node's label.
    #[inline]
    pub fn label(&self, id: NodeId) -> Label {
        self.node(id).label
    }

    /// The node's children.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// The node's parent ([`NodeId::NULL`] for root / detached).
    #[inline]
    pub fn parent(&self, id: NodeId) -> NodeId {
        self.node(id).parent
    }

    /// Attribute value by name; panics if the label doesn't declare it.
    #[inline]
    pub fn attr(&self, id: NodeId, attr: AttrName) -> &Value {
        let node = self.node(id);
        let idx = self.schema.attr_index(node.label, attr).unwrap_or_else(|| {
            panic!(
                "label {} has no attribute {}",
                self.schema.label_name(node.label),
                self.schema.attr_name(attr)
            )
        });
        &node.attrs[idx]
    }

    /// Overwrites an attribute value in place (an *update* event for IVM).
    pub fn set_attr(&mut self, id: NodeId, attr: AttrName, value: Value) {
        let label = self.node(id).label;
        let idx = self
            .schema
            .attr_index(label, attr)
            .unwrap_or_else(|| panic!("label has no such attribute"));
        self.node_mut(id).attrs[idx] = value;
    }

    /// Detaches `id` from its parent (removing it from the parent's child
    /// list). No-op for already-detached nodes. Used to extract `Reuse`
    /// subtrees before the rest of a replaced subtree is freed.
    pub fn detach(&mut self, id: NodeId) {
        let parent = self.node(id).parent;
        if parent.is_null() {
            if self.root == id {
                self.root = NodeId::NULL;
            }
            return;
        }
        let siblings = &mut self.node_mut(parent).children;
        let pos = siblings
            .iter()
            .position(|&c| c == id)
            .expect("child missing from parent");
        siblings.remove(pos);
        self.node_mut(id).parent = NodeId::NULL;
    }

    /// The single pointer swap of §5.1: replaces attached node `old` with
    /// detached node `new` in `old`'s parent slot (or as root). `old` is
    /// left detached and still live; the caller frees or reuses it.
    pub fn replace(&mut self, old: NodeId, new: NodeId) {
        assert!(
            self.node(new).parent.is_null(),
            "replacement {new:?} must be detached"
        );
        assert_ne!(old, new, "cannot replace a node with itself");
        let parent = self.node(old).parent;
        if parent.is_null() {
            assert_eq!(self.root, old, "old node is detached and not the root");
            self.root = new;
        } else {
            let slot = self
                .node(parent)
                .children
                .iter()
                .position(|&c| c == old)
                .expect("old missing from its parent");
            self.node_mut(parent).children[slot] = new;
            self.node_mut(new).parent = parent;
            self.node_mut(old).parent = NodeId::NULL;
        }
    }

    /// Frees a detached subtree, returning the freed ids (preorder).
    /// Panics if the subtree root is attached or is the AST root.
    pub fn free_subtree(&mut self, id: NodeId) -> Vec<NodeId> {
        assert!(
            self.node(id).parent.is_null(),
            "cannot free an attached subtree"
        );
        assert_ne!(self.root, id, "cannot free the root; detach it first");
        let ids = self.collect_subtree(id);
        for &n in &ids {
            self.slots[n.0 as usize] = None;
            self.free.push(n.0);
            self.live -= 1;
        }
        ids
    }

    /// Preorder ids of the subtree rooted at `id` (the paper's `Desc(N)`).
    pub fn collect_subtree(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            // Push children reversed so preorder pops left-to-right.
            for &c in self.node(n).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Iterates `Desc(id)` (the node and all descendants, preorder) without
    /// allocating the whole list up front.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            ast: self,
            stack: if id.is_null() { vec![] } else { vec![id] },
        }
    }

    /// Iterates proper ancestors of `id`, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors {
            ast: self,
            current: self.parent(id),
        }
    }

    /// The `depth`-th ancestor (1 = parent), or `NULL` if the path leaves
    /// the tree first. `Ancestor_i(N)` in the paper's Definition 6.
    pub fn ancestor_at(&self, id: NodeId, depth: usize) -> NodeId {
        let mut cur = id;
        for _ in 0..depth {
            if cur.is_null() {
                return NodeId::NULL;
            }
            cur = self.parent(cur);
        }
        cur
    }

    /// Number of nodes in the subtree rooted at `id`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.descendants(id).count()
    }

    /// Structural equality of two subtrees (labels, attributes, shapes).
    pub fn deep_eq(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        let (na, nb) = (self.node(a), self.node(b));
        if na.label != nb.label || na.attrs != nb.attrs || na.children.len() != nb.children.len() {
            return false;
        }
        na.children
            .iter()
            .zip(&nb.children)
            .all(|(&ca, &cb)| self.deep_eq(ca, cb))
    }

    /// A structural hash of the subtree at `id` (labels, attributes,
    /// arities). Used by optimizers for cheap fixpoint detection and memo
    /// signatures: equal trees hash equal; collisions are possible but
    /// irrelevant for the cost models that use this.
    pub fn structural_hash(&self, id: NodeId) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::fxhash::FxHasher::default();
        for n in self.descendants(id) {
            let node = self.node(n);
            node.label.hash(&mut h);
            for v in &node.attrs {
                v.hash(&mut h);
            }
            node.children.len().hash(&mut h);
        }
        h.finish()
    }

    /// Allocates a detached deep copy of the subtree at `src`.
    pub fn clone_subtree(&mut self, src: NodeId) -> NodeId {
        let node = self.node(src);
        let (label, attrs, children) = (node.label, node.attrs.clone(), node.children.clone());
        let copies: Vec<NodeId> = children.iter().map(|&c| self.clone_subtree(c)).collect();
        self.alloc(label, attrs, copies)
    }

    /// Approximate heap bytes held by the arena (slots, child vectors,
    /// attribute payloads). This is the *compiler's own* AST cost — the
    /// baseline every strategy's overhead in Figures 11/13 sits on top of.
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.slots.capacity() * std::mem::size_of::<Option<Node>>()
            + self.free.capacity() * std::mem::size_of::<u32>();
        for slot in self.slots.iter().flatten() {
            bytes += slot.children.capacity() * std::mem::size_of::<NodeId>();
            bytes += slot.attrs.capacity() * std::mem::size_of::<Value>();
            for v in &slot.attrs {
                bytes += v.heap_bytes();
            }
        }
        bytes
    }

    /// Consistency check used by tests and debug assertions: parent/child
    /// links agree, the root is live and detached, no child appears twice,
    /// and every live node is reachable from the root or from a detached
    /// ancestor.
    pub fn validate(&self) -> Result<(), String> {
        if !self.root.is_null() {
            if !self.is_live(self.root) {
                return Err("root is dead".into());
            }
            if !self.node(self.root).parent.is_null() {
                return Err("root has a parent".into());
            }
        }
        let mut live_seen = 0usize;
        // One dense scratch set for the whole pass; entries are removed
        // after each node so the per-node duplicate check stays O(children).
        let mut seen = crate::dense::NodeBitSet::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(node) = slot else { continue };
            live_seen += 1;
            let id = NodeId(idx as u32);
            for &c in &node.children {
                if !self.is_live(c) {
                    return Err(format!("{id:?} has dead child {c:?}"));
                }
                if !seen.insert(c) {
                    return Err(format!("{id:?} lists child {c:?} twice"));
                }
                if self.node(c).parent != id {
                    return Err(format!("child {c:?} of {id:?} has wrong parent"));
                }
            }
            for &c in &node.children {
                seen.remove(c);
            }
            if !node.parent.is_null() {
                if !self.is_live(node.parent) {
                    return Err(format!("{id:?} has dead parent"));
                }
                if !self.node(node.parent).children.contains(&id) {
                    return Err(format!("{id:?} missing from its parent's children"));
                }
            }
        }
        if live_seen != self.live {
            return Err(format!("live count {} != counted {}", self.live, live_seen));
        }
        Ok(())
    }
}

/// A self-contained snapshot of one node: the relational image
/// `(id, A(x₁)…A(x_k), id_N₁…id_N_c)` of §3, minus the label (carried
/// alongside by consumers that route rows to per-label relations).
///
/// Snapshots let the instrumented compiler report *removed* nodes to
/// bolt-on view structures after the nodes have already been freed.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRow {
    /// The node id (`id_N`).
    pub id: NodeId,
    /// Attribute values in schema storage order.
    pub attrs: Vec<Value>,
    /// Child ids.
    pub children: Vec<NodeId>,
}

impl NodeRow {
    /// Snapshots a live node.
    pub fn of(ast: &Ast, id: NodeId) -> NodeRow {
        let node = ast.node(id);
        NodeRow {
            id,
            attrs: node.attrs().to_vec(),
            children: node.children().to_vec(),
        }
    }

    /// Approximate heap bytes of this snapshot (shadow-copy accounting).
    pub fn heap_bytes(&self) -> usize {
        self.attrs.capacity() * std::mem::size_of::<Value>()
            + self.attrs.iter().map(Value::heap_bytes).sum::<usize>()
            + self.children.capacity() * std::mem::size_of::<NodeId>()
    }
}

/// Preorder iterator over a subtree. See [`Ast::descendants`].
pub struct Descendants<'a> {
    ast: &'a Ast,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        for &c in self.ast.node(id).children().iter().rev() {
            self.stack.push(c);
        }
        Some(id)
    }
}

/// Parent-chain iterator. See [`Ast::ancestors`].
pub struct Ancestors<'a> {
    ast: &'a Ast,
    current: NodeId,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.current.is_null() {
            return None;
        }
        let out = self.current;
        self.current = self.ast.parent(out);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::arith_schema;
    use crate::value::Value;

    /// Builds the paper's Figure 3 AST: `2 * y + x`.
    fn fig3() -> (Ast, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let schema = arith_schema();
        let mut ast = Ast::new(schema.clone());
        let arith = schema.expect_label("Arith");
        let constant = schema.expect_label("Const");
        let var = schema.expect_label("Var");
        let two = ast.alloc(constant, vec![Value::Int(2)], vec![]);
        let y = ast.alloc(var, vec![Value::str("y")], vec![]);
        let mul = ast.alloc(arith, vec![Value::str("*")], vec![two, y]);
        let x = ast.alloc(var, vec![Value::str("x")], vec![]);
        let add = ast.alloc(arith, vec![Value::str("+")], vec![mul, x]);
        ast.set_root(add);
        (ast, add, mul, two, y, x)
    }

    #[test]
    fn build_fig3_and_navigate() {
        let (ast, add, mul, two, y, x) = fig3();
        assert_eq!(ast.root(), add);
        assert_eq!(ast.children(add), &[mul, x]);
        assert_eq!(ast.parent(mul), add);
        assert_eq!(ast.parent(two), mul);
        let op = ast.schema().expect_attr("op");
        assert_eq!(ast.attr(add, op).as_str(), "+");
        assert_eq!(ast.attr(mul, op).as_str(), "*");
        assert!(ast.node(y).is_leaf());
        assert_eq!(ast.live_count(), 5);
        ast.validate().unwrap();
    }

    #[test]
    fn descendants_preorder() {
        let (ast, add, mul, two, y, x) = fig3();
        let desc: Vec<NodeId> = ast.descendants(add).collect();
        assert_eq!(desc, vec![add, mul, two, y, x]);
        assert_eq!(ast.subtree_size(add), 5);
        assert_eq!(ast.subtree_size(mul), 3);
    }

    #[test]
    fn ancestors_nearest_first() {
        let (ast, add, mul, two, _, _) = fig3();
        let anc: Vec<NodeId> = ast.ancestors(two).collect();
        assert_eq!(anc, vec![mul, add]);
        assert_eq!(ast.ancestor_at(two, 1), mul);
        assert_eq!(ast.ancestor_at(two, 2), add);
        assert_eq!(ast.ancestor_at(two, 3), NodeId::NULL);
        assert_eq!(ast.ancestor_at(add, 0), add);
    }

    #[test]
    fn replace_is_a_pointer_swap() {
        // Example 5.1: the left subtree (2 * y) is replaced by Const(0).
        let (mut ast, add, mul, _, _, x) = fig3();
        let constant = ast.schema().expect_label("Const");
        let zero = ast.alloc(constant, vec![Value::Int(0)], vec![]);
        ast.replace(mul, zero);
        assert_eq!(ast.children(add), &[zero, x]);
        assert_eq!(ast.parent(zero), add);
        assert!(ast.parent(mul).is_null(), "old subtree is detached");
        ast.validate().unwrap();
        // The old subtree can now be freed; live count drops by 3.
        let freed = ast.free_subtree(mul);
        assert_eq!(freed.len(), 3);
        assert_eq!(ast.live_count(), 3);
        ast.validate().unwrap();
    }

    #[test]
    fn replace_root() {
        let (mut ast, add, _, _, _, _) = fig3();
        let var = ast.schema().expect_label("Var");
        let z = ast.alloc(var, vec![Value::str("z")], vec![]);
        ast.replace(add, z);
        assert_eq!(ast.root(), z);
        assert!(ast.parent(add).is_null());
        ast.validate().unwrap();
    }

    #[test]
    fn detach_then_reuse_in_new_subtree() {
        // Mimics a generator Reuse: pull `x` out, rebuild a new node over it.
        let (mut ast, add, mul, _, _, x) = fig3();
        ast.detach(x);
        assert_eq!(ast.children(add), &[mul]);
        let arith = ast.schema().expect_label("Arith");
        let constant = ast.schema().expect_label("Const");
        let one = ast.alloc(constant, vec![Value::Int(1)], vec![]);
        let new = ast.alloc(arith, vec![Value::str("*")], vec![one, x]);
        ast.replace(mul, new);
        ast.validate().unwrap();
        assert_eq!(ast.parent(x), new);
        let freed = ast.free_subtree(mul);
        assert_eq!(freed.len(), 3, "two/y/mul freed; x survived via reuse");
    }

    #[test]
    fn freed_slots_are_recycled() {
        let (mut ast, _, mul, _, _, _) = fig3();
        let constant = ast.schema().expect_label("Const");
        let zero = ast.alloc(constant, vec![Value::Int(0)], vec![]);
        ast.replace(mul, zero);
        let freed = ast.free_subtree(mul);
        let before = ast.slots.len();
        for _ in 0..freed.len() {
            ast.alloc(constant, vec![Value::Int(1)], vec![]);
        }
        assert_eq!(ast.slots.len(), before, "allocations reused the free list");
    }

    #[test]
    fn deep_eq_and_clone_subtree() {
        let (mut ast, add, mul, _, _, _) = fig3();
        let copy = ast.clone_subtree(add);
        assert!(ast.deep_eq(add, copy));
        assert!(!ast.deep_eq(mul, copy));
        // Mutating the copy breaks equality.
        let op = ast.schema().expect_attr("op");
        ast.set_attr(copy, op, Value::str("-"));
        assert!(!ast.deep_eq(add, copy));
    }

    #[test]
    #[should_panic(expected = "dead node")]
    fn stale_id_access_panics() {
        let (mut ast, _, mul, two, _, _) = fig3();
        let constant = ast.schema().expect_label("Const");
        let zero = ast.alloc(constant, vec![Value::Int(0)], vec![]);
        ast.replace(mul, zero);
        ast.free_subtree(mul);
        let _ = ast.label(two);
    }

    #[test]
    #[should_panic(expected = "expects 1 attributes")]
    fn alloc_checks_attr_arity() {
        let schema = arith_schema();
        let mut ast = Ast::new(schema.clone());
        ast.alloc(schema.expect_label("Const"), vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "at most 0 children")]
    fn alloc_checks_child_bound() {
        let schema = arith_schema();
        let mut ast = Ast::new(schema.clone());
        let a = ast.alloc(schema.expect_label("Const"), vec![Value::Int(1)], vec![]);
        ast.alloc(schema.expect_label("Const"), vec![Value::Int(2)], vec![a]);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn alloc_rejects_attached_children() {
        let (mut ast, _, _, two, _, _) = fig3();
        let arith = ast.schema().expect_label("Arith");
        ast.alloc(arith, vec![Value::str("+")], vec![two]);
    }

    #[test]
    #[should_panic(expected = "must be detached")]
    fn replace_rejects_attached_replacement() {
        let (mut ast, _, mul, two, _, _) = fig3();
        ast.replace(mul, two);
    }

    #[test]
    fn memory_bytes_grows_with_nodes() {
        let schema = arith_schema();
        let mut ast = Ast::new(schema.clone());
        let baseline = ast.memory_bytes();
        let constant = schema.expect_label("Const");
        for i in 0..64 {
            ast.alloc(constant, vec![Value::Int(i)], vec![]);
        }
        assert!(ast.memory_bytes() > baseline);
    }
}
