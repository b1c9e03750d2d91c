//! The JITD key/value index over the AST.
//!
//! Reads resolve *last-writer-wins* shadowing: an insert wraps the root in
//! `Concat(old, Singleton)` (the right child is newer), a delete wraps it
//! in `DeleteSingleton(key, old)`. `get` therefore searches Concat right
//! children first, treats a matching `DeleteSingleton` as a tombstone, and
//! routes through `BinTree` separators (`key < sep` → left).

use crate::schema::jitd_schema;
use std::cell::Cell;
use std::collections::BTreeMap;
use tt_ast::{Ast, AttrName, Label, NodeId, Record, Value};

/// Interned labels/attributes of the JITD schema, for hot-path access.
#[derive(Debug, Clone, Copy)]
pub struct JitdLabels {
    /// `Array` label.
    pub array: Label,
    /// `Singleton` label.
    pub singleton: Label,
    /// `DeleteSingleton` label.
    pub delete_singleton: Label,
    /// `Concat` label.
    pub concat: Label,
    /// `BinTree` label.
    pub bintree: Label,
    /// `Array.data`.
    pub data: AttrName,
    /// `Array.size`.
    pub size: AttrName,
    /// `Singleton.key` / `DeleteSingleton.key`.
    pub key: AttrName,
    /// `Singleton.value`.
    pub value: AttrName,
    /// `BinTree.sep`.
    pub sep: AttrName,
}

impl JitdLabels {
    /// Interns from the JITD schema.
    pub fn of(schema: &tt_ast::Schema) -> JitdLabels {
        JitdLabels {
            array: schema.expect_label("Array"),
            singleton: schema.expect_label("Singleton"),
            delete_singleton: schema.expect_label("DeleteSingleton"),
            concat: schema.expect_label("Concat"),
            bintree: schema.expect_label("BinTree"),
            data: schema.expect_attr("data"),
            size: schema.expect_attr("size"),
            key: schema.expect_attr("key"),
            value: schema.expect_attr("value"),
            sep: schema.expect_attr("sep"),
        }
    }
}

/// The index: an [`Ast`] plus the interned schema handles.
pub struct JitdIndex {
    ast: Ast,
    labels: JitdLabels,
    /// The read path's explicit stack, kept between calls so a `get`
    /// allocates nothing once it has grown to the tree's fan-out.
    stack: Cell<Vec<NodeId>>,
}

impl JitdIndex {
    /// An empty index (root is an empty Array).
    pub fn new() -> JitdIndex {
        let schema = jitd_schema();
        let labels = JitdLabels::of(&schema);
        let mut ast = Ast::new(schema);
        let root = ast.alloc(
            labels.array,
            vec![Value::recs(vec![]), Value::Int(0)],
            vec![],
        );
        ast.set_root(root);
        JitdIndex::over(ast, labels)
    }

    /// Loads `records` (sorted by key; duplicate keys last-wins) as one
    /// big root Array — the paper's initial state for cracking.
    pub fn load(records: Vec<Record>) -> JitdIndex {
        let mut sorted = records;
        sorted.sort_by_key(|r| r.key);
        sorted.dedup_by_key(|r| r.key);
        let schema = jitd_schema();
        let labels = JitdLabels::of(&schema);
        let mut ast = Ast::new(schema);
        let size = sorted.len() as i64;
        let root = ast.alloc(
            labels.array,
            vec![Value::recs(sorted), Value::Int(size)],
            vec![],
        );
        ast.set_root(root);
        JitdIndex::over(ast, labels)
    }

    fn over(ast: Ast, labels: JitdLabels) -> JitdIndex {
        JitdIndex {
            ast,
            labels,
            stack: Cell::new(Vec::new()),
        }
    }

    /// The underlying AST.
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// Mutable AST access (for the reorganizer).
    pub fn ast_mut(&mut self) -> &mut Ast {
        &mut self.ast
    }

    /// The interned handles.
    pub fn labels(&self) -> &JitdLabels {
        &self.labels
    }

    /// Runs `walk` with the emptied reusable stack, then puts it back.
    fn with_stack<R>(&self, walk: impl FnOnce(&mut Vec<NodeId>) -> R) -> R {
        let mut stack = self.stack.take();
        stack.clear();
        let out = walk(&mut stack);
        self.stack.set(stack);
        out
    }

    /// Point lookup with shadowing semantics.
    pub fn get(&self, key: i64) -> Option<i64> {
        self.with_stack(|pending| self.probe(key, pending))
    }

    /// Newest-first search without recursion: a `Concat` parks its older
    /// (left) child on `pending` and descends into the newer (right) one;
    /// a leaf that misses resumes at the most recently parked child. The
    /// first value or tombstone found wins, so the answer is the one a
    /// right-first recursive search gives, at no call-stack depth.
    fn probe(&self, key: i64, pending: &mut Vec<NodeId>) -> Option<i64> {
        let l = &self.labels;
        let mut node = self.ast.root();
        loop {
            let label = self.ast.label(node);
            if label == l.concat {
                let ch = self.ast.children(node);
                pending.push(ch[0]);
                node = ch[1];
                continue;
            }
            if label == l.bintree {
                let sep = self.ast.attr(node, l.sep).as_int();
                let ch = self.ast.children(node);
                node = if key < sep { ch[0] } else { ch[1] };
                continue;
            }
            if label == l.delete_singleton {
                if self.ast.attr(node, l.key).as_int() == key {
                    return None; // tombstone
                }
                node = self.ast.children(node)[0];
                continue;
            }
            if label == l.singleton {
                if self.ast.attr(node, l.key).as_int() == key {
                    return Some(self.ast.attr(node, l.value).as_int());
                }
            } else {
                debug_assert_eq!(label, l.array);
                let data = self.ast.attr(node, l.data).as_recs();
                if let Ok(at) = data.binary_search_by_key(&key, |r| r.key) {
                    return Some(data[at].value);
                }
            }
            node = pending.pop()?;
        }
    }

    /// Range scan: up to `n` live records with `key ≥ low`, ascending.
    pub fn scan(&self, low: i64, n: usize) -> Vec<Record> {
        let mut acc: BTreeMap<i64, ScanEntry> = BTreeMap::new();
        self.with_stack(|pending| self.collect(low, &mut acc, pending));
        acc.into_iter()
            .filter_map(|(k, e)| match e {
                ScanEntry::Val(v) => Some(Record::new(k, v)),
                ScanEntry::Tomb => None,
            })
            .take(n)
            .collect()
    }

    /// First writer wins, so the walk visits newest-first: children are
    /// pushed in reverse of the order a recursive walk would visit them,
    /// and each subtree is finished before its older sibling is popped.
    fn collect(&self, low: i64, acc: &mut BTreeMap<i64, ScanEntry>, pending: &mut Vec<NodeId>) {
        let l = &self.labels;
        pending.push(self.ast.root());
        while let Some(node) = pending.pop() {
            let label = self.ast.label(node);
            if label == l.concat {
                let ch = self.ast.children(node);
                pending.push(ch[0]);
                pending.push(ch[1]); // newer first
            } else if label == l.bintree {
                let sep = self.ast.attr(node, l.sep).as_int();
                let ch = self.ast.children(node);
                pending.push(ch[1]);
                if low < sep {
                    pending.push(ch[0]);
                }
            } else if label == l.singleton {
                let key = self.ast.attr(node, l.key).as_int();
                if key >= low {
                    acc.entry(key)
                        .or_insert(ScanEntry::Val(self.ast.attr(node, l.value).as_int()));
                }
            } else if label == l.delete_singleton {
                let key = self.ast.attr(node, l.key).as_int();
                if key >= low {
                    acc.entry(key).or_insert(ScanEntry::Tomb);
                }
                pending.push(self.ast.children(node)[0]);
            } else {
                let data = self.ast.attr(node, l.data).as_recs();
                let start = data.partition_point(|r| r.key < low);
                for r in &data[start..] {
                    acc.entry(r.key).or_insert(ScanEntry::Val(r.value));
                }
            }
        }
    }

    /// Wraps the root for an insert: `root := Concat(root, Singleton)`.
    /// Returns the created nodes (for strategy `on_graft` notification).
    pub fn wrap_insert(&mut self, key: i64, value: i64) -> [NodeId; 2] {
        let l = self.labels;
        let old_root = self.ast.root();
        self.ast.detach(old_root);
        let singleton = self
            .ast
            .alloc(l.singleton, [Value::Int(key), Value::Int(value)], []);
        let concat = self.ast.alloc(l.concat, [], [old_root, singleton]);
        self.ast.set_root(concat);
        [singleton, concat]
    }

    /// Wraps the root for a delete: `root := DeleteSingleton(key, root)`.
    pub fn wrap_delete(&mut self, key: i64) -> [NodeId; 1] {
        let l = self.labels;
        let old_root = self.ast.root();
        self.ast.detach(old_root);
        let ds = self
            .ast
            .alloc(l.delete_singleton, [Value::Int(key)], [old_root]);
        self.ast.set_root(ds);
        [ds]
    }

    /// Structural sanity: BinTree separators partition their subtrees'
    /// key ranges and Array `size` attributes match their data.
    pub fn check_structure(&self) -> Result<(), String> {
        self.ast.validate()?;
        self.check_ranges()
    }

    /// Walks the tree with an explicit stack of `(node, lo, hi)` key
    /// ranges, so a check of a deep spine costs no call-stack depth;
    /// children are pushed in reverse so the first error found is the
    /// one a left-to-right recursive walk would report.
    fn check_ranges(&self) -> Result<(), String> {
        let l = &self.labels;
        let mut pending = vec![(self.ast.root(), i64::MIN, i64::MAX)];
        while let Some((node, lo, hi)) = pending.pop() {
            let label = self.ast.label(node);
            let in_range = |k: i64| lo <= k && k < hi;
            if label == l.bintree {
                let sep = self.ast.attr(node, l.sep).as_int();
                if !in_range(sep) {
                    return Err(format!("separator {sep} outside [{lo},{hi}) at {node:?}"));
                }
                let ch = self.ast.children(node);
                pending.push((ch[1], sep, hi));
                pending.push((ch[0], lo, sep));
            } else if label == l.concat {
                let ch = self.ast.children(node);
                pending.push((ch[1], lo, hi));
                pending.push((ch[0], lo, hi));
            } else if label == l.delete_singleton {
                let k = self.ast.attr(node, l.key).as_int();
                if !in_range(k) {
                    return Err(format!("tombstone key {k} outside [{lo},{hi})"));
                }
                pending.push((self.ast.children(node)[0], lo, hi));
            } else if label == l.singleton {
                let k = self.ast.attr(node, l.key).as_int();
                if !in_range(k) {
                    return Err(format!("singleton key {k} outside [{lo},{hi})"));
                }
            } else {
                let data = self.ast.attr(node, l.data).as_recs();
                let size = self.ast.attr(node, l.size).as_int();
                if size as usize != data.len() {
                    return Err(format!("array size attr {size} != data len {}", data.len()));
                }
                if !data.windows(2).all(|w| w[0].key < w[1].key) {
                    return Err("array not strictly sorted".into());
                }
                if let (Some(first), Some(last)) = (data.first(), data.last()) {
                    if !in_range(first.key) || !in_range(last.key) {
                        return Err(format!(
                            "array range [{},{}] outside [{lo},{hi})",
                            first.key, last.key
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Scan entries, bridged through `From` so `collect` can stay generic.
#[derive(Clone, Copy)]
enum ScanEntry {
    Val(i64),
    Tomb,
}

impl Default for JitdIndex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(pairs: &[(i64, i64)]) -> Vec<Record> {
        pairs.iter().map(|&(k, v)| Record::new(k, v)).collect()
    }

    #[test]
    fn load_and_get() {
        let idx = JitdIndex::load(recs(&[(1, 10), (5, 50), (9, 90)]));
        assert_eq!(idx.get(1), Some(10));
        assert_eq!(idx.get(5), Some(50));
        assert_eq!(idx.get(9), Some(90));
        assert_eq!(idx.get(4), None);
        idx.check_structure().unwrap();
    }

    #[test]
    fn insert_shadows_older_values() {
        let mut idx = JitdIndex::load(recs(&[(1, 10), (2, 20)]));
        idx.wrap_insert(1, 111);
        assert_eq!(idx.get(1), Some(111), "newer singleton wins");
        assert_eq!(idx.get(2), Some(20));
        idx.check_structure().unwrap();
    }

    #[test]
    fn delete_creates_tombstone_and_insert_resurrects() {
        let mut idx = JitdIndex::load(recs(&[(1, 10), (2, 20)]));
        idx.wrap_delete(1);
        assert_eq!(idx.get(1), None);
        assert_eq!(idx.get(2), Some(20));
        idx.wrap_insert(1, 12);
        assert_eq!(idx.get(1), Some(12), "later insert shadows tombstone");
        idx.check_structure().unwrap();
    }

    #[test]
    fn scan_merges_and_honors_tombstones() {
        let mut idx = JitdIndex::load(recs(&[(1, 10), (3, 30), (5, 50), (7, 70)]));
        idx.wrap_delete(3);
        idx.wrap_insert(5, 55);
        idx.wrap_insert(2, 22);
        let out = idx.scan(2, 10);
        assert_eq!(out, recs(&[(2, 22), (5, 55), (7, 70)]));
        let limited = idx.scan(2, 2);
        assert_eq!(limited, recs(&[(2, 22), (5, 55)]));
    }

    #[test]
    fn empty_index_behaves() {
        let idx = JitdIndex::new();
        assert_eq!(idx.get(1), None);
        assert!(idx.scan(0, 5).is_empty());
        idx.check_structure().unwrap();
    }

    /// The read path and the structure check must not recurse per tree
    /// level: with reorganization off, every write deepens the
    /// `Concat`/`DeleteSingleton` spine, and a recursive walk overflows a
    /// small thread stack long before 100 000 levels.
    #[test]
    fn reads_survive_a_deep_spine_on_a_small_stack() {
        const DEPTH: i64 = 100_000;
        const KEYS: i64 = 5_000;
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let loaded: Vec<(i64, i64)> = (0..KEYS).step_by(2).map(|k| (k, k)).collect();
                let mut model: BTreeMap<i64, i64> = loaded.iter().copied().collect();
                let mut idx = JitdIndex::load(recs(&loaded));
                let mut concats = 0;
                let mut rng = 0x9E37_79B9_7F4A_7C15u64;
                while concats < DEPTH {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let key = (rng % KEYS as u64) as i64;
                    if rng.is_multiple_of(8) {
                        idx.wrap_delete(key);
                        model.remove(&key);
                    } else {
                        idx.wrap_insert(key, concats);
                        model.insert(key, concats);
                        concats += 1;
                    }
                }
                // Each probe of a key the spine never wrote walks all of it.
                for key in (-1..=KEYS).step_by(23) {
                    assert_eq!(idx.get(key), model.get(&key).copied(), "key {key}");
                }
                let want = |low: i64, n: usize| -> Vec<Record> {
                    model
                        .range(low..)
                        .take(n)
                        .map(|(&k, &v)| Record::new(k, v))
                        .collect()
                };
                assert_eq!(idx.scan(i64::MIN, usize::MAX), want(i64::MIN, usize::MAX));
                assert_eq!(idx.scan(KEYS / 3, 50), want(KEYS / 3, 50));
                idx.check_structure().unwrap();
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// The arena's whole-subtree walks must not recurse per level either:
    /// copying and comparing a 100 000-deep `Concat` spine overflows a
    /// small thread stack if either one recurses.
    #[test]
    fn subtree_copy_and_compare_survive_a_deep_spine_on_a_small_stack() {
        const DEPTH: i64 = 100_000;
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut idx = JitdIndex::load(recs(&[(1, 1), (2, 2)]));
                for i in 0..DEPTH {
                    idx.wrap_insert(i % 97, i);
                }
                let l = *idx.labels();
                let root = idx.ast().root();
                let ast = idx.ast_mut();
                let copy = ast.clone_subtree(root);
                assert_eq!(ast.subtree_size(copy), ast.subtree_size(root));
                assert!(ast.deep_eq(root, copy));
                // Change the copy's bottom Array: only a walk that
                // reaches the last level can tell the trees apart.
                let mut bottom = copy;
                while ast.label(bottom) == l.concat {
                    bottom = ast.children(bottom)[0];
                }
                ast.set_attr(bottom, l.size, Value::Int(-1));
                assert!(!ast.deep_eq(root, copy));
                ast.validate().unwrap();
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn check_structure_reports_the_first_misplaced_key() {
        // Both subtrees break their separator's range; the left one is
        // reported, as a left-to-right walk meets it first.
        let mut idx = JitdIndex::new();
        let root = tt_ast::sexpr::parse_sexpr(
            idx.ast_mut(),
            "(BinTree sep=5 \
               (Concat (Array data=[1:1] size=1) (Singleton key=7 value=7)) \
               (DeleteSingleton key=3 (Array data=[9:9] size=1)))",
        )
        .unwrap();
        idx.ast_mut().set_root(root);
        assert_eq!(
            idx.check_structure().unwrap_err(),
            format!("singleton key 7 outside [{},5)", i64::MIN)
        );
    }

    #[test]
    fn load_dedupes_by_key() {
        let idx = JitdIndex::load(recs(&[(1, 10), (1, 11), (2, 20)]));
        // Strictly sorted after dedup; structure check enforces it.
        idx.check_structure().unwrap();
        assert_eq!(idx.scan(0, 10).len(), 2);
    }
}
