//! Differential suite for the dense storage layer (`tt_ast::dense`).
//!
//! The hot maintenance structures — views, posting lists, epoch Z-sets
//! and the bolt-ons' epoch images — all sit on `NodeMap`/`NodeBitSet`
//! instead of hashed `NodeId` maps. Here each dense structure is driven
//! against the hash-based reference it replaced (`FxHashMap`/`FxHashSet`)
//! over random op sequences: every operation's return value must agree,
//! and the full contents must agree at the end. (The end-to-end complement lives in
//! `tests/batch_equivalence.rs`, which re-runs the five-strategy epoch
//! equivalence over the dense-backed views.)

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;
use treetoaster::ast::{FxHashMap, NodeBitSet, NodeId, NodeMap};

fn n(i: u32) -> NodeId {
    NodeId::from_index(i)
}

/// Op codes: (kind, key, value). Keys concentrate on a few pages but
/// reach far enough to exercise lazy page allocation.
fn key(raw: u32) -> u32 {
    // ~3/4 of keys land in the first two pages; the rest spread to 64k.
    if raw % 4 == 3 {
        (raw.wrapping_mul(2_654_435_761)) % 65_536
    } else {
        raw % 512
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn node_map_agrees_with_hash_map(ops in vec((0u8..6, 0u32..10_000, -8i64..8), 1..400)) {
        let mut dense: NodeMap<i64> = NodeMap::new();
        let mut reference: FxHashMap<NodeId, i64> = FxHashMap::default();
        for (kind, raw, value) in ops {
            let id = n(key(raw));
            match kind {
                0 => prop_assert_eq!(dense.insert(id, value), reference.insert(id, value)),
                1 => prop_assert_eq!(dense.remove(id), reference.remove(&id)),
                2 => prop_assert_eq!(dense.get(id), reference.get(&id)),
                3 => prop_assert_eq!(dense.contains_key(id), reference.contains_key(&id)),
                4 => {
                    let a = dense.get_or_insert_with(id, || value);
                    *a += 1;
                    let b = reference.entry(id).or_insert(value);
                    *b += 1;
                    prop_assert_eq!(*a, *b);
                }
                _ => prop_assert_eq!(dense.len(), reference.len()),
            }
            prop_assert_eq!(dense.is_empty(), reference.is_empty());
        }
        prop_assert_eq!(dense.len(), reference.len());
        for (id, v) in dense.iter() {
            prop_assert_eq!(reference.get(&id), Some(v));
        }
        // Drain must hand back exactly the reference contents and leave
        // the map empty (pages retained).
        let drained: FxHashMap<NodeId, i64> = dense.drain().collect();
        prop_assert_eq!(drained, reference);
        prop_assert!(dense.is_empty());
        prop_assert_eq!(dense.iter().count(), 0);
    }

    #[test]
    fn node_bitset_agrees_with_hash_set(ops in vec((0u8..4, 0u32..10_000), 1..400)) {
        let mut dense = NodeBitSet::new();
        let mut reference: HashSet<u32> = HashSet::new();
        for (kind, raw) in ops {
            let k = key(raw);
            match kind {
                0 => prop_assert_eq!(dense.insert(n(k)), reference.insert(k)),
                1 => prop_assert_eq!(dense.remove(n(k)), reference.remove(&k)),
                2 => prop_assert_eq!(dense.contains(n(k)), reference.contains(&k)),
                _ => prop_assert_eq!(dense.len(), reference.len()),
            }
        }
        prop_assert_eq!(dense.len(), reference.len());
        let mut via_iter: Vec<u32> = dense.iter().map(NodeId::index).collect();
        let mut expect: Vec<u32> = reference.iter().copied().collect();
        via_iter.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(via_iter, expect);
    }

    /// Clear keeps the structures reusable: a cleared dense map must
    /// behave like a fresh reference map over a second op sequence.
    #[test]
    fn node_map_clear_then_reuse(
        first in vec((0u32..2_000, 1i64..5), 1..100),
        second in vec((0u32..2_000, 1i64..5), 1..100),
    ) {
        let mut dense: NodeMap<i64> = NodeMap::new();
        for (raw, v) in first {
            dense.insert(n(key(raw)), v);
        }
        dense.clear();
        let mut reference: FxHashMap<NodeId, i64> = FxHashMap::default();
        for (raw, v) in second {
            let id = n(key(raw));
            prop_assert_eq!(dense.insert(id, v), reference.insert(id, v));
        }
        prop_assert_eq!(dense.len(), reference.len());
        for (id, v) in dense.iter() {
            prop_assert_eq!(reference.get(&id), Some(v));
        }
    }
}
