//! Z-sets: signed weights over nodes.
//!
//! §5 of the paper maintains views as *generalized multisets* (Blizard):
//! maps from elements to signed multiplicities with finite support,
//! where ⊕ sums and ⊖ subtracts, and a removed node carries weight −1.
//! DBSP (Budiu et al., VLDB 2023) calls the same algebra a Z-set.
//! [`ZSet`] is the one container for it: every open or sealed
//! maintenance epoch is one Z-set per view or per indexed label.

use crate::arena::NodeId;
use crate::dense::NodeMap;
use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{AddAssign, Neg, SubAssign};

/// A Z-set weight: a signed integer. Views weigh in `i64`; the label
/// index, whose net weights stay within ±1, in `i32` (half the page).
pub trait Weight: Copy + Default + Eq + AddAssign + Neg<Output = Self> + Sum + Debug {}

impl<W: Copy + Default + Eq + AddAssign + Neg<Output = W> + Sum + Debug> Weight for W {}

/// A weighted set `NodeId → W`, stored densely on a [`NodeMap`].
///
/// Only non-zero weights are stored: adding a weight that brings an
/// entry to zero removes the entry, and that removal *is* the
/// cancellation of opposing deltas. Pages stay allocated through
/// removal, [`clear`](ZSet::clear) and [`drain`](ZSet::drain), so a
/// Z-set reused across epochs stops allocating.
#[derive(Debug, Default)]
pub struct ZSet<W = i64> {
    weights: NodeMap<W>,
}

impl<W: Weight> ZSet<W> {
    /// The empty Z-set.
    pub fn new() -> ZSet<W> {
        ZSet::default()
    }

    /// Adds `weight` to `node` and returns the node's new weight; 0
    /// means the entry cancelled (or was never there).
    #[inline]
    pub fn add(&mut self, node: NodeId, weight: W) -> W {
        let zero = W::default();
        if weight == zero {
            return self.get(node);
        }
        let entry = self.weights.get_or_insert_with(node, W::default);
        *entry += weight;
        let sum = *entry;
        if sum == zero {
            self.weights.remove(node);
        }
        sum
    }

    /// The weight of `node` (0 outside the support).
    #[inline]
    pub fn get(&self, node: NodeId) -> W {
        self.weights.get(node).copied().unwrap_or_default()
    }

    /// Size of the support (nodes with non-zero weight).
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if every weight is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Iterates `(node, weight)` over the support in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, W)> + '_ {
        self.weights.iter().map(|(n, &w)| (n, w))
    }

    /// Drains the support in ascending id order, keeping pages.
    pub fn drain(&mut self) -> impl Iterator<Item = (NodeId, W)> + '_ {
        self.weights.drain()
    }

    /// Empties the set in O(1), keeping pages.
    pub fn clear(&mut self) {
        self.weights.clear();
    }

    /// Heap bytes: allocated pages are charged in full.
    pub fn memory_bytes(&self) -> usize {
        self.weights.memory_bytes()
    }
}

/// ⊕ in place: pointwise sum of weights.
impl<W: Weight> AddAssign<&ZSet<W>> for ZSet<W> {
    fn add_assign(&mut self, other: &ZSet<W>) {
        for (n, w) in other.iter() {
            self.add(n, w);
        }
    }
}

/// ⊖ in place: pointwise difference of weights.
impl<W: Weight> SubAssign<&ZSet<W>> for ZSet<W> {
    fn sub_assign(&mut self, other: &ZSet<W>) {
        for (n, w) in other.iter() {
            self.add(n, -w);
        }
    }
}

impl<W: Weight> PartialEq for ZSet<W> {
    fn eq(&self, other: &ZSet<W>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<W: Weight> Clone for ZSet<W> {
    fn clone(&self) -> ZSet<W> {
        self.iter().collect()
    }
}

impl<W: Weight> FromIterator<(NodeId, W)> for ZSet<W> {
    fn from_iter<I: IntoIterator<Item = (NodeId, W)>>(iter: I) -> ZSet<W> {
        let mut z = ZSet::new();
        for (n, w) in iter {
            z.add(n, w);
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    /// Every node of `nodes` with weight +1.
    fn set(nodes: impl IntoIterator<Item = u32>) -> ZSet {
        nodes.into_iter().map(|i| (n(i), 1)).collect()
    }

    #[test]
    fn empty_has_zero_counts() {
        let z: ZSet = ZSet::new();
        assert_eq!(z.get(n(0)), 0);
        assert!(z.is_empty());
        assert_eq!(z.memory_bytes(), 0, "no page before the first entry");
    }

    #[test]
    fn add_and_cancel() {
        let mut z: ZSet = ZSet::new();
        assert_eq!(z.add(n(1), 1), 1);
        assert_eq!(z.add(n(1), 1), 2);
        assert_eq!(z.add(n(1), -2), 0, "the entry cancels");
        assert!(z.is_empty(), "support stays minimal");
        assert_eq!(z.add(n(1), 0), 0, "a zero weight is a no-op");
        assert!(z.is_empty());
    }

    #[test]
    fn negative_multiplicities_allowed() {
        let mut z: ZSet = ZSet::new();
        z.add(n(3), -1);
        assert_eq!(z.get(n(3)), -1);
        assert_eq!(z.len(), 1, "x ∈ M iff M(x) ≠ 0");
    }

    #[test]
    fn union_sums_and_difference_subtracts() {
        let a = set([1, 2]);
        let b: ZSet = [(n(2), 1), (n(3), -1)].into_iter().collect();
        let mut u = a.clone();
        u += &b;
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            [(n(1), 1), (n(2), 2), (n(3), -1)]
        );
        let mut d = a.clone();
        d -= &b;
        assert_eq!(d.iter().collect::<Vec<_>>(), [(n(1), 1), (n(3), 1)]);
    }

    #[test]
    fn example_5_1_delta() {
        // Example 5.1's delta: Const(0) and Arith(+) gain +1, while
        // Const(2), Var(y), Arith(×) get -1. Model with distinct ids.
        let mut delta = set([10, 11]);
        delta -= &set([20, 21, 22]);
        assert_eq!(delta.get(n(10)), 1);
        assert_eq!(delta.get(n(22)), -1);
        assert_eq!(delta.len(), 5);
    }

    #[test]
    fn union_then_difference_roundtrips() {
        let a: ZSet = [(n(1), 3), (n(2), -2)].into_iter().collect();
        let b: ZSet = [(n(1), 1), (n(3), 5)].into_iter().collect();
        let mut c = a.clone();
        c += &b;
        assert_ne!(c, a);
        c -= &b;
        assert_eq!(c, a);
    }

    #[test]
    fn in_place_variants_match() {
        // ⊕/⊖ in place agree with collecting the signed pairs at once.
        let a = [(n(1), 2)];
        let b = [(n(1), 1), (n(2), 1)];
        let mut c: ZSet = a.into_iter().collect();
        c += &b.into_iter().collect();
        assert_eq!(c, a.into_iter().chain(b).collect());
        let mut d: ZSet = a.into_iter().collect();
        d -= &b.into_iter().collect();
        assert_eq!(d, a.into_iter().chain(b.map(|(x, w)| (x, -w))).collect());
    }

    #[test]
    fn drain_and_clear_keep_pages() {
        let mut z: ZSet = (0..600).map(|i| (n(i), i64::from(i) - 300)).collect();
        assert_eq!(z.len(), 599, "the zero weight never enters");
        let bytes = z.memory_bytes();
        let drained: Vec<(NodeId, i64)> = z.drain().collect();
        assert_eq!(drained.len(), 599);
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        assert!(z.is_empty());
        z.add(n(5), 1);
        z.clear();
        assert!(z.is_empty());
        assert_eq!(z.memory_bytes(), bytes, "pages survive drain and clear");
    }
}
