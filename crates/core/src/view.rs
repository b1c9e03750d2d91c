//! The per-pattern materialized view.
//!
//! §4 states the goal: "given some q_k, obtain a single, arbitrary element
//! of the set q_k(N) as quickly as possible". A view is a generalized
//! multiset (Definition 4 maps matches to multiplicity 1) — here stored as
//! a dense member vector plus a page-backed [`NodeMap`] carrying, per
//! node, its multiplicity and its position in the member list, so:
//!
//! - `any()` (one arbitrary eligible node) is O(1),
//! - membership updates are O(1) direct-indexed stores (`swap_remove` on
//!   the member list, no hashing — see `tt_ast::dense`),
//! - memory is a few machine words per *match* (plus the pages the
//!   matches fall in), not per AST node — the paper's "negligible memory
//!   overhead" quadrant in Figure 2.
//!
//! Multiplicities other than 0/1 can occur transiently while a delta is
//! being applied; the member list tracks the positive support.

use tt_ast::{NodeId, NodeMap};

/// Sentinel position for slots whose node is not currently a member
/// (zero-crossing multiplicities keep a slot without a member position).
const NOT_MEMBER: u32 = u32::MAX;

/// Per-node view state: signed multiplicity plus the member-list index
/// (valid iff `count > 0`).
#[derive(Debug, Clone, Copy)]
struct ViewSlot {
    count: i64,
    pos: u32,
}

/// A maintained view over one pattern: the multiset of matching nodes.
#[derive(Debug, Default)]
pub struct MatchView {
    /// Dense per-node state (non-zero multiplicities only).
    slots: NodeMap<ViewSlot>,
    /// Dense list of nodes with positive multiplicity.
    members: Vec<NodeId>,
}

impl MatchView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current multiplicity of `node`.
    #[inline]
    pub fn count(&self, node: NodeId) -> i64 {
        self.slots.get(node).map_or(0, |s| s.count)
    }

    /// True if `node` is currently in the view (positive multiplicity).
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.count(node) > 0
    }

    /// Number of members (positive-multiplicity nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if no node currently matches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// One arbitrary eligible node — the §4 fast path. O(1).
    #[inline]
    pub fn any(&self) -> Option<NodeId> {
        self.members.last().copied()
    }

    /// Iterates current members (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// Adds `delta` to `node`'s multiplicity (Algorithm 2's
    /// `View ⊕ {| N → Δ(N) |}`), keeping the member list in sync as the
    /// multiplicity crosses zero. In steady state (the node's page
    /// already allocated, the member vector at capacity) this performs
    /// no heap allocation.
    pub fn add(&mut self, node: NodeId, delta: i64) {
        if delta == 0 {
            return;
        }
        let slot = self.slots.get_or_insert_with(node, || ViewSlot {
            count: 0,
            pos: NOT_MEMBER,
        });
        let old = slot.count;
        let new = old + delta;
        slot.count = new;
        match (old > 0, new > 0) {
            (false, true) => {
                slot.pos = self.members.len() as u32;
                self.members.push(node);
            }
            (true, false) => {
                debug_assert_ne!(slot.pos, NOT_MEMBER, "member without position");
                let at = slot.pos as usize;
                slot.pos = NOT_MEMBER;
                if new == 0 {
                    self.slots.remove(node);
                }
                self.members.swap_remove(at);
                if let Some(&moved) = self.members.get(at) {
                    self.slots.get_mut(moved).expect("member has a slot").pos = at as u32;
                }
            }
            _ => {
                if new == 0 {
                    self.slots.remove(node);
                }
            }
        }
    }

    /// Applies a batch of net multiplicity deltas in one pass — the
    /// commit side of epoch maintenance (see
    /// [`Epochs`](crate::batch::Epochs)). Deltas arriving here
    /// have already been coalesced, so every item touches the slot map
    /// at most once.
    pub fn apply_delta<I>(&mut self, deltas: I)
    where
        I: IntoIterator<Item = (NodeId, i64)>,
    {
        for (node, delta) in deltas {
            self.add(node, delta);
        }
    }

    /// Removes everything (pages stay allocated for reuse).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.members.clear();
    }

    /// Debug invariant: every multiplicity is exactly 1 and agrees with
    /// the member list (Definition 4's view correctness implies 0/1
    /// multiplicities between maintenance operations).
    pub fn check_consistent(&self) -> Result<(), String> {
        if self.slots.len() != self.members.len() {
            return Err(format!(
                "slot map has {} entries, member list {}",
                self.slots.len(),
                self.members.len()
            ));
        }
        for (n, slot) in self.slots.iter() {
            if slot.count != 1 {
                return Err(format!("{n:?} has multiplicity {}, expected 1", slot.count));
            }
            if slot.pos == NOT_MEMBER {
                return Err(format!("{n:?} missing from position map"));
            }
            if self.members.get(slot.pos as usize) != Some(&n) {
                return Err(format!("{n:?} position map out of sync"));
            }
        }
        Ok(())
    }

    /// Approximate heap bytes — the entire memory cost TreeToaster adds
    /// on top of the compiler's own AST. Allocated (even vacant) pages
    /// are charged in full; see `tt_ast::dense` on the tradeoff.
    pub fn memory_bytes(&self) -> usize {
        self.slots.memory_bytes() + self.members.capacity() * std::mem::size_of::<NodeId>()
    }
}

/// An ordered alternative to [`MatchView`] backed by a `BTreeSet`,
/// for the view-structure ablation (DESIGN.md §8): `any()` returns the
/// *smallest* matching node id deterministically, at O(log n) update and
/// pop cost instead of O(1). The paper's §4 goal only asks for "a single,
/// arbitrary element ... as quickly as possible", which the swap-remove
/// view satisfies; this variant quantifies what ordering would cost.
///
/// API parity with [`MatchView`] (`iter`, `clear`, `apply_delta`,
/// `check_consistent`) lets the batched-mode ablations swap either view
/// structure under the same driver.
#[derive(Debug, Default)]
pub struct OrderedMatchView {
    counts: NodeMap<i64>,
    members: std::collections::BTreeSet<NodeId>,
}

impl OrderedMatchView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current multiplicity.
    pub fn count(&self, node: NodeId) -> i64 {
        self.counts.get(node).copied().unwrap_or(0)
    }

    /// True if in the view.
    pub fn contains(&self, node: NodeId) -> bool {
        self.count(node) > 0
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The smallest matching node (deterministic, O(log n)).
    pub fn any(&self) -> Option<NodeId> {
        self.members.first().copied()
    }

    /// Iterates current members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// Adds `delta` to the multiplicity.
    pub fn add(&mut self, node: NodeId, delta: i64) {
        if delta == 0 {
            return;
        }
        let entry = self.counts.get_or_insert_with(node, || 0);
        let old = *entry;
        let new = old + delta;
        *entry = new;
        if new == 0 {
            self.counts.remove(node);
        }
        match (old > 0, new > 0) {
            (false, true) => {
                self.members.insert(node);
            }
            (true, false) => {
                self.members.remove(&node);
            }
            _ => {}
        }
    }

    /// Applies a batch of coalesced net deltas (epoch commit).
    pub fn apply_delta<I>(&mut self, deltas: I)
    where
        I: IntoIterator<Item = (NodeId, i64)>,
    {
        for (node, delta) in deltas {
            self.add(node, delta);
        }
    }

    /// Removes everything (pages stay allocated for reuse).
    pub fn clear(&mut self) {
        self.counts.clear();
        self.members.clear();
    }

    /// Debug invariant, mirroring [`MatchView::check_consistent`].
    pub fn check_consistent(&self) -> Result<(), String> {
        if self.counts.len() != self.members.len() {
            return Err(format!(
                "count map has {} entries, member set {}",
                self.counts.len(),
                self.members.len()
            ));
        }
        for (n, &c) in self.counts.iter() {
            if c != 1 {
                return Err(format!("{n:?} has multiplicity {c}, expected 1"));
            }
            if !self.members.contains(&n) {
                return Err(format!("{n:?} missing from member set"));
            }
        }
        Ok(())
    }

    /// Approximate heap bytes.
    pub fn memory_bytes(&self) -> usize {
        self.counts.memory_bytes()
            // BTreeSet nodes: ~B·(key + pointers) amortized; charge 3 words
            // per member as a conservative stand-in.
            + self.members.len() * 3 * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn ordered_view_pops_smallest() {
        let mut v = OrderedMatchView::new();
        v.add(n(5), 1);
        v.add(n(2), 1);
        v.add(n(9), 1);
        assert_eq!(v.any(), Some(n(2)));
        v.add(n(2), -1);
        assert_eq!(v.any(), Some(n(5)));
        assert_eq!(v.len(), 2);
        assert!(v.contains(n(9)));
        assert!(!v.is_empty());
        v.check_consistent().unwrap();
    }

    #[test]
    fn ordered_view_handles_transient_negatives() {
        let mut v = OrderedMatchView::new();
        v.add(n(3), -1);
        assert_eq!(v.any(), None);
        v.add(n(3), 2);
        assert_eq!(v.any(), Some(n(3)));
        v.check_consistent().unwrap();
    }

    #[test]
    fn ordered_view_parity_iter_clear_apply_delta() {
        let mut v = OrderedMatchView::new();
        v.add(n(4), 1);
        v.apply_delta([(n(1), 1), (n(7), 1), (n(4), -1), (n(2), 1)]);
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            vec![n(1), n(2), n(7)],
            "ordered iteration"
        );
        v.check_consistent().unwrap();
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.count(n(1)), 0);
        assert_eq!(v.iter().count(), 0);
        v.check_consistent().unwrap();
    }

    #[test]
    fn ordered_view_consistency_detects_double_count() {
        let mut v = OrderedMatchView::new();
        v.add(n(1), 2);
        assert!(v.check_consistent().is_err());
    }

    /// Both view structures, driven by the same delta stream, must agree
    /// on membership (the batched-mode ablation's correctness premise).
    #[test]
    fn ordered_and_swap_remove_views_agree() {
        let mut ordered = OrderedMatchView::new();
        let mut swap = MatchView::new();
        let deltas: Vec<(NodeId, i64)> = (0..200u32)
            .map(|i| (n(i * 7 % 64), if i % 3 == 0 { -1 } else { 1 }))
            .collect();
        for &(node, d) in &deltas {
            ordered.add(node, d);
            swap.add(node, d);
        }
        assert_eq!(ordered.len(), swap.len());
        for i in 0..64 {
            assert_eq!(ordered.contains(n(i)), swap.contains(n(i)), "node {i}");
            assert_eq!(ordered.count(n(i)), swap.count(n(i)), "node {i}");
        }
    }

    #[test]
    fn empty_view() {
        let v = MatchView::new();
        assert!(v.is_empty());
        assert_eq!(v.any(), None);
        assert_eq!(v.count(n(1)), 0);
        v.check_consistent().unwrap();
    }

    #[test]
    fn add_and_remove_members() {
        let mut v = MatchView::new();
        v.add(n(1), 1);
        v.add(n(2), 1);
        assert_eq!(v.len(), 2);
        assert!(v.contains(n(1)));
        assert!(v.any().is_some());
        v.add(n(1), -1);
        assert!(!v.contains(n(1)));
        assert_eq!(v.len(), 1);
        assert_eq!(v.any(), Some(n(2)));
        v.check_consistent().unwrap();
    }

    #[test]
    fn transient_negative_then_recover() {
        // A maintenance pass may subtract before it adds.
        let mut v = MatchView::new();
        v.add(n(5), -1);
        assert_eq!(v.count(n(5)), -1);
        assert!(!v.contains(n(5)), "negative multiplicity is not membership");
        assert_eq!(v.len(), 0);
        v.add(n(5), 2);
        assert_eq!(v.count(n(5)), 1);
        assert!(v.contains(n(5)));
        v.check_consistent().unwrap();
    }

    #[test]
    fn swap_remove_order_stability() {
        let mut v = MatchView::new();
        for i in 0..100 {
            v.add(n(i), 1);
        }
        // Remove every third element; membership of the rest must hold.
        for i in (0..100).step_by(3) {
            v.add(n(i), -1);
        }
        for i in 0..100 {
            assert_eq!(v.contains(n(i)), i % 3 != 0);
        }
        assert_eq!(v.len(), 66);
        v.check_consistent().unwrap();
    }

    #[test]
    fn any_returns_live_member() {
        let mut v = MatchView::new();
        v.add(n(1), 1);
        v.add(n(2), 1);
        v.add(n(3), 1);
        let got = v.any().unwrap();
        assert!(v.contains(got));
        v.add(got, -1);
        let got2 = v.any().unwrap();
        assert_ne!(got, got2);
        assert!(v.contains(got2));
    }

    #[test]
    fn clear_resets() {
        let mut v = MatchView::new();
        v.add(n(1), 1);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.count(n(1)), 0);
    }

    #[test]
    fn zero_delta_is_noop() {
        let mut v = MatchView::new();
        v.add(n(1), 0);
        assert!(v.is_empty());
    }

    #[test]
    fn members_spread_across_pages() {
        // Ids far apart exercise lazy page allocation and the moved-member
        // position fixup across pages.
        let mut v = MatchView::new();
        for i in [3u32, 1000, 70_000, 5, 260] {
            v.add(n(i), 1);
        }
        assert_eq!(v.len(), 5);
        v.check_consistent().unwrap();
        v.add(n(1000), -1);
        v.add(n(3), -1);
        assert_eq!(v.len(), 3);
        assert!(v.contains(n(70_000)));
        v.check_consistent().unwrap();
    }

    #[test]
    fn apply_delta_bulk_matches_sequential_adds() {
        let mut bulk = MatchView::new();
        let mut seq = MatchView::new();
        seq.add(n(1), 1);
        seq.add(n(2), 1);
        seq.add(n(1), -1);
        seq.add(n(3), 1);
        bulk.add(n(1), 1);
        bulk.apply_delta([(n(2), 1), (n(1), -1), (n(3), 1)]);
        assert_eq!(bulk.len(), seq.len());
        for i in 1..=3 {
            assert_eq!(bulk.contains(n(i)), seq.contains(n(i)));
        }
        bulk.check_consistent().unwrap();
    }

    #[test]
    fn consistency_detects_double_count() {
        let mut v = MatchView::new();
        v.add(n(1), 2);
        assert!(v.check_consistent().is_err());
    }
}
