//! Batched (epoch/transactional) view maintenance.
//!
//! The paper's engine reconciles views after every single
//! `replace(R, R′)`. A production optimizer instead fires long rewrite
//! *bursts* in which consecutive deltas overlap and cancel: a node
//! inserted by rewrite `i` is often consumed by rewrite `j > i` in the
//! same burst, so its `+1` and `−1` view deltas annihilate before either
//! needs to touch a [`MatchView`]. The [`DeltaBuffer`] realizes this
//! DBToaster-style coalescing for TreeToaster's node-granularity views:
//! per-view signed multiplicity deltas accumulate across an epoch and
//! opposing entries cancel eagerly; only the surviving net deltas are
//! applied at commit via [`MatchView::apply_delta`].
//!
//! The buffer maintains the invariant that, at every point inside an
//! epoch, `view ⊕ pending` equals the up-to-date view — which is what
//! lets [`TreeToasterEngine`](crate::engine::TreeToasterEngine) answer
//! `find_one` mid-epoch through a cheap overlay instead of flushing.
//! Because the deltas are signed and compose, the invariant survives a
//! pipelined commit too: an epoch **sealed** for a background committer
//! (`MatchSource::submit_commit`) and the next epoch's open buffer
//! overlay as `view ⊕ sealed ⊕ pending`, summing entries per node —
//! exactly what one merged buffer would hold. Draining the sealed
//! buffer first (commit order) transfers its entries into the views
//! without disturbing the open epoch's.

use crate::view::MatchView;
use tt_ast::{NodeId, NodeMap};

/// Signed multiplicity deltas staged against a set of per-rule views.
///
/// One dense [`NodeMap`] per view; staging a delta that returns an entry
/// to net zero removes the entry — that removal *is* the cancellation.
/// Pages are retained across epochs, so a long-lived buffer stages and
/// drains without allocating.
///
/// # Example
///
/// ```
/// use treetoaster_core::{DeltaBuffer, MatchView};
/// use tt_ast::NodeId;
///
/// let mut buffer = DeltaBuffer::new(1);
/// let node = NodeId::from_index(3);
/// // A node born and consumed inside the same epoch annihilates in the
/// // buffer — the view never sees either delta.
/// buffer.stage(0, node, 1);
/// buffer.stage(0, node, -1);
/// assert!(buffer.is_empty());
/// assert_eq!((buffer.staged(), buffer.canceled()), (2, 2));
/// // Surviving net deltas land on the views at commit.
/// buffer.stage(0, node, 1);
/// let mut views = vec![MatchView::new()];
/// buffer.drain_into(&mut views);
/// assert!(views[0].contains(node));
/// ```
#[derive(Debug, Default)]
pub struct DeltaBuffer {
    per_view: Vec<NodeMap<i64>>,
    /// Deltas staged since creation (including later-canceled ones).
    staged: u64,
    /// Staged deltas that annihilated with an opposing entry.
    canceled: u64,
}

impl DeltaBuffer {
    /// An empty buffer for `views` views.
    pub fn new(views: usize) -> DeltaBuffer {
        DeltaBuffer {
            per_view: (0..views).map(|_| NodeMap::new()).collect(),
            staged: 0,
            canceled: 0,
        }
    }

    /// Number of views this buffer covers.
    pub fn view_count(&self) -> usize {
        self.per_view.len()
    }

    /// Stages `delta` against `node` in `view`, cancelling in place when
    /// the entry's net reaches zero.
    pub fn stage(&mut self, view: usize, node: NodeId, delta: i64) {
        if delta == 0 {
            return;
        }
        self.staged += 1;
        let map = &mut self.per_view[view];
        let entry = map.get_or_insert_with(node, || 0);
        *entry += delta;
        if *entry == 0 {
            map.remove(node);
            // This stage op and the one(s) it annihilated.
            self.canceled += 2;
        }
    }

    /// Net pending delta for `node` in `view` (0 when absent).
    pub fn pending(&self, view: usize, node: NodeId) -> i64 {
        self.per_view[view].get(node).copied().unwrap_or(0)
    }

    /// The pending delta map of one view.
    pub fn view_deltas(&self, view: usize) -> &NodeMap<i64> {
        &self.per_view[view]
    }

    /// True if no net delta is pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.per_view.iter().all(NodeMap::is_empty)
    }

    /// Total net entries pending across all views.
    pub fn len(&self) -> usize {
        self.per_view.iter().map(NodeMap::len).sum()
    }

    /// Deltas staged over the buffer's lifetime.
    pub fn staged(&self) -> u64 {
        self.staged
    }

    /// Empties all staged state and zeroes the lifetime counters while
    /// keeping allocated pages — the engine recycles one buffer across
    /// epochs so begin/commit cycles stop allocating.
    pub fn reset(&mut self) {
        for map in &mut self.per_view {
            map.clear();
        }
        self.staged = 0;
        self.canceled = 0;
    }

    /// Staged deltas that cancelled against an opposing entry — work the
    /// views never had to absorb.
    pub fn canceled(&self) -> u64 {
        self.canceled
    }

    /// Applies every surviving net delta to its view and empties the
    /// buffer (the epoch commit).
    pub fn drain_into(&mut self, views: &mut [MatchView]) {
        assert_eq!(
            views.len(),
            self.per_view.len(),
            "buffer/view arity mismatch"
        );
        for (view, map) in views.iter_mut().zip(self.per_view.iter_mut()) {
            view.apply_delta(map.drain());
        }
    }

    /// Approximate heap bytes (allocated pages are charged in full).
    pub fn memory_bytes(&self) -> usize {
        self.per_view.iter().map(NodeMap::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn opposing_unit_deltas_cancel() {
        let mut b = DeltaBuffer::new(1);
        b.stage(0, n(1), 1);
        assert_eq!(b.pending(0, n(1)), 1);
        b.stage(0, n(1), -1);
        assert_eq!(b.pending(0, n(1)), 0);
        assert!(b.is_empty(), "insert+delete of the same node annihilates");
        assert_eq!(b.staged(), 2);
        assert_eq!(b.canceled(), 2);
    }

    #[test]
    fn cancellation_is_order_independent() {
        let mut b = DeltaBuffer::new(1);
        b.stage(0, n(7), -1);
        b.stage(0, n(7), 1);
        assert!(b.is_empty(), "−1 then +1 cancels too");
        assert_eq!(b.canceled(), 2);
    }

    #[test]
    fn canceled_entry_can_be_restaged() {
        let mut b = DeltaBuffer::new(1);
        b.stage(0, n(3), 1);
        b.stage(0, n(3), -1);
        b.stage(0, n(3), 1);
        assert_eq!(b.pending(0, n(3)), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn views_are_independent() {
        let mut b = DeltaBuffer::new(2);
        b.stage(0, n(1), 1);
        b.stage(1, n(1), -1);
        assert_eq!(b.pending(0, n(1)), 1);
        assert_eq!(b.pending(1, n(1)), -1);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn zero_delta_is_noop() {
        let mut b = DeltaBuffer::new(1);
        b.stage(0, n(1), 0);
        assert!(b.is_empty());
        assert_eq!(b.staged(), 0);
    }

    #[test]
    fn drain_applies_net_deltas_only() {
        let mut views = vec![MatchView::new(), MatchView::new()];
        views[0].add(n(1), 1); // pre-existing member, to be removed
        let mut b = DeltaBuffer::new(2);
        b.stage(0, n(1), -1); // drop the member
        b.stage(0, n(2), 1); // new member
        b.stage(0, n(3), 1); // transient: born and killed in the epoch
        b.stage(0, n(3), -1);
        b.stage(1, n(9), 1);
        b.drain_into(&mut views);
        assert!(b.is_empty());
        assert!(!views[0].contains(n(1)));
        assert!(views[0].contains(n(2)));
        assert!(!views[0].contains(n(3)));
        assert_eq!(views[0].len(), 1);
        assert_eq!(views[1].any(), Some(n(9)));
        views[0].check_consistent().unwrap();
        views[1].check_consistent().unwrap();
    }

    #[test]
    fn drain_then_reuse() {
        let mut views = vec![MatchView::new()];
        let mut b = DeltaBuffer::new(1);
        b.stage(0, n(1), 1);
        b.drain_into(&mut views);
        b.stage(0, n(2), 1);
        assert_eq!(b.len(), 1);
        b.drain_into(&mut views);
        assert_eq!(views[0].len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn drain_checks_arity() {
        let mut views = vec![MatchView::new()];
        DeltaBuffer::new(2).drain_into(&mut views);
    }

    #[test]
    fn memory_accounting_grows_with_entries() {
        let mut b = DeltaBuffer::new(1);
        for i in 0..64 {
            b.stage(0, n(i), 1);
        }
        assert!(b.memory_bytes() > 0);
    }
}
