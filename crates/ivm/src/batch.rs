//! Batched delta coalescing for the bolt-on engines.
//!
//! The bolt-ons consume a flat node-granularity insert/delete stream
//! (§3.2). Across a rewrite burst that stream is massively redundant: a
//! node born by rewrite `i` and destroyed by rewrite `j` in the same
//! epoch contributes two events whose maintenance work — cascades through
//! prefix tables, probes of every materialized subset — cancels exactly.
//! The [`DeltaLog`] compacts the stream per `(label, node)` key with a
//! small state machine, so only *net* effects ever reach the engine:
//!
//! | staged history                  | net emission                  |
//! |---------------------------------|-------------------------------|
//! | insert                          | insert                        |
//! | remove                          | remove                        |
//! | insert, remove                  | — (annihilated)               |
//! | remove, insert (same image)     | — (tuple unchanged)           |
//! | remove, insert (new image)      | remove old, insert new        |
//!
//! Emission replays all surviving removals before all surviving
//! insertions (the same shape `PreImage::deltas` gives a single rewrite),
//! so the engine's telescoped remove-probe/insert-probe discipline is
//! preserved verbatim.

use tt_ast::{Label, NodeId, NodeLabelMap, NodeRow};
use tt_relational::NodeDelta;

/// Per-key compaction state. Pre-batch presence is implied by the
/// variant: `Removed`/`Replaced`/`Unchanged` keys existed before the
/// epoch, `Inserted`/`Canceled` keys did not.
#[derive(Debug, Clone)]
enum Pending {
    /// Born in this epoch with this (latest) image.
    Inserted(NodeRow),
    /// Pre-existing; destroyed in this epoch. Carries the pre-batch image.
    Removed(NodeRow),
    /// Pre-existing; image changed in this epoch.
    Replaced { removed: NodeRow, inserted: NodeRow },
    /// Born and destroyed within the epoch — nothing to emit.
    Canceled,
    /// Removed and re-inserted with the identical image — nothing to emit.
    Unchanged,
}

/// An epoch-scoped, self-cancelling buffer of [`NodeDelta`]s.
///
/// Compaction state is keyed densely by node (`tt_ast::dense::NodeLabelMap`),
/// so the per-event hot path — one lookup plus one store per AST
/// mutation — does no hashing, and the pages persist across epochs.
#[derive(Debug, Default)]
pub struct DeltaLog {
    open: bool,
    keys: NodeLabelMap<Pending>,
    /// First-touch order, for deterministic emission.
    order: Vec<(Label, NodeId)>,
    /// Events pushed over the log's lifetime.
    staged: u64,
    /// Events actually emitted (≤ staged; the gap is coalesced work).
    emitted: u64,
    /// `(staged, emitted)` snapshot taken when the current epoch opened,
    /// so per-epoch coalescing rates can be read without resetting the
    /// lifetime counters.
    epoch_mark: (u64, u64),
}

impl DeltaLog {
    /// An empty, closed log.
    pub fn new() -> DeltaLog {
        DeltaLog::default()
    }

    /// Opens an epoch (idempotent: reopening an open epoch does not move
    /// the epoch mark).
    pub fn begin(&mut self) {
        if !self.open {
            self.epoch_mark = (self.staged, self.emitted);
        }
        self.open = true;
    }

    /// Closes the epoch. The caller is expected to [`take_pending`] (and
    /// apply) first; any staged state left is discarded deliberately only
    /// by [`clear`].
    ///
    /// [`take_pending`]: DeltaLog::take_pending
    /// [`clear`]: DeltaLog::clear
    pub fn end(&mut self) {
        debug_assert!(self.keys.is_empty(), "ending an epoch with staged deltas");
        self.open = false;
    }

    /// True while an epoch is open (events should be pushed, not applied).
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Keys currently staged (net pending effects awaiting a flush).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Events pushed over the log's lifetime.
    pub fn staged(&self) -> u64 {
        self.staged
    }

    /// Events that cancelled instead of being emitted.
    pub fn coalesced(&self) -> u64 {
        self.staged - self.emitted
    }

    /// `(staged, coalesced)` counters of the open — or, after `end`, the
    /// most recently opened — epoch. Coalesced counts are only final
    /// once the epoch's pending state has been taken; mid-epoch the
    /// still-staged keys count as coalesced-so-far.
    pub fn epoch_stats(&self) -> (u64, u64) {
        let staged = self.staged - self.epoch_mark.0;
        let emitted = self.emitted - self.epoch_mark.1;
        (staged, staged - emitted)
    }

    /// Discards all staged state (used on `rebuild`, which supersedes
    /// it). Drains rather than stamp-clearing: the staged `Pending`
    /// images own row heap, and parking them in stale pages would keep
    /// that heap allocated while `memory_bytes` (which only sees the
    /// current generation) stops reporting it.
    pub fn clear(&mut self) {
        self.keys.drain().for_each(drop);
        self.order.clear();
    }

    /// Routes one event: staged (and compacted) when an epoch is open,
    /// handed back for immediate application otherwise. Keeps the
    /// open/closed branching out of every engine notification method.
    #[must_use]
    pub fn absorb(&mut self, delta: NodeDelta) -> Option<NodeDelta> {
        if self.open {
            self.push(delta);
            None
        } else {
            Some(delta)
        }
    }

    /// Stages one event, compacting against this key's history.
    pub fn push(&mut self, delta: NodeDelta) {
        self.staged += 1;
        let key = (delta.label(), delta.row().id);
        let prior = self.keys.remove(key.0, key.1);
        if prior.is_none() {
            self.order.push(key);
        }
        let next = match (prior, delta) {
            (None, NodeDelta::Insert(_, row)) => Pending::Inserted(row),
            (None, NodeDelta::Remove(_, row)) => Pending::Removed(row),
            // Born in-epoch, now removed (or about to be re-imaged):
            // the original insert never needs to happen.
            (Some(Pending::Inserted(_)), NodeDelta::Remove(_, _)) => Pending::Canceled,
            (Some(Pending::Canceled), NodeDelta::Insert(_, row)) => Pending::Inserted(row),
            // Pre-existing tuple re-inserted: identical image coalesces
            // to nothing, a new image becomes a net replace.
            (Some(Pending::Removed(removed)), NodeDelta::Insert(_, inserted)) => {
                if removed == inserted {
                    Pending::Unchanged
                } else {
                    Pending::Replaced { removed, inserted }
                }
            }
            (Some(Pending::Replaced { removed, .. }), NodeDelta::Remove(_, _)) => {
                Pending::Removed(removed)
            }
            (Some(Pending::Unchanged), NodeDelta::Remove(_, row)) => Pending::Removed(row),
            (prior, delta) => panic!(
                "delta stream violated insert/remove alternation for {key:?}: \
                 {prior:?} then {delta:?}"
            ),
        };
        self.keys.insert(key.0, key.1, next);
    }

    /// Drains the log into the net event stream: every surviving removal
    /// (pre-batch images), then every surviving insertion (final images).
    /// The epoch stays open; staged state resets.
    pub fn take_pending(&mut self) -> Vec<NodeDelta> {
        if self.keys.is_empty() {
            return Vec::new();
        }
        let mut removes = Vec::new();
        let mut inserts = Vec::new();
        for key in self.order.drain(..) {
            match self.keys.remove(key.0, key.1).expect("ordered key present") {
                Pending::Inserted(row) => inserts.push(NodeDelta::Insert(key.0, row)),
                Pending::Removed(row) => removes.push(NodeDelta::Remove(key.0, row)),
                Pending::Replaced { removed, inserted } => {
                    removes.push(NodeDelta::Remove(key.0, removed));
                    inserts.push(NodeDelta::Insert(key.0, inserted));
                }
                Pending::Canceled | Pending::Unchanged => {}
            }
        }
        self.emitted += (removes.len() + inserts.len()) as u64;
        removes.extend(inserts);
        removes
    }

    /// Approximate heap bytes of the staged state (allocated pages are
    /// charged in full).
    pub fn memory_bytes(&self) -> usize {
        self.keys.memory_bytes()
            + self
                .keys
                .iter()
                .map(|(_, p)| match p {
                    Pending::Inserted(r) | Pending::Removed(r) => r.heap_bytes(),
                    Pending::Replaced { removed, inserted } => {
                        removed.heap_bytes() + inserted.heap_bytes()
                    }
                    Pending::Canceled | Pending::Unchanged => 0,
                })
                .sum::<usize>()
            + self.order.capacity() * std::mem::size_of::<(Label, NodeId)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: u32, child: Option<u32>) -> NodeRow {
        NodeRow {
            id: NodeId::from_index(id),
            attrs: Vec::new(),
            children: child.map(NodeId::from_index).into_iter().collect(),
        }
    }

    fn label(i: u16) -> Label {
        Label(i)
    }

    #[test]
    fn insert_then_remove_annihilates() {
        let mut log = DeltaLog::new();
        log.begin();
        log.push(NodeDelta::Insert(label(0), row(1, None)));
        log.push(NodeDelta::Remove(label(0), row(1, None)));
        assert!(log.take_pending().is_empty());
        assert_eq!(log.staged(), 2);
        assert_eq!(log.coalesced(), 2);
        log.end();
    }

    #[test]
    fn remove_then_identical_reinsert_is_unchanged() {
        let mut log = DeltaLog::new();
        log.begin();
        log.push(NodeDelta::Remove(label(2), row(7, Some(3))));
        log.push(NodeDelta::Insert(label(2), row(7, Some(3))));
        assert!(log.take_pending().is_empty());
        assert_eq!(log.coalesced(), 2);
    }

    #[test]
    fn overlapping_parent_updates_telescope() {
        // Image A→B then B→C on the same parent node: only A→C survives.
        let mut log = DeltaLog::new();
        log.begin();
        log.push(NodeDelta::Remove(label(1), row(5, Some(10))));
        log.push(NodeDelta::Insert(label(1), row(5, Some(11))));
        log.push(NodeDelta::Remove(label(1), row(5, Some(11))));
        log.push(NodeDelta::Insert(label(1), row(5, Some(12))));
        let out = log.take_pending();
        assert_eq!(out.len(), 2);
        assert!(
            matches!(&out[0], NodeDelta::Remove(_, r) if r.children == [NodeId::from_index(10)])
        );
        assert!(
            matches!(&out[1], NodeDelta::Insert(_, r) if r.children == [NodeId::from_index(12)])
        );
        assert_eq!(log.staged(), 4);
        assert_eq!(log.coalesced(), 2);
    }

    #[test]
    fn id_reuse_across_labels_emits_both_sides() {
        // Node freed under one label, arena slot reused under another.
        let mut log = DeltaLog::new();
        log.begin();
        log.push(NodeDelta::Remove(label(0), row(4, None)));
        log.push(NodeDelta::Insert(label(3), row(4, None)));
        let out = log.take_pending();
        assert_eq!(out.len(), 2);
        assert!(matches!(&out[0], NodeDelta::Remove(l, _) if *l == label(0)));
        assert!(matches!(&out[1], NodeDelta::Insert(l, _) if *l == label(3)));
    }

    #[test]
    fn removals_emit_before_insertions() {
        let mut log = DeltaLog::new();
        log.begin();
        log.push(NodeDelta::Insert(label(0), row(1, None)));
        log.push(NodeDelta::Remove(label(0), row(2, None)));
        let out = log.take_pending();
        assert!(matches!(&out[0], NodeDelta::Remove(_, _)));
        assert!(matches!(&out[1], NodeDelta::Insert(_, _)));
    }

    #[test]
    fn born_died_reborn_keeps_last_image() {
        let mut log = DeltaLog::new();
        log.begin();
        log.push(NodeDelta::Insert(label(0), row(9, Some(1))));
        log.push(NodeDelta::Remove(label(0), row(9, Some(1))));
        log.push(NodeDelta::Insert(label(0), row(9, Some(2))));
        let out = log.take_pending();
        assert_eq!(out.len(), 1);
        assert!(
            matches!(&out[0], NodeDelta::Insert(_, r) if r.children == [NodeId::from_index(2)])
        );
    }

    #[test]
    fn take_pending_resets_for_next_chunk() {
        let mut log = DeltaLog::new();
        log.begin();
        log.push(NodeDelta::Insert(label(0), row(1, None)));
        assert_eq!(log.take_pending().len(), 1);
        assert!(log.is_empty());
        assert!(log.is_open());
        log.push(NodeDelta::Insert(label(0), row(2, None)));
        assert_eq!(log.take_pending().len(), 1);
        log.end();
        assert!(!log.is_open());
    }

    #[test]
    #[should_panic(expected = "alternation")]
    fn double_insert_is_a_protocol_violation() {
        let mut log = DeltaLog::new();
        log.begin();
        log.push(NodeDelta::Insert(label(0), row(1, None)));
        log.push(NodeDelta::Insert(label(0), row(1, None)));
    }
}
