//! Batched (epoch) maintenance: one epoch pipeline for every strategy
//! that stages signed deltas.
//!
//! The paper reconciles views after every `replace(R, R′)`. A rewrite
//! burst instead produces deltas that overlap and cancel: a node born in
//! rewrite `i` and consumed in rewrite `j > i` contributes `+1` and `−1`,
//! which annihilate before either touches a maintained structure.
//!
//! An epoch is one [`ZSet`] per *slot* of the structure it maintains (a
//! TreeToaster view per rule, a label-index posting list per label).
//! [`Epochs`] owns their whole life once: `begin` opens an epoch on the
//! recycled spare's pages; `stage` adds a delta to it; `seal` closes it
//! into the one sealed slot (landing an older seal first); `land`
//! drains the sealed epoch into the structure ([`Integral`]) and keeps
//! its pages as the spare. A commit is a seal followed by a land — the
//! pipeline with zero lag. Outside an epoch `stage` lands any sealed
//! epoch before applying a delta directly, so deltas always reach the
//! structure in submission order. At every point `structure ⊕ sealed ⊕
//! open` is current, so reads answer through an [`Overlay`].

use crate::view::MatchView;
use tt_ast::{NodeId, Weight, ZSet};

/// A structure maintained by signed deltas, addressed by slot: what
/// epochs of Z-sets integrate into.
pub trait Integral<W = i64> {
    /// Applies one delta directly (no epoch open).
    fn add(&mut self, slot: usize, node: NodeId, weight: W);

    /// Lands one slot's net epoch delta, leaving `delta` empty.
    fn land(&mut self, slot: usize, delta: &mut ZSet<W>);
}

/// TreeToaster's views: slot = rule.
impl Integral for Vec<MatchView> {
    #[inline]
    fn add(&mut self, slot: usize, node: NodeId, weight: i64) {
        self[slot].add(node, weight);
    }

    fn land(&mut self, slot: usize, delta: &mut ZSet) {
        self[slot].apply_delta(delta.drain());
        debug_assert!(
            self[slot].check_consistent().is_ok(),
            "view corrupted by commit"
        );
    }
}

/// The epoch pipeline of one maintained structure: the open epoch, the
/// one sealed epoch awaiting its committer, and the landed spare whose
/// pages the next epoch reuses, each one Z-set per slot.
///
/// ```
/// use treetoaster_core::{Epochs, MatchView};
/// use tt_ast::NodeId;
///
/// let (mut views, mut epochs) = (vec![MatchView::new()], Epochs::new(1));
/// let node = NodeId::from_index(3);
/// epochs.begin();
/// // Born, consumed and born again in one epoch: the view sees +1 once.
/// for weight in [1, -1, 1] {
///     epochs.stage(&mut views, 0, node, weight);
/// }
/// assert_eq!(epochs.stats(), Some((3, 2)));
/// assert!(epochs.seal(&mut views) && epochs.land(&mut views));
/// assert!(views[0].contains(node));
/// ```
#[derive(Default)]
pub struct Epochs<W = i64> {
    slots: usize,
    open: Option<Vec<ZSet<W>>>,
    sealed: Option<Vec<ZSet<W>>>,
    spare: Option<Vec<ZSet<W>>>,
    /// Deltas staged in the open or most recently closed epoch.
    staged: u64,
    /// Those of them that annihilated with an opposing entry.
    canceled: u64,
}

/// The Z-sets of the given epochs.
fn sets<W, const N: usize>(epochs: [&Option<Vec<ZSet<W>>>; N]) -> impl Iterator<Item = &ZSet<W>> {
    epochs.into_iter().flatten().flatten()
}

impl<W: Weight> Epochs<W> {
    /// No epoch yet, over a structure of `slots` slots.
    pub fn new(slots: usize) -> Epochs<W> {
        Epochs {
            slots,
            ..Epochs::default()
        }
    }

    /// Opens an epoch on the spare's pages (a no-op if one is open).
    pub fn begin(&mut self) {
        if self.open.is_none() {
            let slots = self.slots;
            let mut sets = self
                .spare
                .take()
                .unwrap_or_else(|| (0..slots).map(|_| ZSet::new()).collect());
            sets.iter_mut().for_each(ZSet::clear);
            self.open = Some(sets);
            (self.staged, self.canceled) = (0, 0);
        }
    }

    /// Stages `weight` for `node` in `slot`. With no epoch open the
    /// delta goes straight to `target`, after any sealed epoch lands.
    #[inline]
    pub fn stage<T: Integral<W> + ?Sized>(
        &mut self,
        target: &mut T,
        slot: usize,
        node: NodeId,
        weight: W,
    ) {
        match &mut self.open {
            Some(_) if weight == W::default() => {}
            Some(open) => {
                self.staged += 1;
                if open[slot].add(node, weight) == W::default() {
                    // This delta and the one(s) it annihilated.
                    self.canceled += 2;
                }
            }
            None => {
                if self.sealed.is_some() {
                    self.land(target);
                }
                target.add(slot, node, weight);
            }
        }
    }

    /// Closes the open epoch into the sealed slot, landing an older seal
    /// first (at most one epoch in flight). Returns `false` when nothing
    /// was sealed: no epoch was open, or none of its deltas survived.
    pub fn seal<T: Integral<W> + ?Sized>(&mut self, target: &mut T) -> bool {
        let Some(open) = self.open.take() else {
            return false;
        };
        self.land(target);
        if open.iter().all(ZSet::is_empty) {
            self.spare = Some(open);
            return false;
        }
        self.sealed = Some(open);
        true
    }

    /// Lands the sealed epoch on `target`, slot by slot in order, and
    /// keeps its drained Z-sets as the spare. Returns whether an epoch
    /// was sealed.
    pub fn land<T: Integral<W> + ?Sized>(&mut self, target: &mut T) -> bool {
        let Some(mut sealed) = self.sealed.take() else {
            return false;
        };
        for (slot, set) in sealed.iter_mut().enumerate().filter(|(_, z)| !z.is_empty()) {
            target.land(slot, set);
        }
        self.spare = Some(sealed);
        true
    }

    /// True while a sealed epoch awaits [`land`](Epochs::land).
    pub fn has_sealed(&self) -> bool {
        self.sealed.is_some()
    }

    /// Drops everything staged or sealed (the structure was rebuilt from
    /// scratch), keeping every page. An open epoch stays open.
    pub fn reset(&mut self) {
        if let Some(sealed) = self.sealed.take() {
            self.spare = Some(sealed);
        }
        let (open, spare) = (&mut self.open, &mut self.spare);
        open.iter_mut().chain(spare).flatten().for_each(ZSet::clear);
        (self.staged, self.canceled) = (0, 0);
    }

    /// Net deltas not yet landed: the open epoch's plus the sealed one's.
    pub fn pending(&self) -> usize {
        sets([&self.open, &self.sealed]).map(ZSet::len).sum()
    }

    /// `(staged, canceled)` of the open, else the most recently closed,
    /// epoch; `None` before the first epoch.
    pub fn stats(&self) -> Option<(u64, u64)> {
        let begun = self.open.is_some() || self.sealed.is_some() || self.spare.is_some();
        begun.then_some((self.staged, self.canceled))
    }

    /// An error naming `owner` while any delta is staged or sealed: the
    /// structure alone is then not comparable to a from-scratch rebuild.
    pub fn check_landed(&self, owner: &str) -> Result<(), String> {
        if sets([&self.open]).any(|z| !z.is_empty()) {
            return Err(format!("{owner} has staged deltas in an open epoch"));
        }
        if self.sealed.is_some() {
            return Err(format!("{owner} has a sealed epoch awaiting its committer"));
        }
        Ok(())
    }

    /// Heap bytes of all three epochs (allocated pages charged in full).
    pub fn memory_bytes(&self) -> usize {
        sets([&self.open, &self.sealed, &self.spare])
            .map(ZSet::memory_bytes)
            .sum()
    }

    /// The pending deltas of one slot.
    #[inline]
    pub fn overlay(&self, slot: usize) -> Overlay<'_, W> {
        Overlay(
            [&self.sealed, &self.open]
                .map(|e| e.as_ref().map(|sets| &sets[slot]).filter(|z| !z.is_empty())),
        )
    }
}

/// One slot's pending deltas, sealed epoch first: the slot's current
/// state is `structure ⊕ sealed ⊕ open`. A node of net weight 0 reads
/// straight from the structure. The hot shape is one epoch pending (a
/// synchronous commit cycle never holds a sealed epoch): one probe per
/// read.
#[derive(Clone, Copy)]
pub struct Overlay<'a, W = i64>([Option<&'a ZSet<W>>; 2]);

impl<'a, W: Weight> Overlay<'a, W> {
    /// True when nothing is pending.
    #[inline]
    pub fn is_clean(self) -> bool {
        matches!(self.0, [None, None])
    }

    /// Net pending weight of `node`.
    #[inline]
    pub fn weight(self, node: NodeId) -> W {
        self.0.into_iter().flatten().map(|z| z.get(node)).sum()
    }

    /// Nodes with pending deltas (one both epochs touched comes twice).
    pub fn touched(self) -> impl Iterator<Item = NodeId> + 'a {
        self.0
            .into_iter()
            .flatten()
            .flat_map(|z| z.iter().map(|(n, _)| n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    fn views(k: usize) -> Vec<MatchView> {
        (0..k).map(|_| MatchView::new()).collect()
    }

    /// An open epoch over `k` slots, and `k` empty views.
    fn open(k: usize) -> (Vec<MatchView>, Epochs) {
        let mut e = Epochs::new(k);
        e.begin();
        (views(k), e)
    }

    #[test]
    fn opposing_unit_deltas_cancel() {
        let (mut v, mut e) = open(1);
        e.stage(&mut v, 0, n(1), 1);
        assert_eq!(e.overlay(0).weight(n(1)), 1);
        e.stage(&mut v, 0, n(1), -1);
        assert_eq!(e.overlay(0).weight(n(1)), 0);
        assert!(e.overlay(0).is_clean(), "insert+delete annihilates");
        assert_eq!(e.stats(), Some((2, 2)));
    }

    #[test]
    fn cancellation_is_order_independent() {
        let (mut v, mut e) = open(1);
        e.stage(&mut v, 0, n(7), -1);
        e.stage(&mut v, 0, n(7), 1);
        assert_eq!(e.pending(), 0, "−1 then +1 cancels too");
        assert_eq!(e.stats(), Some((2, 2)));
    }

    #[test]
    fn canceled_entry_can_be_restaged() {
        let (mut v, mut e) = open(1);
        for weight in [1, -1, 1] {
            e.stage(&mut v, 0, n(3), weight);
        }
        assert_eq!(e.overlay(0).weight(n(3)), 1);
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn views_are_independent() {
        let (mut v, mut e) = open(2);
        e.stage(&mut v, 0, n(1), 1);
        e.stage(&mut v, 1, n(1), -1);
        assert_eq!(e.overlay(0).weight(n(1)), 1);
        assert_eq!(e.overlay(1).weight(n(1)), -1);
        assert_eq!(e.pending(), 2);
    }

    #[test]
    fn zero_delta_is_noop() {
        let (mut v, mut e) = open(1);
        e.stage(&mut v, 0, n(1), 0);
        assert_eq!((e.pending(), e.stats()), (0, Some((0, 0))));
    }

    #[test]
    fn drain_applies_net_deltas_only() {
        let (mut v, mut e) = open(2);
        v[0].add(n(1), 1); // pre-existing member, to be removed
        e.stage(&mut v, 0, n(1), -1); // drop the member
        e.stage(&mut v, 0, n(2), 1); // new member
        e.stage(&mut v, 0, n(3), 1); // transient: born and killed in the epoch
        e.stage(&mut v, 0, n(3), -1);
        e.stage(&mut v, 1, n(9), 1);
        assert!(v[0].contains(n(1)), "staging leaves the views alone");
        assert!(e.seal(&mut v) && e.land(&mut v));
        assert_eq!(e.pending(), 0);
        assert!(!v[0].contains(n(1)));
        assert!(v[0].contains(n(2)));
        assert!(!v[0].contains(n(3)));
        assert_eq!(v[0].len(), 1);
        assert_eq!(v[1].any(), Some(n(9)));
        e.check_landed("views").unwrap();
    }

    #[test]
    fn drain_then_reuse() {
        let (mut v, mut e) = open(1);
        e.stage(&mut v, 0, n(1), 1);
        assert!(e.seal(&mut v) && e.land(&mut v));
        e.begin();
        e.stage(&mut v, 0, n(2), 1);
        assert_eq!(e.pending(), 1, "the reused epoch starts empty");
        assert!(e.seal(&mut v) && e.land(&mut v));
        assert_eq!(v[0].len(), 2);
    }

    /// Deltas for a slot the structure lacks are never dropped silently.
    #[test]
    #[should_panic]
    fn drain_checks_arity() {
        let (mut v, mut e) = open(2);
        v.pop();
        e.stage(&mut v, 1, n(1), 1);
        e.seal(&mut v);
        e.land(&mut v);
    }

    #[test]
    fn memory_accounting_grows_with_entries() {
        let (mut v, mut e) = open(1);
        assert_eq!(e.memory_bytes(), 0);
        for i in 0..64 {
            e.stage(&mut v, 0, n(i), 1);
        }
        assert!(e.memory_bytes() > 0);
    }

    #[test]
    fn empty_epochs_seal_nothing_and_outside_epochs_apply_directly() {
        let mut v = views(1);
        let mut e = Epochs::new(1);
        assert_eq!(e.stats(), None, "no epoch yet");
        assert!(!e.seal(&mut v), "no epoch open");
        e.begin();
        e.begin();
        assert!(!e.seal(&mut v), "an empty epoch is never sealed");
        assert!(!e.has_sealed());
        e.stage(&mut v, 0, n(4), 1);
        assert!(v[0].contains(n(4)), "no epoch: the delta lands at once");
        assert_eq!(e.stats(), Some((0, 0)), "the closed epoch's counters");
    }

    #[test]
    fn overlay_composes_sealed_and_open() {
        let (mut v, mut e) = open(1);
        e.stage(&mut v, 0, n(1), 1);
        e.stage(&mut v, 0, n(2), 1);
        assert!(e.seal(&mut v));
        e.begin();
        e.stage(&mut v, 0, n(1), -1);
        e.stage(&mut v, 0, n(5), 1);
        let o = e.overlay(0);
        assert_eq!((o.weight(n(1)), o.weight(n(2)), o.weight(n(5))), (0, 1, 1));
        assert_eq!(o.touched().collect::<Vec<_>>(), [n(1), n(2), n(1), n(5)]);
        assert_eq!(e.pending(), 4);
        e.check_landed("views").unwrap_err();
    }

    #[test]
    fn out_of_epoch_deltas_land_the_sealed_epoch_first() {
        // Node 1 is born in a sealed epoch; a later rewrite outside any
        // epoch kills it. The death must not reach the view before the
        // birth does.
        let (mut v, mut e) = open(1);
        e.stage(&mut v, 0, n(1), 1);
        assert!(e.seal(&mut v));
        e.stage(&mut v, 0, n(1), -1);
        assert!(!e.has_sealed(), "the stage landed the seal");
        assert!(v[0].is_empty());
        v[0].check_consistent().unwrap();
        assert!(!e.land(&mut v), "the committer's later pass is a no-op");
    }

    #[test]
    fn a_second_seal_lands_the_first() {
        let mut v = views(1);
        let mut e = Epochs::new(1);
        for i in 0..2 {
            e.begin();
            e.stage(&mut v, 0, n(i), 1);
            assert!(e.seal(&mut v));
        }
        assert!(v[0].contains(n(0)) && !v[0].contains(n(1)));
        assert!(e.land(&mut v));
        assert_eq!(v[0].len(), 2);
    }

    #[test]
    fn epochs_recycle_pages_and_reset_keeps_them() {
        let mut v = views(1);
        let mut e = Epochs::new(1);
        for round in 0..3 {
            e.begin();
            for i in 0..64 {
                e.stage(&mut v, 0, n(i), if round % 2 == 0 { 1 } else { -1 });
            }
            assert!(e.seal(&mut v) && e.land(&mut v));
        }
        let bytes = e.memory_bytes();
        assert!(bytes > 0);
        e.begin();
        e.stage(&mut v, 0, n(7), -1);
        assert!(e.seal(&mut v));
        e.reset();
        assert_eq!(e.pending(), 0);
        assert!(!e.has_sealed());
        assert_eq!(e.memory_bytes(), bytes, "one epoch's pages, reused");
    }
}
