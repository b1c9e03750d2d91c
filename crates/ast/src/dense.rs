//! Dense node-indexed storage: the data plane under every maintained view.
//!
//! [`NodeId`] is already a dense `u32` arena index, yet the first version
//! of every hot maintenance structure — view multiplicity maps, posting
//! list positions, epoch deltas — keyed an `FxHashMap` by it,
//! paying a hash, a probe sequence, and tombstone churn per update. §4 of
//! the paper promises `find_one` in O(1) with "negligible memory
//! overhead"; the same holds for *maintenance* only if each staged delta
//! is a direct store. This module provides the direct-indexed
//! replacements:
//!
//! - [`NodeMap<T>`] — a page-backed map `NodeId → T`. Pages (of
//!   [`PAGE_LEN`] slots) are allocated lazily on first touch, so a sparse
//!   view over a huge arena holds only the pages its members fall in, and
//!   a steady-state update (the overwhelmingly common case: a node whose
//!   page already exists) is one bounds check and one indexed store —
//!   no hashing, no probing, no allocation. The Z-sets every epoch stages
//!   into ([`ZSet`](crate::ZSet): one per TreeToaster view, one per
//!   label of the label index) are `NodeMap`s of signed weights.
//!   The bolt-ons' epochs are `NodeMap`s of each touched node's latest
//!   labelled image: a node carries one label at a time, so an arena
//!   slot reused under another label simply takes the new image.
//! - [`NodeBitSet`] — one bit per node, for membership-only scratch sets.
//!
//! ### Page size
//!
//! [`PAGE_LEN`] is 256 slots. For the common payloads (`i64`
//! multiplicities, `u32` positions) a page is 2–4 KiB — big enough that
//! the per-page pointer and occupancy counter are noise, small enough
//! that a view whose members cluster (as rewrite sites do: the arena
//! recycles freed slots, so live ids stay compact) doesn't drag in
//! megabytes for a handful of entries. `memory_bytes()` on every
//! structure accounts allocated pages honestly, so the Figure 11/13
//! memory axis reflects the true dense-vs-hash tradeoff.
//!
//! ### Generation stamps
//!
//! [`NodeMap`] carries a generation counter and every page records the
//! generation it was last written in. [`NodeMap::clear`] is therefore an
//! O(1) stamp bump — no page walk — which matters for the epoch
//! structures (Z-sets, the bolt-ons' epochs) that clear once per epoch,
//! and for fleet deployments where per-tree structures clear whenever
//! their shard's epoch turns over. A stale page (stamp ≠ current
//! generation) reads as empty and is lazily wiped on its first write, so
//! the cost of the old `clear` walk is only ever paid for pages actually
//! reused — and at most once per page per epoch. The one observable
//! tradeoff: values parked in stale pages are dropped at first-reuse (or
//! map drop) rather than at `clear` time, and any heap those values own
//! is invisible to value-walking `memory_bytes` implementations until
//! then. Structures whose values own heap should `drain()` (which drops
//! eagerly and still retains pages) instead of `clear()` when discarding
//! state — as the bolt-on engine does on `rebuild`.

use crate::arena::NodeId;
use std::fmt;

/// Slots per page (2⁸). See the module docs for the sizing rationale.
pub const PAGE_LEN: usize = 1 << PAGE_BITS;
const PAGE_BITS: u32 = 8;

/// One lazily allocated page: a fixed slab of optional slots, an
/// occupancy count so iteration can skip vacant pages (and trailing
/// vacant slots) wholesale, and the map generation the page was last
/// written in (a page whose stamp lags the map's is logically empty —
/// see the module docs).
struct Page<T> {
    slots: Box<[Option<T>]>,
    used: u32,
    gen: u64,
}

impl<T> Page<T> {
    fn new(gen: u64) -> Page<T> {
        let mut slots = Vec::with_capacity(PAGE_LEN);
        slots.resize_with(PAGE_LEN, || None);
        Page {
            slots: slots.into_boxed_slice(),
            used: 0,
            gen,
        }
    }

    /// Wipes a stale page so it can serve the current generation. Cold:
    /// it runs at most once per page per generation, and keeping it out
    /// of line keeps the per-touch fast paths small.
    #[cold]
    #[inline(never)]
    fn revive(&mut self, gen: u64) {
        if self.used > 0 {
            self.slots.fill_with(|| None);
            self.used = 0;
        }
        self.gen = gen;
    }
}

/// A page-backed direct-indexed map `NodeId → T`.
///
/// Insert/lookup/remove are O(1) with no hashing; `iter`/`drain` visit
/// only allocated, current-generation, non-empty pages. Pages are
/// retained by `remove`, `clear`, and `drain` so a structure reused
/// across maintenance epochs reaches a steady state where no operation
/// allocates, and `clear` is an O(1) generation-stamp bump rather than
/// a page walk.
pub struct NodeMap<T> {
    pages: Vec<Option<Box<Page<T>>>>,
    len: usize,
    gen: u64,
}

impl<T> Default for NodeMap<T> {
    fn default() -> Self {
        NodeMap {
            pages: Vec::new(),
            len: 0,
            gen: 0,
        }
    }
}

impl<T> NodeMap<T> {
    /// An empty map (no pages allocated).
    pub fn new() -> NodeMap<T> {
        NodeMap::default()
    }

    #[inline]
    fn split(id: NodeId) -> (usize, usize) {
        debug_assert!(!id.is_null(), "null NodeId used as a dense key");
        let idx = id.index() as usize;
        (idx >> PAGE_BITS, idx & (PAGE_LEN - 1))
    }

    #[inline]
    fn join(page: usize, slot: usize) -> NodeId {
        NodeId::from_index(((page << PAGE_BITS) | slot) as u32)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are present (pages may still be allocated).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value for `id`, if present.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&T> {
        let (p, s) = Self::split(id);
        let page = self.pages.get(p)?.as_deref()?;
        if page.gen != self.gen {
            return None;
        }
        page.slots[s].as_ref()
    }

    /// Mutable access to the value for `id`, if present.
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        let (p, s) = Self::split(id);
        let gen = self.gen;
        let page = self.pages.get_mut(p)?.as_deref_mut()?;
        if page.gen != gen {
            return None;
        }
        page.slots[s].as_mut()
    }

    /// True if `id` has an entry.
    #[inline]
    pub fn contains_key(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    #[inline]
    fn page_for(pages: &mut Vec<Option<Box<Page<T>>>>, gen: u64, p: usize) -> &mut Page<T> {
        if p >= pages.len() {
            pages.resize_with(p + 1, || None);
        }
        let page = pages[p].get_or_insert_with(|| Box::new(Page::new(gen)));
        if page.gen != gen {
            page.revive(gen);
        }
        page
    }

    /// Inserts `value` for `id`, returning the displaced value if any.
    #[inline]
    pub fn insert(&mut self, id: NodeId, value: T) -> Option<T> {
        let (p, s) = Self::split(id);
        let page = Self::page_for(&mut self.pages, self.gen, p);
        let old = page.slots[s].replace(value);
        if old.is_none() {
            page.used += 1;
            self.len += 1;
        }
        old
    }

    /// The entry for `id`, inserted via `default` if absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, id: NodeId, default: impl FnOnce() -> T) -> &mut T {
        let (p, s) = Self::split(id);
        let page = Self::page_for(&mut self.pages, self.gen, p);
        if page.slots[s].is_none() {
            page.slots[s] = Some(default());
            page.used += 1;
            self.len += 1;
        }
        page.slots[s].as_mut().expect("slot just ensured")
    }

    /// Removes and returns the entry for `id`. The page is retained for
    /// reuse (see the type docs on steady-state allocation).
    #[inline]
    pub fn remove(&mut self, id: NodeId) -> Option<T> {
        let (p, s) = Self::split(id);
        let gen = self.gen;
        let page = self.pages.get_mut(p)?.as_deref_mut()?;
        if page.gen != gen {
            return None;
        }
        let old = page.slots[s].take();
        if old.is_some() {
            page.used -= 1;
            self.len -= 1;
        }
        old
    }

    /// Removes every entry in O(1): bumps the map generation, so every
    /// allocated page becomes stale (logically empty) at once. Pages
    /// stay allocated and are wiped lazily on their next write.
    pub fn clear(&mut self) {
        self.gen += 1;
        self.len = 0;
    }

    /// Iterates `(id, &value)` in ascending id order. Hand-rolled (not
    /// an adapter chain) so the hot mid-epoch overlay scans stay cheap:
    /// stale and vacant pages are skipped wholesale, and each live
    /// page's occupancy count ends the slot scan at its last entry
    /// instead of walking all [`PAGE_LEN`] slots.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            map: self,
            current: None,
            page: 0,
            slot: 0,
            left: 0,
        }
    }

    /// Drains every entry as `(id, value)`, keeping pages allocated.
    /// Dropping the iterator mid-way still empties the map.
    pub fn drain(&mut self) -> Drain<'_, T> {
        Drain {
            map: self,
            page: 0,
            slot: 0,
        }
    }

    /// Approximate heap bytes: the page table plus every allocated page
    /// (whether occupied or not — retained pages are real memory).
    pub fn memory_bytes(&self) -> usize {
        let allocated = self.pages.iter().flatten().count();
        self.pages.capacity() * std::mem::size_of::<Option<Box<Page<T>>>>()
            + allocated
                * (std::mem::size_of::<Page<T>>() + PAGE_LEN * std::mem::size_of::<Option<T>>())
    }

    /// Allocated page count (diagnostics / tests).
    pub fn page_count(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

impl<T: fmt::Debug> fmt::Debug for NodeMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Borrowing iterator over a [`NodeMap`]. See [`NodeMap::iter`].
pub struct Iter<'a, T> {
    map: &'a NodeMap<T>,
    /// The live page currently being scanned.
    current: Option<&'a Page<T>>,
    page: usize,
    slot: usize,
    /// Occupied slots of `current` not yet yielded; 0 = seek a new page.
    left: u32,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (NodeId, &'a T);

    fn next(&mut self) -> Option<(NodeId, &'a T)> {
        loop {
            if let Some(page) = self.current {
                while self.slot < PAGE_LEN {
                    let s = self.slot;
                    self.slot += 1;
                    if let Some(v) = page.slots[s].as_ref() {
                        let id = NodeMap::<T>::join(self.page, s);
                        self.left -= 1;
                        if self.left == 0 {
                            // Last occupied slot of this page: skip its
                            // vacant tail entirely.
                            self.current = None;
                            self.page += 1;
                            self.slot = 0;
                        }
                        return Some((id, v));
                    }
                }
                self.current = None;
                self.page += 1;
                self.slot = 0;
            }
            // Seek the next allocated, current-generation, non-empty page.
            loop {
                match self.map.pages.get(self.page)?.as_deref() {
                    Some(p) if p.gen == self.map.gen && p.used > 0 => {
                        self.current = Some(p);
                        self.slot = 0;
                        self.left = p.used;
                        break;
                    }
                    _ => self.page += 1,
                }
            }
        }
    }
}

/// Draining iterator over a [`NodeMap`]. See [`NodeMap::drain`].
pub struct Drain<'a, T> {
    map: &'a mut NodeMap<T>,
    page: usize,
    slot: usize,
}

impl<T> Iterator for Drain<'_, T> {
    type Item = (NodeId, T);

    fn next(&mut self) -> Option<(NodeId, T)> {
        let gen = self.map.gen;
        while self.page < self.map.pages.len() {
            let Some(page) = self.map.pages[self.page].as_deref_mut() else {
                self.page += 1;
                continue;
            };
            if page.gen != gen || page.used == 0 {
                self.page += 1;
                self.slot = 0;
                continue;
            }
            // `used` hits zero as soon as the page's last occupied slot
            // is taken, so sparse pages don't pay for a full slot scan.
            while self.slot < PAGE_LEN && page.used > 0 {
                let slot = self.slot;
                self.slot += 1;
                if let Some(v) = page.slots[slot].take() {
                    page.used -= 1;
                    self.map.len -= 1;
                    return Some((NodeMap::<T>::join(self.page, slot), v));
                }
            }
            self.page += 1;
            self.slot = 0;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.map.len, Some(self.map.len))
    }
}

impl<T> Drop for Drain<'_, T> {
    fn drop(&mut self) {
        while self.next().is_some() {}
    }
}

/// A dense bitset over node ids: one bit per arena slot, for the
/// membership-only scratch sets of the maintenance plans.
#[derive(Default, Clone)]
pub struct NodeBitSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeBitSet {
    /// An empty set.
    pub fn new() -> NodeBitSet {
        NodeBitSet::default()
    }

    #[inline]
    fn split(id: NodeId) -> (usize, u64) {
        debug_assert!(!id.is_null(), "null NodeId used as a dense key");
        let idx = id.index() as usize;
        (idx >> 6, 1u64 << (idx & 63))
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bits are set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `id` is a member.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        let (w, bit) = Self::split(id);
        self.words.get(w).is_some_and(|word| word & bit != 0)
    }

    /// Adds `id`; returns true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (w, bit) = Self::split(id);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += fresh as usize;
        fresh
    }

    /// Removes `id`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, id: NodeId) -> bool {
        let (w, bit) = Self::split(id);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let present = *word & bit != 0;
        *word &= !bit;
        self.len -= present as usize;
        present
    }

    /// Clears all bits, keeping the word vector allocated.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(NodeId::from_index(((wi << 6) | bit) as u32))
            })
        })
    }

    /// Approximate heap bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

impl fmt::Debug for NodeBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn map_insert_get_remove_across_pages() {
        let mut m: NodeMap<i64> = NodeMap::new();
        assert!(m.is_empty());
        // Spread keys across three pages.
        for i in [0u32, 1, 255, 256, 257, 1000] {
            assert_eq!(m.insert(n(i), i as i64), None);
        }
        assert_eq!(m.len(), 6);
        assert_eq!(m.page_count(), 3);
        assert_eq!(m.get(n(256)), Some(&256));
        assert_eq!(m.get(n(2)), None);
        assert_eq!(m.insert(n(256), -1), Some(256));
        assert_eq!(m.len(), 6, "overwrite does not grow");
        assert_eq!(m.remove(n(256)), Some(-1));
        assert_eq!(m.remove(n(256)), None);
        assert_eq!(m.len(), 5);
        assert!(m.page_count() >= 3, "pages are retained after removal");
    }

    #[test]
    fn map_get_or_insert_with() {
        let mut m: NodeMap<i64> = NodeMap::new();
        *m.get_or_insert_with(n(7), || 0) += 5;
        *m.get_or_insert_with(n(7), || 100) += 1;
        assert_eq!(m.get(n(7)), Some(&6));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn map_iter_ascending_and_clear_keeps_pages() {
        let mut m: NodeMap<u32> = NodeMap::new();
        for i in [513u32, 5, 300] {
            m.insert(n(i), i);
        }
        let items: Vec<(NodeId, u32)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(items, vec![(n(5), 5), (n(300), 300), (n(513), 513)]);
        let pages = m.page_count();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.page_count(), pages, "clear retains pages");
        assert_eq!(m.iter().count(), 0);
        m.insert(n(5), 9);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn map_drain_yields_all_and_empties() {
        let mut m: NodeMap<i64> = NodeMap::new();
        for i in 0..600u32 {
            m.insert(n(i), i as i64);
        }
        let drained: FxHashMap<NodeId, i64> = m.drain().collect();
        assert_eq!(drained.len(), 600);
        assert_eq!(drained[&n(599)], 599);
        assert!(m.is_empty());
        // Partial drain still empties on drop.
        m.insert(n(1), 1);
        m.insert(n(400), 2);
        {
            let mut d = m.drain();
            assert!(d.next().is_some());
        }
        assert!(m.is_empty(), "dropped drain clears the rest");
    }

    #[test]
    fn map_clear_is_a_stamp_bump() {
        let mut m: NodeMap<i64> = NodeMap::new();
        for i in [0u32, 300, 700] {
            m.insert(n(i), i as i64);
        }
        let pages = m.page_count();
        m.clear();
        // Stale pages read as empty through every access path.
        assert!(m.is_empty());
        assert_eq!(m.get(n(0)), None);
        assert_eq!(m.get_mut(n(300)), None);
        assert!(!m.contains_key(n(700)));
        assert_eq!(m.remove(n(0)), None);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.drain().count(), 0);
        assert_eq!(m.page_count(), pages, "clear retains (stale) pages");
        // First write to a stale page revives it; untouched entries of
        // the old generation never resurface.
        *m.get_or_insert_with(n(1), || 10) += 1;
        assert_eq!(m.get(n(1)), Some(&11));
        assert_eq!(m.get(n(0)), None, "old-generation neighbor stays dead");
        assert_eq!(m.len(), 1);
        // Repeated clears (including clear-of-empty) stay consistent.
        m.clear();
        m.clear();
        assert!(m.is_empty());
        m.insert(n(300), 5);
        assert_eq!(m.len(), 1);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(n(300), &5)]);
    }

    #[test]
    fn iter_early_exit_is_exhaustive_per_page() {
        // Entries at both edges and the middle of one page, plus a
        // second page: the occupancy-count early exit must still yield
        // everything, in order, exactly once.
        let mut m: NodeMap<u32> = NodeMap::new();
        for i in [0u32, 128, 255, 256, 511] {
            m.insert(n(i), i);
        }
        assert_eq!(
            m.iter().map(|(k, &v)| (k.index(), v)).collect::<Vec<_>>(),
            vec![(0, 0), (128, 128), (255, 255), (256, 256), (511, 511)]
        );
        // Removing mid-page entries keeps the count honest.
        m.remove(n(128));
        m.remove(n(255));
        assert_eq!(m.iter().count(), 3);
    }

    #[test]
    fn map_memory_grows_per_page_not_per_arena() {
        let mut sparse: NodeMap<i64> = NodeMap::new();
        sparse.insert(n(1_000_000), 1);
        // One page of payload plus the (lazy) page table.
        let one_page = std::mem::size_of::<Option<i64>>() * PAGE_LEN;
        assert!(sparse.memory_bytes() >= one_page);
        assert!(
            sparse.memory_bytes() < 16 * one_page,
            "a single far-off key must not materialize the whole range: {}",
            sparse.memory_bytes()
        );
    }

    #[test]
    fn bitset_insert_remove_contains_iter() {
        let mut s = NodeBitSet::new();
        assert!(s.insert(n(3)));
        assert!(!s.insert(n(3)), "double insert reports not-new");
        assert!(s.insert(n(64)));
        assert!(s.insert(n(1000)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(n(64)));
        assert!(!s.contains(n(65)));
        assert!(!s.contains(n(1_000_000)), "out of range is absent");
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![n(3), n(64), n(1000)],
            "ascending order"
        );
        assert!(s.remove(n(64)));
        assert!(!s.remove(n(64)));
        assert!(!s.remove(n(1_000_000)));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
        assert!(s.memory_bytes() > 0, "clear retains words");
    }
}
