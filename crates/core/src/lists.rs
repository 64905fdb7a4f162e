//! Per-tier list sets.
//!
//! "Originally, each memory node maintains its own set of LRU lists:
//! anonymous inactive, anonymous active, file inactive, file active, and
//! unevictable. We added two lists: anonymous promote and file promote"
//! (paper §IV). [`TierLists`] is that structure, instantiated once per
//! tier (the paper runs its modified PFRA on each memory tier separately).

use mc_clock::IndexedList;
use mc_mem::{FrameId, PageKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of a tier's lists a page is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WhichList {
    /// The inactive LRU list.
    Inactive,
    /// The active LRU list.
    Active,
    /// MULTI-CLOCK's promote list.
    Promote,
    /// The unevictable list.
    Unevictable,
}

impl WhichList {
    /// Stable lower-case name, as used in obs events.
    pub fn name(self) -> &'static str {
        match self {
            WhichList::Inactive => "inactive",
            WhichList::Active => "active",
            WhichList::Promote => "promote",
            WhichList::Unevictable => "unevictable",
        }
    }
}

impl fmt::Display for WhichList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The three evictable lists for one page kind (anon or file).
#[derive(Debug, Default, Clone)]
pub struct ListSet {
    /// The inactive LRU list (front = oldest).
    pub inactive: IndexedList,
    /// The active LRU list.
    pub active: IndexedList,
    /// The promote list.
    pub promote: IndexedList,
}

impl ListSet {
    /// Creates empty lists.
    pub fn new() -> Self {
        Self::default()
    }

    /// The list named by `which`.
    ///
    /// # Panics
    ///
    /// Panics for [`WhichList::Unevictable`], which lives on the tier, not
    /// the per-kind set.
    pub fn list(&self, which: WhichList) -> &IndexedList {
        match which {
            WhichList::Inactive => &self.inactive,
            WhichList::Active => &self.active,
            WhichList::Promote => &self.promote,
            // lint: allow(panic) - documented "# Panics" contract; Unevictable is per tier
            WhichList::Unevictable => panic!("unevictable list is per tier, not per kind"),
        }
    }

    /// Mutable access to the list named by `which`.
    ///
    /// # Panics
    ///
    /// Panics for [`WhichList::Unevictable`].
    pub fn list_mut(&mut self, which: WhichList) -> &mut IndexedList {
        match which {
            WhichList::Inactive => &mut self.inactive,
            WhichList::Active => &mut self.active,
            WhichList::Promote => &mut self.promote,
            // lint: allow(panic) - documented "# Panics" contract; Unevictable is per tier
            WhichList::Unevictable => panic!("unevictable list is per tier, not per kind"),
        }
    }

    /// Total pages across the three lists.
    pub fn len(&self) -> usize {
        self.inactive.len() + self.active.len() + self.promote.len()
    }

    /// Whether all three lists are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any of the three lists contains the frame.
    pub fn contains(&self, frame: FrameId) -> bool {
        self.inactive.contains(frame) || self.active.contains(frame) || self.promote.contains(frame)
    }

    /// Removes the frame from whichever list holds it.
    pub fn remove(&mut self, frame: FrameId) -> bool {
        self.inactive.remove(frame) || self.active.remove(frame) || self.promote.remove(frame)
    }
}

/// All lists for one tier: anon + file sets and the shared unevictable
/// list.
#[derive(Debug, Default, Clone)]
pub struct TierLists {
    /// Lists for anonymous pages.
    pub anon: ListSet,
    /// Lists for file-backed pages.
    pub file: ListSet,
    /// Mlocked pages (not scanned, not migrated).
    pub unevictable: IndexedList,
}

impl TierLists {
    /// Creates empty tier lists.
    pub fn new() -> Self {
        Self::default()
    }

    /// The list set for a page kind.
    pub fn set(&self, kind: PageKind) -> &ListSet {
        match kind {
            PageKind::Anon => &self.anon,
            PageKind::File => &self.file,
        }
    }

    /// Mutable list set for a page kind.
    pub fn set_mut(&mut self, kind: PageKind) -> &mut ListSet {
        match kind {
            PageKind::Anon => &mut self.anon,
            PageKind::File => &mut self.file,
        }
    }

    /// Total tracked pages on this tier (including unevictable).
    pub fn len(&self) -> usize {
        self.anon.len() + self.file.len() + self.unevictable.len()
    }

    /// Whether no page is tracked on this tier.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes a frame from whichever list holds it.
    pub fn remove(&mut self, frame: FrameId) -> bool {
        self.anon.remove(frame) || self.file.remove(frame) || self.unevictable.remove(frame)
    }

    /// Whether any list on this tier holds the frame.
    pub fn contains(&self, frame: FrameId) -> bool {
        self.anon.contains(frame) || self.file.contains(frame) || self.unevictable.contains(frame)
    }
}

/// A tier's lists, split into independent per-node shards.
///
/// The paper runs `kpromoted` as a *per-node* daemon; HM-Keeper makes the
/// same point for scan scalability. Each shard owns a full [`TierLists`]
/// (anon/file × inactive/active/promote + unevictable) and is scanned
/// independently each tick. Frames are assigned to shards statically by
/// the policy (node-of-frame × configured shards-per-node), so a frame
/// lives on exactly one shard for as long as it stays in the tier. With
/// one shard this degenerates to exactly the unsharded structure.
#[derive(Debug, Clone)]
pub struct TierShards {
    shards: Vec<TierLists>,
}

impl TierShards {
    /// Creates `count` empty shards (`count` is clamped to at least 1).
    pub fn new(count: usize) -> Self {
        TierShards {
            shards: vec![TierLists::new(); count.max(1)],
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lists of one shard.
    ///
    /// # Panics
    /// If `i >= shard_count()` — shard indices come from `shard_of`, which
    /// always reduces modulo the shard count.
    pub fn shard(&self, i: usize) -> &TierLists {
        // lint: allow(indexing) - caller contract documented above
        &self.shards[i]
    }

    /// Mutable lists of one shard.
    ///
    /// # Panics
    /// If `i >= shard_count()`, as for [`Self::shard`].
    pub fn shard_mut(&mut self, i: usize) -> &mut TierLists {
        // lint: allow(indexing) - caller contract documented above
        &mut self.shards[i]
    }

    /// Iterates the shards in order.
    pub fn shards(&self) -> impl Iterator<Item = &TierLists> {
        self.shards.iter()
    }

    /// Total tracked pages across all shards (including unevictable).
    pub fn len(&self) -> usize {
        self.shards.iter().map(TierLists::len).sum()
    }

    /// Whether no page is tracked on any shard.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(TierLists::is_empty)
    }

    /// Whether any shard holds the frame.
    pub fn contains(&self, frame: FrameId) -> bool {
        self.shards.iter().any(|s| s.contains(frame))
    }

    /// Whether any shard's set for `kind` holds the frame on list `which`.
    pub fn on_list(&self, kind: PageKind, which: WhichList, frame: FrameId) -> bool {
        self.shards.iter().any(|s| match which {
            WhichList::Unevictable => s.unevictable.contains(frame),
            WhichList::Inactive | WhichList::Active | WhichList::Promote => {
                s.set(kind).list(which).contains(frame)
            }
        })
    }

    /// Total length of list `which` for `kind` across shards
    /// ([`WhichList::Unevictable`] ignores `kind`).
    pub fn list_len(&self, kind: PageKind, which: WhichList) -> usize {
        self.shards
            .iter()
            .map(|s| match which {
                WhichList::Unevictable => s.unevictable.len(),
                WhichList::Inactive | WhichList::Active | WhichList::Promote => {
                    s.set(kind).list(which).len()
                }
            })
            .sum()
    }

    /// Whether any shard's unevictable list holds the frame.
    pub fn unevictable_contains(&self, frame: FrameId) -> bool {
        self.shards.iter().any(|s| s.unevictable.contains(frame))
    }

    /// Removes a frame from whichever shard and list holds it.
    pub fn remove(&mut self, frame: FrameId) -> bool {
        self.shards.iter_mut().any(|s| s.remove(frame))
    }
}

impl Default for TierShards {
    fn default() -> Self {
        Self::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FrameId {
        FrameId::new(i)
    }

    #[test]
    fn shards_aggregate_and_route() {
        let mut t = TierShards::new(2);
        t.shard_mut(0)
            .set_mut(PageKind::Anon)
            .inactive
            .push_back(f(1));
        t.shard_mut(1)
            .set_mut(PageKind::Anon)
            .promote
            .push_back(f(2));
        t.shard_mut(1).unevictable.push_back(f(3));
        assert_eq!(t.shard_count(), 2);
        assert_eq!(t.len(), 3);
        assert!(t.contains(f(1)) && t.contains(f(2)) && t.contains(f(3)));
        assert!(t.on_list(PageKind::Anon, WhichList::Inactive, f(1)));
        assert!(t.on_list(PageKind::Anon, WhichList::Promote, f(2)));
        assert!(!t.on_list(PageKind::File, WhichList::Promote, f(2)));
        assert!(t.on_list(PageKind::Anon, WhichList::Unevictable, f(3)));
        assert!(t.unevictable_contains(f(3)));
        assert_eq!(t.list_len(PageKind::Anon, WhichList::Promote), 1);
        assert!(t.remove(f(2)));
        assert!(!t.remove(f(2)));
        assert_eq!(t.list_len(PageKind::Anon, WhichList::Promote), 0);
    }

    #[test]
    fn zero_shard_count_clamps_to_one() {
        let t = TierShards::new(0);
        assert_eq!(t.shard_count(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn set_routing_by_kind() {
        let mut t = TierLists::new();
        t.set_mut(PageKind::Anon).inactive.push_back(f(1));
        t.set_mut(PageKind::File).active.push_back(f(2));
        assert!(t.set(PageKind::Anon).inactive.contains(f(1)));
        assert!(t.set(PageKind::File).active.contains(f(2)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_searches_everywhere() {
        let mut t = TierLists::new();
        t.anon.promote.push_back(f(1));
        t.file.inactive.push_back(f(2));
        t.unevictable.push_back(f(3));
        assert!(t.remove(f(1)));
        assert!(t.remove(f(2)));
        assert!(t.remove(f(3)));
        assert!(!t.remove(f(3)));
        assert!(t.is_empty());
    }

    #[test]
    fn which_list_lookup() {
        let mut s = ListSet::new();
        s.list_mut(WhichList::Promote).push_back(f(9));
        assert_eq!(s.list(WhichList::Promote).len(), 1);
        assert!(s.contains(f(9)));
        assert!(s.remove(f(9)));
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "per tier")]
    fn unevictable_not_in_kind_set() {
        let s = ListSet::new();
        let _ = s.list(WhichList::Unevictable);
    }

    #[test]
    fn display_names() {
        assert_eq!(WhichList::Inactive.to_string(), "inactive");
        assert_eq!(WhichList::Promote.to_string(), "promote");
    }
}
