//! Strongly-typed identifiers for frames, virtual pages, tiers and nodes.
//!
//! Newtypes keep the many integer-indexed spaces in the substrate from being
//! confused with one another (a frame number is not a virtual page number is
//! not a tier index).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of a memory page in bytes. The whole substrate is page-granular.
pub const PAGE_SIZE: usize = 4096;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Index of a physical page frame.
///
/// Frames are numbered densely from zero across all nodes of the topology,
/// which lets policies keep side metadata in flat vectors indexed by frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FrameId(u32);

impl FrameId {
    /// Creates a frame id from a raw index.
    pub const fn new(raw: u32) -> Self {
        FrameId(raw)
    }

    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// A virtual page number (a byte address shifted right by [`PAGE_SHIFT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VPage(u64);

impl VPage {
    /// Creates a virtual page number.
    pub const fn new(raw: u64) -> Self {
        VPage(raw)
    }

    /// The raw page number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The base byte address of this page.
    pub const fn base_addr(self) -> VAddr {
        VAddr::new(self.0 << PAGE_SHIFT)
    }

    /// The page immediately after this one.
    pub const fn next(self) -> VPage {
        VPage(self.0 + 1)
    }
}

impl fmt::Display for VPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpage#{}", self.0)
    }
}

/// A virtual byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VAddr(u64);

impl VAddr {
    /// Creates a virtual address from a raw byte offset.
    pub const fn new(raw: u64) -> Self {
        VAddr(raw)
    }

    /// The raw byte offset.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The virtual page containing this address.
    pub const fn page(self) -> VPage {
        VPage(self.0 >> PAGE_SHIFT)
    }

    /// The offset of this address within its page.
    pub const fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// This address advanced by `bytes`.
    pub const fn add(self, bytes: u64) -> VAddr {
        VAddr(self.0 + bytes)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// Index of a memory tier. Tier 0 is the highest-performing tier (DRAM);
/// larger indices are lower tiers, mirroring the paper's ordering from
/// "high performance - low capacity" downwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TierId(u8);

impl TierId {
    /// The top (highest-performing) tier.
    pub const TOP: TierId = TierId(0);

    /// Creates a tier id.
    pub const fn new(raw: u8) -> Self {
        TierId(raw)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the top tier (no tier to promote into).
    pub const fn is_top(self) -> bool {
        self.0 == 0
    }

    /// The next tier up (towards DRAM), if any.
    pub const fn upper(self) -> Option<TierId> {
        if self.0 == 0 {
            None
        } else {
            Some(TierId(self.0 - 1))
        }
    }

    /// The next tier down (towards capacity), given the total number of tiers.
    pub fn lower(self, tier_count: usize) -> Option<TierId> {
        if (self.0 as usize) + 1 < tier_count {
            Some(TierId(self.0 + 1))
        } else {
            None
        }
    }
}

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

/// Index of a NUMA node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u8);

impl NodeId {
    /// Creates a node id.
    pub const fn new(raw: u8) -> Self {
        NodeId(raw)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vaddr_page_decomposition() {
        let a = VAddr::new(3 * PAGE_SIZE as u64 + 17);
        assert_eq!(a.page(), VPage::new(3));
        assert_eq!(a.page_offset(), 17);
        assert_eq!(VPage::new(3).base_addr().raw(), 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn vaddr_add_crosses_pages() {
        let a = VAddr::new(PAGE_SIZE as u64 - 1);
        assert_eq!(a.page(), VPage::new(0));
        assert_eq!(a.add(1).page(), VPage::new(1));
        assert_eq!(a.add(1).page_offset(), 0);
    }

    #[test]
    fn tier_ordering_and_navigation() {
        let top = TierId::TOP;
        assert!(top.is_top());
        assert_eq!(top.upper(), None);
        assert_eq!(top.lower(2), Some(TierId::new(1)));
        assert_eq!(TierId::new(1).upper(), Some(top));
        assert_eq!(TierId::new(1).lower(2), None);
        assert!(top < TierId::new(1));
    }

    #[test]
    fn vpage_next_is_sequential() {
        assert_eq!(VPage::new(7).next(), VPage::new(8));
    }

    #[test]
    fn frame_id_round_trips() {
        let f = FrameId::new(12345);
        assert_eq!(f.index(), 12345);
        assert_eq!(f.raw(), 12345);
        assert_eq!(format!("{f}"), "frame#12345");
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", VPage::new(0)).is_empty());
        assert!(!format!("{}", VAddr::new(0)).is_empty());
        assert!(!format!("{}", TierId::TOP).is_empty());
        assert!(!format!("{}", NodeId::new(0)).is_empty());
    }
}
