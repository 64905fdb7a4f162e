//! # mc-mem — the memory substrate
//!
//! This crate models the parts of a machine and operating-system memory
//! manager that the MULTI-CLOCK paper (HPCA 2022) builds on:
//!
//! * physical memory organised into **frames** grouped into **NUMA nodes**,
//!   with every node belonging to a **tier** (DRAM or persistent memory),
//!   mirroring Linux's `pglist_data` plus the paper's PM-node tagging of the
//!   DAX-KMEM hot-plug path;
//! * **watermarks** (`min`/`low`/`high`) per node computed with the same
//!   square-root rule Linux uses, which drive reclaim/demotion pressure;
//! * a **soft page table** mapping virtual pages to frames and carrying the
//!   hardware-maintained *reference* and *dirty* PTE bits (the paper's
//!   "unsupervised access" channel) plus a *poisoned* bit used by
//!   hint-page-fault trackers such as AutoTiering;
//! * a **migration engine** equivalent to `migrate_pages()`: allocate on the
//!   destination tier, account the copy, remap, free the source frame;
//! * a parameterised **latency model** for DRAM/PM access, migration and
//!   software page faults;
//! * the [`policy::TieringPolicy`] trait — the substrate-facing interface
//!   every tiering policy (MULTI-CLOCK and all baselines) implements.
//!
//! Everything here is deterministic and free of wall-clock time; simulated
//! time is the [`time::Nanos`] counter owned by the simulation engine.
//!
//! ```
//! use mc_mem::{MemorySystem, MemConfig, PageKind, AccessKind};
//!
//! # fn main() -> Result<(), mc_mem::MemError> {
//! let mut mem = MemorySystem::new(MemConfig::two_tier(256, 1024));
//! let frame = mem.alloc_page(PageKind::Anon)?;
//! let vpage = mc_mem::VPage::new(42);
//! mem.map(vpage, frame)?;
//! let outcome = mem.access(vpage, AccessKind::Read)?;
//! assert!(outcome.latency.as_nanos() > 0);
//! # Ok(())
//! # }
//! ```

pub mod access;
pub mod error;
pub mod flags;
pub mod frame;
pub mod ids;
pub mod latency;
pub mod machine;
pub mod policy;
pub mod pte;
pub mod stats;
pub mod system;
pub mod tier;
pub mod time;
pub mod topology;
pub mod txn;
pub mod watermark;

pub use access::{Memory, SimpleMemory};
pub use error::MemError;
pub use flags::PageFlags;
pub use frame::{Frame, FrameState, PageKind};
pub use ids::{FrameId, NodeId, TierId, VAddr, VPage, PAGE_SHIFT, PAGE_SIZE};
pub use latency::{AccessKind, LatencyModel, LinkDesc, MigrationCost, TierLatency};
pub use machine::{MachineBuilder, MachineDesc, MachineNode};
pub use policy::{NullPolicy, PolicyTraits, TickOutcome, TieringPolicy};
pub use pte::{PageTable, PteEntry};
pub use stats::{CostLedger, MemEvent, MemStats};
pub use system::{AccessOutcome, MemConfig, MemorySystem};
pub use tier::{Tier, TierKind};
pub use time::{Nanos, VirtualClock};
pub use topology::{NodeDesc, Topology, TopologyBuilder};
pub use txn::{MigrationMode, MigrationTxn, ShadowPages};
pub use watermark::Watermarks;
