//! The memory system: frames, nodes, tiers, mapping, allocation and
//! migration — the substrate every tiering policy operates on.

use crate::error::MemError;
use crate::flags::PageFlags;
use crate::frame::{Frame, FrameState, PageKind};
use crate::ids::{FrameId, NodeId, TierId, VPage};
use crate::latency::{AccessKind, LatencyModel};
use crate::machine::MachineDesc;
use crate::pte::PageTable;
use crate::stats::{CostLedger, MemEvent, MemStats};
use crate::time::Nanos;
use crate::topology::Topology;
use crate::txn::{MigrationTxn, ShadowPages};
use crate::watermark::Watermarks;
use mc_fault::{FaultInjector, InjectedFault};
use mc_obs::{saturating_bump, EventKind, Recorder};
use std::collections::HashSet;

/// Configuration for a [`MemorySystem`].
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// The machine layout.
    pub topology: Topology,
    /// The cost model.
    pub latency: LatencyModel,
}

impl MemConfig {
    /// A single-socket, two-tier machine: one DRAM node and one PM node.
    /// Thin wrapper over the [`MachineDesc::dram_pm`] preset.
    ///
    /// This is the configuration most experiments use, scaled down from the
    /// paper's 192 GB + 512 GB testbed to keep simulations fast; all ratios
    /// (footprint vs DRAM size) are preserved by the experiment configs.
    pub fn two_tier(dram_pages: usize, pm_pages: usize) -> Self {
        MachineDesc::dram_pm(dram_pages, pm_pages).mem_config()
    }

    /// A dual-socket machine: two DRAM nodes and two PM nodes, mirroring
    /// the paper's testbed shape. Wrapper over [`MachineDesc::dual_socket`].
    pub fn dual_socket(dram_pages_per_node: usize, pm_pages_per_node: usize) -> Self {
        MachineDesc::dual_socket(dram_pages_per_node, pm_pages_per_node).mem_config()
    }

    /// A three-tier machine for the N-tier extension tests. Wrapper over
    /// [`MachineDesc::three_tier`].
    pub fn three_tier(hbm_pages: usize, dram_pages: usize, pm_pages: usize) -> Self {
        MachineDesc::three_tier(hbm_pages, dram_pages, pm_pages).mem_config()
    }

    /// A realistic CXL expansion machine: DRAM + CXL-attached DRAM + PM.
    /// Wrapper over [`MachineDesc::dram_cxl_pm`].
    pub fn dram_cxl_pm(dram_pages: usize, cxl_pages: usize, pm_pages: usize) -> Self {
        MachineDesc::dram_cxl_pm(dram_pages, cxl_pages, pm_pages).mem_config()
    }
}

/// Runtime state of one NUMA node.
#[derive(Debug, Clone)]
struct NodeState {
    free: Vec<FrameId>,
    watermarks: Watermarks,
}

/// What happened on a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The frame that was accessed.
    pub frame: FrameId,
    /// The tier the frame lives in.
    pub tier: TierId,
    /// The NUMA node the frame lives in — callers charging bandwidth-bound
    /// costs should use it with [`LatencyModel::stream_at`] so link-attached
    /// nodes pay their own bandwidth cap.
    pub node: NodeId,
    /// Device latency of the access (excludes any hint-fault cost).
    pub latency: Nanos,
    /// Whether the PTE was poisoned: the access took a software hint fault.
    /// The caller must charge [`LatencyModel::hint_fault`] and inform the
    /// tracking policy.
    pub hint_fault: bool,
}

/// The memory substrate: owns frames, nodes, page table, counters and the
/// cost ledger. Policies receive `&mut MemorySystem` and drive allocation,
/// scanning and migration through it.
#[derive(Debug)]
pub struct MemorySystem {
    topology: Topology,
    latency: LatencyModel,
    frames: Vec<Frame>,
    nodes: Vec<NodeState>,
    page_table: PageTable,
    /// Virtual pages currently evicted to backing storage; touching one of
    /// these costs a major fault (swap-in).
    swapped: HashSet<VPage>,
    stats: MemStats,
    ledger: CostLedger,
    events: Vec<MemEvent>,
    recorder: Recorder,
    /// Optional fault injector. `None` (the default) leaves every path
    /// byte-identical to an engine without the fault layer.
    fault: Option<FaultInjector>,
    /// In-flight transactional migrations, in begin order. Empty under
    /// `MigrationMode::Sync`, which keeps every sync path bit-identical
    /// to an engine without the transactional layer.
    txns: Vec<MigrationTxn>,
    /// Retained lower-tier copies left behind by clean transactional
    /// promotions (Nomad-style non-exclusive placement).
    shadows: ShadowPages,
}

impl MemorySystem {
    /// Builds a memory system from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the latency model describes fewer tiers than the topology.
    pub fn new(cfg: MemConfig) -> Self {
        assert!(
            cfg.latency.tier_count() >= cfg.topology.tier_count(),
            "latency model must cover every tier"
        );
        let mut frames = Vec::with_capacity(cfg.topology.total_pages());
        let mut nodes = Vec::with_capacity(cfg.topology.nodes().len());
        for node in cfg.topology.nodes() {
            let mut free = Vec::with_capacity(node.pages());
            for f in node.frames() {
                frames.push(Frame::free(node.id(), node.tier()));
                free.push(f);
            }
            // Pop from the back: allocate low frame numbers first.
            free.reverse();
            nodes.push(NodeState {
                free,
                watermarks: node.watermarks(),
            });
        }
        MemorySystem {
            topology: cfg.topology,
            latency: cfg.latency,
            frames,
            nodes,
            page_table: PageTable::new(),
            swapped: HashSet::new(),
            stats: MemStats::default(),
            ledger: CostLedger::default(),
            events: Vec::new(),
            recorder: Recorder::disabled(),
            fault: None,
            txns: Vec::new(),
            shadows: ShadowPages::new(),
        }
    }

    /// Installs a fault injector; every subsequent allocation, migration
    /// and access consults it. Used by the simulation engine and the chaos
    /// harness.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = Some(injector);
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Mutable access to the installed fault injector (manual offline
    /// toggles in tests and the chaos harness).
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.fault.as_mut()
    }

    /// Advances the substrate's virtual timestamp: the trace recorder and
    /// the fault injector (whose offline/stall windows are keyed by
    /// virtual time) move together.
    pub fn set_now(&mut self, now_ns: u64) {
        self.recorder.set_now(now_ns);
        if let Some(fault) = self.fault.as_mut() {
            fault.set_now(now_ns);
        }
    }

    /// The trace recorder. Disabled by default; the simulation engine (or
    /// any driver) enables it to capture substrate tracepoints.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Mutable recorder access — used to enable tracing, advance the
    /// virtual timestamp, and by instrumented layers above (the policy
    /// crates emit their tracepoints into the same ring so one JSONL dump
    /// interleaves the whole pipeline).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cost model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Operation counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The cost ledger (drained by the simulation engine).
    pub fn ledger_mut(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }

    /// Drains pending substrate events.
    pub fn drain_events(&mut self) -> Vec<MemEvent> {
        std::mem::take(&mut self.events)
    }

    /// Read access to one frame's metadata.
    ///
    /// # Panics
    ///
    /// Panics if the frame id is out of range.
    pub fn frame(&self, frame: FrameId) -> &Frame {
        &self.frames[frame.index()]
    }

    /// Mutable access to one frame's flags (the only piece of frame state
    /// policies may edit directly).
    ///
    /// # Panics
    ///
    /// Panics if the frame id is out of range.
    pub fn frame_flags_mut(&mut self, frame: FrameId) -> &mut PageFlags {
        self.frames[frame.index()].flags_mut()
    }

    /// The page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable page table access (poisoning, test harnesses).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> usize {
        self.frames.len()
    }

    /// Free pages in a node.
    pub fn node_free(&self, node: NodeId) -> usize {
        self.nodes[node.index()].free.len()
    }

    /// A node's watermarks.
    pub fn node_watermarks(&self, node: NodeId) -> Watermarks {
        self.nodes[node.index()].watermarks
    }

    /// Free pages in a tier (sum over member nodes).
    pub fn tier_free(&self, tier: TierId) -> usize {
        self.topology
            .tier(tier)
            .nodes()
            .iter()
            .map(|n| self.node_free(*n))
            .sum()
    }

    /// Used pages in a tier.
    pub fn tier_used(&self, tier: TierId) -> usize {
        self.topology.tier(tier).pages() - self.tier_free(tier)
    }

    /// Whether any node of the tier is below its low watermark.
    pub fn tier_under_pressure(&self, tier: TierId) -> bool {
        self.topology.tier(tier).nodes().iter().any(|n| {
            let st = &self.nodes[n.index()];
            st.watermarks.under_pressure(st.free.len())
        })
    }

    /// Whether every node of the tier is back above its high watermark.
    pub fn tier_balanced(&self, tier: TierId) -> bool {
        self.topology.tier(tier).nodes().iter().all(|n| {
            let st = &self.nodes[n.index()];
            st.watermarks.balanced(st.free.len())
        })
    }

    /// Allocates a page, preferring the fastest tier ("pages are born in
    /// DRAM"), falling back tier by tier. Within a tier, the node with the
    /// most free pages wins.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] when no node has a free page above
    /// its `min` watermark.
    pub fn alloc_page(&mut self, kind: PageKind) -> Result<FrameId, MemError> {
        for tier in 0..self.topology.tier_count() {
            if let Ok(f) = self.alloc_page_in_tier(kind, TierId::new(tier as u8)) {
                return Ok(f);
            }
        }
        Err(MemError::OutOfMemory)
    }

    /// Allocates a page in a specific tier (used for migration targets and
    /// policy-directed placement).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::TierFull`] when no member node can allocate, or
    /// [`MemError::NoSuchTier`] for an out-of-range tier.
    pub fn alloc_page_in_tier(
        &mut self,
        kind: PageKind,
        tier: TierId,
    ) -> Result<FrameId, MemError> {
        if tier.index() >= self.topology.tier_count() {
            return Err(MemError::NoSuchTier(tier));
        }
        if let Some(fault) = self.fault.as_mut() {
            if fault.on_alloc(tier.index() as u8).is_some() {
                saturating_bump(&mut self.stats.injected_faults);
                return Err(MemError::TierFull(tier));
            }
        }
        loop {
            let node = self
                .topology
                .tier(tier)
                .nodes()
                .iter()
                .copied()
                .filter(|n| {
                    let st = &self.nodes[n.index()];
                    st.watermarks.can_allocate(st.free.len())
                })
                .max_by_key(|n| self.nodes[n.index()].free.len());
            if let Some(frame) = node.and_then(|n| self.nodes[n.index()].free.pop()) {
                self.frames[frame.index()].mark_allocated(kind);
                saturating_bump(&mut self.stats.allocs);
                self.recorder.emit(|| EventKind::Alloc {
                    frame: frame.index() as u64,
                    tier: tier.index() as u8,
                });
                return Ok(frame);
            }
            // Out of headroom: shadow copies are opportunistic capacity, so
            // release the oldest one held in this tier and retry rather than
            // let non-exclusive placement cause an allocation failure. The
            // table is empty under `MigrationMode::Sync`, so the sync path
            // fails exactly as before.
            let frames = &self.frames;
            match self
                .shadows
                .pop_oldest_in_tier(tier, |f| frames[f.index()].tier())
            {
                Some((_, copy)) => {
                    self.release_retained_frame(copy);
                    saturating_bump(&mut self.stats.shadow_invalidations);
                }
                None => return Err(MemError::TierFull(tier)),
            }
        }
    }

    /// Frees a frame, unmapping it first if needed.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::FrameNotAllocated`] if the frame is free.
    pub fn free_page(&mut self, frame: FrameId) -> Result<(), MemError> {
        if self.frames[frame.index()].state() != FrameState::Allocated {
            return Err(MemError::FrameNotAllocated(frame));
        }
        self.abort_txn_of(frame, "unmapped");
        self.invalidate_shadow_of(frame);
        self.forget_shadow_copy(frame);
        if let Some(vpage) = self.frames[frame.index()].vpage() {
            self.page_table.unmap(vpage);
        }
        let node = self.frames[frame.index()].node();
        self.frames[frame.index()].mark_free();
        self.nodes[node.index()].free.push(frame);
        saturating_bump(&mut self.stats.frees);
        Ok(())
    }

    /// Maps a virtual page to an allocated frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AlreadyMapped`] or [`MemError::FrameNotAllocated`].
    pub fn map(&mut self, vpage: VPage, frame: FrameId) -> Result<(), MemError> {
        if self.page_table.get(vpage).is_some() {
            return Err(MemError::AlreadyMapped(vpage));
        }
        if self.frames[frame.index()].state() != FrameState::Allocated {
            return Err(MemError::FrameNotAllocated(frame));
        }
        self.page_table.map(vpage, frame);
        self.frames[frame.index()].set_vpage(Some(vpage));
        Ok(())
    }

    /// Removes a mapping, returning the frame it pointed to. The frame
    /// stays allocated.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if the page was not mapped.
    pub fn unmap(&mut self, vpage: VPage) -> Result<FrameId, MemError> {
        let e = self
            .page_table
            .unmap(vpage)
            .ok_or(MemError::NotMapped(vpage))?;
        self.frames[e.frame.index()].set_vpage(None);
        // Losing the mapping cancels any in-flight copy of this frame and
        // strands a retained shadow of it; both are cleaned up eagerly so
        // `resolve_migrations` only ever sees live sources.
        self.abort_txn_of(e.frame, "unmapped");
        self.invalidate_shadow_of(e.frame);
        Ok(e.frame)
    }

    /// Translates a virtual page to its frame.
    pub fn translate(&self, vpage: VPage) -> Option<FrameId> {
        self.page_table.get(vpage).map(|e| e.frame)
    }

    /// Performs one access to a mapped page: sets the PTE reference bit
    /// (and dirty bit for writes), mirrors the dirty bit into the frame
    /// flags, detects hint faults, and returns the device latency.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] for unmapped pages — the caller
    /// handles the fault (allocation or swap-in).
    pub fn access(&mut self, vpage: VPage, kind: AccessKind) -> Result<AccessOutcome, MemError> {
        let entry = self
            .page_table
            .get_mut(vpage)
            .ok_or(MemError::NotMapped(vpage))?;
        entry.referenced = true;
        let hint_fault = std::mem::take(&mut entry.poisoned);
        if kind.is_write() {
            entry.dirty = true;
        }
        let frame = entry.frame;
        if kind.is_write() {
            self.frames[frame.index()]
                .flags_mut()
                .insert(PageFlags::DIRTY);
            saturating_bump(&mut self.stats.writes);
            // A write during a copy window makes the in-flight copy stale
            // (the txn aborts at resolve time), and a write after a clean
            // promotion invalidates the retained shadow copy.
            self.doom_txn_of(frame);
            self.invalidate_shadow_of(frame);
        } else {
            saturating_bump(&mut self.stats.reads);
        }
        let tier = self.frames[frame.index()].tier();
        let node = self.frames[frame.index()].node();
        if hint_fault {
            saturating_bump(&mut self.stats.hint_faults);
            self.recorder.emit(|| EventKind::HintFault {
                vpage: vpage.raw(),
                tier: tier.index() as u8,
            });
        }
        if self.stats.tier_accesses.len() <= tier.index() {
            self.stats.tier_accesses.resize(tier.index() + 1, 0);
        }
        saturating_bump(&mut self.stats.tier_accesses[tier.index()]);
        let mut latency = self.latency.access_at(node, tier, kind);
        if let Some(fault) = self.fault.as_mut() {
            let factor = fault.on_access(tier.index() as u8);
            if factor > 1 {
                latency = latency.saturating_mul(u64::from(factor));
            }
        }
        Ok(AccessOutcome {
            frame,
            tier,
            node,
            latency,
            hint_fault,
        })
    }

    /// Test-and-clears the reference bit of the page mapped to `frame` —
    /// the scan daemon's `page_referenced()` harvesting step. Unmapped
    /// frames report unreferenced.
    pub fn harvest_referenced(&mut self, frame: FrameId) -> bool {
        match self.frames[frame.index()].vpage() {
            Some(vpage) => self.page_table.harvest_referenced(vpage),
            None => false,
        }
    }

    /// Poisons the PTE of a mapped page for hint-fault tracking. Returns
    /// whether the page was mapped.
    pub fn poison(&mut self, vpage: VPage) -> bool {
        match self.page_table.get_mut(vpage) {
            Some(e) => {
                e.poisoned = true;
                true
            }
            None => false,
        }
    }

    /// Migrates a page to another tier: allocates a destination frame,
    /// charges copy costs to the ledger, remaps the virtual page, frees the
    /// source frame, and emits a [`MemEvent::Migrated`].
    ///
    /// Page flags travel with the page; the PTE reference bit is cleared by
    /// the remap (a fresh PTE has not been accessed).
    ///
    /// # Errors
    ///
    /// * [`MemError::FrameNotAllocated`] — source frame is free.
    /// * [`MemError::FrameLocked`] / [`MemError::FrameUnevictable`] — the
    ///   page may not be moved (the paper's "page is locked" fallback).
    /// * [`MemError::SameTier`] — destination equals current tier.
    /// * [`MemError::TierFull`] — no destination frame available; callers
    ///   react by demoting from the destination first.
    pub fn migrate(&mut self, frame: FrameId, dst_tier: TierId) -> Result<FrameId, MemError> {
        self.migrate_page_inner(frame, dst_tier, false)
            .map(|(f, _)| f)
            .map_err(|(e, _)| e)
    }

    /// Migrates a batch of pages to `dst_tier` in one amortized call,
    /// mirroring a batched `migrate_pages()` syscall (Nomad-style).
    ///
    /// Cost model: the per-invocation setup ([`LatencyModel`]'s
    /// `migration_fixed` kernel overhead and `migration_app_stall`) is
    /// charged **once** for the whole batch, while the page-copy cost stays
    /// per successfully moved page — see [`LatencyModel::migration_batch`].
    /// A batch with zero successes charges nothing.
    ///
    /// Each page is validated individually: a locked, unevictable,
    /// unallocated or same-tier page (or an organic allocation failure in
    /// the destination) fails *only that page* and the batch continues. An
    /// **injected** migration fault aborts the transaction Nomad-style: the
    /// faulted page fails with the injected error and every remaining page
    /// fails with [`MemError::TierFull`] (reason `"batch-aborted"`), which
    /// is transient — callers feed those pages into their retry path.
    ///
    /// Observability: one [`EventKind::MigrateBatch`] event summarises the
    /// batch (per-page `migrate` events are only emitted by the single-page
    /// path); failures still emit per-page `migrate_fail` events. A
    /// single-element batch is exactly equivalent to [`Self::migrate`],
    /// events and costs included.
    ///
    /// Returns one `Result` per input page, in order.
    pub fn migrate_batch(
        &mut self,
        frames: &[FrameId],
        dst_tier: TierId,
    ) -> Vec<Result<FrameId, MemError>> {
        if frames.len() <= 1 {
            // Bit-identical to the unbatched path: same costs, same events.
            return frames.iter().map(|&f| self.migrate(f, dst_tier)).collect();
        }
        let batch_src = self
            .frames
            // lint: allow(indexing) - `frames.len() <= 1` returned early above
            .get(frames[0].index())
            .map_or(dst_tier, Frame::tier);
        let mut results = Vec::with_capacity(frames.len());
        let mut copy_total = Nanos::ZERO;
        let mut migrated: u32 = 0;
        let mut aborted = false;
        for &frame in frames {
            if aborted {
                saturating_bump(&mut self.stats.migration_failures);
                let src = self.frames[frame.index()].tier();
                self.recorder.emit(|| EventKind::MigrateFail {
                    frame: frame.index() as u64,
                    src: src.index() as u8,
                    reason: "batch-aborted",
                });
                results.push(Err(MemError::TierFull(dst_tier)));
                continue;
            }
            match self.migrate_page_inner(frame, dst_tier, true) {
                Ok((new_frame, copy)) => {
                    copy_total += copy;
                    migrated += 1;
                    results.push(Ok(new_frame));
                }
                Err((e, abort)) => {
                    aborted = abort;
                    results.push(Err(e));
                }
            }
        }
        if migrated > 0 {
            self.ledger
                .charge_app_stall(self.latency.migration_app_stall);
            self.ledger
                .charge_background(self.latency.migration_fixed + copy_total);
        }
        self.recorder.emit(|| EventKind::MigrateBatch {
            src: batch_src.index() as u8,
            dst: dst_tier.index() as u8,
            pages: frames.len() as u32,
            migrated,
        });
        results
    }

    /// Shared migration body. `batched` suppresses the per-page cost charge
    /// and per-page success tracepoint (the batch caller charges one
    /// amortized cost and emits one summary event instead). Returns the new
    /// frame plus the pure copy cost of this page; the error side carries
    /// an abort flag that is `true` only for injected faults (which abort
    /// the rest of a batch).
    fn migrate_page_inner(
        &mut self,
        frame: FrameId,
        dst_tier: TierId,
        batched: bool,
    ) -> Result<(FrameId, Nanos), (MemError, bool)> {
        let src = &self.frames[frame.index()];
        if src.state() != FrameState::Allocated {
            return Err((MemError::FrameNotAllocated(frame), false));
        }
        let src_tier = src.tier();
        if src.flags().contains(PageFlags::LOCKED) {
            saturating_bump(&mut self.stats.migration_failures);
            self.recorder.emit(|| EventKind::MigrateFail {
                frame: frame.index() as u64,
                src: src_tier.index() as u8,
                reason: "locked",
            });
            return Err((MemError::FrameLocked(frame), false));
        }
        let src = &self.frames[frame.index()];
        if src.flags().contains(PageFlags::UNEVICTABLE) {
            saturating_bump(&mut self.stats.migration_failures);
            self.recorder.emit(|| EventKind::MigrateFail {
                frame: frame.index() as u64,
                src: src_tier.index() as u8,
                reason: "unevictable",
            });
            return Err((MemError::FrameUnevictable(frame), false));
        }
        if src_tier == dst_tier {
            return Err((MemError::SameTier(frame, dst_tier), false));
        }
        if let Some(fault) = self.fault.as_mut() {
            if let Some(injected) = fault.on_migrate(dst_tier.index() as u8) {
                saturating_bump(&mut self.stats.migration_failures);
                saturating_bump(&mut self.stats.injected_faults);
                self.recorder.emit(|| EventKind::MigrateFail {
                    frame: frame.index() as u64,
                    src: src_tier.index() as u8,
                    reason: injected.reason(),
                });
                let e = match injected {
                    InjectedFault::FrameLocked => MemError::FrameLocked(frame),
                    InjectedFault::TierFull | InjectedFault::TierOffline => {
                        MemError::TierFull(dst_tier)
                    }
                };
                return Err((e, true));
            }
        }
        let kind = src.kind();
        let flags = src.flags();
        let vpage = src.vpage();

        let new_frame = match self.alloc_page_in_tier(kind, dst_tier) {
            Ok(f) => f,
            Err(e) => {
                saturating_bump(&mut self.stats.migration_failures);
                self.recorder.emit(|| EventKind::MigrateFail {
                    frame: frame.index() as u64,
                    src: src_tier.index() as u8,
                    reason: "tier-full",
                });
                return Err((e, false));
            }
        };

        // Copy costs. The batch path charges one amortized setup for the
        // whole batch, so only the pure copy portion is reported upward.
        let cost = self.latency.migration(src_tier, dst_tier);
        let copy = cost.background.saturating_sub(self.latency.migration_fixed);
        if !batched {
            self.ledger.charge_app_stall(cost.app_stall);
            self.ledger.charge_background(cost.background);
        }

        // A synchronous move supersedes any in-flight copy of this frame
        // and stales any shadow keyed by it.
        self.abort_txn_of(frame, "unmapped");
        self.invalidate_shadow_of(frame);

        // Move metadata and mapping.
        *self.frames[new_frame.index()].flags_mut() = flags;
        if let Some(v) = vpage {
            self.page_table.remap(v, new_frame);
            self.frames[new_frame.index()].set_vpage(Some(v));
            self.frames[frame.index()].set_vpage(None);
        }
        // Free the source frame (bypass free_page's unmap: already moved).
        let src_node = self.frames[frame.index()].node();
        self.frames[frame.index()].mark_free();
        self.nodes[src_node.index()].free.push(frame);
        saturating_bump(&mut self.stats.frees);

        if dst_tier < src_tier {
            saturating_bump(&mut self.stats.promotions);
        } else {
            saturating_bump(&mut self.stats.demotions);
        }
        self.events.push(MemEvent::Migrated {
            new_frame,
            old_frame: frame,
            vpage,
            src: src_tier,
            dst: dst_tier,
        });
        if !batched {
            self.recorder.emit(|| EventKind::Migrate {
                vpage: vpage.map(VPage::raw),
                src: src_tier.index() as u8,
                dst: dst_tier.index() as u8,
            });
        }
        Ok((new_frame, copy))
    }

    /// Evicts a page from the lowest tier to backing storage: unmaps it,
    /// charges the swap write for dirty/anonymous pages (clean file pages
    /// are simply dropped), frees the frame, and remembers the virtual page
    /// so the next touch pays a swap-in.
    ///
    /// # Errors
    ///
    /// Propagates the same preconditions as [`Self::migrate`].
    pub fn evict(&mut self, frame: FrameId) -> Result<(), MemError> {
        let f = &self.frames[frame.index()];
        if f.state() != FrameState::Allocated {
            return Err(MemError::FrameNotAllocated(frame));
        }
        if f.flags().contains(PageFlags::LOCKED) {
            return Err(MemError::FrameLocked(frame));
        }
        if f.flags().contains(PageFlags::UNEVICTABLE) {
            return Err(MemError::FrameUnevictable(frame));
        }
        let dirty = f.flags().contains(PageFlags::DIRTY);
        let anon = f.kind() == PageKind::Anon;
        let vpage = f.vpage();
        self.abort_txn_of(frame, "unmapped");
        self.invalidate_shadow_of(frame);
        self.forget_shadow_copy(frame);
        if dirty || anon {
            let t = self.latency.swap_page;
            self.ledger.charge_background(t);
        }
        if let Some(v) = vpage {
            self.page_table.unmap(v);
            self.swapped.insert(v);
            self.events.push(MemEvent::Evicted { vpage: v });
            self.recorder.emit(|| EventKind::Evict { vpage: v.raw() });
        }
        let node = self.frames[frame.index()].node();
        self.frames[frame.index()].mark_free();
        self.nodes[node.index()].free.push(frame);
        saturating_bump(&mut self.stats.frees);
        saturating_bump(&mut self.stats.evictions);
        Ok(())
    }

    /// Whether a virtual page currently lives on backing storage.
    pub fn is_swapped(&self, vpage: VPage) -> bool {
        self.swapped.contains(&vpage)
    }

    /// Records that a previously evicted page was faulted back in; charges
    /// the swap-in latency as application stall and emits an event.
    pub fn note_swap_in(&mut self, vpage: VPage) {
        if self.swapped.remove(&vpage) {
            let t = self.latency.swap_page;
            self.ledger.charge_app_stall(t);
            saturating_bump(&mut self.stats.swap_ins);
            self.events.push(MemEvent::SwappedIn { vpage });
            self.recorder
                .emit(|| EventKind::SwapIn { vpage: vpage.raw() });
        }
    }

    /// In-flight migration transactions, in begin order.
    pub fn migration_txns(&self) -> &[MigrationTxn] {
        &self.txns
    }

    /// The shadow-page table (retained lower-tier copies).
    pub fn shadow_pages(&self) -> &ShadowPages {
        &self.shadows
    }

    /// Opens a transactional migration of `frame` towards `dst_tier`: the
    /// destination frame is reserved, the page copy is charged as pure
    /// background work (the page stays mapped, so the application is never
    /// stalled), and the transaction resolves — commit or abort — at the
    /// next [`Self::resolve_migrations`] call. A write to the page before
    /// then dooms the transaction (the copy is stale).
    ///
    /// Unlike [`Self::migrate_batch`], each page is its own transaction:
    /// an injected fault and an organic failure are treated uniformly
    /// (that page's transaction fails, nothing else is aborted), which is
    /// what the sync batch path cannot offer.
    ///
    /// # Errors
    ///
    /// The same preconditions as [`Self::migrate`], plus
    /// [`MemError::FrameLocked`] when the frame already has an in-flight
    /// transaction (reason `"txn-pending"`).
    pub fn begin_migration(&mut self, frame: FrameId, dst_tier: TierId) -> Result<(), MemError> {
        let src = &self.frames[frame.index()];
        if src.state() != FrameState::Allocated {
            return Err(MemError::FrameNotAllocated(frame));
        }
        let src_tier = src.tier();
        if src.flags().contains(PageFlags::LOCKED) {
            saturating_bump(&mut self.stats.migration_failures);
            self.recorder.emit(|| EventKind::MigrateFail {
                frame: frame.index() as u64,
                src: src_tier.index() as u8,
                reason: "locked",
            });
            return Err(MemError::FrameLocked(frame));
        }
        if src.flags().contains(PageFlags::UNEVICTABLE) {
            saturating_bump(&mut self.stats.migration_failures);
            self.recorder.emit(|| EventKind::MigrateFail {
                frame: frame.index() as u64,
                src: src_tier.index() as u8,
                reason: "unevictable",
            });
            return Err(MemError::FrameUnevictable(frame));
        }
        if src_tier == dst_tier {
            return Err(MemError::SameTier(frame, dst_tier));
        }
        if self.txns.iter().any(|t| t.frame == frame) {
            saturating_bump(&mut self.stats.migration_failures);
            self.recorder.emit(|| EventKind::MigrateFail {
                frame: frame.index() as u64,
                src: src_tier.index() as u8,
                reason: "txn-pending",
            });
            return Err(MemError::FrameLocked(frame));
        }
        if let Some(fault) = self.fault.as_mut() {
            if let Some(injected) = fault.on_migrate(dst_tier.index() as u8) {
                saturating_bump(&mut self.stats.migration_failures);
                saturating_bump(&mut self.stats.injected_faults);
                self.recorder.emit(|| EventKind::MigrateFail {
                    frame: frame.index() as u64,
                    src: src_tier.index() as u8,
                    reason: injected.reason(),
                });
                let e = match injected {
                    InjectedFault::FrameLocked => MemError::FrameLocked(frame),
                    InjectedFault::TierFull | InjectedFault::TierOffline => {
                        MemError::TierFull(dst_tier)
                    }
                };
                return Err(e);
            }
        }
        // The page is about to move again, so a shadow keyed by this frame
        // is stale no matter how the transaction ends.
        self.invalidate_shadow_of(frame);
        let kind = self.frames[frame.index()].kind();
        let dst_frame = match self.alloc_page_in_tier(kind, dst_tier) {
            Ok(f) => f,
            Err(e) => {
                saturating_bump(&mut self.stats.migration_failures);
                self.recorder.emit(|| EventKind::MigrateFail {
                    frame: frame.index() as u64,
                    src: src_tier.index() as u8,
                    reason: "tier-full",
                });
                return Err(e);
            }
        };
        // The copy streams in the background while the application keeps
        // accessing the source: no app stall at begin time. The cheap
        // atomic remap is charged at commit.
        let cost = self.latency.migration(src_tier, dst_tier);
        self.ledger.charge_background(cost.background);
        self.txns.push(MigrationTxn {
            frame,
            dst_frame,
            dst_tier,
            doomed: false,
        });
        saturating_bump(&mut self.stats.txn_begins);
        self.recorder.emit(|| EventKind::TxnBegin {
            frame: frame.index() as u64,
            src: src_tier.index() as u8,
            dst: dst_tier.index() as u8,
        });
        Ok(())
    }

    /// Resolves every in-flight transaction, in begin order: doomed ones
    /// (written during the copy window) abort with a retryable error,
    /// commit-time injected faults abort with the injected error, and the
    /// rest commit via an atomic remap. With `keep_shadows`, a committed
    /// *promotion* leaves its source frame behind as a shadow copy for a
    /// later zero-copy demotion — the window closed clean, so the copy is
    /// current and the promoted page's dirty bit resets against it.
    /// Otherwise (and for demotions) the source frame is freed.
    ///
    /// One [`LatencyModel::txn_remap`] app stall is charged if at least
    /// one transaction committed (the remaps batch into one shootdown).
    ///
    /// Returns `(source_frame, result)` per transaction, in begin order;
    /// the `Ok` value is the frame the page now occupies.
    pub fn resolve_migrations(
        &mut self,
        keep_shadows: bool,
    ) -> Vec<(FrameId, Result<FrameId, MemError>)> {
        let txns = std::mem::take(&mut self.txns);
        let mut out = Vec::with_capacity(txns.len());
        let mut committed = 0u32;
        for txn in txns {
            if txn.doomed {
                self.release_retained_frame(txn.dst_frame);
                saturating_bump(&mut self.stats.txn_aborts);
                saturating_bump(&mut self.stats.migration_failures);
                self.recorder.emit(|| EventKind::TxnAbort {
                    frame: txn.frame.index() as u64,
                    reason: "dirty-write",
                });
                out.push((txn.frame, Err(MemError::FrameLocked(txn.frame))));
                continue;
            }
            // The copy window is where real migrations fail: injected
            // faults fire at resolve time too, aborting only this txn.
            let injected = self
                .fault
                .as_mut()
                .and_then(|f| f.on_migrate(txn.dst_tier.index() as u8));
            if let Some(injected) = injected {
                self.release_retained_frame(txn.dst_frame);
                saturating_bump(&mut self.stats.txn_aborts);
                saturating_bump(&mut self.stats.migration_failures);
                saturating_bump(&mut self.stats.injected_faults);
                self.recorder.emit(|| EventKind::TxnAbort {
                    frame: txn.frame.index() as u64,
                    reason: injected.reason(),
                });
                let e = match injected {
                    InjectedFault::FrameLocked => MemError::FrameLocked(txn.frame),
                    InjectedFault::TierFull | InjectedFault::TierOffline => {
                        MemError::TierFull(txn.dst_tier)
                    }
                };
                out.push((txn.frame, Err(e)));
                continue;
            }
            // Commit: atomic remap. Eager aborts on unmap/free/evict
            // guarantee the source is still a live mapped frame here.
            let src_tier = self.frames[txn.frame.index()].tier();
            let flags = self.frames[txn.frame.index()].flags();
            let vpage = self.frames[txn.frame.index()].vpage();
            *self.frames[txn.dst_frame.index()].flags_mut() = flags;
            if let Some(v) = vpage {
                self.page_table.remap(v, txn.dst_frame);
                self.frames[txn.dst_frame.index()].set_vpage(Some(v));
                self.frames[txn.frame.index()].set_vpage(None);
            }
            let promotion = txn.dst_tier < src_tier;
            if promotion && keep_shadows {
                // Non-exclusive placement: the copy window closed clean
                // (a dirty write would have doomed the txn), so the
                // lower-tier source is byte-identical to the promoted
                // page whatever its historical dirty bit says — it
                // becomes the page's backing copy, and the promoted
                // frame starts clean *relative to it*. The next write
                // re-dirties the page and invalidates the shadow.
                self.frames[txn.dst_frame.index()]
                    .flags_mut()
                    .remove(PageFlags::DIRTY);
                *self.frames[txn.frame.index()].flags_mut() = PageFlags::EMPTY;
                if let Some(old) = self.shadows.insert(txn.dst_frame, txn.frame) {
                    self.release_retained_frame(old);
                    saturating_bump(&mut self.stats.shadow_invalidations);
                }
            } else {
                self.release_retained_frame(txn.frame);
            }
            if promotion {
                saturating_bump(&mut self.stats.promotions);
            } else {
                saturating_bump(&mut self.stats.demotions);
            }
            self.events.push(MemEvent::Migrated {
                new_frame: txn.dst_frame,
                old_frame: txn.frame,
                vpage,
                src: src_tier,
                dst: txn.dst_tier,
            });
            saturating_bump(&mut self.stats.txn_commits);
            self.recorder.emit(|| EventKind::TxnCommit {
                frame: txn.frame.index() as u64,
                new_frame: txn.dst_frame.index() as u64,
            });
            committed += 1;
            out.push((txn.frame, Ok(txn.dst_frame)));
        }
        if committed > 0 {
            self.ledger.charge_app_stall(self.latency.txn_remap);
        }
        out
    }

    /// Attempts a zero-copy demotion of `frame` into `dst_tier` by
    /// flipping its mapping to a retained shadow copy. Succeeds only when
    /// a shadow exists in exactly that tier and the page is still clean
    /// and movable; costs one [`LatencyModel::txn_remap`] app stall and no
    /// copy at all. Returns the frame the page now occupies.
    pub fn try_shadow_demote(&mut self, frame: FrameId, dst_tier: TierId) -> Option<FrameId> {
        let copy = self.shadows.get(frame)?;
        if self.frames[copy.index()].tier() != dst_tier {
            return None;
        }
        let f = &self.frames[frame.index()];
        if f.state() != FrameState::Allocated || f.vpage().is_none() {
            return None;
        }
        if f.flags()
            .intersects(PageFlags::LOCKED | PageFlags::UNEVICTABLE)
        {
            return None;
        }
        if f.flags().contains(PageFlags::DIRTY) {
            // Writes invalidate eagerly, but flags can also be set
            // directly; treat a dirty page's shadow as stale either way.
            self.invalidate_shadow_of(frame);
            return None;
        }
        let src_tier = f.tier();
        let flags = f.flags();
        let vpage = f.vpage();
        self.shadows.remove(frame);
        *self.frames[copy.index()].flags_mut() = flags;
        if let Some(v) = vpage {
            self.page_table.remap(v, copy);
            self.frames[copy.index()].set_vpage(Some(v));
            self.frames[frame.index()].set_vpage(None);
        }
        self.release_retained_frame(frame);
        saturating_bump(&mut self.stats.demotions);
        saturating_bump(&mut self.stats.shadow_hits);
        self.events.push(MemEvent::Migrated {
            new_frame: copy,
            old_frame: frame,
            vpage,
            src: src_tier,
            dst: dst_tier,
        });
        self.recorder.emit(|| EventKind::ShadowDemote {
            frame: frame.index() as u64,
            new_frame: copy.index() as u64,
        });
        self.ledger.charge_app_stall(self.latency.txn_remap);
        Some(copy)
    }

    /// Marks the in-flight transaction of `frame` (if any) as doomed: the
    /// background copy no longer matches the source.
    fn doom_txn_of(&mut self, frame: FrameId) {
        if let Some(t) = self.txns.iter_mut().find(|t| t.frame == frame) {
            t.doomed = true;
        }
    }

    /// Aborts the in-flight transaction of `frame` (if any) immediately:
    /// releases the reserved destination frame and emits the abort. Used
    /// when the source stops being a live mapped page mid-window.
    fn abort_txn_of(&mut self, frame: FrameId, reason: &'static str) {
        if let Some(pos) = self.txns.iter().position(|t| t.frame == frame) {
            let txn = self.txns.remove(pos);
            self.release_retained_frame(txn.dst_frame);
            saturating_bump(&mut self.stats.txn_aborts);
            self.recorder.emit(|| EventKind::TxnAbort {
                frame: txn.frame.index() as u64,
                reason,
            });
        }
    }

    /// Drops the shadow entry keyed by `frame` (if any) and frees the
    /// retained copy.
    fn invalidate_shadow_of(&mut self, frame: FrameId) {
        if let Some(copy) = self.shadows.remove(frame) {
            self.release_retained_frame(copy);
            saturating_bump(&mut self.stats.shadow_invalidations);
        }
    }

    /// Drops any shadow entry whose retained *copy* is `frame`, without
    /// freeing it — the caller is already disposing of the frame itself.
    fn forget_shadow_copy(&mut self, frame: FrameId) {
        let keys: Vec<FrameId> = self
            .shadows
            .iter()
            .filter(|&(_, copy)| copy == frame)
            .map(|(k, _)| k)
            .collect();
        for k in keys {
            self.shadows.remove(k);
            saturating_bump(&mut self.stats.shadow_invalidations);
        }
    }

    /// Returns an allocated-but-unmapped bookkeeping frame (a reserved txn
    /// destination or a shadow copy) to its node's free list.
    fn release_retained_frame(&mut self, frame: FrameId) {
        let node = self.frames[frame.index()].node();
        self.frames[frame.index()].mark_free();
        self.nodes[node.index()].free.push(frame);
        saturating_bump(&mut self.stats.frees);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemorySystem {
        MemorySystem::new(MemConfig::two_tier(64, 256))
    }

    #[test]
    fn pages_are_born_in_dram() {
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        assert_eq!(mem.frame(f).tier(), TierId::TOP);
    }

    #[test]
    fn allocation_falls_back_to_pm_when_dram_exhausted() {
        let mut mem = small();
        let dram_usable = {
            let wm = mem.node_watermarks(NodeId::new(0));
            64 - wm.min
        };
        let mut last = None;
        for _ in 0..dram_usable {
            last = Some(mem.alloc_page(PageKind::Anon).unwrap());
        }
        assert_eq!(mem.frame(last.unwrap()).tier(), TierId::TOP);
        // Next allocation must spill to PM.
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        assert_eq!(mem.frame(f).tier(), TierId::new(1));
    }

    #[test]
    fn allocation_respects_min_watermark() {
        let mut mem = MemorySystem::new(MemConfig::two_tier(64, 64));
        let mut allocated = 0;
        while mem.alloc_page(PageKind::Anon).is_ok() {
            allocated += 1;
            assert!(allocated <= 128, "must stop before exhausting reserves");
        }
        let wm0 = mem.node_watermarks(NodeId::new(0));
        let wm1 = mem.node_watermarks(NodeId::new(1));
        assert_eq!(mem.node_free(NodeId::new(0)), wm0.min);
        assert_eq!(mem.node_free(NodeId::new(1)), wm1.min);
    }

    #[test]
    fn map_access_sets_reference_and_dirty() {
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        let v = VPage::new(10);
        mem.map(v, f).unwrap();
        let out = mem.access(v, AccessKind::Read).unwrap();
        assert_eq!(out.frame, f);
        assert_eq!(out.tier, TierId::TOP);
        assert!(!out.hint_fault);
        assert!(mem.page_table().get(v).unwrap().referenced);
        assert!(!mem.page_table().get(v).unwrap().dirty);
        mem.access(v, AccessKind::Write).unwrap();
        assert!(mem.page_table().get(v).unwrap().dirty);
        assert!(mem.frame(f).flags().contains(PageFlags::DIRTY));
    }

    #[test]
    fn access_unmapped_is_fault() {
        let mut mem = small();
        assert_eq!(
            mem.access(VPage::new(1), AccessKind::Read),
            Err(MemError::NotMapped(VPage::new(1)))
        );
    }

    #[test]
    fn harvest_reference_is_test_and_clear_via_frame() {
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        mem.map(VPage::new(3), f).unwrap();
        mem.access(VPage::new(3), AccessKind::Read).unwrap();
        assert!(mem.harvest_referenced(f));
        assert!(!mem.harvest_referenced(f));
    }

    #[test]
    fn poisoned_access_reports_hint_fault_once() {
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        let v = VPage::new(5);
        mem.map(v, f).unwrap();
        assert!(mem.poison(v));
        let out = mem.access(v, AccessKind::Read).unwrap();
        assert!(out.hint_fault);
        let out2 = mem.access(v, AccessKind::Read).unwrap();
        assert!(!out2.hint_fault, "poison is consumed by the fault");
        assert_eq!(mem.stats().hint_faults, 1);
    }

    #[test]
    fn migrate_moves_page_down_and_remaps() {
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        let v = VPage::new(7);
        mem.map(v, f).unwrap();
        mem.access(v, AccessKind::Write).unwrap();
        let pm = TierId::new(1);
        let nf = mem.migrate(f, pm).unwrap();
        assert_eq!(mem.frame(nf).tier(), pm);
        assert_eq!(mem.translate(v), Some(nf));
        assert_eq!(mem.frame(f).state(), FrameState::Free);
        // Dirty travels, referenced is cleared.
        let e = mem.page_table().get(v).unwrap();
        assert!(e.dirty);
        assert!(!e.referenced);
        assert!(mem.frame(nf).flags().contains(PageFlags::DIRTY));
        assert_eq!(mem.stats().demotions, 1);
        let ev = mem.drain_events();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].is_demotion());
    }

    #[test]
    fn migrate_up_counts_promotion() {
        let mut mem = small();
        let f = mem
            .alloc_page_in_tier(PageKind::Anon, TierId::new(1))
            .unwrap();
        mem.map(VPage::new(2), f).unwrap();
        let nf = mem.migrate(f, TierId::TOP).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
        assert_eq!(mem.stats().promotions, 1);
        assert!(mem.drain_events()[0].is_promotion());
    }

    #[test]
    fn migrate_rejects_locked_and_unevictable() {
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        mem.frame_flags_mut(f).insert(PageFlags::LOCKED);
        assert_eq!(
            mem.migrate(f, TierId::new(1)),
            Err(MemError::FrameLocked(f))
        );
        mem.frame_flags_mut(f).remove(PageFlags::LOCKED);
        mem.frame_flags_mut(f).insert(PageFlags::UNEVICTABLE);
        assert_eq!(
            mem.migrate(f, TierId::new(1)),
            Err(MemError::FrameUnevictable(f))
        );
        assert_eq!(mem.stats().migration_failures, 2);
    }

    #[test]
    fn migrate_same_tier_rejected() {
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        assert_eq!(
            mem.migrate(f, TierId::TOP),
            Err(MemError::SameTier(f, TierId::TOP))
        );
    }

    #[test]
    fn migration_charges_ledger() {
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        mem.map(VPage::new(1), f).unwrap();
        mem.migrate(f, TierId::new(1)).unwrap();
        let ledger = mem.ledger_mut().take();
        assert!(ledger.app_stall.as_nanos() > 0);
        assert!(ledger.background.as_nanos() > 0);
    }

    #[test]
    fn migrate_batch_moves_all_and_charges_one_setup() {
        let mut mem = small();
        let pm = TierId::new(1);
        let frames: Vec<FrameId> = (0..8)
            .map(|i| {
                let f = mem.alloc_page_in_tier(PageKind::Anon, pm).unwrap();
                mem.map(VPage::new(i), f).unwrap();
                f
            })
            .collect();
        mem.ledger_mut().take();
        mem.recorder_mut().enable(256);
        let results = mem.migrate_batch(&frames, TierId::TOP);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(mem.stats().promotions, 8);
        for (i, r) in results.iter().enumerate() {
            let nf = *r.as_ref().unwrap();
            assert_eq!(mem.frame(nf).tier(), TierId::TOP);
            assert_eq!(mem.translate(VPage::new(i as u64)), Some(nf));
        }
        // Exactly one amortized setup: the ledger matches migration_batch.
        let want = mem.latency().migration_batch(pm, TierId::TOP, 8);
        let l = mem.ledger_mut().take();
        assert_eq!(l.app_stall, want.app_stall);
        assert_eq!(l.background, want.background);
        // One summary tracepoint, no per-page migrate events.
        let batch_evs: Vec<_> = mem
            .recorder()
            .events()
            .filter(|e| e.kind.name() == "migrate_batch")
            .collect();
        assert_eq!(batch_evs.len(), 1);
        assert!(matches!(
            batch_evs[0].kind,
            mc_obs::EventKind::MigrateBatch {
                src: 1,
                dst: 0,
                pages: 8,
                migrated: 8,
            }
        ));
        assert_eq!(
            mem.recorder()
                .events()
                .filter(|e| e.kind.name() == "migrate")
                .count(),
            0
        );
        // Per-page substrate events still flow to the engine's metrics.
        assert_eq!(mem.drain_events().len(), 8);
    }

    #[test]
    fn migrate_batch_of_one_is_identical_to_single_migrate() {
        let run = |batched: bool| {
            let mut mem = small();
            let f = mem
                .alloc_page_in_tier(PageKind::Anon, TierId::new(1))
                .unwrap();
            mem.map(VPage::new(3), f).unwrap();
            mem.ledger_mut().take();
            if batched {
                mem.migrate_batch(&[f], TierId::TOP)[0].as_ref().unwrap();
            } else {
                mem.migrate(f, TierId::TOP).unwrap();
            }
            let l = mem.ledger_mut().take();
            (mem.stats().clone(), l.app_stall, l.background)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn migrate_batch_skips_bad_pages_and_continues() {
        let mut mem = small();
        let pm = TierId::new(1);
        let a = mem.alloc_page_in_tier(PageKind::Anon, pm).unwrap();
        let locked = mem.alloc_page_in_tier(PageKind::Anon, pm).unwrap();
        let b = mem.alloc_page_in_tier(PageKind::Anon, pm).unwrap();
        mem.frame_flags_mut(locked).insert(PageFlags::LOCKED);
        let results = mem.migrate_batch(&[a, locked, b], TierId::TOP);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(MemError::FrameLocked(locked)));
        assert!(
            results[2].is_ok(),
            "organic failure must not abort the batch"
        );
        assert_eq!(mem.frame(locked).tier(), pm);
        assert_eq!(mem.stats().migration_failures, 1);
        assert_eq!(mem.stats().promotions, 2);
    }

    #[test]
    fn injected_fault_aborts_rest_of_batch_with_retryable_error() {
        use mc_fault::{FaultInjector, FaultPlan};
        let plan = FaultPlan {
            migrate_fail_rate: 0.5,
            ..FaultPlan::default()
        };
        // Find a seed whose first migrate draw passes and second fires, so
        // the fault lands mid-batch. Deterministic for a fixed RNG.
        let seed = (0..u64::MAX)
            .find(|&s| {
                let mut inj = FaultInjector::new(plan.clone(), s);
                inj.on_migrate(0).is_none() && inj.on_migrate(0).is_some()
            })
            .unwrap();
        let mut mem = small();
        let pm = TierId::new(1);
        let frames: Vec<FrameId> = (0..4)
            .map(|i| {
                let f = mem.alloc_page_in_tier(PageKind::Anon, pm).unwrap();
                mem.map(VPage::new(i), f).unwrap();
                f
            })
            .collect();
        mem.ledger_mut().take();
        mem.set_fault_injector(FaultInjector::new(plan, seed));
        let results = mem.migrate_batch(&frames, TierId::TOP);
        assert!(results[0].is_ok(), "page before the fault migrated");
        assert!(results[1].is_err(), "faulted page failed");
        // Remaining pages fail with a transient error that flows into the
        // caller's retry path, and stay put.
        for (i, r) in results.iter().enumerate().skip(2) {
            assert_eq!(*r, Err(MemError::TierFull(TierId::TOP)));
            assert_eq!(mem.frame(frames[i]).tier(), pm);
            assert_eq!(mem.translate(VPage::new(i as u64)), Some(frames[i]));
        }
        assert_eq!(mem.stats().injected_faults, 1, "remainder is not injected");
        assert_eq!(mem.stats().migration_failures, 3);
        assert_eq!(mem.stats().promotions, 1);
        // The partial batch still charges exactly one setup.
        let want = mem.latency().migration_batch(pm, TierId::TOP, 1);
        let l = mem.ledger_mut().take();
        assert_eq!(l.app_stall, want.app_stall);
        assert_eq!(l.background, want.background);
    }

    #[test]
    fn empty_or_failed_batch_charges_nothing() {
        let mut mem = small();
        assert!(mem.migrate_batch(&[], TierId::TOP).is_empty());
        let pm = TierId::new(1);
        let a = mem.alloc_page_in_tier(PageKind::Anon, pm).unwrap();
        let b = mem.alloc_page_in_tier(PageKind::Anon, pm).unwrap();
        mem.frame_flags_mut(a).insert(PageFlags::LOCKED);
        mem.frame_flags_mut(b).insert(PageFlags::UNEVICTABLE);
        mem.ledger_mut().take();
        let results = mem.migrate_batch(&[a, b], TierId::TOP);
        assert!(results.iter().all(Result::is_err));
        let l = mem.ledger_mut().take();
        assert_eq!(l.app_stall, Nanos::ZERO);
        assert_eq!(l.background, Nanos::ZERO);
    }

    #[test]
    fn evict_and_swap_in_cycle() {
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        let v = VPage::new(11);
        mem.map(v, f).unwrap();
        mem.evict(f).unwrap();
        assert!(mem.is_swapped(v));
        assert_eq!(mem.translate(v), None);
        assert_eq!(mem.stats().evictions, 1);
        mem.note_swap_in(v);
        assert!(!mem.is_swapped(v));
        assert_eq!(mem.stats().swap_ins, 1);
        let l = mem.ledger_mut().take();
        assert!(l.app_stall >= mem.latency().swap_page);
    }

    #[test]
    fn free_page_unmaps() {
        let mut mem = small();
        let f = mem.alloc_page(PageKind::File).unwrap();
        let v = VPage::new(9);
        mem.map(v, f).unwrap();
        let free_before = mem.tier_free(TierId::TOP);
        mem.free_page(f).unwrap();
        assert_eq!(mem.translate(v), None);
        assert_eq!(mem.tier_free(TierId::TOP), free_before + 1);
        assert_eq!(mem.free_page(f), Err(MemError::FrameNotAllocated(f)));
    }

    #[test]
    fn tier_accounting_consistent() {
        let mut mem = small();
        let top = TierId::TOP;
        assert_eq!(mem.tier_free(top), 64);
        assert_eq!(mem.tier_used(top), 0);
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        assert_eq!(mem.tier_free(top), 63);
        assert_eq!(mem.tier_used(top), 1);
        mem.free_page(f).unwrap();
        assert_eq!(mem.tier_free(top), 64);
    }

    #[test]
    fn pressure_detection() {
        let mut mem = MemorySystem::new(MemConfig::two_tier(64, 256));
        assert!(!mem.tier_under_pressure(TierId::TOP));
        let wm = mem.node_watermarks(NodeId::new(0));
        // Allocate DRAM down to just below the low watermark.
        for _ in 0..(64 - wm.low + 1) {
            mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP).unwrap();
        }
        assert!(mem.tier_under_pressure(TierId::TOP));
        assert!(!mem.tier_balanced(TierId::TOP));
    }

    #[test]
    fn dual_socket_allocation_balances_nodes() {
        let mut mem = MemorySystem::new(MemConfig::dual_socket(32, 128));
        // Allocations alternate to the node with most free pages.
        let a = mem.alloc_page(PageKind::Anon).unwrap();
        let b = mem.alloc_page(PageKind::Anon).unwrap();
        assert_ne!(mem.frame(a).node(), mem.frame(b).node());
        assert_eq!(mem.frame(a).tier(), mem.frame(b).tier());
    }

    #[test]
    fn evict_clean_file_page_skips_swap_cost() {
        let mut mem = small();
        let f = mem.alloc_page(PageKind::File).unwrap();
        mem.map(VPage::new(20), f).unwrap();
        mem.ledger_mut().take();
        mem.evict(f).unwrap();
        let l = mem.ledger_mut().take();
        assert_eq!(l.background, Nanos::ZERO, "clean file pages are dropped");
    }

    #[test]
    fn injected_migrate_failure_leaves_page_intact() {
        use mc_fault::{FaultInjector, FaultPlan};
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        let v = VPage::new(30);
        mem.map(v, f).unwrap();
        let plan = FaultPlan {
            migrate_fail_rate: 1.0,
            ..FaultPlan::default()
        };
        mem.set_fault_injector(FaultInjector::new(plan, 42));
        let err = mem.migrate(f, TierId::new(1));
        assert_eq!(err, Err(MemError::TierFull(TierId::new(1))));
        assert_eq!(mem.translate(v), Some(f), "mapping untouched");
        assert_eq!(mem.frame(f).tier(), TierId::TOP, "page did not move");
        assert_eq!(mem.stats().migration_failures, 1);
        assert_eq!(mem.stats().injected_faults, 1);
        assert_eq!(mem.stats().demotions, 0);
        assert_eq!(mem.fault_injector().unwrap().stats().migrate_faults, 1);
    }

    #[test]
    fn injected_lock_maps_to_frame_locked() {
        use mc_fault::{FaultInjector, FaultPlan};
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        let plan = FaultPlan {
            migrate_lock_rate: 1.0,
            ..FaultPlan::default()
        };
        mem.set_fault_injector(FaultInjector::new(plan, 1));
        assert_eq!(
            mem.migrate(f, TierId::new(1)),
            Err(MemError::FrameLocked(f))
        );
    }

    #[test]
    fn offline_tier_rejects_alloc_and_spills_to_next() {
        use mc_fault::{FaultInjector, FaultPlan};
        let mut mem = small();
        mem.set_fault_injector(FaultInjector::new(FaultPlan::default(), 0));
        mem.fault_injector_mut().unwrap().set_tier_offline(0, true);
        assert_eq!(
            mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP),
            Err(MemError::TierFull(TierId::TOP))
        );
        // The tier-by-tier fallback lands in PM instead.
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        assert_eq!(mem.frame(f).tier(), TierId::new(1));
        mem.fault_injector_mut().unwrap().set_tier_offline(0, false);
        let f2 = mem.alloc_page(PageKind::Anon).unwrap();
        assert_eq!(mem.frame(f2).tier(), TierId::TOP, "back online");
    }

    #[test]
    fn stall_window_scales_access_latency() {
        use mc_fault::{FaultInjector, FaultPlan, StallWindow};
        let mut mem = small();
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        let v = VPage::new(40);
        mem.map(v, f).unwrap();
        let base = mem.access(v, AccessKind::Read).unwrap().latency;
        let plan = FaultPlan {
            stalls: vec![StallWindow {
                tier: 0,
                from_ns: 0,
                until_ns: 1_000,
                factor: 4,
            }],
            ..FaultPlan::default()
        };
        mem.set_fault_injector(FaultInjector::new(plan, 0));
        let stalled = mem.access(v, AccessKind::Read).unwrap().latency;
        assert_eq!(stalled, base.saturating_mul(4));
        mem.set_now(1_000); // window over
        let after = mem.access(v, AccessKind::Read).unwrap().latency;
        assert_eq!(after, base);
        assert_eq!(mem.fault_injector().unwrap().stats().stalled_accesses, 1);
    }

    #[test]
    fn zero_rate_injector_is_inert() {
        use mc_fault::{FaultConfig, FaultInjector};
        let mut cfg = FaultConfig::none();
        cfg.enabled = true;
        let mut mem = small();
        mem.set_fault_injector(FaultInjector::from_config(&cfg).unwrap());
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        mem.map(VPage::new(50), f).unwrap();
        mem.migrate(f, TierId::new(1)).unwrap();
        assert_eq!(mem.stats().injected_faults, 0);
        assert_eq!(
            *mem.fault_injector().unwrap().stats(),
            mc_fault::FaultStats::default()
        );
    }

    /// Allocates a clean PM page, maps it, and opens a promotion txn.
    fn begin_promotion(mem: &mut MemorySystem, vp: u64) -> FrameId {
        let f = mem
            .alloc_page_in_tier(PageKind::Anon, TierId::new(1))
            .unwrap();
        mem.map(VPage::new(vp), f).unwrap();
        mem.begin_migration(f, TierId::TOP).unwrap();
        f
    }

    #[test]
    fn txn_commit_promotes_leaves_shadow_and_never_stalls_the_copy() {
        let mut mem = small();
        mem.ledger_mut().take();
        let f = begin_promotion(&mut mem, 1);
        assert_eq!(mem.migration_txns().len(), 1);
        // The copy window charges only background time: no app stall.
        let l = mem.ledger_mut().take();
        assert_eq!(l.app_stall, Nanos::ZERO);
        assert_eq!(
            l.background,
            mem.latency()
                .migration(TierId::new(1), TierId::TOP)
                .background
        );
        // Reads during the window do not doom the txn.
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        let resolved = mem.resolve_migrations(true);
        assert_eq!(resolved.len(), 1);
        let (src, result) = (resolved[0].0, resolved[0].1.clone());
        assert_eq!(src, f);
        let nf = result.unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
        assert_eq!(mem.translate(VPage::new(1)), Some(nf));
        // The clean source survives as a shadow copy: allocated, unmapped.
        assert_eq!(mem.shadow_pages().get(nf), Some(f));
        assert_eq!(mem.frame(f).state(), FrameState::Allocated);
        assert_eq!(mem.frame(f).vpage(), None);
        assert_eq!(mem.stats().txn_begins, 1);
        assert_eq!(mem.stats().txn_commits, 1);
        assert_eq!(mem.stats().txn_aborts, 0);
        assert_eq!(mem.stats().promotions, 1);
        // The commit is one cheap remap, far below the sync stall.
        let l = mem.ledger_mut().take();
        assert_eq!(l.app_stall, mem.latency().txn_remap);
        assert_eq!(l.background, Nanos::ZERO);
        assert!(mem.drain_events()[0].is_promotion());
    }

    #[test]
    fn dirty_write_during_copy_window_aborts_with_retryable_error() {
        let mut mem = small();
        let f = begin_promotion(&mut mem, 2);
        let top_free = mem.tier_free(TierId::TOP);
        mem.access(VPage::new(2), AccessKind::Write).unwrap();
        assert!(mem.migration_txns()[0].doomed);
        let resolved = mem.resolve_migrations(true);
        assert_eq!(resolved[0], (f, Err(MemError::FrameLocked(f))));
        // The page stayed put, still mapped; the reserved frame came back.
        assert_eq!(mem.translate(VPage::new(2)), Some(f));
        assert_eq!(mem.frame(f).tier(), TierId::new(1));
        assert_eq!(mem.tier_free(TierId::TOP), top_free + 1);
        assert_eq!(mem.stats().txn_aborts, 1);
        assert_eq!(mem.stats().txn_commits, 0);
        assert_eq!(mem.stats().promotions, 0);
        assert!(mem.shadow_pages().is_empty());
    }

    #[test]
    fn resolve_without_shadows_frees_the_source() {
        let mut mem = small();
        let f = begin_promotion(&mut mem, 3);
        let resolved = mem.resolve_migrations(false);
        assert!(resolved[0].1.is_ok());
        assert_eq!(mem.frame(f).state(), FrameState::Free);
        assert!(mem.shadow_pages().is_empty());
    }

    #[test]
    fn shadow_demote_is_a_zero_copy_mapping_flip() {
        let mut mem = small();
        let f = begin_promotion(&mut mem, 4);
        let nf = mem.resolve_migrations(true)[0].1.clone().unwrap();
        mem.ledger_mut().take();
        mem.drain_events();
        let back = mem.try_shadow_demote(nf, TierId::new(1)).unwrap();
        assert_eq!(back, f, "the flip reuses the retained source frame");
        assert_eq!(mem.translate(VPage::new(4)), Some(f));
        assert_eq!(mem.frame(nf).state(), FrameState::Free);
        assert!(mem.shadow_pages().is_empty());
        assert_eq!(mem.stats().shadow_hits, 1);
        assert_eq!(mem.stats().demotions, 1);
        // Zero-copy: one remap stall, no background copy at all.
        let l = mem.ledger_mut().take();
        assert_eq!(l.app_stall, mem.latency().txn_remap);
        assert_eq!(l.background, Nanos::ZERO);
        assert!(mem.drain_events()[0].is_demotion());
    }

    #[test]
    fn first_dirty_write_invalidates_the_shadow() {
        let mut mem = small();
        begin_promotion(&mut mem, 5);
        let nf = mem.resolve_migrations(true)[0].1.clone().unwrap();
        let pm_free = mem.tier_free(TierId::new(1));
        mem.access(VPage::new(5), AccessKind::Write).unwrap();
        assert!(mem.shadow_pages().is_empty());
        assert_eq!(mem.stats().shadow_invalidations, 1);
        assert_eq!(mem.tier_free(TierId::new(1)), pm_free + 1);
        assert_eq!(mem.try_shadow_demote(nf, TierId::new(1)), None);
    }

    #[test]
    fn begin_on_pending_txn_is_rejected() {
        let mut mem = small();
        let f = begin_promotion(&mut mem, 6);
        assert_eq!(
            mem.begin_migration(f, TierId::TOP),
            Err(MemError::FrameLocked(f))
        );
        assert_eq!(mem.migration_txns().len(), 1, "still exactly one txn");
        assert_eq!(mem.stats().txn_begins, 1);
    }

    #[test]
    fn unmap_mid_window_aborts_and_returns_the_reservation() {
        let mut mem = small();
        let f = begin_promotion(&mut mem, 7);
        let top_free = mem.tier_free(TierId::TOP);
        mem.unmap(VPage::new(7)).unwrap();
        assert!(mem.migration_txns().is_empty());
        assert_eq!(mem.stats().txn_aborts, 1);
        assert_eq!(mem.tier_free(TierId::TOP), top_free + 1);
        assert!(mem.resolve_migrations(true).is_empty());
        mem.free_page(f).unwrap();
    }

    #[test]
    fn alloc_pressure_releases_shadow_capacity() {
        let mut mem = MemorySystem::new(MemConfig::two_tier(64, 64));
        let pm = TierId::new(1);
        // One clean promotion retains a PM shadow frame.
        begin_promotion(&mut mem, 8);
        mem.resolve_migrations(true)[0].1.clone().unwrap();
        assert_eq!(mem.shadow_pages().len(), 1);
        // Fill PM: the shadow frame must be surrendered before the tier
        // reports full, so shadows never cost real capacity.
        let mut got = 0;
        while mem.alloc_page_in_tier(PageKind::Anon, pm).is_ok() {
            got += 1;
        }
        let wm = mem.node_watermarks(NodeId::new(1));
        assert_eq!(got, 64 - wm.min, "every non-reserve PM page allocatable");
        assert!(mem.shadow_pages().is_empty());
        assert_eq!(mem.stats().shadow_invalidations, 1);
    }

    /// The PR 4 batch-abort asymmetry does not exist transactionally: in
    /// `migrate_batch` an injected fault aborts the whole remainder while
    /// an organic failure fails only its page; with per-page transactions
    /// both kinds of failure are scoped to exactly one page.
    #[test]
    fn transactional_faults_are_uniformly_per_page() {
        use mc_fault::{FaultInjector, FaultPlan};
        let plan = FaultPlan {
            migrate_fail_rate: 0.5,
            ..FaultPlan::default()
        };
        // A seed whose commit-time draws go pass, fire, pass, pass — the
        // fault lands mid-"batch" like the sync test above.
        let seed = (0..u64::MAX)
            .find(|&s| {
                let mut inj = FaultInjector::new(plan.clone(), s);
                inj.on_migrate(0).is_none()
                    && inj.on_migrate(0).is_some()
                    && inj.on_migrate(0).is_none()
                    && inj.on_migrate(0).is_none()
            })
            .unwrap();
        let mut mem = small();
        let pm = TierId::new(1);
        let frames: Vec<FrameId> = (0..4).map(|i| begin_promotion(&mut mem, i)).collect();
        // Install the injector after the begins so every draw happens at
        // resolve time, inside the copy window.
        mem.set_fault_injector(FaultInjector::new(plan, seed));
        let resolved = mem.resolve_migrations(true);
        assert!(resolved[0].1.is_ok());
        assert_eq!(resolved[1].1, Err(MemError::TierFull(TierId::TOP)));
        assert!(
            resolved[2].1.is_ok() && resolved[3].1.is_ok(),
            "an injected fault must not abort sibling transactions"
        );
        assert_eq!(mem.frame(frames[1]).tier(), pm, "faulted page stayed");
        assert_eq!(mem.translate(VPage::new(1)), Some(frames[1]));
        assert_eq!(mem.stats().promotions, 3);
        assert_eq!(mem.stats().txn_aborts, 1);
        assert_eq!(mem.stats().injected_faults, 1);
        assert_eq!(mem.stats().migration_failures, 1, "no batch-abort tail");
    }
}
