//! The simulation engine: implements [`Memory`] over the tiering
//! substrate, interleaving application accesses with scheduled component
//! work ([`crate::component`]) in virtual time.

use crate::component::{Component, ComponentId, DaemonComponent, EngineCtx, Scheduler};
use crate::config::{SimConfig, SystemKind};
use crate::metrics::Metrics;
use crate::obs::ObsState;
use mc_fault::FaultInjector;
use mc_mem::{
    AccessKind, MemorySystem, MigrationMode, Nanos, PageKind, TierId, TieringPolicy, VAddr, VPage,
    VirtualClock, PAGE_SIZE,
};
use mc_policies::{
    Amp, AutoNuma, AutoTiering, AutoTieringConfig, AutoTieringMode, HybridTier, HybridTierConfig,
    MemoryModeCache, Nimble, NimbleConfig, OracleKind, OraclePolicy, StaticTiering,
};
use mc_workloads::Memory;
use multi_clock::{MultiClock, MultiClockConfig};
use std::collections::HashMap;

/// The system frontend: an OS tiering policy, or the Memory-mode cache.
pub(crate) enum Frontend {
    Tiered {
        policy: Box<dyn TieringPolicy>,
        oracle_visibility: bool,
    },
    MemoryMode(MemoryModeCache),
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Frontend::Tiered { policy, .. } => write!(f, "Tiered({})", policy.name()),
            Frontend::MemoryMode(_) => write!(f, "MemoryMode"),
        }
    }
}

/// A running simulation. Implements [`Memory`] so workloads drive it
/// directly.
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    mem: MemorySystem,
    frontend: Frontend,
    clock: VirtualClock,
    /// Registered components; a slot is `None` only while its component
    /// is mid-tick (taken out to split the borrow).
    components: Vec<Option<Box<dyn Component>>>,
    scheduler: Scheduler,
    next_free_page: u64,
    /// Mapped regions: start page -> (pages, kind).
    regions: Vec<(u64, u64, PageKind)>,
    data: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
    metrics: Metrics,
    obs: Option<ObsState>,
}

impl Simulation {
    /// Builds a simulation for the configured system.
    pub fn new(cfg: SimConfig) -> Self {
        let mut mem = MemorySystem::new(cfg.mem.clone());
        let topo = mem.topology();
        let frontend = match cfg.system {
            SystemKind::Static => Frontend::Tiered {
                policy: Box::new(StaticTiering::new(topo)),
                oracle_visibility: false,
            },
            SystemKind::MultiClock | SystemKind::Nomad => Frontend::Tiered {
                policy: Box::new(MultiClock::new(
                    MultiClockConfig {
                        scan_interval: cfg.scan_interval,
                        scan_batch: cfg.scan_batch,
                        write_weight: cfg.write_weight,
                        adaptive_interval: cfg.adaptive_interval,
                        retry: cfg.retry,
                        scan_shards: cfg.engine.scan_shards,
                        migrate_batch_size: cfg.engine.migrate_batch_size,
                        perf: cfg.instrument.perf.clone(),
                        migration_mode: if cfg.system == SystemKind::Nomad {
                            MigrationMode::Transactional
                        } else {
                            cfg.engine.migration_mode
                        },
                        // The adaptive bound scales with the configured
                        // interval (the default is paper-scale).
                        max_interval: cfg.scan_interval.saturating_mul(60),
                        ..Default::default()
                    },
                    topo,
                )),
                oracle_visibility: false,
            },
            SystemKind::HybridTier => Frontend::Tiered {
                policy: Box::new(HybridTier::new(
                    HybridTierConfig {
                        sample_interval: cfg.scan_interval,
                        // Sampling is the point: HybridTier reads a
                        // bounded fraction of what the full scanner
                        // would walk per wake-up (per tier), trading
                        // recall for tracking cost.
                        sample_batch: (cfg.scan_batch / 8).max(64),
                        ..Default::default()
                    },
                    topo,
                )),
                oracle_visibility: false,
            },
            SystemKind::Nimble => Frontend::Tiered {
                policy: Box::new(Nimble::new(
                    NimbleConfig {
                        scan_interval: cfg.scan_interval,
                        scan_batch: cfg.scan_batch,
                        ..Default::default()
                    },
                    topo,
                )),
                oracle_visibility: false,
            },
            SystemKind::AtCpm | SystemKind::AtOpm => {
                let mode = if cfg.system == SystemKind::AtCpm {
                    AutoTieringMode::Cpm
                } else {
                    AutoTieringMode::Opm
                };
                Frontend::Tiered {
                    policy: Box::new(AutoTiering::new(
                        mode,
                        AutoTieringConfig {
                            scan_interval: cfg.scan_interval,
                            sample_batch: cfg.scan_batch,
                            ..Default::default()
                        },
                        topo,
                    )),
                    oracle_visibility: false,
                }
            }
            SystemKind::AutoNuma => Frontend::Tiered {
                policy: Box::new(AutoNuma::new(topo, cfg.scan_interval, cfg.scan_batch)),
                oracle_visibility: false,
            },
            SystemKind::Amp => Frontend::Tiered {
                policy: Box::new(Amp::new(topo, cfg.scan_interval, cfg.scan_batch, 42)),
                oracle_visibility: false,
            },
            SystemKind::OracleLru | SystemKind::OracleLfu => {
                let kind = if cfg.system == SystemKind::OracleLru {
                    OracleKind::Lru
                } else {
                    OracleKind::Lfu
                };
                Frontend::Tiered {
                    policy: Box::new(OraclePolicy::new(kind, topo)),
                    oracle_visibility: true,
                }
            }
            SystemKind::MemoryMode => {
                let dram_pages = topo.tier(TierId::TOP).pages();
                Frontend::MemoryMode(MemoryModeCache::new(dram_pages))
            }
        };
        // The tiering daemon is always component 0 (when the frontend
        // ticks at all), so a single-component schedule dispatches
        // exactly like the historical fixed-period loop.
        let mut components: Vec<Option<Box<dyn Component>>> = Vec::new();
        let mut scheduler = Scheduler::default();
        if let Frontend::Tiered { policy, .. } = &frontend {
            if let Some(first) = policy.tick_interval() {
                let id = ComponentId::new(components.len());
                components.push(Some(Box::new(DaemonComponent)));
                scheduler.schedule(first, id);
            }
        }
        let obs = cfg
            .instrument
            .obs
            .enabled
            .then(|| ObsState::new(cfg.instrument.obs, cfg.mem.topology.tier_count()));
        if cfg.instrument.obs.enabled {
            mem.recorder_mut().enable(cfg.instrument.obs.ring_capacity);
        }
        if let Some(injector) = FaultInjector::from_config(&cfg.instrument.fault) {
            mem.set_fault_injector(injector);
        }
        let window = cfg.window;
        let horizon = cfg.scan_interval;
        Simulation {
            cfg,
            mem,
            frontend,
            clock: VirtualClock::new(),
            components,
            scheduler,
            next_free_page: 0,
            regions: Vec::new(),
            data: HashMap::new(),
            metrics: Metrics::with_horizon(window, horizon),
            obs,
        }
    }

    /// Registers `component` with its first wake-up at `first_wake` and
    /// returns its id. [`Component`] is the engine's one scheduling
    /// surface: the component runs whenever virtual time crosses the
    /// wake-up it last asked for, in `(wake_time, registration order)`
    /// order relative to other components. A `first_wake` at or before
    /// the current instant fires on the next access or compute step.
    pub fn add_component(
        &mut self,
        component: Box<dyn Component>,
        first_wake: Nanos,
    ) -> ComponentId {
        let id = ComponentId::new(self.components.len());
        self.components.push(Some(component));
        self.scheduler.schedule(first_wake, id);
        id
    }

    /// Re-arms a dormant component (one whose `tick` returned `None`) to
    /// wake at `at`. Waking a component that already has a pending
    /// wake-up enqueues a second, earlier or later tick — callers re-arm
    /// only components they know to be dormant.
    pub fn wake_component(&mut self, id: ComponentId, at: Nanos) {
        self.scheduler.schedule(at, id);
    }

    /// Number of pending component wake-ups (dormant components have
    /// none — idle work costs the engine nothing).
    pub fn pending_wakeups(&self) -> usize {
        self.scheduler.pending()
    }

    /// The earliest pending component wake-up, if any.
    pub fn next_wake(&self) -> Option<Nanos> {
        self.scheduler.next_wake()
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The substrate (counters, topology).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Observability state (per-tick series, latency histograms, access
    /// trace); `None` unless the run was configured with obs enabled.
    pub fn obs(&self) -> Option<&ObsState> {
        self.obs.as_ref()
    }

    /// The retained tracepoint events as JSONL; `None` when obs is off.
    pub fn obs_events_jsonl(&self) -> Option<String> {
        self.obs.as_ref().map(|_| self.mem.recorder().to_jsonl())
    }

    /// The per-tick counter time series as CSV; `None` when obs is off.
    pub fn obs_ticks_csv(&self) -> Option<String> {
        self.obs.as_ref().map(|o| o.series().to_csv())
    }

    /// The human-readable run report; `None` when obs is off.
    pub fn obs_report(&self) -> Option<String> {
        self.obs
            .as_ref()
            .map(|o| o.render_report(&self.cfg, &self.mem, &self.metrics, self.clock.now()))
    }

    /// Whether observability was enabled for this run (whether
    /// [`Self::write_obs`] will produce artifacts).
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Writes `events.jsonl`, `ticks.csv` and `report.txt` into `dir`
    /// (creating it), the layout `mc-obs-report` consumes. A no-op when
    /// obs is off — check [`Self::obs_enabled`] to distinguish.
    pub fn write_obs(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let (Some(events), Some(csv), Some(report)) = (
            self.obs_events_jsonl(),
            self.obs_ticks_csv(),
            self.obs_report(),
        ) else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("events.jsonl"), events)?;
        std::fs::write(dir.join("ticks.csv"), csv)?;
        std::fs::write(dir.join("report.txt"), report)?;
        Ok(())
    }

    /// The frontend policy's counters (empty for Memory-mode, which has
    /// no tiering daemon).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        match &self.frontend {
            Frontend::Tiered { policy, .. } => policy.counters(),
            Frontend::MemoryMode(_) => Vec::new(),
        }
    }

    /// One policy counter by name, map-style: `sim.counter("mc_ticks")`.
    /// Returns 0 for unknown names and for frontends without a tiering
    /// daemon (Memory-mode), so callers need no unwrapping.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| v)
    }

    /// Memory-mode cache statistics, when running Memory-mode.
    pub fn memory_mode_stats(&self) -> Option<mc_policies::MemoryModeStats> {
        match &self.frontend {
            Frontend::MemoryMode(c) => Some(c.stats()),
            _ => None,
        }
    }

    /// Records a completed application-level operation (throughput
    /// accounting for the experiment drivers).
    pub fn record_op(&mut self) {
        self.metrics.on_op(self.clock.now());
    }

    /// Finalises metrics (settles pending re-access bookkeeping).
    pub fn finish(&mut self) {
        self.metrics.finish(self.clock.now());
    }

    /// The kind of the region containing `vpage`.
    fn region_kind(&self, vpage: VPage) -> PageKind {
        let p = vpage.raw();
        self.regions
            .iter()
            .rev()
            .find(|(start, pages, _)| p >= *start && p < start + pages)
            .map(|(_, _, k)| *k)
            .unwrap_or(PageKind::Anon)
    }

    /// Dispatches every due component wake-up, earliest `(time, id)`
    /// first. Component ticks can advance the clock (absorbed substrate
    /// costs), so the due check re-reads it each iteration — a tick that
    /// pushes time past another component's wake-up dispatches that
    /// component in the same drain.
    fn dispatch_due(&mut self) {
        while let Some((due, id)) = self.scheduler.next_due(self.clock.now()) {
            let Some(mut component) = self.components[id.index()].take() else {
                continue;
            };
            let next = {
                let mut ctx = EngineCtx {
                    cfg: &self.cfg,
                    mem: &mut self.mem,
                    clock: &mut self.clock,
                    metrics: &mut self.metrics,
                    obs: &mut self.obs,
                    frontend: &mut self.frontend,
                };
                component.tick(due, &mut ctx)
            };
            self.components[id.index()] = Some(component);
            if let Some(next) = next {
                // A wake-up at or before `due` would spin this drain
                // forever; clamp to the next representable instant.
                self.scheduler
                    .schedule(next.max(due + Nanos::from_nanos(1)), id);
            }
        }
    }

    /// Faults a page in (allocation with direct reclaim) and performs one
    /// device access. The heart of the engine.
    fn access_page(&mut self, vpage: VPage, kind: AccessKind, bytes: usize) {
        let region_kind = self.region_kind(vpage);
        self.mem.set_now(self.clock.now().as_nanos());
        match &mut self.frontend {
            Frontend::MemoryMode(cache) => {
                // Everything lives in PM; DRAM is a transparent cache.
                let (lat, bg) = cache.access(vpage, kind, self.mem.latency());
                self.clock.advance(lat);
                self.metrics.costs_mut().access_time += lat;
                self.metrics.costs_mut().background_time += bg;
                let mut dev_latency = lat;
                if bytes > 64 {
                    // Stream the rest from wherever it now is (the cache).
                    let extra = self.mem.latency().stream(TierId::TOP, kind, bytes - 64);
                    self.clock.advance(extra);
                    self.metrics.costs_mut().access_time += extra;
                    dev_latency += extra;
                }
                if let Some(obs) = &mut self.obs {
                    // The cache fronts the top tier; attribute samples there.
                    obs.on_access(
                        vpage,
                        kind,
                        bytes,
                        TierId::TOP,
                        dev_latency,
                        self.clock.now(),
                    );
                }
                self.metrics.on_access(vpage, self.clock.now());
            }
            Frontend::Tiered {
                policy,
                oracle_visibility,
            } => {
                // Fault path: allocate (with direct reclaim) and map.
                if self.mem.translate(vpage).is_none() {
                    self.mem.note_swap_in(vpage);
                    // Without an injector three reclaim rounds always free a
                    // frame or the machine is genuinely out of memory; with
                    // one, each attempt can fail by injected chance, so give
                    // chaos runs a far larger budget and degrade gracefully
                    // (skip the access, like a fault the kernel retries
                    // later) rather than aborting the run.
                    let injected = self.mem.fault_injector().is_some();
                    let budget = if injected { 64 } else { 3 };
                    let mut attempts = 0;
                    let frame = loop {
                        match self.mem.alloc_page(region_kind) {
                            Ok(f) => break Some(f),
                            Err(_) => {
                                attempts += 1;
                                if attempts > budget {
                                    assert!(injected, "simulated OOM: every tier exhausted");
                                    break None;
                                }
                                let tiers = self.mem.topology().tier_count();
                                for t in (0..tiers).rev() {
                                    policy.on_pressure(
                                        &mut self.mem,
                                        TierId::new(t as u8),
                                        self.clock.now(),
                                    );
                                }
                            }
                        }
                    };
                    let Some(frame) = frame else {
                        self.clock.advance(self.cfg.minor_fault);
                        self.metrics.costs_mut().stall_time += self.cfg.minor_fault;
                        absorb_substrate(
                            &mut self.mem,
                            &mut self.clock,
                            &mut self.metrics,
                            self.cfg.daemon_contention,
                        );
                        self.dispatch_due();
                        return;
                    };
                    // lint: allow(panic) - frame was allocated above for a vpage lookup() reported unmapped
                    self.mem.map(vpage, frame).expect("fresh page maps");
                    policy.on_page_mapped(&mut self.mem, frame);
                    self.clock.advance(self.cfg.minor_fault);
                    self.metrics.costs_mut().stall_time += self.cfg.minor_fault;
                    self.metrics.costs_mut().minor_faults += 1;
                }
                // lint: allow(panic) - the fault path above maps the page before falling through
                let out = self.mem.access(vpage, kind).expect("page is mapped");
                self.clock.advance(out.latency);
                self.metrics.costs_mut().access_time += out.latency;
                let mut dev_latency = out.latency;
                if bytes > 64 {
                    let extra = self
                        .mem
                        .latency()
                        .stream_at(out.node, out.tier, kind, bytes - 64);
                    self.clock.advance(extra);
                    self.metrics.costs_mut().access_time += extra;
                    dev_latency += extra;
                }
                if out.hint_fault {
                    let hf = self.mem.latency().hint_fault;
                    self.clock.advance(hf);
                    self.metrics.costs_mut().stall_time += hf;
                    self.metrics.costs_mut().hint_faults += 1;
                    policy.on_hint_fault(&mut self.mem, out.frame, kind);
                }
                if *oracle_visibility {
                    policy.on_supervised_access(&mut self.mem, out.frame, kind);
                }
                if let Some(obs) = &mut self.obs {
                    obs.on_access(vpage, kind, bytes, out.tier, dev_latency, self.clock.now());
                }
                self.metrics.on_access(vpage, self.clock.now());
            }
        }
        absorb_substrate(
            &mut self.mem,
            &mut self.clock,
            &mut self.metrics,
            self.cfg.daemon_contention,
        );
        self.dispatch_due();
    }

    fn touch(&mut self, addr: VAddr, len: usize, kind: AccessKind) {
        let len = len.max(1);
        let mut page = addr.page();
        let last = addr.add(len as u64 - 1).page();
        let mut offset = addr.page_offset();
        let mut remaining = len;
        loop {
            let in_page = (PAGE_SIZE - offset).min(remaining);
            self.access_page(page, kind, in_page);
            remaining -= in_page;
            if page == last {
                break;
            }
            page = page.next();
            offset = 0;
        }
    }
}

impl Memory for Simulation {
    fn mmap(&mut self, bytes: usize, kind: PageKind) -> VAddr {
        assert!(bytes > 0, "cannot map an empty region");
        let pages = bytes.div_ceil(PAGE_SIZE) as u64;
        let start = self.next_free_page;
        self.next_free_page += pages;
        self.regions.push((start, pages, kind));
        VAddr::new(start * PAGE_SIZE as u64)
    }

    fn read(&mut self, addr: VAddr, len: usize) {
        self.touch(addr, len, AccessKind::Read);
    }

    fn write(&mut self, addr: VAddr, len: usize) {
        self.touch(addr, len, AccessKind::Write);
    }

    fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
        self.touch(addr, data.len(), AccessKind::Write);
        let mut off = 0usize;
        while off < data.len() {
            let a = addr.add(off as u64);
            let page = a.page().raw();
            let in_page = a.page_offset();
            let n = (PAGE_SIZE - in_page).min(data.len() - off);
            let slot = self
                .data
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            slot[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
    }

    fn read_bytes(&mut self, addr: VAddr, buf: &mut [u8]) {
        self.touch(addr, buf.len(), AccessKind::Read);
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr.add(off as u64);
            let page = a.page().raw();
            let in_page = a.page_offset();
            let n = (PAGE_SIZE - in_page).min(buf.len() - off);
            match self.data.get(&page) {
                Some(slot) => buf[off..off + n].copy_from_slice(&slot[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    fn now(&self) -> Nanos {
        self.clock.now()
    }

    fn compute(&mut self, t: Nanos) {
        self.clock.advance(t);
        self.dispatch_due();
    }
}

/// Absorbs substrate side effects: the cost ledger into the clock and
/// cost breakdown, migration events into the windowed metrics. Shared by
/// the access path and component ticks
/// ([`EngineCtx::absorb_and_settle`]).
pub(crate) fn absorb_substrate(
    mem: &mut MemorySystem,
    clock: &mut VirtualClock,
    metrics: &mut Metrics,
    daemon_contention: f64,
) {
    let ledger = mem.ledger_mut().take();
    // Application stalls (TLB shootdowns, swap-ins) hit the app fully.
    clock.advance(ledger.app_stall);
    metrics.costs_mut().stall_time += ledger.app_stall;
    // Daemon CPU leaks a contention fraction into the app.
    let leak = Nanos::from_nanos((ledger.daemon_cpu.as_nanos() as f64 * daemon_contention) as u64);
    clock.advance(leak);
    metrics.costs_mut().daemon_time += ledger.daemon_cpu;
    metrics.costs_mut().background_time += ledger.background;
    let now = clock.now();
    for ev in mem.drain_events() {
        match ev {
            mc_mem::MemEvent::Migrated {
                vpage, src, dst, ..
            } => {
                if dst < src {
                    if let Some(v) = vpage {
                        metrics.on_promotion(v, now);
                    }
                } else {
                    metrics.on_demotion(now);
                }
            }
            mc_mem::MemEvent::Evicted { .. } | mc_mem::MemEvent::SwappedIn { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(system: SystemKind) -> Simulation {
        Simulation::new(SimConfig::new(system, 256, 2048))
    }

    #[test]
    fn first_touch_faults_in_dram_first() {
        let mut s = sim(SystemKind::MultiClock);
        let a = s.mmap(PAGE_SIZE * 4, PageKind::Anon);
        s.read(a, 8);
        let frame = s.mem().translate(a.page()).unwrap();
        assert_eq!(s.mem().frame(frame).tier(), TierId::TOP);
        assert_eq!(s.metrics().costs().minor_faults, 1);
        // Second access: no new fault.
        s.read(a, 8);
        assert_eq!(s.metrics().costs().minor_faults, 1);
    }

    #[test]
    fn dram_access_is_faster_than_pm_access() {
        let mut s = sim(SystemKind::Static);
        // Fill DRAM so later touches land in PM.
        let region = s.mmap(PAGE_SIZE * 4096, PageKind::Anon);
        let mut i = 0u64;
        loop {
            let addr = region.add(i * PAGE_SIZE as u64);
            s.read(addr, 8);
            let f = s.mem().translate(addr.page()).unwrap();
            if s.mem().frame(f).tier() != TierId::TOP {
                break;
            }
            i += 1;
            assert!(i < 300, "DRAM must fill eventually");
        }
        let dram_addr = region;
        let pm_addr = region.add(i * PAGE_SIZE as u64);
        let t0 = s.now();
        s.read(dram_addr, 8);
        let dram_cost = s.now() - t0;
        let t1 = s.now();
        s.read(pm_addr, 8);
        let pm_cost = s.now() - t1;
        assert!(pm_cost > dram_cost, "pm={pm_cost} dram={dram_cost}");
    }

    #[test]
    fn ticks_fire_on_schedule() {
        let mut s = sim(SystemKind::MultiClock);
        let a = s.mmap(PAGE_SIZE, PageKind::Anon);
        s.read(a, 8);
        // 2.5 virtual seconds of compute: two ticks should have fired.
        s.compute(Nanos::from_millis(2_500));
        // The scan daemon has examined the one mapped page repeatedly.
        assert!(s.metrics().costs().daemon_time > Nanos::ZERO);
    }

    #[test]
    fn static_system_never_ticks() {
        let mut s = sim(SystemKind::Static);
        let a = s.mmap(PAGE_SIZE, PageKind::Anon);
        s.read(a, 8);
        s.compute(Nanos::from_secs(10));
        assert_eq!(s.metrics().costs().daemon_time, Nanos::ZERO);
    }

    #[test]
    fn multi_clock_promotes_hot_pm_page_end_to_end() {
        let mut s = sim(SystemKind::MultiClock);
        // Fill DRAM with one-touch pages.
        let filler = s.mmap(PAGE_SIZE * 4096, PageKind::Anon);
        let mut i = 0u64;
        loop {
            let addr = filler.add(i * PAGE_SIZE as u64);
            s.read(addr, 8);
            let f = s.mem().translate(addr.page()).unwrap();
            if s.mem().frame(f).tier() != TierId::TOP {
                break;
            }
            i += 1;
        }
        let hot = filler.add(i * PAGE_SIZE as u64);
        assert_eq!(
            s.mem().frame(s.mem().translate(hot.page()).unwrap()).tier(),
            TierId::new(1)
        );
        // Touch it every 100 ms for 8 virtual seconds.
        for _ in 0..80 {
            s.read(hot, 8);
            s.compute(Nanos::from_millis(100));
        }
        let f = s.mem().translate(hot.page()).unwrap();
        assert_eq!(s.mem().frame(f).tier(), TierId::TOP, "hot page promoted");
        assert!(s.metrics().total_promotions() >= 1);
    }

    #[test]
    fn memory_mode_caches_hot_pages() {
        let mut s = sim(SystemKind::MemoryMode);
        let a = s.mmap(PAGE_SIZE * 8, PageKind::Anon);
        let t0 = s.now();
        s.read(a, 8); // miss
        let miss_cost = s.now() - t0;
        let t1 = s.now();
        s.read(a, 8); // hit
        let hit_cost = s.now() - t1;
        assert!(miss_cost > hit_cost);
        let st = s.memory_mode_stats().unwrap();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
    }

    #[test]
    fn data_plane_round_trips_across_fault_and_migration() {
        let mut s = sim(SystemKind::MultiClock);
        let a = s.mmap(PAGE_SIZE * 2, PageKind::Anon);
        let payload = vec![7u8; 5000]; // spans two pages
        s.write_bytes(a, &payload);
        let mut out = vec![0u8; 5000];
        s.read_bytes(a, &mut out);
        assert_eq!(out, payload);
    }

    #[test]
    fn oracle_visibility_reaches_policy() {
        let mut s = sim(SystemKind::OracleLru);
        // Fill DRAM, then touch one PM page once: the oracle sees it and
        // promotes at the next tick.
        let filler = s.mmap(PAGE_SIZE * 4096, PageKind::Anon);
        let mut i = 0u64;
        loop {
            let addr = filler.add(i * PAGE_SIZE as u64);
            s.read(addr, 8);
            let f = s.mem().translate(addr.page()).unwrap();
            if s.mem().frame(f).tier() != TierId::TOP {
                break;
            }
            i += 1;
        }
        let pm_page = filler.add(i * PAGE_SIZE as u64);
        s.read(pm_page, 8);
        s.compute(Nanos::from_millis(1_100));
        let f = s.mem().translate(pm_page.page()).unwrap();
        assert_eq!(s.mem().frame(f).tier(), TierId::TOP);
    }

    #[test]
    fn hint_faults_charged_for_autotiering() {
        let mut s = sim(SystemKind::AtOpm);
        let a = s.mmap(PAGE_SIZE * 16, PageKind::Anon);
        for i in 0..16u64 {
            s.read(a.add(i * PAGE_SIZE as u64), 8);
        }
        // Let a tick poison PTEs, then touch the pages again.
        s.compute(Nanos::from_millis(1_100));
        for i in 0..16u64 {
            s.read(a.add(i * PAGE_SIZE as u64), 8);
        }
        assert!(s.metrics().costs().hint_faults > 0);
        assert!(s.metrics().costs().stall_time > Nanos::ZERO);
    }

    #[test]
    fn spanning_read_touches_every_page() {
        let mut s = sim(SystemKind::Static);
        let a = s.mmap(PAGE_SIZE * 3, PageKind::Anon);
        s.read(a, 3 * PAGE_SIZE);
        assert_eq!(s.metrics().costs().minor_faults, 3);
    }

    #[test]
    fn adaptive_interval_config_reaches_the_policy() {
        let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
        cfg.scan_interval = Nanos::from_millis(5);
        cfg.adaptive_interval = true;
        let mut s = Simulation::new(cfg);
        let a = s.mmap(PAGE_SIZE, PageKind::Anon);
        s.read(a, 8);
        // A long idle phase: the adaptive daemon backs off, so it scans
        // far fewer times than the fixed-interval equivalent would.
        s.compute(Nanos::from_secs(2));
        let adaptive_daemon = s.metrics().costs().daemon_time;

        let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
        cfg.scan_interval = Nanos::from_millis(5);
        let mut f = Simulation::new(cfg);
        let b = f.mmap(PAGE_SIZE, PageKind::Anon);
        f.read(b, 8);
        f.compute(Nanos::from_secs(2));
        let fixed_daemon = f.metrics().costs().daemon_time;
        assert!(
            adaptive_daemon < fixed_daemon,
            "adaptive {adaptive_daemon} must scan less than fixed {fixed_daemon} when idle"
        );
    }

    #[test]
    fn write_weight_config_reaches_the_policy() {
        // Plumbing check: a >1 weight must not change behaviour for an
        // all-clean access stream (priority only reorders dirty pages).
        let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
        cfg.write_weight = 2.0;
        let mut s = Simulation::new(cfg);
        let a = s.mmap(PAGE_SIZE * 8, PageKind::Anon);
        for i in 0..8u64 {
            s.read(a.add(i * PAGE_SIZE as u64), 8);
        }
        s.compute(Nanos::from_secs(2));
        // No panic and normal operation is all this asserts; the
        // behavioural effect is covered by the ablation microbench.
        assert!(s.now() > Nanos::from_secs(2));
    }

    #[test]
    fn memory_mode_footprint_beyond_dram_still_serves_all_pages() {
        let mut s = sim(SystemKind::MemoryMode);
        // 4x the DRAM cache size.
        let a = s.mmap(PAGE_SIZE * 1024, PageKind::Anon);
        for i in 0..1024u64 {
            s.read(a.add(i * PAGE_SIZE as u64), 8);
        }
        let st = s.memory_mode_stats().unwrap();
        assert_eq!(st.hits + st.misses, 1024);
        assert!(
            st.misses >= 768,
            "direct-mapped cache cannot hold 4x its size"
        );
    }

    #[test]
    fn autonuma_never_touches_file_pages_through_the_engine() {
        let mut s = sim(SystemKind::AutoNuma);
        let file = s.mmap(PAGE_SIZE * 64, PageKind::File);
        for i in 0..64u64 {
            s.read(file.add(i * PAGE_SIZE as u64), 8);
        }
        s.compute(Nanos::from_secs(3));
        for i in 0..64u64 {
            s.read(file.add(i * PAGE_SIZE as u64), 8);
        }
        assert_eq!(
            s.metrics().costs().hint_faults,
            0,
            "file pages are invisible to NUMA balancing"
        );
    }

    #[test]
    fn obs_is_off_by_default_and_exporters_stay_silent() {
        let s = sim(SystemKind::MultiClock);
        assert!(s.obs().is_none());
        assert!(s.obs_events_jsonl().is_none());
        assert!(s.obs_ticks_csv().is_none());
        assert!(s.obs_report().is_none());
        assert!(!s.mem().recorder().is_enabled());
    }

    /// Drives promotions end to end with obs on and checks every exported
    /// artifact parses and is internally consistent.
    #[test]
    fn obs_run_emits_parseable_events_series_and_report() {
        let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
        cfg.instrument.obs = crate::ObsConfig::on();
        let mut s = Simulation::new(cfg);
        // Fill DRAM with one-touch pages, then hammer the first PM-resident
        // page across scan ticks so it climbs the full promote ladder.
        let filler = s.mmap(PAGE_SIZE * 4096, PageKind::Anon);
        let mut i = 0u64;
        loop {
            let addr = filler.add(i * PAGE_SIZE as u64);
            s.read(addr, 8);
            let f = s.mem().translate(addr.page()).unwrap();
            if s.mem().frame(f).tier() != TierId::TOP {
                break;
            }
            i += 1;
        }
        let hot = filler.add(i * PAGE_SIZE as u64);
        for _ in 0..80 {
            s.read(hot, 8);
            s.compute(Nanos::from_millis(100));
        }
        s.finish();
        assert!(s.metrics().total_promotions() >= 1);

        // Every JSONL line is a parseable flat object.
        let jsonl = s.obs_events_jsonl().unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            mc_obs::json::parse_flat_object(line).unwrap();
        }

        // The CSV round-trips; timestamps are sorted and every counter
        // column is monotone non-decreasing.
        let csv = s.obs_ticks_csv().unwrap();
        let series = mc_obs::TimeSeries::from_csv(&csv).unwrap();
        assert!(!series.is_empty());
        assert!(series.timestamps().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(series.non_monotonic_columns(), vec![]);
        // Substrate and policy counters both rode along.
        assert!(series.column("promotions").is_some());
        assert!(series.column("mc_ticks").is_some());

        // The hot page's Fig. 4 ladder fired: track, access, activation,
        // promote-enqueue and the promotion migration itself.
        let hits = s.mem().recorder().fig4_hits();
        for edge in [5u8, 2, 6, 7, 10, 13] {
            assert!(hits[edge as usize] > 0, "edge {edge} never fired: {hits:?}");
        }

        // The report reproduces the windowed metrics.
        let report = s.obs_report().unwrap();
        assert!(report.contains("Windows (Figs. 8-9)"));
        assert!(report.contains(&format!("promotions: {}", s.metrics().total_promotions())));
    }

    /// Observability must never perturb the simulation: identical runs
    /// with obs on and off reach the same virtual time and migrations.
    #[test]
    fn obs_enabled_run_is_deterministically_identical() {
        let run = |obs_on: bool| {
            let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
            if obs_on {
                cfg.instrument.obs = crate::ObsConfig::on();
            }
            let mut s = Simulation::new(cfg);
            let a = s.mmap(PAGE_SIZE * 128, PageKind::Anon);
            for i in 0..600u64 {
                s.read(a.add((i % 128) * PAGE_SIZE as u64), 128);
                s.compute(Nanos::from_millis(10));
            }
            s.finish();
            (
                s.now(),
                s.metrics().total_promotions(),
                s.metrics().total_demotions(),
                s.mem().stats().clone(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn record_op_buckets_by_window() {
        let mut s = sim(SystemKind::Static);
        s.record_op();
        s.compute(Nanos::from_secs(25));
        s.record_op();
        s.finish();
        assert_eq!(s.metrics().windows()[0].ops, 1);
        assert_eq!(s.metrics().windows()[1].ops, 1);
    }
}
