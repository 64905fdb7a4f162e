//! Canned experiment drivers shared by the `mc-bench` figure binaries and
//! the integration tests.
//!
//! The paper's absolute scale (192 GB DRAM + 512 GB PM, hundreds of
//! millions of pages) is shrunk to laptop scale while preserving the
//! ratios that drive the results: the workload footprint exceeds the DRAM
//! tier by a similar factor, the scan batch covers a comparable share of
//! memory per wake-up, and the DRAM:PM latency gap is the measured one.

use crate::config::{SimConfig, SystemKind};
use crate::engine::Simulation;
use crate::latency_hist::LatencyHistogram;
use crate::metrics::WindowStats;
use mc_mem::{MachineDesc, MemConfig, MigrationMode, Nanos};
use mc_workloads::graph::{bc, bfs, cc, pagerank, sssp, tc, Csr, GraphConfig, Kernel};
use mc_workloads::ycsb::{YcsbClient, YcsbConfig, YcsbWorkload};
use mc_workloads::Memory;

/// Experiment sizing knobs.
///
/// **Time scaling.** The paper's machine holds hundreds of gigabytes; at
/// the default 1 s `kpromoted` interval only a small fraction of pages is
/// referenced between scans, which is what makes reference-bit scanning
/// informative. A scaled-down machine compresses virtual time: at our
/// simulated throughput, one real second would touch *every* page and
/// saturate every reference bit. [`Scale::interval_unit`] is therefore
/// the simulated-time equivalent of **one paper second**: all daemon
/// intervals (and the Fig. 8-10 windows/sweeps) are expressed in this
/// unit, preserving the paper's "fraction of memory referenced per scan"
/// operating point.
#[derive(Debug, Clone)]
pub struct Scale {
    /// DRAM tier size in pages.
    pub dram_pages: usize,
    /// PM tier size in pages.
    pub pm_pages: usize,
    /// YCSB records loaded.
    pub records: usize,
    /// YCSB value size in bytes.
    pub value_size: usize,
    /// CPU time per YCSB operation (request handling).
    pub op_compute: Nanos,
    /// Pages scanned per list per tick. At paper scale 1024 covers a
    /// small share of each list per wake-up; here it is sized so a full
    /// list sweep completes within about one interval, preserving the
    /// one-interval recency window of the reference bits.
    pub scan_batch: usize,
    /// Simulated time corresponding to one paper second (see above).
    pub interval_unit: Nanos,
    /// Virtual warm-up time before measurement.
    pub warmup: Nanos,
    /// Virtual measurement time.
    pub measure: Nanos,
    /// GAPBS graph scale (log2 vertices).
    pub graph_scale: u32,
    /// GAPBS average degree.
    pub graph_degree: usize,
    /// DRAM tier size for GAPBS runs (sized so the graph exceeds DRAM,
    /// as the paper configures: "memory footprints are larger than the
    /// DRAM size").
    pub graph_dram_pages: usize,
    /// Interval scaling for GAPBS runs. A GAPBS trial is seconds long on
    /// the paper's testbed — hundreds of scan intervals — while a scaled
    /// trial lasts only a few; the factor shortens the daemon interval so
    /// a trial spans a comparable number of scans.
    pub graph_interval_factor: f64,
    /// GAPBS timed trials (after one untimed warm-up trial).
    pub trials: usize,
    /// Insert-rate scaling for workload D (see
    /// [`mc_workloads::ycsb::YcsbConfig::insert_scale`]): keeps the
    /// latest-distribution frontier moving at the paper's relative speed
    /// on the scaled-down keyspace.
    pub insert_scale: f64,
    /// Seed for all stochastic components.
    pub seed: u64,
}

impl Scale {
    /// Integration-test scale: seconds of wall time for a full sweep.
    pub fn tiny() -> Self {
        Scale {
            dram_pages: 512,
            pm_pages: 4096,
            records: 6_000,
            value_size: 1024,
            op_compute: Nanos::from_nanos(500),
            scan_batch: 4096,
            interval_unit: Nanos::from_millis(5),
            warmup: Nanos::from_millis(800),
            measure: Nanos::from_millis(800),
            graph_scale: 11,
            graph_degree: 8,
            graph_dram_pages: 48,
            graph_interval_factor: 0.2,
            trials: 3,
            insert_scale: 0.01,
            seed: 42,
        }
    }

    /// Default scale for the figure binaries (a few minutes for the whole
    /// suite in release mode).
    pub fn quick() -> Self {
        Scale {
            dram_pages: 1024,
            pm_pages: 8192,
            records: 12_000,
            value_size: 1024,
            op_compute: Nanos::from_nanos(500),
            scan_batch: 8192,
            interval_unit: Nanos::from_millis(5),
            warmup: Nanos::from_secs(2),
            measure: Nanos::from_secs(2),
            graph_scale: 12,
            graph_degree: 16,
            graph_dram_pages: 144,
            graph_interval_factor: 0.2,
            trials: 3,
            insert_scale: 0.01,
            seed: 42,
        }
    }

    /// Larger runs for `--full` (tens of minutes).
    pub fn full() -> Self {
        Scale {
            dram_pages: 2048,
            pm_pages: 16384,
            records: 24_000,
            value_size: 1024,
            op_compute: Nanos::from_nanos(500),
            scan_batch: 16384,
            interval_unit: Nanos::from_millis(10),
            warmup: Nanos::from_secs(4),
            measure: Nanos::from_secs(4),
            graph_scale: 14,
            graph_degree: 16,
            graph_dram_pages: 384,
            graph_interval_factor: 0.2,
            trials: 4,
            insert_scale: 0.05,
            seed: 42,
        }
    }

    /// The simulated interval corresponding to `paper_seconds` of the
    /// paper's wall clock (scan intervals, metric windows).
    pub fn paper_interval(&self, paper_seconds: f64) -> Nanos {
        Nanos::from_nanos((self.interval_unit.as_nanos() as f64 * paper_seconds) as u64)
    }

    /// The default 1-paper-second scan interval.
    pub fn scan_interval(&self) -> Nanos {
        self.paper_interval(1.0)
    }

    /// The Figs. 8-9 metrics window (20 paper seconds).
    pub fn window(&self) -> Nanos {
        self.paper_interval(20.0)
    }

    /// The Fig. 7 Memory-mode comparison sizes the footprint at 4x DRAM
    /// ("we set the workload size to be 4x of the available DRAM
    /// capacity").
    pub fn memory_mode(&self) -> Self {
        // footprint ~= records * chunk(value+header) + table; aim for
        // records so that footprint = 4 * dram.
        let chunk = (self.value_size + 12).next_power_of_two().max(64);
        let target_bytes = self.dram_pages * mc_mem::PAGE_SIZE * 4;
        Scale {
            records: target_bytes / chunk,
            ..self.clone()
        }
    }

    /// The machine configuration used for GAPBS runs.
    pub fn graph_machine(&self) -> (usize, usize) {
        (self.graph_dram_pages, self.pm_pages)
    }
}

/// The machine an [`Experiment`] runs on, as a named preset over
/// [`mc_mem::MachineDesc`].
///
/// Presets are *shapes*, not sizes: each takes the experiment scale's
/// `(dram_pages, pm_pages)` budget and arranges it into a topology, so
/// the same `Scale` drives every machine. The bench binaries expose the
/// presets under their kebab-case names via `--machine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachinePreset {
    /// Classic two-tier local DRAM + PM — the default, and bit-identical
    /// by contract to the historical `MemConfig::two_tier` machine
    /// (`crates/sim/tests/machine_differential.rs` enforces it).
    DramPm,
    /// Three-tier DRAM + CXL-attached DRAM + PM: the CXL expander adds a
    /// capacity tier between local DRAM and PM, sized like the DRAM tier,
    /// reached over an asymmetric link (~210 ns effective read).
    DramCxlPm,
    /// Dual-socket DRAM (half the budget per socket) sharing one
    /// two-headed CXL device, backed by PM — the multi-headed-device
    /// machine from the HybridTier evaluation.
    CxlMultihead,
}

impl MachinePreset {
    /// All presets, in `--machine` listing order.
    pub const ALL: [MachinePreset; 3] = [
        MachinePreset::DramPm,
        MachinePreset::DramCxlPm,
        MachinePreset::CxlMultihead,
    ];

    /// The kebab-case name the bench binaries accept.
    pub fn name(self) -> &'static str {
        match self {
            MachinePreset::DramPm => "dram-pm",
            MachinePreset::DramCxlPm => "dram-cxl-pm",
            MachinePreset::CxlMultihead => "cxl-multihead",
        }
    }

    /// Parses a kebab-case preset name (`dram-pm`, `dram-cxl-pm`,
    /// `cxl-multihead`).
    pub fn from_name(name: &str) -> Option<Self> {
        MachinePreset::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Builds the machine from the scale's page budget.
    pub fn mem_config(self, dram_pages: usize, pm_pages: usize) -> MemConfig {
        match self {
            MachinePreset::DramPm => MemConfig::two_tier(dram_pages, pm_pages),
            MachinePreset::DramCxlPm => MemConfig::dram_cxl_pm(dram_pages, dram_pages, pm_pages),
            MachinePreset::CxlMultihead => {
                let per_socket = (dram_pages / 2).max(1);
                MachineDesc::cxl_multihead(per_socket, dram_pages, pm_pages).mem_config()
            }
        }
    }
}

impl std::fmt::Display for MachinePreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn base_config(system: SystemKind, scale: &Scale, interval: Nanos) -> SimConfig {
    let mut cfg = SimConfig::new(system, scale.dram_pages, scale.pm_pages);
    cfg.scan_interval = interval;
    cfg.scan_batch = scale.scan_batch;
    cfg.window = scale.window();
    cfg
}

/// Everything one experiment run produced: the classic figure metrics
/// (formerly `RunSummary`), the fault layer's accounting (all zero
/// without an injector) and the cost breakdown. One flat type for every
/// run — comparison tables, chaos sweeps and batch grids all read the
/// same fields.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// System under test.
    pub system: SystemKind,
    /// YCSB throughput (operations per virtual second); zero for GAPBS.
    pub ops_per_sec: f64,
    /// GAPBS mean time per trial (virtual); zero for YCSB.
    pub trial_time: Nanos,
    /// Pages promoted during measurement.
    pub promotions: u64,
    /// Pages demoted during measurement.
    pub demotions: u64,
    /// Re-access percentage of promoted pages (Fig. 9 metric).
    pub reaccess_pct: Option<f64>,
    /// Hint faults taken (AutoTiering cost signal).
    pub hint_faults: u64,
    /// Fraction of accesses served from the top (DRAM) tier.
    pub top_tier_share: Option<f64>,
    /// Median per-operation latency during measurement (YCSB only).
    pub p50: Option<mc_mem::Nanos>,
    /// 99th-percentile per-operation latency (YCSB only).
    pub p99: Option<mc_mem::Nanos>,
    /// Per-window statistics (Figs. 8-9 series).
    pub windows: Vec<WindowStats>,
    /// Faults the injector fired (migrations + allocations).
    pub injected_faults: u64,
    /// All migration failures the substrate saw (injected or organic).
    pub migration_failures: u64,
    /// MULTI-CLOCK promotion retries (transient failures requeued).
    pub promote_retries: u64,
    /// Promotion episodes that exhausted their retry budget.
    pub promote_gave_ups: u64,
    /// Migration transactions committed (transactional mode only).
    pub txn_commits: u64,
    /// Migration transactions aborted by a dirty write or injected fault
    /// during the copy window (transactional mode only).
    pub txn_aborts: u64,
    /// Demotions served by a retained shadow copy — a zero-copy mapping
    /// flip instead of a full page copy (transactional mode only).
    pub shadow_hits: u64,
    /// Where time went (access/stall/daemon/background split).
    pub costs: crate::metrics::CostBreakdown,
}

impl RunOutcome {
    /// Share of total accounted time spent on tiering overhead (stalls,
    /// daemon CPU, background copies) rather than device accesses — the
    /// `mc-batch` sweep metric.
    pub fn overhead_share(&self) -> f64 {
        let c = &self.costs;
        let overhead = c.stall_time + c.daemon_time + c.background_time;
        let total = c.access_time + overhead;
        if total == Nanos::ZERO {
            0.0
        } else {
            overhead.as_nanos() as f64 / total.as_nanos() as f64
        }
    }
}

/// The workload an [`Experiment`] drives.
#[derive(Debug, Clone, Copy)]
enum Workload {
    /// A YCSB key-value workload (Figs. 5, 7-10).
    Ycsb(YcsbWorkload),
    /// A GAPBS graph kernel (Fig. 6).
    Gapbs(Kernel),
}

/// Builder for one experiment run — YCSB or GAPBS.
///
/// The single entry point for all runs (the old
/// `run_ycsb`/`run_ycsb_observed`/`run_ycsb_chaos` trio and the
/// deprecated `run_gapbs` wrapper are gone):
///
/// ```no_run
/// use mc_sim::experiments::{Experiment, Scale};
/// use mc_workloads::ycsb::YcsbWorkload;
///
/// let outcome = Experiment::ycsb(YcsbWorkload::A)
///     .scale(&Scale::tiny())
///     .run()
///     .unwrap();
/// assert!(outcome.ops_per_sec > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    workload: Workload,
    system: SystemKind,
    scale: Scale,
    machine: MachinePreset,
    interval: Option<Nanos>,
    obs_dir: Option<std::path::PathBuf>,
    fault: mc_fault::FaultConfig,
    retry: mc_fault::RetryPolicy,
    scan_shards: usize,
    migrate_batch_size: usize,
    perf: Option<mc_obs::PerfHooks>,
    migration_mode: MigrationMode,
}

impl Experiment {
    fn new(workload: Workload) -> Self {
        Experiment {
            workload,
            system: SystemKind::MultiClock,
            scale: Scale::quick(),
            machine: MachinePreset::DramPm,
            interval: None,
            obs_dir: None,
            fault: mc_fault::FaultConfig::none(),
            retry: mc_fault::RetryPolicy::immediate(),
            scan_shards: 1,
            migrate_batch_size: 1,
            perf: None,
            migration_mode: MigrationMode::Sync,
        }
    }

    /// A MULTI-CLOCK run of `workload` at [`Scale::quick`] with the
    /// scale's default 1-paper-second interval. Every knob has a setter.
    pub fn ycsb(workload: YcsbWorkload) -> Self {
        Experiment::new(Workload::Ycsb(workload))
    }

    /// A MULTI-CLOCK run of the GAPBS `kernel` at [`Scale::quick`].
    ///
    /// Uses the scale's graph machine ([`Scale::graph_machine`]) and
    /// shortens the scan interval by [`Scale::graph_interval_factor`], as
    /// the old `run_gapbs` did.
    pub fn gapbs(kernel: Kernel) -> Self {
        Experiment::new(Workload::Gapbs(kernel))
    }

    /// Selects the system under test.
    pub fn system(mut self, system: SystemKind) -> Self {
        self.system = system;
        self
    }

    /// Selects the experiment scale. Unless [`Self::interval`] was also
    /// called, the scan interval follows the scale (1 paper second).
    pub fn scale(mut self, scale: &Scale) -> Self {
        self.scale = scale.clone();
        self
    }

    /// Selects the machine preset (default [`MachinePreset::DramPm`],
    /// which is bit-identical to the historical two-tier machine — the
    /// default is result-neutral by contract).
    pub fn machine(mut self, machine: MachinePreset) -> Self {
        self.machine = machine;
        self
    }

    /// Overrides the daemon scan interval (the Fig. 10 knob).
    pub fn interval(mut self, interval: Nanos) -> Self {
        self.interval = Some(interval);
        self
    }

    /// Enables observability and writes the events/ticks/report artifacts
    /// into `dir` after the run (the layout `mc-obs-report` consumes).
    pub fn obs(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.obs_dir = Some(dir.into());
        self
    }

    /// Installs a deterministic fault injector and the promotion retry
    /// policy reacting to it (the chaos path).
    pub fn fault(mut self, fault: mc_fault::FaultConfig, retry: mc_fault::RetryPolicy) -> Self {
        self.fault = fault;
        self.retry = retry;
        self
    }

    /// Sets MULTI-CLOCK's scanner shards per NUMA node.
    pub fn shards(mut self, scan_shards: usize) -> Self {
        self.scan_shards = scan_shards;
        self
    }

    /// Sets MULTI-CLOCK's batched-migration size for promote drains.
    pub fn batch(mut self, migrate_batch_size: usize) -> Self {
        self.migrate_batch_size = migrate_batch_size;
        self
    }

    /// Selects how MULTI-CLOCK executes promotions:
    /// [`MigrationMode::Sync`] (the default, bit-identical to the
    /// historical engine) or [`MigrationMode::Transactional`]
    /// (Nomad-style copy windows with shadow-page retention).
    /// [`SystemKind::Nomad`] forces `Transactional` regardless of this
    /// knob; systems other than MULTI-CLOCK ignore it.
    pub fn migration(mut self, mode: MigrationMode) -> Self {
        self.migration_mode = mode;
        self
    }

    /// Installs host-time profiling hooks ([`mc_obs::perf`]): wall-clock
    /// spans around the engine's tick/scan/merge/promote-drain/pressure/
    /// migrate-batch phases land in the hooks' shared profiler. Purely
    /// observational — a hooked run is bit-identical to an unhooked one
    /// (`crates/sim/tests/perf_differential.rs` enforces it).
    pub fn perf(mut self, hooks: mc_obs::PerfHooks) -> Self {
        self.perf = Some(hooks);
        self
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from writing the obs artifacts; runs
    /// without [`Self::obs`] never fail.
    pub fn run(self) -> std::io::Result<RunOutcome> {
        let interval = self.interval.unwrap_or_else(|| self.scale.scan_interval());
        let mut cfg = match self.workload {
            Workload::Ycsb(_) => {
                let mut cfg = base_config(self.system, &self.scale, interval);
                cfg.mem = self
                    .machine
                    .mem_config(self.scale.dram_pages, self.scale.pm_pages);
                cfg
            }
            Workload::Gapbs(_) => {
                let (dram, pm) = self.scale.graph_machine();
                let mut cfg = SimConfig::new(self.system, dram, pm);
                cfg.mem = self.machine.mem_config(dram, pm);
                cfg.scan_interval = Nanos::from_nanos(
                    (interval.as_nanos() as f64 * self.scale.graph_interval_factor) as u64,
                );
                cfg.scan_batch = self.scale.scan_batch;
                cfg.window = self.scale.window();
                cfg
            }
        };
        cfg.instrument.fault = self.fault;
        cfg.retry = self.retry;
        cfg.engine.scan_shards = self.scan_shards;
        cfg.engine.migrate_batch_size = self.migrate_batch_size;
        cfg.instrument.perf = self.perf.clone();
        cfg.engine.migration_mode = self.migration_mode;
        if self.obs_dir.is_some() {
            cfg.instrument.obs = mc_obs::ObsConfig::on();
        }
        let (outcome, sim) = match self.workload {
            Workload::Ycsb(w) => run_ycsb_cfg(cfg, w, &self.scale),
            Workload::Gapbs(k) => run_gapbs_cfg(cfg, k, &self.scale),
        };
        if let Some(dir) = &self.obs_dir {
            sim.write_obs(dir)?;
        }
        Ok(outcome)
    }
}

/// The YCSB driver proper; returns the finished simulation so observed
/// runs can export artifacts from it.
fn run_ycsb_cfg(cfg: SimConfig, workload: YcsbWorkload, scale: &Scale) -> (RunOutcome, Simulation) {
    let system = cfg.system;
    let mut sim = Simulation::new(cfg);
    let mut client = YcsbClient::load(
        YcsbConfig {
            records: scale.records,
            value_size: scale.value_size,
            op_compute: scale.op_compute,
            insert_scale: scale.insert_scale,
            seed: scale.seed,
        },
        &mut sim,
    );
    // Warm-up phase (untimed).
    let warm_end = sim.now() + scale.warmup;
    while sim.now() < warm_end {
        client.run_op(workload, &mut sim);
    }
    // Measurement phase (per-op latencies feed the tail histogram).
    let t0 = sim.now();
    let end = t0 + scale.measure;
    let mut ops = 0u64;
    let mut hist = LatencyHistogram::new();
    while sim.now() < end {
        let before = sim.now();
        client.run_op(workload, &mut sim);
        hist.record(sim.now() - before);
        sim.record_op();
        ops += 1;
    }
    let elapsed = sim.now() - t0;
    sim.finish();
    let mut outcome = summarize(
        system,
        &sim,
        ops as f64 / elapsed.as_secs_f64(),
        Nanos::ZERO,
    );
    outcome.p50 = hist.percentile(50.0);
    outcome.p99 = hist.percentile(99.0);
    (outcome, sim)
}

/// The GAPBS driver proper; returns the finished simulation so observed
/// runs can export artifacts from it.
fn run_gapbs_cfg(cfg: SimConfig, kernel: Kernel, scale: &Scale) -> (RunOutcome, Simulation) {
    let system = cfg.system;
    let mut sim = Simulation::new(cfg);
    let gcfg = GraphConfig {
        scale: scale.graph_scale,
        degree: scale.graph_degree,
        symmetric: true,
        max_weight: 255,
        seed: scale.seed,
        arena_slots: 8,
    };
    let mut csr = Csr::build(&gcfg, &mut sim);

    // The kernels return their computed values (distances, ranks, counts);
    // this driver only measures the memory traffic they generate, so the
    // results are deliberately dropped.
    let run_trial = |csr: &mut Csr, sim: &mut Simulation, trial: usize| {
        csr.reset_arena();
        match kernel {
            Kernel::Bfs => {
                let src = csr.source_vertex(trial);
                let _ = bfs::bfs(csr, sim, src);
            }
            Kernel::Sssp => {
                let src = csr.source_vertex(trial);
                let _ = sssp::sssp(csr, sim, src);
            }
            Kernel::Pr => {
                let _ = pagerank::pagerank(csr, sim, 5);
            }
            Kernel::Cc => {
                let _ = cc::cc(csr, sim);
            }
            Kernel::Bc => {
                let _ = bc::bc(csr, sim, 2);
            }
            Kernel::Tc => {
                let _ = tc::tc(csr, sim);
            }
        }
    };

    // One untimed warm-up trial lets the tiering system converge, as the
    // paper's multi-trial averaging does.
    run_trial(&mut csr, &mut sim, 0);
    let t0 = sim.now();
    for trial in 0..scale.trials {
        run_trial(&mut csr, &mut sim, trial);
        sim.record_op();
    }
    let elapsed = sim.now() - t0;
    sim.finish();
    let per_trial = Nanos::from_nanos(elapsed.as_nanos() / scale.trials as u64);
    let outcome = summarize(system, &sim, 0.0, per_trial);
    (outcome, sim)
}

fn summarize(
    system: SystemKind,
    sim: &Simulation,
    ops_per_sec: f64,
    trial_time: Nanos,
) -> RunOutcome {
    let m = sim.metrics();
    RunOutcome {
        system,
        ops_per_sec,
        trial_time,
        promotions: m.total_promotions(),
        demotions: m.total_demotions(),
        reaccess_pct: m.overall_reaccess_pct(),
        hint_faults: m.costs().hint_faults,
        top_tier_share: sim
            .memory_mode_stats()
            .map(|s| s.hit_ratio())
            .or_else(|| sim.mem().stats().fast_tier_share(sim.mem().topology())),
        p50: None,
        p99: None,
        windows: m.windows().to_vec(),
        injected_faults: sim.mem().stats().injected_faults,
        migration_failures: sim.mem().stats().migration_failures,
        promote_retries: sim.counter("mc_promote_retries"),
        promote_gave_ups: sim.counter("mc_promote_gave_ups"),
        txn_commits: sim.mem().stats().txn_commits,
        txn_aborts: sim.mem().stats().txn_aborts,
        shadow_hits: sim.mem().stats().shadow_hits,
        costs: m.costs(),
    }
}

/// Runs the Fig. 5 comparison (the tiered-system set) for one YCSB
/// workload on the given machine preset.
pub fn ycsb_comparison(
    workload: YcsbWorkload,
    scale: &Scale,
    machine: MachinePreset,
) -> Vec<RunOutcome> {
    SystemKind::TIERED_COMPARISON
        .iter()
        .map(|s| {
            Experiment::ycsb(workload)
                .system(*s)
                .scale(scale)
                .machine(machine)
                .run()
                .expect("no obs artifacts requested, so no I/O can fail")
        })
        .collect()
}

/// Runs the Fig. 6 comparison for one GAPBS kernel on the given machine
/// preset.
pub fn gapbs_comparison(kernel: Kernel, scale: &Scale, machine: MachinePreset) -> Vec<RunOutcome> {
    SystemKind::TIERED_COMPARISON
        .iter()
        .map(|s| {
            Experiment::gapbs(kernel)
                .system(*s)
                .scale(scale)
                .machine(machine)
                .run()
                .expect("no obs artifacts requested, so no I/O can fail")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ycsb_run_produces_throughput() {
        let mut scale = Scale::tiny();
        scale.warmup = Nanos::from_millis(500);
        scale.measure = Nanos::from_millis(500);
        let o = Experiment::ycsb(YcsbWorkload::C)
            .system(SystemKind::Static)
            .scale(&scale)
            .run()
            .unwrap();
        assert!(o.ops_per_sec > 0.0);
        assert_eq!(o.promotions, 0, "static never promotes");
        assert_eq!(o.injected_faults, 0, "no injector installed");
        assert!(o.costs.access_time > Nanos::ZERO);
    }

    #[test]
    fn multi_clock_promotes_on_ycsb() {
        let o = Experiment::ycsb(YcsbWorkload::A)
            .scale(&Scale::tiny())
            .run()
            .unwrap();
        assert!(o.promotions > 0, "MULTI-CLOCK should promote hot pages");
        let share = o.overhead_share();
        assert!((0.0..=1.0).contains(&share), "share={share}");
    }

    #[test]
    fn experiment_default_interval_follows_the_scale() {
        let scale = Scale::tiny();
        let implicit = Experiment::ycsb(YcsbWorkload::B)
            .scale(&scale)
            .run()
            .unwrap();
        let explicit = Experiment::ycsb(YcsbWorkload::B)
            .scale(&scale)
            .interval(scale.scan_interval())
            .run()
            .unwrap();
        assert_eq!(implicit.ops_per_sec, explicit.ops_per_sec);
        assert_eq!(implicit.promotions, explicit.promotions);
        assert_eq!(implicit.demotions, explicit.demotions);
    }

    #[test]
    fn experiment_batch_and_shard_knobs_reach_the_policy() {
        let mut scale = Scale::tiny();
        scale.warmup = Nanos::from_millis(400);
        scale.measure = Nanos::from_millis(400);
        let o = Experiment::ycsb(YcsbWorkload::A)
            .scale(&scale)
            .shards(2)
            .batch(8)
            .run()
            .unwrap();
        assert!(o.ops_per_sec > 0.0);
    }

    #[test]
    fn gapbs_run_produces_trial_time() {
        let mut scale = Scale::tiny();
        scale.graph_scale = 8;
        let r = Experiment::gapbs(Kernel::Bfs)
            .system(SystemKind::Static)
            .scale(&scale)
            .run()
            .unwrap();
        assert!(r.trial_time > Nanos::ZERO);
    }

    #[test]
    fn paper_interval_scales_linearly() {
        let s = Scale::tiny();
        assert_eq!(s.scan_interval(), s.interval_unit);
        assert_eq!(
            s.paper_interval(5.0).as_nanos(),
            5 * s.interval_unit.as_nanos()
        );
        assert_eq!(s.window(), s.paper_interval(20.0));
    }

    #[test]
    fn machine_preset_names_round_trip() {
        for m in MachinePreset::ALL {
            assert_eq!(MachinePreset::from_name(m.name()), Some(m));
            assert_eq!(format!("{m}"), m.name());
        }
        assert_eq!(MachinePreset::from_name("optane-only"), None);
    }

    #[test]
    fn explicit_default_machine_is_result_neutral() {
        let mut scale = Scale::tiny();
        scale.warmup = Nanos::from_millis(400);
        scale.measure = Nanos::from_millis(400);
        let implicit = Experiment::ycsb(YcsbWorkload::B)
            .scale(&scale)
            .run()
            .unwrap();
        let explicit = Experiment::ycsb(YcsbWorkload::B)
            .scale(&scale)
            .machine(MachinePreset::DramPm)
            .run()
            .unwrap();
        assert_eq!(implicit.ops_per_sec, explicit.ops_per_sec);
        assert_eq!(implicit.promotions, explicit.promotions);
        assert_eq!(implicit.demotions, explicit.demotions);
    }

    #[test]
    fn hybridtier_runs_on_cxl_machines() {
        let mut scale = Scale::tiny();
        scale.warmup = Nanos::from_millis(400);
        scale.measure = Nanos::from_millis(400);
        for machine in [MachinePreset::DramCxlPm, MachinePreset::CxlMultihead] {
            let o = Experiment::ycsb(YcsbWorkload::A)
                .system(SystemKind::HybridTier)
                .scale(&scale)
                .machine(machine)
                .run()
                .unwrap();
            assert!(o.ops_per_sec > 0.0, "machine={machine}");
            let share = o.top_tier_share.unwrap_or(0.0);
            assert!((0.0..=1.0).contains(&share), "share={share}");
        }
    }

    #[test]
    fn memory_mode_scale_targets_4x_dram() {
        let s = Scale::tiny().memory_mode();
        let chunk = 2048; // 1024 value + 12 header -> 2 KiB class
        let footprint = s.records * chunk;
        let dram = s.dram_pages * mc_mem::PAGE_SIZE;
        let ratio = footprint as f64 / dram as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio={ratio}");
    }
}
