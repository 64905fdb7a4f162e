//! The three benchmark workloads and their drive loops.
//!
//! Each workload is a fixed amount of simulated work built from the seed
//! alone. The drive loops are generic over [`Driven`], so the same code
//! runs against a bare [`Simulation`] (plain runs, no timing inside) and
//! against the timing proxy in [`crate::layers`] (traced runs). They
//! mirror the run loops behind `Experiment::run` step for step; the
//! equivalence check in [`crate::check`] holds them to that.

use mc_mem::{Memory, Nanos};
use mc_obs::PerfHooks;
use mc_sim::experiments::{Experiment, MachinePreset, Scale};
use mc_sim::{SimConfig, Simulation, SystemKind};
use mc_workloads::graph::{bfs, Csr, GraphConfig, Kernel, MemVec};
use mc_workloads::ycsb::{YcsbClient, YcsbConfig, YcsbWorkload};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// YCSB-A under MULTI-CLOCK on the two-tier DRAM + PM machine.
    YcsbA,
    /// YCSB-C under HybridTier on the three-tier DRAM + CXL + PM machine.
    YcsbCCxl,
    /// GAPBS BFS trials under MULTI-CLOCK on an R-MAT graph larger than DRAM.
    GapbsBfs,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::YcsbA, Kind::YcsbCCxl, Kind::GapbsBfs];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Kind::YcsbA => "ycsb_a",
            Kind::YcsbCCxl => "ycsb_c_cxl",
            Kind::GapbsBfs => "gapbs_bfs",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One workload at one size and seed: everything a repetition needs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Sizes, virtual run lengths and the seed.
    pub scale: Scale,
    /// System under test.
    pub system: SystemKind,
    /// Machine preset.
    pub machine: MachinePreset,
}

impl Spec {
    /// The benchmark size of `kind` under `seed`; `smoke` shrinks it to a
    /// fraction of a second for the self-test.
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Spec {
        let mut scale = Scale::quick();
        scale.seed = seed;
        let (system, machine) = match kind {
            Kind::YcsbA => (SystemKind::MultiClock, MachinePreset::DramPm),
            Kind::YcsbCCxl => (SystemKind::HybridTier, MachinePreset::DramCxlPm),
            Kind::GapbsBfs => (SystemKind::MultiClock, MachinePreset::DramPm),
        };
        match kind {
            Kind::YcsbA | Kind::YcsbCCxl => {
                // 12k records of 1 KiB values fill 2 KiB slab chunks: the
                // store is about six times the 1024-page DRAM tier.
                // Short repetitions, so a run has many: the reported
                // quantile needs samples (see `metrics::HOST_QUANTILE`).
                scale.warmup = Nanos::from_millis(50);
                scale.measure = Nanos::from_millis(100);
            }
            Kind::GapbsBfs => {
                // BFS touches the offsets, the edge array and one vertex
                // array, about 2100 pages: twice the DRAM tier.
                scale.graph_scale = 16;
                scale.graph_degree = 16;
                scale.graph_dram_pages = 1024;
                scale.pm_pages = 16384;
                // Six trials of about 170 ticks each: enough ticks for a p99.
                scale.trials = 5;
            }
        }
        if smoke {
            scale.records = 2_000;
            scale.warmup = Nanos::from_millis(100);
            scale.measure = Nanos::from_millis(200);
            scale.graph_scale = 11;
            scale.graph_dram_pages = 96;
            scale.trials = 2;
        }
        Spec {
            kind,
            scale,
            system,
            machine,
        }
    }

    /// The simulation configuration `Experiment::run` builds for this
    /// workload, with `perf` hooks installed when tracing.
    pub fn sim_config(&self, perf: Option<PerfHooks>) -> SimConfig {
        let s = &self.scale;
        let interval = s.scan_interval();
        let mut cfg = match self.kind {
            Kind::YcsbA | Kind::YcsbCCxl => {
                let mut cfg = SimConfig::new(self.system, s.dram_pages, s.pm_pages);
                cfg.mem = self.machine.mem_config(s.dram_pages, s.pm_pages);
                cfg.scan_interval = interval;
                cfg
            }
            Kind::GapbsBfs => {
                let (dram, pm) = s.graph_machine();
                let mut cfg = SimConfig::new(self.system, dram, pm);
                cfg.mem = self.machine.mem_config(dram, pm);
                cfg.scan_interval = Nanos::from_nanos(
                    (interval.as_nanos() as f64 * s.graph_interval_factor) as u64,
                );
                cfg
            }
        };
        cfg.scan_batch = s.scan_batch;
        cfg.window = s.window();
        cfg.instrument.perf = perf;
        cfg
    }

    /// The same run as a paper-figure experiment.
    pub fn experiment(&self) -> Experiment {
        let exp = match self.kind {
            Kind::YcsbA => Experiment::ycsb(YcsbWorkload::A),
            Kind::YcsbCCxl => Experiment::ycsb(YcsbWorkload::C),
            Kind::GapbsBfs => Experiment::gapbs(Kernel::Bfs),
        };
        exp.system(self.system)
            .scale(&self.scale)
            .machine(self.machine)
    }

    /// The GAPBS graph configuration `Experiment::run` uses.
    pub fn graph_config(&self) -> GraphConfig {
        GraphConfig {
            scale: self.scale.graph_scale,
            degree: self.scale.graph_degree,
            symmetric: true,
            max_weight: 255,
            seed: self.scale.seed,
            arena_slots: 8,
        }
    }
}

/// What the drive loops need beyond [`Memory`]: the engine underneath,
/// and hooks around each application operation. A bare [`Simulation`]
/// leaves the hooks empty; the timing proxy records op spans in them.
pub trait Driven: Memory {
    /// The simulation under the memory interface.
    fn sim(&mut self) -> &mut Simulation;
    /// Called before each application operation.
    fn op_begin(&mut self) {}
    /// Called after each application operation.
    fn op_end(&mut self) {}
}

impl Driven for Simulation {
    fn sim(&mut self) -> &mut Simulation {
        self
    }
}

/// The loaded state a workload runs over.
pub enum Loaded {
    /// A YCSB client over its loaded store, and the mix it runs.
    Ycsb(YcsbClient, YcsbWorkload),
    /// A CSR graph.
    Graph(Csr),
}

/// Host nanoseconds of the two set-up steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Simulation::new`.
    pub new_ns: u64,
    /// `YcsbClient::load` or `Csr::build`.
    pub load_ns: u64,
}

/// Builds the simulation and loads the workload's data set, timing each
/// step.
pub fn setup(spec: &Spec, perf: Option<PerfHooks>) -> (Simulation, Loaded, SetupTimes) {
    let cfg = spec.sim_config(perf);
    let t = Instant::now();
    let mut sim = Simulation::new(cfg);
    let new_ns = elapsed_ns(t);
    let t = Instant::now();
    let mut ycsb = |workload| {
        let cfg = YcsbConfig {
            records: spec.scale.records,
            value_size: spec.scale.value_size,
            op_compute: spec.scale.op_compute,
            insert_scale: spec.scale.insert_scale,
            seed: spec.scale.seed,
        };
        Loaded::Ycsb(YcsbClient::load(cfg, &mut sim), workload)
    };
    let loaded = match spec.kind {
        Kind::YcsbA => ycsb(YcsbWorkload::A),
        Kind::YcsbCCxl => ycsb(YcsbWorkload::C),
        Kind::GapbsBfs => Loaded::Graph(Csr::build(&spec.graph_config(), &mut sim)),
    };
    let load_ns = elapsed_ns(t);
    (sim, loaded, SetupTimes { new_ns, load_ns })
}

/// What one drive produced, for the output checks and the metrics.
pub struct Outcome {
    /// Application operations run: YCSB requests or BFS trials, warm-up
    /// included.
    pub ops: u64,
    /// Operations in the measured phase.
    pub measured_ops: u64,
    /// Virtual time of the measured phase.
    pub measured: Nanos,
    /// BFS sources and parent arrays, one per trial (GAPBS only).
    pub trees: Vec<(u32, MemVec<i64>)>,
}

/// Runs the workload's fixed work over `loaded`: warm-up, measurement,
/// then `Simulation::finish`, exactly as `Experiment::run` does.
pub fn drive<M: Driven>(spec: &Spec, mem: &mut M, loaded: &mut Loaded) -> Outcome {
    match loaded {
        Loaded::Ycsb(client, workload) => drive_ycsb(spec, mem, client, *workload),
        Loaded::Graph(csr) => drive_bfs(spec, mem, csr),
    }
}

fn drive_ycsb<M: Driven>(
    spec: &Spec,
    mem: &mut M,
    client: &mut YcsbClient,
    workload: YcsbWorkload,
) -> Outcome {
    let mut ops = 0u64;
    let warm_end = mem.now() + spec.scale.warmup;
    while mem.now() < warm_end {
        mem.op_begin();
        client.run_op(workload, mem);
        mem.op_end();
        ops += 1;
    }
    let t0 = mem.now();
    let end = t0 + spec.scale.measure;
    let mut measured_ops = 0u64;
    while mem.now() < end {
        mem.op_begin();
        client.run_op(workload, mem);
        mem.op_end();
        mem.sim().record_op();
        measured_ops += 1;
    }
    let measured = mem.now() - t0;
    mem.sim().finish();
    Outcome {
        ops: ops + measured_ops,
        measured_ops,
        measured,
        trees: Vec::new(),
    }
}

fn drive_bfs<M: Driven>(spec: &Spec, mem: &mut M, csr: &mut Csr) -> Outcome {
    let mut trees = Vec::with_capacity(spec.scale.trials + 1);
    let mut trial = |csr: &mut Csr, mem: &mut M, k: usize| {
        mem.op_begin();
        csr.reset_arena();
        let src = csr.source_vertex(k);
        let parent = bfs::bfs(csr, mem, src);
        mem.op_end();
        trees.push((src, parent));
    };
    // One warm-up trial outside the virtual-time measurement, then the
    // measured ones.
    trial(csr, mem, 0);
    let t0 = mem.now();
    for k in 0..spec.scale.trials {
        trial(csr, mem, k);
        mem.sim().record_op();
    }
    let measured = mem.now() - t0;
    mem.sim().finish();
    Outcome {
        ops: trees.len() as u64,
        measured_ops: spec.scale.trials as u64,
        measured,
        trees,
    }
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
