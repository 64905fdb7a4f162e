//! Differential harness for the host-time perf hooks.
//!
//! The contract of `mc_obs::perf`: hooks *observe* the host's monotonic
//! clock at phase boundaries and nothing they read ever flows back into
//! the engine, so a hooks-on run must be bit-identical to a hooks-off run
//! — same virtual time, same `MemStats`, same per-tick CSV, same
//! tracepoint JSONL, same final page placement. That holds under fault
//! injection (the retry path crosses the instrumented migrate-batch
//! boundary), and the hooks must also actually *collect* spans, or the
//! whole layer is a silent no-op.

use mc_mem::{Nanos, PageKind, PAGE_SIZE};
use mc_obs::{PerfHooks, Phase};
use mc_sim::experiments::{Experiment, Scale};
use mc_sim::{FaultConfig, RetryPolicy, SimConfig, Simulation, SystemKind};
use mc_workloads::ycsb::YcsbWorkload;
use mc_workloads::Memory;

/// Fingerprint of everything a run can observably produce.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    now: Nanos,
    stats: mc_mem::MemStats,
    ticks_csv: String,
    events_jsonl: String,
    placement: Vec<Option<(u32, u8)>>,
    promotions: u64,
    demotions: u64,
    costs: mc_sim::CostBreakdown,
}

const PAGES: u64 = 192;

/// The promotion-heavy deterministic workload shared with the other
/// differential suites: first-touch fill spills into PM, a hot set deep
/// in the PM tail is hammered every round, a stride keeps the lists
/// churning, compute gaps let the daemon tick.
fn run(cfg: SimConfig) -> Fingerprint {
    let mut s = Simulation::new(cfg);
    let a = s.mmap(PAGE_SIZE as usize * PAGES as usize, PageKind::Anon);
    for p in 0..PAGES {
        s.write(a.add(p * PAGE_SIZE as u64), 64);
    }
    for round in 0..400u64 {
        for h in 0..8u64 {
            s.read(a.add((160 + h) * PAGE_SIZE as u64), 64);
        }
        let page = (round * 7) % PAGES;
        let addr = a.add(page * PAGE_SIZE as u64);
        if round % 3 == 0 {
            s.write(addr, 256);
        } else {
            s.read(addr, 64);
        }
        s.compute(Nanos::from_millis(25));
        s.record_op();
    }
    s.finish();
    let placement = (0..PAGES)
        .map(|p| {
            s.mem().translate(mc_mem::VPage::new(p)).map(|f| {
                let fr = s.mem().frame(f);
                (f.raw(), fr.tier().index() as u8)
            })
        })
        .collect();
    Fingerprint {
        now: s.now(),
        stats: s.mem().stats().clone(),
        ticks_csv: s.obs_ticks_csv().unwrap_or_default(),
        events_jsonl: s.obs_events_jsonl().unwrap_or_default(),
        placement,
        promotions: s.metrics().total_promotions(),
        demotions: s.metrics().total_demotions(),
        costs: s.metrics().costs(),
    }
}

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
    cfg.instrument.obs = mc_sim::ObsConfig::on();
    cfg.engine.scan_shards = 4;
    cfg
}

#[test]
fn perf_hooks_are_bit_identical_to_hooks_off() {
    let off = run(base_cfg());
    let hooks = PerfHooks::new();
    let mut cfg = base_cfg();
    cfg.instrument.perf = Some(hooks.clone());
    let on = run(cfg);
    assert!(off.promotions > 0, "workload must exercise the scanner");
    assert!(
        !off.events_jsonl.is_empty(),
        "obs must be on so the event stream is part of the fingerprint"
    );
    assert_eq!(off, on);
    // And the hooks must have measured something, or the layer is a
    // silent no-op: every tick opened tick+scan spans (the retired merge
    // phase records none), promotions crossed the migrate-batch boundary.
    let profiler = hooks.profiler();
    let ticks = profiler.summary(Phase::Tick);
    assert!(ticks.count > 0, "no tick spans recorded");
    assert_eq!(ticks.count, ticks.items, "one item per tick span");
    assert!(ticks.total_nanos > 0);
    assert!(profiler.summary(Phase::Scan).items > 0, "no pages scanned");
    assert_eq!(
        profiler.summary(Phase::Scan).count,
        ticks.count,
        "one scan span per tick"
    );
    assert_eq!(profiler.summary(Phase::Merge).count, 0, "no merge spans");
    assert_eq!(
        profiler.summary(Phase::PromoteDrain).items,
        on.promotions,
        "promote-drain items are the promoted pages"
    );
    assert!(
        profiler.summary(Phase::MigrateBatch).items >= on.promotions,
        "every promotion passed through a migrate batch"
    );
}

#[test]
fn perf_hooks_are_bit_identical_under_fault_injection() {
    let chaos_cfg = || {
        let mut cfg = base_cfg();
        cfg.instrument.fault = FaultConfig::rate(7, 0.2);
        cfg.retry = RetryPolicy::backoff();
        cfg
    };
    let off = run(chaos_cfg());
    let hooks = PerfHooks::new();
    let mut cfg = chaos_cfg();
    cfg.instrument.perf = Some(hooks.clone());
    let on = run(cfg);
    assert!(
        off.stats.migration_failures > 0,
        "injector must actually fire for this test to mean anything"
    );
    assert_eq!(off, on);
    assert!(hooks.profiler().summary(Phase::MigrateBatch).count > 0);
}

#[test]
fn experiment_perf_knob_is_bit_identical_on_ycsb() {
    let mut scale = Scale::tiny();
    scale.warmup = Nanos::from_millis(400);
    scale.measure = Nanos::from_millis(400);
    let plain = Experiment::ycsb(YcsbWorkload::A)
        .scale(&scale)
        .shards(4)
        .batch(8)
        .run()
        .expect("no obs artifacts requested");
    let hooks = PerfHooks::new();
    let hooked = Experiment::ycsb(YcsbWorkload::A)
        .scale(&scale)
        .shards(4)
        .batch(8)
        .perf(hooks.clone())
        .run()
        .expect("no obs artifacts requested");
    assert!(plain.promotions > 0, "YCSB-A must promote");
    assert_eq!(plain.ops_per_sec, hooked.ops_per_sec);
    assert_eq!(plain.promotions, hooked.promotions);
    assert_eq!(plain.demotions, hooked.demotions);
    assert_eq!(plain.p50, hooked.p50);
    assert_eq!(plain.p99, hooked.p99);
    assert_eq!(plain.costs, hooked.costs);
    let ticks = hooks.profiler().summary(Phase::Tick);
    assert!(ticks.count > 0 && ticks.per_sec() > 0.0);
}
