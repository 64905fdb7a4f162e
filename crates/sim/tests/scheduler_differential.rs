//! Differential harness for the discrete-event scheduler refactor.
//!
//! The tick-equivalence contract (DESIGN.md §17): with every component
//! registered at one shared period, the refactored event-driven engine
//! must be *bit-identical* to the
//! PR 8 fixed-period engine — same virtual time, same `MemStats`, same
//! per-tick CSV, same tracepoint JSONL, same final page placement, same
//! cost ledger. The golden fingerprints below were captured by running
//! this exact workload against the pre-refactor engine (commit
//! `6c0390e`, the PR 8 head) via the `capture_golden` harness; the
//! suite then holds the refactored engine to those constants, including
//! under 20 % fault injection (the retry/backoff chaos path).
//!
//! If a *deliberate* behavior change ever invalidates these constants,
//! re-run `cargo test -p mc-sim --test scheduler_differential -- \
//! --ignored --nocapture` at the last-good commit and re-pin.

use mc_mem::{Memory, Nanos, PageKind, PAGE_SIZE};
use mc_sim::{Component, EngineCtx, FaultConfig, RetryPolicy, SimConfig, Simulation, SystemKind};
use std::cell::Cell;
use std::rc::Rc;

/// 64-bit FNV-1a: a stable, dependency-free digest for pinning large
/// artifacts (CSV/JSONL streams, placement maps) as u64 constants.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of everything a run can observably produce, digested to
/// pin-able integers.
#[derive(Debug, PartialEq)]
struct Golden {
    now_ns: u64,
    stats_hash: u64,
    ticks_csv_hash: u64,
    ticks_csv_len: usize,
    events_jsonl_hash: u64,
    events_jsonl_len: usize,
    placement_hash: u64,
    promotions: u64,
    demotions: u64,
    costs_hash: u64,
}

const PAGES: u64 = 192;

/// The house differential workload (same shape as the batching
/// differential): first-touch fill spills into PM, a hot set
/// deep in the PM tail is hammered every round, a stride keeps the
/// lists churning, compute gaps let the daemon tick.
fn run(cfg: SimConfig) -> Golden {
    run_with(cfg, |_| {})
}

/// Same house workload, with a hook to register extra components on the
/// fresh simulation before any access happens.
fn run_with(cfg: SimConfig, setup: impl FnOnce(&mut Simulation)) -> Golden {
    let mut s = Simulation::new(cfg);
    setup(&mut s);
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
    let placement: Vec<Option<(u32, u8)>> = (0..PAGES)
        .map(|p| {
            s.mem().translate(mc_mem::VPage::new(p)).map(|f| {
                let fr = s.mem().frame(f);
                (f.raw(), fr.tier().index() as u8)
            })
        })
        .collect();
    let ticks_csv = s.obs_ticks_csv().unwrap_or_default();
    let events_jsonl = s.obs_events_jsonl().unwrap_or_default();
    Golden {
        now_ns: s.now().as_nanos(),
        stats_hash: fnv1a(format!("{:?}", s.mem().stats()).as_bytes()),
        ticks_csv_hash: fnv1a(ticks_csv.as_bytes()),
        ticks_csv_len: ticks_csv.len(),
        events_jsonl_hash: fnv1a(events_jsonl.as_bytes()),
        events_jsonl_len: events_jsonl.len(),
        placement_hash: fnv1a(format!("{placement:?}").as_bytes()),
        promotions: s.metrics().total_promotions(),
        demotions: s.metrics().total_demotions(),
        costs_hash: fnv1a(format!("{:?}", s.metrics().costs()).as_bytes()),
    }
}

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
    cfg.instrument.obs = mc_sim::ObsConfig::on();
    cfg.engine.scan_shards = 4;
    cfg
}

fn chaos_cfg() -> SimConfig {
    let mut cfg = base_cfg();
    cfg.instrument.fault = FaultConfig::rate(7, 0.2);
    cfg.retry = RetryPolicy::backoff();
    cfg
}

/// Golden fingerprints captured at the PR 8 head (`6c0390e`) with the
/// fixed-period `maybe_tick` engine, obs artifacts on, 4 scan shards.
const BASE: Golden = Golden {
    now_ns: 10000793632,
    stats_hash: 0xba491d237158830d,
    ticks_csv_hash: 0x208ec5b414964a52,
    ticks_csv_len: 1372,
    events_jsonl_hash: 0xf8a930886b3cf2b2,
    events_jsonl_len: 129563,
    placement_hash: 0x1f8b5c5bcc0ff3e0,
    promotions: 8,
    demotions: 12,
    costs_hash: 0x32858a986086df3f,
};

/// Same workload under 20 % deterministic fault injection with
/// exponential-backoff retry (the chaos/retry-state path).
const CHAOS: Golden = Golden {
    now_ns: 10000889129,
    stats_hash: 0xe1f6a09f5a7842e8,
    ticks_csv_hash: 0x2ed06efadf819165,
    ticks_csv_len: 1404,
    events_jsonl_hash: 0x33ca3fc08cb5837a,
    events_jsonl_len: 156298,
    placement_hash: 0x6d6889de030551bb,
    promotions: 8,
    demotions: 77,
    costs_hash: 0xb413a664942debeb,
};

#[test]
fn tick_equivalent_engine_matches_pr8_golden() {
    assert_eq!(run(base_cfg()), BASE);
}

#[test]
fn tick_equivalent_engine_matches_pr8_golden_under_fault_injection() {
    let g = run(chaos_cfg());
    assert!(
        g.demotions > BASE.demotions,
        "injector must actually fire for this test to mean anything"
    );
    assert_eq!(g, CHAOS);
}

/// A read-only periodic component: counts its own ticks and checks its
/// wake-ups arrive in order, touching nothing that feeds results.
struct Observer {
    interval: Nanos,
    ticks: Rc<Cell<u64>>,
    last_wake: Cell<u64>,
}

impl Component for Observer {
    fn name(&self) -> &'static str {
        "test-observer"
    }

    fn tick(&mut self, now: Nanos, ctx: &mut EngineCtx<'_>) -> Option<Nanos> {
        self.ticks.set(self.ticks.get() + 1);
        assert!(
            now.as_nanos() >= self.last_wake.get(),
            "wake-ups must be dispatched in time order"
        );
        self.last_wake.set(now.as_nanos());
        assert!(
            ctx.now() >= now,
            "virtual time can only be at or past the scheduled instant"
        );
        // Exercise the read surface; none of it flows back into results.
        let _ = ctx.counters();
        let _ = ctx.mem().stats();
        let _ = ctx.metrics();
        Some(now + self.interval)
    }
}

/// A component that fires once and goes dormant (returns `None`).
struct OneShot {
    fired: Rc<Cell<u64>>,
}

impl Component for OneShot {
    fn name(&self) -> &'static str {
        "test-one-shot"
    }

    fn tick(&mut self, _now: Nanos, _ctx: &mut EngineCtx<'_>) -> Option<Nanos> {
        self.fired.set(self.fired.get() + 1);
        None
    }
}

/// Registered read-only components at heterogeneous intervals — plus a
/// one-shot that goes dormant — must leave every artifact bit-identical
/// to the daemon-only schedule: the scheduler dispatches them between
/// daemon ticks without perturbing anything the daemon observes.
#[test]
fn heterogeneous_interval_components_do_not_perturb_the_golden() {
    let fast = Rc::new(Cell::new(0u64));
    let slow = Rc::new(Cell::new(0u64));
    let fired = Rc::new(Cell::new(0u64));
    let fast_first = Nanos::from_millis(3);
    let fast_interval = Nanos::from_millis(7);
    let slow_first = Nanos::from_millis(40);
    let slow_interval = Nanos::from_millis(160);
    let g = run_with(base_cfg(), |s| {
        s.add_component(
            Box::new(Observer {
                interval: fast_interval,
                ticks: Rc::clone(&fast),
                last_wake: Cell::new(0),
            }),
            fast_first,
        );
        s.add_component(
            Box::new(Observer {
                interval: slow_interval,
                ticks: Rc::clone(&slow),
                last_wake: Cell::new(0),
            }),
            slow_first,
        );
        s.add_component(
            Box::new(OneShot {
                fired: Rc::clone(&fired),
            }),
            Nanos::from_millis(100),
        );
    });
    assert_eq!(g, BASE);
    // Wake-up arithmetic is exact (`next = due + interval`), so each
    // observer's tick count follows from the final virtual time alone.
    let expect =
        |first: Nanos, interval: Nanos| (BASE.now_ns - first.as_nanos()) / interval.as_nanos() + 1;
    assert_eq!(fast.get(), expect(fast_first, fast_interval));
    assert_eq!(slow.get(), expect(slow_first, slow_interval));
    assert_eq!(fired.get(), 1, "a dormant component never re-fires");
}

/// A dormant component costs the engine nothing: after its single tick
/// it holds no pending wake-up, and only re-arming wakes it again.
#[test]
fn dormant_components_hold_no_wakeups_until_rearmed() {
    let fired = Rc::new(Cell::new(0u64));
    let mut s = Simulation::new(base_cfg());
    let daemon_pending = s.pending_wakeups();
    let id = s.add_component(
        Box::new(OneShot {
            fired: Rc::clone(&fired),
        }),
        Nanos::from_millis(1),
    );
    assert_eq!(s.pending_wakeups(), daemon_pending + 1);
    let a = s.mmap(PAGE_SIZE, PageKind::Anon);
    s.read(a, 8);
    s.compute(Nanos::from_millis(5));
    assert_eq!(fired.get(), 1);
    assert_eq!(
        s.pending_wakeups(),
        daemon_pending,
        "dormant = no queue entry"
    );
    s.wake_component(id, s.now() + Nanos::from_millis(1));
    s.compute(Nanos::from_millis(5));
    assert_eq!(fired.get(), 2, "re-arming wakes a dormant component");
}

/// Run once at the pre-refactor commit to (re-)produce the golden
/// constants above. Ignored in normal runs.
#[test]
#[ignore = "golden-capture harness; run manually at a known-good commit"]
fn capture_golden() {
    for (name, cfg) in [("BASE", base_cfg()), ("CHAOS", chaos_cfg())] {
        let g = run(cfg);
        println!("const {name}: Golden = Golden {{");
        println!("    now_ns: {},", g.now_ns);
        println!("    stats_hash: 0x{:016x},", g.stats_hash);
        println!("    ticks_csv_hash: 0x{:016x},", g.ticks_csv_hash);
        println!("    ticks_csv_len: {},", g.ticks_csv_len);
        println!("    events_jsonl_hash: 0x{:016x},", g.events_jsonl_hash);
        println!("    events_jsonl_len: {},", g.events_jsonl_len);
        println!("    placement_hash: 0x{:016x},", g.placement_hash);
        println!("    promotions: {},", g.promotions);
        println!("    demotions: {},", g.demotions);
        println!("    costs_hash: 0x{:016x},", g.costs_hash);
        println!("}};");
    }
}
