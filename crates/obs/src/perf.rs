//! Host-time performance observability: phase spans and histograms.
//!
//! Everything else in this workspace observes *simulated* time (`Nanos`
//! threaded through the engine). This module is the one sanctioned
//! exception: it reads the host's monotonic clock (`std::time::Instant`)
//! to measure how fast the engine itself runs — engine ticks per second,
//! pages scanned per second, migrations per second — the management-
//! overhead axis that HM-Keeper/HybridTier-style evaluations report and
//! that simulated counters cannot express.
//!
//! # Boundary contract
//!
//! Library code in `mem`/`clock`/`core`/`sim` never names `Instant`; the
//! `wallclock` lint pass enforces that only this file and `crates/bench`
//! touch the host clock. Engine code interacts with host time solely
//! through the opaque [`PerfHooks`] handle: it opens a [`PhaseSpan`] at a
//! phase boundary and drops it at the end. The span owns the `Instant`
//! and records into the shared [`PhaseProfiler`] on drop.
//!
//! # Determinism
//!
//! Hooks only *observe* host time; nothing read from the clock ever flows
//! back into engine state. A hooks-on run is therefore bit-identical to a
//! hooks-off run — `crates/sim/tests/perf_differential.rs` enforces this
//! differentially, including under fault injection.
//!
//! # Data model
//!
//! Durations land in per-phase log2-bucketed nanosecond histograms
//! (64 buckets cover the full `u64` range), from which [`PhaseSummary`]
//! derives approximate p50/p95/p99 (geometric bucket midpoints) plus
//! exact count/total/items tallies and derived throughputs.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Number of log2 histogram buckets; bucket `i` holds durations whose
/// `floor(log2(nanos))` is `i`, so 64 buckets cover every `u64` value.
pub const BUCKETS: usize = 64;

/// The instrumented engine phases, in pipeline order.
///
/// One span per occurrence: a `Tick` wraps one policy tick (which may
/// contain a scan), a `Scan` wraps one in-place walk of every list, and
/// so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One `policy.tick(...)` call from the simulation frontend.
    Tick,
    /// One in-place scan of every shard's lists; items = pages scanned.
    Scan,
    /// Retired: the scan phase used to merge per-shard outputs after a
    /// parallel fan-out. It is no longer recorded (its summary reads
    /// zero); the variant stays so artifact schemas keep the name.
    Merge,
    /// Draining promotion candidates upward; items = pages promoted.
    PromoteDrain,
    /// Relieving top-tier pressure by demotion; items = pages demoted.
    Pressure,
    /// One `migrate_batch` call; items = batch length.
    MigrateBatch,
}

impl Phase {
    /// Every phase, in pipeline order (stable across releases: the BENCH
    /// schema and reports key off these names).
    pub const ALL: [Phase; 6] = [
        Phase::Tick,
        Phase::Scan,
        Phase::Merge,
        Phase::PromoteDrain,
        Phase::Pressure,
        Phase::MigrateBatch,
    ];

    /// Stable snake_case name used in artifacts and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Tick => "tick",
            Phase::Scan => "scan",
            Phase::Merge => "merge",
            Phase::PromoteDrain => "promote_drain",
            Phase::Pressure => "pressure",
            Phase::MigrateBatch => "migrate_batch",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Tick => 0,
            Phase::Scan => 1,
            Phase::Merge => 2,
            Phase::PromoteDrain => 3,
            Phase::Pressure => 4,
            Phase::MigrateBatch => 5,
        }
    }
}

/// Per-phase aggregate: span count, total wall nanoseconds, item tally
/// and the log2 duration histogram.
#[derive(Debug, Clone)]
struct PhaseAgg {
    count: u64,
    total_nanos: u64,
    items: u64,
    buckets: [u64; BUCKETS],
}

impl PhaseAgg {
    fn new() -> Self {
        PhaseAgg {
            count: 0,
            total_nanos: 0,
            items: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn record(&mut self, nanos: u64, items: u64) {
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.items = self.items.saturating_add(items);
        let idx = 63 - u64::leading_zeros(nanos.max(1)) as usize;
        if let Some(slot) = self.buckets.get_mut(idx) {
            *slot += 1;
        }
    }

    /// Approximate percentile from the log2 histogram: the geometric
    /// midpoint of the bucket containing the p-th ranked span.
    fn percentile_nanos(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = 1u64 << i;
                return lo.saturating_add(lo / 2);
            }
        }
        // Unreachable in practice (counts always land in some bucket);
        // fall back to the top bucket midpoint rather than panicking.
        u64::MAX / 2
    }
}

/// Immutable summary of one phase, as reported by
/// [`PhaseProfiler::summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Which phase this row summarises.
    pub phase: Phase,
    /// Number of spans recorded.
    pub count: u64,
    /// Total wall time across all spans, in nanoseconds.
    pub total_nanos: u64,
    /// Total items attributed via [`PhaseSpan::add_items`].
    pub items: u64,
    /// Approximate median span duration in nanoseconds.
    pub p50_nanos: u64,
    /// Approximate 95th-percentile span duration in nanoseconds.
    pub p95_nanos: u64,
    /// Approximate 99th-percentile span duration in nanoseconds.
    pub p99_nanos: u64,
}

impl PhaseSummary {
    /// Spans per wall-second (e.g. engine ticks/sec for [`Phase::Tick`]);
    /// 0.0 when no time was recorded.
    pub fn per_sec(&self) -> f64 {
        if self.total_nanos == 0 {
            0.0
        } else {
            self.count as f64 / (self.total_nanos as f64 / 1e9)
        }
    }

    /// Items per wall-second (e.g. pages scanned/sec for [`Phase::Scan`],
    /// migrations/sec for [`Phase::MigrateBatch`]); 0.0 when no time was
    /// recorded.
    pub fn items_per_sec(&self) -> f64 {
        if self.total_nanos == 0 {
            0.0
        } else {
            self.items as f64 / (self.total_nanos as f64 / 1e9)
        }
    }
}

/// Thread-safe collector of phase spans.
///
/// Interior mutability is a `Mutex` around the six per-phase aggregates;
/// contention is negligible because spans are opened at coarse phase
/// boundaries (per tick / per scan), not per page.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    inner: Mutex<Vec<PhaseAgg>>,
}

impl PhaseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        PhaseProfiler::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<PhaseAgg>> {
        match self.inner.lock() {
            Ok(g) => g,
            // A poisoned lock only means another thread panicked mid-
            // record; the aggregates are plain counters, still usable.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn with_aggs<R>(&self, f: impl FnOnce(&mut [PhaseAgg]) -> R) -> R {
        let mut guard = self.lock();
        if guard.is_empty() {
            guard.resize_with(Phase::ALL.len(), PhaseAgg::new);
        }
        f(&mut guard)
    }

    /// Records one completed span. Normally called by [`PhaseSpan::drop`],
    /// not directly.
    pub fn record(&self, phase: Phase, nanos: u64, items: u64) {
        self.with_aggs(|aggs| {
            if let Some(agg) = aggs.get_mut(phase.index()) {
                agg.record(nanos, items);
            }
        });
    }

    /// Summarises one phase.
    pub fn summary(&self, phase: Phase) -> PhaseSummary {
        self.with_aggs(|aggs| {
            let agg = aggs
                .get(phase.index())
                .cloned()
                .unwrap_or_else(PhaseAgg::new);
            PhaseSummary {
                phase,
                count: agg.count,
                total_nanos: agg.total_nanos,
                items: agg.items,
                p50_nanos: agg.percentile_nanos(50.0),
                p95_nanos: agg.percentile_nanos(95.0),
                p99_nanos: agg.percentile_nanos(99.0),
            }
        })
    }

    /// Summaries for every phase, in [`Phase::ALL`] order.
    pub fn summaries(&self) -> Vec<PhaseSummary> {
        Phase::ALL.iter().map(|&p| self.summary(p)).collect()
    }

    /// Total spans recorded across all phases.
    pub fn total_spans(&self) -> u64 {
        self.with_aggs(|aggs| aggs.iter().map(|a| a.count).sum())
    }

    /// Clears every aggregate (between benchmark repetitions).
    pub fn reset(&self) {
        self.lock().clear();
    }
}

/// Cloneable handle injected into the engine configuration.
///
/// All clones share one [`PhaseProfiler`]. The handle is deliberately
/// opaque to engine code: the only operation is [`PerfHooks::span`],
/// which returns a drop-guard — no clock value is ever exposed to the
/// caller, so host time cannot leak into engine state.
#[derive(Clone, Default)]
pub struct PerfHooks {
    profiler: Arc<PhaseProfiler>,
}

impl PerfHooks {
    /// Creates hooks backed by a fresh profiler.
    pub fn new() -> Self {
        PerfHooks::default()
    }

    /// The shared profiler, for reading summaries after a run.
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// Opens a span for `phase`; the span records itself on drop.
    pub fn span(&self, phase: Phase) -> PhaseSpan {
        PhaseSpan {
            profiler: Arc::clone(&self.profiler),
            phase,
            start: Instant::now(),
            items: 0,
        }
    }
}

impl std::fmt::Debug for PerfHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfHooks")
            .field("spans", &self.profiler.total_spans())
            .finish()
    }
}

/// Handle identity: two hooks are equal iff they share the same profiler.
/// (Config structs derive `PartialEq`; measurement state is not part of a
/// configuration's value.)
impl PartialEq for PerfHooks {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.profiler, &other.profiler)
    }
}

/// An open phase span: started at construction, recorded on drop.
#[derive(Debug)]
pub struct PhaseSpan {
    profiler: Arc<PhaseProfiler>,
    phase: Phase,
    start: Instant,
    items: u64,
}

impl PhaseSpan {
    /// Attributes `n` more items (pages, migrations, ...) to this span.
    pub fn add_items(&mut self, n: u64) {
        self.items = self.items.saturating_add(n);
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.profiler.record(self.phase, nanos, self.items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let hooks = PerfHooks::new();
        {
            let mut span = hooks.span(Phase::Scan);
            span.add_items(128);
        }
        let s = hooks.profiler().summary(Phase::Scan);
        assert_eq!(s.count, 1);
        assert_eq!(s.items, 128);
        assert!(s.total_nanos > 0);
        assert!(s.items_per_sec() > 0.0);
        assert_eq!(hooks.profiler().summary(Phase::Tick).count, 0);
    }

    #[test]
    fn clones_share_one_profiler() {
        let hooks = PerfHooks::new();
        let clone = hooks.clone();
        drop(clone.span(Phase::Tick));
        drop(hooks.span(Phase::Tick));
        assert_eq!(hooks.profiler().summary(Phase::Tick).count, 2);
        assert_eq!(hooks, clone);
        assert_ne!(hooks, PerfHooks::new());
    }

    #[test]
    fn percentiles_track_bucket_order() {
        let p = PhaseProfiler::new();
        // 90 fast spans (~1us), 10 slow spans (~1ms).
        for _ in 0..90 {
            p.record(Phase::Merge, 1_000, 0);
        }
        for _ in 0..10 {
            p.record(Phase::Merge, 1_000_000, 0);
        }
        let s = p.summary(Phase::Merge);
        assert_eq!(s.count, 100);
        assert!(s.p50_nanos < s.p95_nanos, "{s:?}");
        assert!(
            s.p95_nanos >= 524_288,
            "p95 should land in the slow bucket: {s:?}"
        );
        assert_eq!(s.p95_nanos, s.p99_nanos);
    }

    #[test]
    fn empty_phase_summarises_to_zeroes() {
        let p = PhaseProfiler::new();
        let s = p.summary(Phase::Pressure);
        assert_eq!((s.count, s.total_nanos, s.items), (0, 0, 0));
        assert_eq!((s.p50_nanos, s.per_sec(), s.items_per_sec()), (0, 0.0, 0.0));
    }

    #[test]
    fn reset_clears_all_phases() {
        let p = PhaseProfiler::new();
        p.record(Phase::Tick, 10, 1);
        p.record(Phase::Scan, 10, 1);
        assert_eq!(p.total_spans(), 2);
        p.reset();
        assert_eq!(p.total_spans(), 0);
        assert_eq!(p.summaries().len(), Phase::ALL.len());
    }
}
