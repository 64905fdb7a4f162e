//! MULTI-CLOCK tunables.

use mc_fault::RetryPolicy;
use mc_mem::{MigrationMode, Nanos};
use mc_obs::PerfHooks;
use serde::{Deserialize, Serialize};

/// Configuration for [`crate::MultiClock`].
///
/// Defaults follow the paper's prototype: a one-second `kpromoted` period
/// (chosen by the §V-E sensitivity study) and a scan batch of 1024 pages
/// ("we set the number of page scan to 1024").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiClockConfig {
    /// `kpromoted` wake-up period.
    pub scan_interval: Nanos,
    /// Pages examined per list per tick.
    pub scan_batch: usize,
    /// Maximum pages examined by one pressure (reclaim) invocation.
    pub reclaim_batch: usize,
    /// §VII extension: "include the dirtiness information for memory
    /// pages in a weighted formula to compute the importance of a page".
    /// `1.0` reproduces the paper (reads and writes indistinguishable);
    /// above `1.0`, *dirty* promotion candidates get priority for scarce
    /// promotion slots, biasing placement towards pages that would pay
    /// the lower tier's expensive stores.
    pub write_weight: f64,
    /// §VII extension: adapt the scan interval to workload behaviour
    /// (halve it while promotions are plentiful, back off when idle).
    pub adaptive_interval: bool,
    /// Lower bound for the adaptive interval.
    pub min_interval: Nanos,
    /// Upper bound for the adaptive interval.
    pub max_interval: Nanos,
    /// Scanner shards per NUMA node (HM-Keeper-style scan sharding). Each
    /// tier's lists are split into `nodes_in_tier × scan_shards`
    /// independent shards, each scanned with its own full budget every
    /// tick — modelling one `kpromoted` daemon per node as in the paper.
    /// `1` (the default) reproduces the original single-scanner layout
    /// bit-for-bit on single-node tiers.
    pub scan_shards: usize,
    /// Maximum pages handed to one batched migration call when draining a
    /// promote list (Nomad-style `migrate_pages` batching). `1` (the
    /// default) migrates page-at-a-time, bit-identical to the unbatched
    /// path; larger values amortize the per-call setup cost.
    pub migrate_batch_size: usize,
    /// How the promote path reacts to transient migration failures
    /// (destination full, page transiently locked). The default,
    /// [`RetryPolicy::immediate`], allows a single attempt — exactly the
    /// pre-fault-layer behaviour; [`RetryPolicy::backoff`] retries with
    /// exponential backoff before degrading to the active-list fallback.
    pub retry: RetryPolicy,
    /// How promotions move pages: [`MigrationMode::Sync`] (the default)
    /// copies and remaps inside the kpromoted run, stalling the
    /// application for the whole unmap/copy/remap sequence —
    /// bit-identical to the engine before transactional migration
    /// existed. [`MigrationMode::Transactional`] opens a Nomad-style
    /// transaction instead: the page stays mapped at its source while
    /// the copy proceeds in the background, a dirty write during the
    /// copy window aborts the transaction into the retry/backoff path,
    /// and a clean copy commits with one cheap atomic remap at the next
    /// tick.
    pub migration_mode: MigrationMode,
    /// Whether committed transactional promotions retain their source
    /// frame as a non-exclusive *shadow copy*, so demoting a page that
    /// stayed clean upstairs is a zero-copy mapping flip back to the
    /// retained frame. Only consulted in `Transactional` mode; shadows
    /// are invalidated on the first dirty write and released under
    /// allocation pressure.
    pub shadow_pages: bool,
    /// Optional host-time profiling hooks ([`mc_obs::perf`]). `None` (the
    /// default) makes every phase boundary a no-op; `Some` opens a
    /// wall-clock span around each scan/promote-drain/pressure/
    /// migrate-batch phase. Hooks only *observe* host time — no clock
    /// value flows back into the engine — so any setting produces results
    /// bit-identical to `None`.
    pub perf: Option<PerfHooks>,
    /// HM-Keeper-style adaptive region profiling ([`crate::region`]).
    /// Region boundaries only steer how often the scanner wakes — any
    /// knob values are bit-identical to any others; see the module docs
    /// for the contract.
    pub regions: RegionKnobs,
}

/// Knobs for the adaptive region map ([`crate::region::RegionMap`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionKnobs {
    /// Frames per granule — the minimum region size and split alignment.
    /// `1` gives page-granular regions (the tick-equivalent extreme);
    /// the default of 512 frames (2 MiB of 4 KiB pages) keeps the
    /// per-granule arrays negligible even on terabyte topologies.
    pub granule: usize,
    /// Maximum region size in granules — the initial layout carves the
    /// frame space into regions of this size, and merges never exceed
    /// it. With the defaults (512 × 2048 = 1 Mi frames) a 1 TiB machine
    /// starts at 256 regions.
    pub max_granules: usize,
    /// Window heat at which a region splits in half (per rebalance).
    pub split_heat: u64,
    /// Window heat below which two neighbours may merge.
    pub merge_heat: u64,
    /// §VII-style extension: let the scanner reschedule itself from
    /// observed region churn (tracked-set mutations) in addition to
    /// promotion/demotion activity. Off by default — the scan interval
    /// then behaves exactly as before the region map existed.
    pub churn_interval: bool,
}

impl Default for RegionKnobs {
    fn default() -> Self {
        RegionKnobs {
            granule: 512,
            max_granules: 2048,
            split_heat: 1024,
            merge_heat: 64,
            churn_interval: false,
        }
    }
}

impl RegionKnobs {
    /// Validates invariants; called by [`crate::region::RegionMap::new`]
    /// (and transitively by [`MultiClockConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics if any bound is nonsensical (zero granule or cap, merge
    /// threshold at or above the split threshold).
    pub fn validate(&self) {
        assert!(self.granule > 0, "region granule must be positive");
        assert!(self.max_granules > 0, "region size cap must be positive");
        assert!(
            self.merge_heat < self.split_heat,
            "region merge threshold must sit below the split threshold"
        );
    }
}

impl Default for MultiClockConfig {
    fn default() -> Self {
        MultiClockConfig {
            scan_interval: Nanos::from_secs(1),
            scan_batch: 1024,
            reclaim_batch: 4096,
            write_weight: 1.0,
            adaptive_interval: false,
            min_interval: Nanos::from_millis(100),
            max_interval: Nanos::from_secs(60),
            scan_shards: 1,
            migrate_batch_size: 1,
            retry: RetryPolicy::immediate(),
            migration_mode: MigrationMode::Sync,
            shadow_pages: true,
            perf: None,
            regions: RegionKnobs::default(),
        }
    }
}

impl MultiClockConfig {
    /// The paper's defaults with a different scan interval (the Fig. 10
    /// sensitivity sweep).
    pub fn with_interval(interval: Nanos) -> Self {
        MultiClockConfig {
            scan_interval: interval,
            ..Self::default()
        }
    }

    /// Validates invariants; called by [`crate::MultiClock::new`].
    ///
    /// # Panics
    ///
    /// Panics if any bound is nonsensical (zero interval/batch, inverted
    /// adaptive bounds, non-positive write weight).
    pub fn validate(&self) {
        assert!(
            self.scan_interval > Nanos::ZERO,
            "scan interval must be positive"
        );
        assert!(self.scan_batch > 0, "scan batch must be positive");
        assert!(self.reclaim_batch > 0, "reclaim batch must be positive");
        assert!(self.write_weight >= 1.0, "write weight must be >= 1");
        assert!(
            self.min_interval <= self.max_interval,
            "adaptive interval bounds inverted"
        );
        assert!(self.scan_shards > 0, "scan shards must be positive");
        assert!(
            self.migrate_batch_size > 0,
            "migrate batch size must be positive"
        );
        assert!(
            self.retry.is_valid(),
            "retry policy must allow at least one attempt with cap >= base"
        );
        self.regions.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MultiClockConfig::default();
        assert_eq!(c.scan_interval, Nanos::from_secs(1));
        assert_eq!(c.scan_batch, 1024);
        assert!(!c.adaptive_interval);
        assert_eq!(c.write_weight, 1.0);
        c.validate();
    }

    #[test]
    fn with_interval_overrides_only_interval() {
        let c = MultiClockConfig::with_interval(Nanos::from_millis(250));
        assert_eq!(c.scan_interval, Nanos::from_millis(250));
        assert_eq!(c.scan_batch, MultiClockConfig::default().scan_batch);
    }

    #[test]
    #[should_panic(expected = "scan batch")]
    fn zero_batch_rejected() {
        let c = MultiClockConfig {
            scan_batch: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn defaults_are_unsharded_and_unbatched() {
        let c = MultiClockConfig::default();
        assert_eq!(c.scan_shards, 1);
        assert_eq!(c.migrate_batch_size, 1);
        assert_eq!(
            c.migration_mode,
            MigrationMode::Sync,
            "synchronous migration is the baseline"
        );
        assert!(c.shadow_pages, "shadows are on once transactions are");
    }

    #[test]
    #[should_panic(expected = "scan shards")]
    fn zero_shards_rejected() {
        let c = MultiClockConfig {
            scan_shards: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "migrate batch")]
    fn zero_migrate_batch_rejected() {
        let c = MultiClockConfig {
            migrate_batch_size: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "write weight")]
    fn sub_one_write_weight_rejected() {
        let c = MultiClockConfig {
            write_weight: 0.5,
            ..Default::default()
        };
        c.validate();
    }
}
