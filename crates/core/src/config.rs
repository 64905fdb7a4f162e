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
    /// (double it after idle ticks, snap back to `scan_interval` as soon
    /// as a tick moves a page between tiers).
    pub adaptive_interval: bool,
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
}

impl Default for MultiClockConfig {
    fn default() -> Self {
        MultiClockConfig {
            scan_interval: Nanos::from_secs(1),
            scan_batch: 1024,
            reclaim_batch: 4096,
            write_weight: 1.0,
            adaptive_interval: false,
            max_interval: Nanos::from_secs(60),
            scan_shards: 1,
            migrate_batch_size: 1,
            retry: RetryPolicy::immediate(),
            migration_mode: MigrationMode::Sync,
            shadow_pages: true,
            perf: None,
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
    /// Panics if any bound is nonsensical (zero interval/batch/shards,
    /// a write weight below one, a retry policy with no attempt).
    pub fn validate(&self) {
        assert!(
            self.scan_interval > Nanos::ZERO,
            "scan interval must be positive"
        );
        assert!(self.scan_batch > 0, "scan batch must be positive");
        assert!(self.reclaim_batch > 0, "reclaim batch must be positive");
        assert!(self.write_weight >= 1.0, "write weight must be >= 1");
        assert!(self.scan_shards > 0, "scan shards must be positive");
        assert!(
            self.migrate_batch_size > 0,
            "migrate batch size must be positive"
        );
        assert!(
            self.retry.is_valid(),
            "retry policy must allow at least one attempt with cap >= base"
        );
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
