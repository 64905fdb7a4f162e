//! The `kpromoted` daemon: periodic list scanning, reference-bit
//! harvesting, and promote-list draining (paper §III-B, §IV).

use crate::lists::WhichList;
use crate::multi_clock::MultiClock;
use crate::state::PageState;
use mc_mem::{
    FrameId, MemError, MemorySystem, MigrationMode, Nanos, PageKind, TickOutcome, TierId,
};
use mc_obs::{saturating_add, saturating_bump, EventKind};

impl MultiClock {
    /// One `kpromoted` wake-up:
    ///
    /// 1. scan every list of every shard of every tier in place
    ///    ([`Self::scan_lists`]), harvesting PTE reference bits and
    ///    applying the Fig. 4 transitions — this is how *unsupervised*
    ///    (mmap) accesses are observed;
    /// 2. promote **all** pages on lower tiers' promote lists ("once a
    ///    page is selected for promotion, the page gets promoted to the
    ///    DRAM in the same kpromoted run"), in `migrate_batch_size`
    ///    batches;
    /// 3. run the reclaim path on any tier below its low watermark;
    /// 4. optionally adapt the scan interval (§VII extension).
    pub(crate) fn kpromoted_run(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        saturating_bump(&mut self.stats.ticks);
        let tick = self.stats.ticks;
        mem.set_now(now.as_nanos());
        mem.recorder_mut().emit(|| EventKind::TickBegin { tick });
        let mut out = TickOutcome::default();
        let tier_count = self.tiers.len();

        // Transactional mode: settle last tick's migration transactions
        // before anything else looks at the lists. The copy window
        // spanned the inter-tick application run; by now every copy has
        // either stayed clean (commit: atomic remap) or been dirtied
        // (abort: back into the retry/backoff path). A no-op in Sync
        // mode, where no transaction is ever opened.
        if self.cfg.migration_mode == MigrationMode::Transactional {
            out.promoted += self.settle_txns(mem);
        }
        // Host-time phase spans (no-ops when hooks are off). Cloning the
        // handle up front keeps the later `&mut self` phases borrowable;
        // spans only observe the host clock, never engine state.
        let perf = self.cfg.perf.clone();

        let mut scan_span = perf.as_ref().map(|p| p.span(mc_obs::Phase::Scan));
        let scanned = self.scan_lists(mem);
        out.pages_scanned += scanned;
        if let Some(s) = scan_span.as_mut() {
            s.add_items(scanned);
        }
        drop(scan_span);

        // Drain promote lists bottom-up relative to their target: tier 1
        // promotes into tier 0 before tier 2 promotes into tier 1.
        let mut drain_span = perf.as_ref().map(|p| p.span(mc_obs::Phase::PromoteDrain));
        let mut promoted = 0u64;
        for tier in 1..tier_count {
            promoted += self.promote_all(mem, TierId::new(tier as u8));
        }
        out.promoted += promoted;
        if let Some(s) = drain_span.as_mut() {
            s.add_items(promoted);
        }
        drop(drain_span);

        // kswapd-style balancing: react to watermark pressure.
        let mut pressure_span = perf.as_ref().map(|p| p.span(mc_obs::Phase::Pressure));
        for tier in 0..tier_count {
            let tier = TierId::new(tier as u8);
            if mem.tier_under_pressure(tier) {
                let p = self.run_pressure(mem, tier, true);
                out.pages_scanned += p.pages_scanned;
                out.demoted += p.demoted;
                out.promoted += p.promoted;
                if let Some(s) = pressure_span.as_mut() {
                    s.add_items(p.demoted + p.promoted);
                }
            }
        }
        drop(pressure_span);

        saturating_add(&mut self.stats.pages_scanned, out.pages_scanned);
        self.adapt_interval(out.promoted + out.demoted);
        // Mirror the substrate's transaction/shadow counters into the
        // policy's vmstat rows (absolute values; all zero in Sync mode).
        let ms = mem.stats();
        self.stats.txn_begins = ms.txn_begins;
        self.stats.txn_aborts = ms.txn_aborts;
        self.stats.txn_commits = ms.txn_commits;
        self.stats.shadow_hits = ms.shadow_hits;
        self.stats.shadow_invalidations = ms.shadow_invalidations;
        self.debug_validate(mem);
        mem.recorder_mut().emit(|| EventKind::TickEnd {
            tick,
            scanned: out.pages_scanned,
            promoted: out.promoted,
            demoted: out.demoted,
        });
        out
    }

    /// The scan phase: walks every list of every shard of every tier in
    /// place, in (tier, shard, kind) order — promote (top tier only),
    /// then inactive, then active — up to `scan_batch` pages per list.
    /// Each shard models one per-node daemon and gets its own full
    /// budget. Returns the pages scanned.
    pub(crate) fn scan_lists(&mut self, mem: &mut MemorySystem) -> u64 {
        let mut scanned = 0;
        for t in 0..self.tiers.len() {
            let tier = TierId::new(t as u8);
            for shard in 0..self.tiers[tier.index()].shard_count() {
                for kind in PageKind::ALL {
                    // Ageing of unreferenced promote pages (transition
                    // 11) only ever applies to the top tier: a lower
                    // tier's promote list is drained by the promotion
                    // phase of the same run that populated it (deferred
                    // retry candidates may sit across runs, but those are
                    // waiting out a backoff, not ageing). It runs before
                    // the other scans so pages entering the promote list
                    // during this very scan are not aged before the
                    // promote phase sees them.
                    if tier.is_top() {
                        scanned += self.scan_list(mem, tier, shard, kind, WhichList::Promote);
                    }
                    scanned += self.scan_list(mem, tier, shard, kind, WhichList::Inactive);
                    scanned += self.scan_list(mem, tier, shard, kind, WhichList::Active);
                }
            }
        }
        scanned
    }

    /// Scans up to `scan_batch` pages from the cold end of one list,
    /// rotating each to the tail and test-and-clearing its PTE reference
    /// bit. A referenced page steps the ladder (a promote page just stays
    /// queued); an unreferenced page on a referenced rung decays one
    /// step, and an unreferenced promote page ages back to active.
    fn scan_list(
        &mut self,
        mem: &mut MemorySystem,
        tier: TierId,
        shard: usize,
        kind: PageKind,
        which: WhichList,
    ) -> u64 {
        let budget = self.tiers[tier.index()]
            .shard(shard)
            .set(kind)
            .list(which)
            .len()
            .min(self.cfg.scan_batch);
        let mut scanned = 0;
        for _ in 0..budget {
            let list = self.tiers[tier.index()]
                .shard_mut(shard)
                .set_mut(kind)
                .list_mut(which);
            let Some(frame) = list.pop_front() else {
                break;
            };
            // Rotate first so the ladder's list moves see a member page.
            list.push_back(frame);
            scanned += 1;
            if mem.harvest_referenced(frame) {
                // Still hot while queued: a promote page stays put.
                if which != WhichList::Promote {
                    self.apply_access(mem, frame);
                }
                continue;
            }
            let (rung, decayed, edge) = match which {
                // CLOCK decay (fig4: 1, downward): a page not referenced
                // since the last scan loses its referenced state, so only
                // pages referenced in *several recent* scans ever reach
                // the promote list.
                WhichList::Inactive => (PageState::InactiveRef, PageState::InactiveUnref, 1),
                // CLOCK decay on the active rung as well (fig4: 8).
                WhichList::Active => (PageState::ActiveRef, PageState::ActiveUnref, 8),
                // fig4: 11 — unaccessed promote pages age back to active.
                WhichList::Promote => (PageState::Promote, PageState::ActiveUnref, 11),
                // Pinned pages live on the per-tier list, never scanned.
                WhichList::Unevictable => continue,
            };
            if self.states[frame.index()] != Some(rung) {
                continue;
            }
            if which == WhichList::Promote {
                saturating_bump(&mut self.stats.promote_ages);
            } else {
                saturating_bump(&mut self.stats.ladder_decays);
            }
            self.transition(mem, frame, decayed);
            mem.recorder_mut().emit(|| EventKind::Fig4 {
                edge,
                frame: frame.index() as u64,
                tier: tier.index() as u8,
            });
        }
        if scanned > 0 {
            mem.recorder_mut().emit(|| EventKind::ScanList {
                tier: tier.index() as u8,
                list: which.name(),
                scanned: scanned as u32,
            });
        }
        scanned
    }

    /// Migrates every page on `tier`'s promote lists (all shards) to the
    /// next tier up (Fig. 4 transition 13), handing the memory system up
    /// to `migrate_batch_size` pages per call so the per-call setup cost
    /// is amortized. Returns the number of pages promoted.
    ///
    /// A page that cannot move (locked, or no room upstairs even after one
    /// round of reclaim there) falls back to the active list, as the paper
    /// prescribes. With `migrate_batch_size == 1` the migration call
    /// sequence is exactly the historical page-at-a-time behaviour.
    pub(crate) fn promote_all(&mut self, mem: &mut MemorySystem, tier: TierId) -> u64 {
        let Some(upper) = tier.upper() else {
            return 0;
        };
        let mut promoted = 0;
        let mut tried_reclaim = false;
        // Room for the whole candidate set is requested at once (gentle
        // reclaim only ever demotes scan-certified-cold pages, so asking
        // for more than exists is safe).
        let demand: usize = PageKind::ALL
            .iter()
            .map(|k| self.tiers[tier.index()].list_len(*k, crate::lists::WhichList::Promote))
            .sum();
        let batch = self.cfg.migrate_batch_size;
        for shard in 0..self.tiers[tier.index()].shard_count() {
            for kind in PageKind::ALL {
                let mut candidates = self.tiers[tier.index()]
                    .shard_mut(shard)
                    .set_mut(kind)
                    .promote
                    .drain();
                // Rotate the drain order each run. Candidate order is
                // otherwise a stable cycle (scan rotation is deterministic),
                // and when room is scarcer than candidates the same prefix
                // would win every run, starving equally-worthy pages; in a
                // real kernel timing jitter provides this fairness.
                if !candidates.is_empty() {
                    let shift = self.stats.ticks as usize % candidates.len();
                    candidates.rotate_left(shift);
                }
                // §VII write-weight extension: dirtiness joins the
                // importance formula at *placement* time — when slots
                // upstairs are scarce, write-hot pages (whose lower-tier
                // stores are the most expensive accesses) get first claim.
                if self.cfg.write_weight > 1.0 {
                    candidates.sort_by_key(|f| {
                        std::cmp::Reverse(mem.frame(*f).flags().contains(mc_mem::PageFlags::DIRTY))
                    });
                }
                // The drained candidates are tracked but on no list until
                // each is retracked below; suspend invariant validation.
                self.in_flight += candidates.len();
                let drained = candidates.len();
                if drained > 0 {
                    mem.recorder_mut().emit(|| EventKind::PromoteDrain {
                        tier: tier.index() as u8,
                        drained: drained as u32,
                    });
                }
                let mut pending: Vec<FrameId> = Vec::with_capacity(batch.min(drained.max(1)));
                for frame in candidates {
                    // A candidate still serving a retry backoff is requeued
                    // at the tail untouched; its next attempt waits for
                    // `eligible_tick`.
                    if let Some(rs) = self.retry_state[frame.index()] {
                        if rs.eligible_tick > self.stats.ticks {
                            self.tiers[tier.index()]
                                .shard_mut(shard)
                                .set_mut(kind)
                                .promote
                                .push_back(frame);
                            self.in_flight -= 1;
                            continue;
                        }
                    }
                    // drain() detached the page; the state table still says
                    // Promote. Batch it up; a full batch flushes at once.
                    pending.push(frame);
                    if pending.len() >= batch {
                        promoted += self.promote_flush(
                            mem,
                            &mut pending,
                            tier,
                            upper,
                            kind,
                            &mut tried_reclaim,
                            demand,
                        );
                    }
                }
                promoted += self.promote_flush(
                    mem,
                    &mut pending,
                    tier,
                    upper,
                    kind,
                    &mut tried_reclaim,
                    demand,
                );
            }
        }
        self.debug_validate(mem);
        promoted
    }

    /// Settles every migration transaction opened by the previous run:
    /// clean copies commit (one atomic remap each — transition 13,
    /// exactly like a synchronous promotion landing), doomed or faulted
    /// copies abort and re-enter the retry/backoff path as if a
    /// synchronous attempt had failed with the same error. Returns the
    /// number of pages promoted.
    pub(crate) fn settle_txns(&mut self, mem: &mut MemorySystem) -> u64 {
        if self.txn_pending.is_empty() {
            return 0;
        }
        let keep_shadows = self.cfg.shadow_pages;
        let results = mem.resolve_migrations(keep_shadows);
        // Every pending frame is tracked but listless until its result
        // re-lists it below; suspend invariant validation meanwhile.
        self.in_flight += results.len();
        let mut promoted = 0;
        for (frame, result) in results {
            self.txn_pending.retain(|f| *f != frame);
            match result {
                Ok(new_frame) => {
                    // fig4: 13 — the commit lands active-referenced
                    // upstairs, same as a synchronous promotion.
                    let upper = mem.frame(new_frame).tier();
                    self.retrack_after_migration(mem, frame, new_frame, PageState::ActiveRef);
                    saturating_bump(&mut self.stats.promotions);
                    promoted += 1;
                    mem.recorder_mut().emit(|| EventKind::Fig4 {
                        edge: 13,
                        frame: new_frame.index() as u64,
                        tier: upper.index() as u8,
                    });
                }
                // A dirty-write abort surfaces as FrameLocked (the page
                // was "busy" during the window); a commit-time injected
                // fault surfaces as TierFull/FrameLocked. Both are
                // transient — same retry budget as the sync path.
                Err(MemError::TierFull(_) | MemError::FrameLocked(_)) => {
                    let tier = mem.frame(frame).tier();
                    let kind = mem.frame(frame).kind();
                    self.promote_retry_or_fallback(mem, frame, tier, kind);
                }
                Err(_) => {
                    let tier = mem.frame(frame).tier();
                    let kind = mem.frame(frame).kind();
                    self.promote_fallback(mem, frame, tier, kind);
                }
            }
            self.in_flight -= 1;
        }
        debug_assert!(
            self.txn_pending.is_empty(),
            "every opened transaction must settle (eager substrate aborts \
             purge txn_pending via untrack)"
        );
        self.debug_validate(mem);
        promoted
    }

    /// Flushes one batch of promote candidates through
    /// [`MemorySystem::migrate_batch`] and settles every page: successes
    /// are retracked upstairs (transition 13), transient failures requeue
    /// or fall back via the retry policy, permanent failures fall back to
    /// the active list. Returns the number promoted.
    ///
    /// In [`MigrationMode::Transactional`] this instead *opens* one
    /// transaction per candidate — no copy stall, no remap yet — and the
    /// batch settles at the start of the next run.
    #[allow(clippy::too_many_arguments)]
    fn promote_flush(
        &mut self,
        mem: &mut MemorySystem,
        pending: &mut Vec<FrameId>,
        tier: TierId,
        upper: TierId,
        kind: PageKind,
        tried_reclaim: &mut bool,
        demand: usize,
    ) -> u64 {
        if pending.is_empty() {
            return 0;
        }
        if self.cfg.migration_mode == MigrationMode::Transactional {
            return self.promote_flush_txn(mem, pending, tier, upper, kind, tried_reclaim, demand);
        }
        let mut promoted = 0;
        // Span over the batched migration call itself (items = batch
        // length); the per-page settle loop below is accounted to the
        // surrounding promote-drain span.
        let mut batch_span = self
            .cfg
            .perf
            .as_ref()
            .map(|p| p.span(mc_obs::Phase::MigrateBatch));
        if let Some(s) = batch_span.as_mut() {
            s.add_items(pending.len() as u64);
        }
        let results = mem.migrate_batch(pending, upper);
        drop(batch_span);
        for (frame, result) in pending.drain(..).zip(results) {
            match result {
                Ok(new_frame) => {
                    // fig4: 13 — promotion lands active-referenced.
                    self.retrack_after_migration(mem, frame, new_frame, PageState::ActiveRef);
                    saturating_bump(&mut self.stats.promotions);
                    promoted += 1;
                    mem.recorder_mut().emit(|| EventKind::Fig4 {
                        edge: 13,
                        frame: new_frame.index() as u64,
                        tier: upper.index() as u8,
                    });
                }
                Err(MemError::TierFull(_)) => {
                    // "If the higher-performing tier is also under
                    // memory pressure, promotions from the lower tier
                    // result in immediate page demotions from the
                    // higher tier." Room-making is *gentle* (only
                    // truly cold pages move down) and attempted once
                    // per run; when the upper tier is all-hot the
                    // remaining candidates fall back to the active
                    // list instead of displacing hot pages.
                    if !*tried_reclaim && !self.pressure_guard[upper.index()] {
                        *tried_reclaim = true;
                        self.run_pressure_toward(mem, upper, false, Some(demand));
                    }
                    match mem.migrate(frame, upper) {
                        Ok(new_frame) => {
                            self.retrack_after_migration(
                                mem,
                                frame,
                                new_frame,
                                PageState::ActiveRef,
                            );
                            saturating_bump(&mut self.stats.promotions);
                            promoted += 1;
                            mem.recorder_mut().emit(|| EventKind::Fig4 {
                                edge: 13,
                                frame: new_frame.index() as u64,
                                tier: upper.index() as u8,
                            });
                        }
                        // Still-full destination and transient locks
                        // are retryable; anything else is permanent.
                        Err(MemError::TierFull(_) | MemError::FrameLocked(_)) => {
                            self.promote_retry_or_fallback(mem, frame, tier, kind);
                        }
                        Err(_) => self.promote_fallback(mem, frame, tier, kind),
                    }
                }
                // A locked page may come unlocked (the kernel's
                // `-EAGAIN`): retryable within the episode's budget.
                Err(MemError::FrameLocked(_)) => {
                    self.promote_retry_or_fallback(mem, frame, tier, kind);
                }
                Err(_) => self.promote_fallback(mem, frame, tier, kind),
            }
            self.in_flight -= 1;
        }
        promoted
    }

    /// The transactional drain: opens a Nomad-style transaction per
    /// candidate instead of copying synchronously. Reservation failures
    /// (the destination is full) get the same one-round gentle reclaim
    /// and single retry the sync path uses; pages whose transaction
    /// opens move to `txn_pending` and stay mapped at the source — the
    /// application keeps running against the source frame for the whole
    /// copy window. Returns 0: promotions are counted at commit time.
    #[allow(clippy::too_many_arguments)]
    fn promote_flush_txn(
        &mut self,
        mem: &mut MemorySystem,
        pending: &mut Vec<FrameId>,
        tier: TierId,
        upper: TierId,
        kind: PageKind,
        tried_reclaim: &mut bool,
        demand: usize,
    ) -> u64 {
        for frame in pending.drain(..) {
            match mem.begin_migration(frame, upper) {
                Ok(()) => self.txn_pending.push(frame),
                Err(MemError::TierFull(_)) => {
                    // Same room-making as the sync path: one gentle
                    // reclaim round upstairs, then a single retry.
                    if !*tried_reclaim && !self.pressure_guard[upper.index()] {
                        *tried_reclaim = true;
                        self.run_pressure_toward(mem, upper, false, Some(demand));
                    }
                    match mem.begin_migration(frame, upper) {
                        Ok(()) => self.txn_pending.push(frame),
                        Err(MemError::TierFull(_) | MemError::FrameLocked(_)) => {
                            self.promote_retry_or_fallback(mem, frame, tier, kind);
                        }
                        Err(_) => self.promote_fallback(mem, frame, tier, kind),
                    }
                }
                Err(MemError::FrameLocked(_)) => {
                    self.promote_retry_or_fallback(mem, frame, tier, kind);
                }
                Err(_) => self.promote_fallback(mem, frame, tier, kind),
            }
            self.in_flight -= 1;
        }
        0
    }

    /// Books a failed-but-retryable migration attempt: while the episode's
    /// retry budget lasts, the page is requeued at the promote-list tail
    /// with an exponentially backed-off eligibility tick; once the budget
    /// is exhausted the daemon gives up and degrades to the active-list
    /// fallback. Either way the page is never dropped.
    fn promote_retry_or_fallback(
        &mut self,
        mem: &mut MemorySystem,
        frame: mc_mem::FrameId,
        tier: TierId,
        kind: PageKind,
    ) {
        let attempts = self.retry_state[frame.index()]
            .map_or(0, |r| r.attempts)
            .saturating_add(1);
        if self.cfg.retry.exhausted(attempts) {
            self.retry_state[frame.index()] = None;
            saturating_bump(&mut self.stats.promote_gave_ups);
            mem.recorder_mut().emit(|| EventKind::MigrateGaveUp {
                frame: frame.index() as u64,
                attempts,
            });
            self.promote_fallback(mem, frame, tier, kind);
            return;
        }
        let eligible_tick = self
            .stats
            .ticks
            .saturating_add(self.cfg.retry.backoff_ticks(attempts));
        self.retry_state[frame.index()] = Some(crate::multi_clock::RetryState {
            attempts,
            eligible_tick,
        });
        saturating_bump(&mut self.stats.promote_retries);
        // Tail requeue: fresh candidates drain first, and the page keeps
        // its Promote state (the episode is paused, not abandoned).
        self.shard_lists_mut(tier, frame)
            .set_mut(kind)
            .promote
            .push_back(frame);
        mem.recorder_mut().emit(|| EventKind::MigrateRetry {
            frame: frame.index() as u64,
            attempt: attempts,
            eligible_tick,
        });
    }

    /// The failed-promotion fallback: the page moves to its tier's active
    /// list.
    fn promote_fallback(
        &mut self,
        mem: &mut MemorySystem,
        frame: mc_mem::FrameId,
        tier: TierId,
        kind: PageKind,
    ) {
        self.retry_state[frame.index()] = None;
        saturating_bump(&mut self.stats.promote_fallbacks);
        // fig4: 11 — no room upstairs; rejoin active as referenced.
        self.shard_lists_mut(tier, frame)
            .set_mut(kind)
            .active
            .push_back(frame);
        self.states[frame.index()] = Some(PageState::ActiveRef);
        self.sync_flags(mem, frame, PageState::ActiveRef);
        mem.recorder_mut().emit(|| EventKind::Fig4 {
            edge: 11,
            frame: frame.index() as u64,
            tier: tier.index() as u8,
        });
    }

    /// The §VII adaptive-interval extension: back off exponentially while
    /// the workload is stable (no promotions), snap back to the
    /// configured interval the moment tiering work reappears. The goal is
    /// to save scan CPU in steady phases without giving up reaction time.
    fn adapt_interval(&mut self, activity: u64) {
        if !self.cfg.adaptive_interval {
            return;
        }
        if activity == 0 {
            self.idle_ticks += 1;
            if self.idle_ticks >= 8 {
                let doubled = Nanos::from_nanos(self.current_interval.as_nanos() * 2);
                self.current_interval = doubled.min(self.cfg.max_interval);
                self.idle_ticks = 0;
            }
        } else {
            self.idle_ticks = 0;
            self.current_interval = self.cfg.scan_interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiClockConfig;
    use mc_mem::{AccessKind, MemConfig, TieringPolicy, VPage};

    fn setup() -> (MemorySystem, MultiClock) {
        let mem = MemorySystem::new(MemConfig::two_tier(64, 256));
        let mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        (mem, mc)
    }

    /// Fault a page into a chosen tier and track it.
    fn map_in_tier(
        mem: &mut MemorySystem,
        mc: &mut MultiClock,
        v: u64,
        tier: TierId,
    ) -> mc_mem::FrameId {
        let f = mem
            .alloc_page_in_tier(mc_mem::PageKind::Anon, tier)
            .unwrap();
        mem.map(VPage::new(v), f).unwrap();
        mc.on_page_mapped(mem, f);
        f
    }

    #[test]
    fn unsupervised_hot_page_promotes_after_four_scans() {
        let (mut mem, mut mc) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        // Touch the page each interval (sets the PTE reference bit only).
        for scan in 1..=3u64 {
            mem.access(VPage::new(1), AccessKind::Read).unwrap();
            mc.tick(&mut mem, Nanos::from_secs(scan));
            assert_eq!(mem.frame(f).tier(), pm, "not yet promoted at scan {scan}");
        }
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        let out = mc.tick(&mut mem, Nanos::from_secs(4));
        assert_eq!(out.promoted, 1);
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP, "page now in DRAM");
        assert_eq!(mc.state_of(nf), Some(PageState::ActiveRef));
        assert!(mc.tier_lists(TierId::TOP).shard(0).anon.active.contains(nf));
        assert_eq!(mc.stats().promotions, 1);
    }

    #[test]
    fn cold_page_is_never_promoted() {
        let (mut mem, mut mc) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        for scan in 1..=10u64 {
            mc.tick(&mut mem, Nanos::from_secs(scan));
        }
        assert_eq!(mem.frame(f).tier(), pm);
        assert_eq!(mc.state_of(f), Some(PageState::InactiveUnref));
        assert_eq!(mc.stats().promotions, 0);
    }

    #[test]
    fn once_accessed_page_does_not_promote() {
        // The motivation (Fig. 2): pages accessed only once should not be
        // promotion candidates.
        let (mut mem, mut mc) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        for scan in 1..=10u64 {
            mc.tick(&mut mem, Nanos::from_secs(scan));
        }
        assert_eq!(mem.frame(f).tier(), pm);
        // One observation stepped the ladder once, and the decay of the
        // following unreferenced scans took it back down.
        assert_eq!(mc.state_of(f), Some(PageState::InactiveUnref));
        assert_eq!(mc.stats().ladder_decays, 1);
    }

    #[test]
    fn promote_list_ages_out_when_page_goes_cold_on_top_tier() {
        let (mut mem, mut mc) = setup();
        let f = map_in_tier(&mut mem, &mut mc, 1, TierId::TOP);
        for _ in 0..4 {
            mc.on_supervised_access(&mut mem, f, AccessKind::Read);
        }
        assert_eq!(mc.state_of(f), Some(PageState::Promote));
        // Top-tier promote pages cannot be promoted; an unreferenced scan
        // ages them back to active (transition 11).
        mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(mc.state_of(f), Some(PageState::ActiveUnref));
        assert_eq!(mc.stats().promote_ages, 1);
    }

    #[test]
    fn promote_list_page_still_hot_stays_until_promoted() {
        let (mut mem, mut mc) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        // Climb to ActiveRef via supervised accesses, then one more access
        // puts it on the promote list; the same tick must promote it.
        for _ in 0..4 {
            mc.on_supervised_access(&mut mem, f, AccessKind::Read);
        }
        assert_eq!(mc.state_of(f), Some(PageState::Promote));
        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 1);
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
    }

    #[test]
    fn locked_page_falls_back_to_active() {
        let (mut mem, mut mc) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        for _ in 0..4 {
            mc.on_supervised_access(&mut mem, f, AccessKind::Read);
        }
        mem.frame_flags_mut(f).insert(mc_mem::PageFlags::LOCKED);
        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 0);
        assert_eq!(mem.frame(f).tier(), pm, "locked page stays put");
        assert_eq!(mc.state_of(f), Some(PageState::ActiveRef));
        assert!(mc.tier_lists(pm).shard(0).anon.active.contains(f));
        assert_eq!(mc.stats().promote_fallbacks, 1);
    }

    /// Climbs a PM page to the promote list (4 supervised accesses).
    fn make_promotable(mem: &mut MemorySystem, mc: &mut MultiClock, f: mc_mem::FrameId) {
        for _ in 0..4 {
            mc.on_supervised_access(mem, f, AccessKind::Read);
        }
        assert_eq!(mc.state_of(f), Some(PageState::Promote));
    }

    fn setup_with_retry(retry: mc_fault::RetryPolicy) -> (MemorySystem, MultiClock) {
        let mem = MemorySystem::new(MemConfig::two_tier(64, 256));
        let cfg = MultiClockConfig {
            retry,
            ..Default::default()
        };
        let mc = MultiClock::new(cfg, mem.topology());
        (mem, mc)
    }

    #[test]
    fn promotion_resumes_within_one_period_after_tier_recovers() {
        use mc_fault::{FaultInjector, FaultPlan, RetryPolicy};
        let (mut mem, mut mc) = setup_with_retry(RetryPolicy {
            max_attempts: 10,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 1,
        });
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        mem.set_fault_injector(FaultInjector::new(FaultPlan::default(), 0));
        mem.fault_injector_mut().unwrap().set_tier_offline(0, true);

        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 0);
        assert_eq!(mc.stats().promote_retries, 1);
        assert_eq!(mc.state_of(f), Some(PageState::Promote), "episode paused");
        assert!(
            mc.tier_lists(pm).shard(0).anon.promote.contains(f),
            "requeued"
        );
        mc.assert_invariants(&mem);

        // Tier back online: the very next kpromoted run promotes it.
        mem.fault_injector_mut().unwrap().set_tier_offline(0, false);
        let out = mc.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(out.promoted, 1);
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
        assert_eq!(mc.stats().promote_gave_ups, 0);
        mc.assert_invariants(&mem);
    }

    #[test]
    fn retries_exhaust_into_gave_up_and_active_fallback() {
        use mc_fault::{FaultInjector, FaultPlan, RetryPolicy};
        let (mut mem, mut mc) = setup_with_retry(RetryPolicy {
            max_attempts: 2,
            backoff_base_ticks: 0,
            backoff_cap_ticks: 0,
        });
        mem.recorder_mut().enable(256);
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        mem.set_fault_injector(FaultInjector::new(FaultPlan::default(), 0));
        mem.fault_injector_mut().unwrap().set_tier_offline(0, true);

        // Attempt 1 fails -> retry; the page must keep being referenced so
        // the top-tier ageing scan does not intervene (it is on PM anyway).
        mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(mc.stats().promote_retries, 1);
        // Attempt 2 fails -> budget exhausted -> graceful degradation.
        mc.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(mc.stats().promote_gave_ups, 1);
        assert_eq!(mc.stats().promote_fallbacks, 1);
        assert_eq!(mc.state_of(f), Some(PageState::ActiveRef));
        assert!(mc.tier_lists(pm).shard(0).anon.active.contains(f));
        assert_eq!(mem.translate(VPage::new(1)), Some(f), "page never lost");
        mc.assert_invariants(&mem);

        let names: Vec<&str> = mem.recorder().events().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"migrate_retry"));
        assert!(names.contains(&"migrate_gave_up"));
    }

    #[test]
    fn backoff_defers_attempts_until_eligible_tick() {
        use mc_fault::{FaultInjector, FaultPlan, RetryPolicy};
        let (mut mem, mut mc) = setup_with_retry(RetryPolicy {
            max_attempts: 10,
            backoff_base_ticks: 2,
            backoff_cap_ticks: 8,
        });
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        mem.set_fault_injector(FaultInjector::new(FaultPlan::default(), 0));
        mem.fault_injector_mut().unwrap().set_tier_offline(0, true);

        // Tick 1: attempt 1 fails (the promote path tries the migration,
        // reclaims, and retries once, so one episode can reject more than
        // once); eligible again at tick 3.
        mc.tick(&mut mem, Nanos::from_secs(1));
        let after_first = mem.fault_injector().unwrap().stats().offline_rejections;
        assert!(after_first >= 1);
        assert_eq!(mc.stats().promote_retries, 1);
        // Tick 2: still backing off — no migration attempt at all.
        mc.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(
            mem.fault_injector().unwrap().stats().offline_rejections,
            after_first,
            "deferred candidate must not touch the memory system"
        );
        assert!(mc.tier_lists(pm).shard(0).anon.promote.contains(f));
        // Tick 3: eligible again — attempt 2 fires (and fails).
        mc.tick(&mut mem, Nanos::from_secs(3));
        assert!(mem.fault_injector().unwrap().stats().offline_rejections > after_first);
        assert_eq!(mc.stats().promote_retries, 2);
        mc.assert_invariants(&mem);
    }

    fn setup_transactional(retry: mc_fault::RetryPolicy) -> (MemorySystem, MultiClock) {
        let mem = MemorySystem::new(MemConfig::two_tier(64, 256));
        let cfg = MultiClockConfig {
            migration_mode: MigrationMode::Transactional,
            retry,
            ..Default::default()
        };
        let mc = MultiClock::new(cfg, mem.topology());
        (mem, mc)
    }

    #[test]
    fn transactional_promotion_commits_on_the_next_tick() {
        let (mut mem, mut mc) = setup_transactional(mc_fault::RetryPolicy::immediate());
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        // Tick 1 opens the transaction: no copy stall, the page still
        // mapped (and served) at the source for the whole window.
        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 0);
        assert_eq!(mc.txn_pending(), &[f]);
        assert_eq!(mem.translate(VPage::new(1)), Some(f), "still at source");
        assert_eq!(mc.stats().txn_begins, 1);
        mc.assert_invariants(&mem);
        // Tick 2 settles: the copy stayed clean, so it commits.
        let out = mc.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(out.promoted, 1);
        assert!(mc.txn_pending().is_empty());
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
        // The commit landed ActiveRef at the start of the tick; the same
        // tick's scan then saw it unreferenced and decayed it one step.
        assert_eq!(mc.state_of(nf), Some(PageState::ActiveUnref));
        assert_eq!(mc.stats().promotions, 1);
        assert_eq!(mc.stats().txn_commits, 1);
        // The clean source frame stayed behind as a shadow copy.
        assert_eq!(mem.shadow_pages().get(nf), Some(f));
        mc.assert_invariants(&mem);
    }

    #[test]
    fn dirty_write_during_copy_window_reenters_retry_path() {
        let (mut mem, mut mc) = setup_transactional(mc_fault::RetryPolicy::backoff());
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(mc.txn_pending(), &[f]);
        // A store hits the source mid-window: the copy is stale.
        mem.access(VPage::new(1), AccessKind::Write).unwrap();
        let out = mc.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(out.promoted, 0, "stale copy must not commit");
        assert_eq!(mc.stats().txn_aborts, 1);
        assert_eq!(mc.stats().promote_retries, 1, "abort re-enters retry path");
        assert_eq!(mc.state_of(f), Some(PageState::Promote), "episode paused");
        assert!(mc.tier_lists(pm).shard(0).anon.promote.contains(f));
        mc.assert_invariants(&mem);
        // Backoff elapses; the retry opens a fresh transaction and — with
        // no further writes — commits.
        mc.tick(&mut mem, Nanos::from_secs(3));
        let out = mc.tick(&mut mem, Nanos::from_secs(4));
        assert_eq!(out.promoted, 1);
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
        // The dirty write predates the retry's copy window, so the fresh
        // copy captured it: the source stays behind as a shadow and the
        // page's dirty bit resets against it.
        assert_eq!(mem.shadow_pages().get(nf), Some(f));
        assert!(!mem.frame(nf).flags().contains(mc_mem::PageFlags::DIRTY));
        mc.assert_invariants(&mem);
    }

    #[test]
    fn cold_clean_page_demotes_via_its_shadow() {
        let (mut mem, mut mc) = setup_transactional(mc_fault::RetryPolicy::immediate());
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        mc.tick(&mut mem, Nanos::from_secs(1));
        mc.tick(&mut mem, Nanos::from_secs(2));
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.shadow_pages().get(nf), Some(f));
        // Park the page cold on the inactive list (the slow route there
        // is several decay scans plus a rebalance; the landing state is
        // what matters to the demotion path), then fill DRAM so reclaim
        // has real pressure: the shadowed page is the oldest inactive
        // page, and its demotion must be a zero-copy flip back to the
        // retained frame.
        mc.transition(&mut mem, nf, PageState::InactiveUnref);
        let mut v = 100u64;
        while let Ok(extra) = mem.alloc_page_in_tier(mc_mem::PageKind::Anon, TierId::TOP) {
            mem.map(VPage::new(v), extra).unwrap();
            mc.on_page_mapped(&mut mem, extra);
            v += 1;
        }
        mc.on_pressure(&mut mem, TierId::TOP, Nanos::from_secs(9));
        assert_eq!(mem.stats().shadow_hits, 1);
        assert_eq!(
            mem.translate(VPage::new(1)),
            Some(f),
            "the page is back in its original frame without a copy"
        );
        assert_eq!(mc.state_of(f), Some(PageState::InactiveUnref));
        assert!(mem.shadow_pages().is_empty());
        mc.assert_invariants(&mem);
    }

    #[test]
    fn shadow_retention_can_be_disabled() {
        let mem = MemorySystem::new(MemConfig::two_tier(64, 256));
        let cfg = MultiClockConfig {
            migration_mode: MigrationMode::Transactional,
            shadow_pages: false,
            ..Default::default()
        };
        let mut mc = MultiClock::new(cfg, mem.topology());
        let mut mem = mem;
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        let pm_free = mem.tier_free(pm);
        make_promotable(&mut mem, &mut mc, f);
        mc.tick(&mut mem, Nanos::from_secs(1));
        mc.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(mc.stats().txn_commits, 1);
        assert!(mem.shadow_pages().is_empty());
        assert_eq!(mem.tier_free(pm), pm_free + 1, "source freed at commit");
        mc.assert_invariants(&mem);
    }

    #[test]
    fn scan_respects_batch_budget() {
        let mem = MemorySystem::new(MemConfig::two_tier(64, 2048));
        let cfg = MultiClockConfig {
            scan_batch: 16,
            ..Default::default()
        };
        let mut mc = MultiClock::new(cfg, mem.topology());
        let mut mem = mem;
        for v in 0..1000u64 {
            map_in_tier(&mut mem, &mut mc, v, TierId::new(1));
        }
        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        // Only the PM anon inactive list is populated: 16 pages scanned.
        assert_eq!(out.pages_scanned, 16);
    }

    #[test]
    fn scan_clears_exactly_the_bits_it_visits() {
        let mem = MemorySystem::new(MemConfig::two_tier(64, 256));
        let cfg = MultiClockConfig {
            scan_batch: 4,
            ..Default::default()
        };
        let mut mc = MultiClock::new(cfg, mem.topology());
        let mut mem = mem;
        let pm = TierId::new(1);
        let frames: Vec<_> = (0..8u64)
            .map(|v| map_in_tier(&mut mem, &mut mc, v, pm))
            .collect();
        for v in 0..8u64 {
            mem.access(VPage::new(v), AccessKind::Read).unwrap();
        }
        let referenced =
            |mem: &MemorySystem, v: u64| mem.page_table().get(VPage::new(v)).unwrap().referenced;
        // The budget covers the four oldest pages: their bits are
        // consumed, the four beyond it keep theirs.
        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.pages_scanned, 4);
        for (v, &f) in frames.iter().enumerate() {
            let scanned = v < 4;
            assert_eq!(referenced(&mem, v as u64), !scanned, "page {v}");
            let want = if scanned {
                PageState::InactiveRef
            } else {
                PageState::InactiveUnref
            };
            assert_eq!(mc.state_of(f), Some(want), "page {v}");
        }
        // The next tick reaches the rest of the list, where the bits set
        // before the first tick are still waiting.
        mc.tick(&mut mem, Nanos::from_secs(2));
        for (v, &f) in frames.iter().enumerate().skip(4) {
            assert!(!referenced(&mem, v as u64), "page {v}");
            assert_eq!(mc.state_of(f), Some(PageState::InactiveRef), "page {v}");
        }
    }

    #[test]
    fn adaptive_interval_backs_off_when_idle() {
        let mem = MemorySystem::new(MemConfig::two_tier(64, 256));
        let cfg = MultiClockConfig {
            adaptive_interval: true,
            ..Default::default()
        };
        let mut mc = MultiClock::new(cfg, mem.topology());
        let mut mem = mem;
        let base = mc.tick_interval().unwrap();
        for s in 1..=9u64 {
            mc.tick(&mut mem, Nanos::from_secs(s));
        }
        assert!(mc.tick_interval().unwrap() > base, "interval backed off");
        assert!(mc.tick_interval().unwrap() <= mc.config().max_interval);

        // Tracked-set churn alone moves no page between tiers, so the
        // interval stays backed off.
        let pm = TierId::new(1);
        let gone = map_in_tier(&mut mem, &mut mc, 1, pm);
        map_in_tier(&mut mem, &mut mc, 2, pm);
        mc.tick(&mut mem, Nanos::from_secs(10));
        mc.on_page_unmapped(&mut mem, gone);
        mem.free_page(gone).unwrap();
        mc.tick(&mut mem, Nanos::from_secs(11));
        assert!(
            mc.tick_interval().unwrap() > base,
            "churn keeps it backed off"
        );

        // One tick that promotes a hot PM page snaps it back.
        let hot = map_in_tier(&mut mem, &mut mc, 3, pm);
        make_promotable(&mut mem, &mut mc, hot);
        let out = mc.tick(&mut mem, Nanos::from_secs(12));
        assert_eq!(out.promoted, 1);
        assert_eq!(mc.tick_interval(), Some(base), "promotion resets it");
    }

    #[test]
    fn fixed_interval_never_changes() {
        let (mut mem, mut mc) = setup();
        for s in 1..=20u64 {
            mc.tick(&mut mem, Nanos::from_secs(s));
        }
        assert_eq!(mc.tick_interval(), Some(Nanos::from_secs(1)));
    }
}
