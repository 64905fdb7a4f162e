//! Structural invariant validation for [`MultiClock`].
//!
//! The kernel invariants the paper's data structures rely on, checkable
//! at any quiescent point (used heavily by the property-based tests, and
//! available to downstream users as a debugging aid):
//!
//! 1. every tracked frame is on **exactly one** list;
//! 2. list membership agrees with the page-state table
//!    ([`PageState::list`]);
//! 3. a page is listed under the tier and kind its frame reports;
//! 4. untracked frames are on no list;
//! 5. the page flags mirror the state (`ACTIVE`/`PROMOTE`/`REFERENCED`/
//!    `UNEVICTABLE`);
//! 6. retry bookkeeping (a paused promotion episode) exists only for
//!    pages in `Promote` state;
//! 7. a frame listed in shard `s` belongs to shard `s` under the static
//!    frame→shard assignment (sharded scanning never strands a page on a
//!    foreign shard);
//! 8. transactional-migration bookkeeping is sound: a frame is the
//!    source of **at most one** open transaction, every pending source
//!    is tracked in `Promote` state (listless by design — the copy
//!    window spans the tick boundary), transaction destination frames
//!    are allocated but unmapped reservations, shadow copies exist only
//!    for clean mapped pages with the retained frame one or more tiers
//!    below, and stored retry bookkeeping never exceeds the
//!    [`mc_fault::RetryPolicy`] budget.
//!
//! Validation runs only at quiescent points (tick end, post-promote).

use crate::lists::WhichList;
use crate::multi_clock::MultiClock;
use crate::state::PageState;
use mc_mem::{FrameId, MemorySystem, PageFlags, PageKind, TierId};
use std::collections::HashSet;
use std::fmt;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The frame at fault.
    pub frame: FrameId,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.frame, self.message)
    }
}

impl MultiClock {
    /// Checks every structural invariant; returns all violations (empty
    /// means the structure is consistent).
    pub fn check_invariants(&self, mem: &MemorySystem) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        let mut seen: HashSet<u32> = HashSet::new();
        let tier_count = mem.topology().tier_count();

        for t in 0..tier_count {
            let tier = TierId::new(t as u8);
            for (shard_idx, lists) in self.tier_lists(tier).shards().enumerate() {
                self.check_shard(mem, tier, shard_idx, lists, &mut seen, &mut violations);
            }
        }

        for raw in 0..mem.total_frames() as u32 {
            let frame = FrameId::new(raw);
            if self.state_of(frame).is_some()
                && !seen.contains(&raw)
                && !self.txn_pending.contains(&frame)
            {
                violations.push(InvariantViolation {
                    frame,
                    message: "tracked but on no list".into(),
                });
            }
            // 6. retry bookkeeping only exists for paused promotion
            //    episodes, which by definition sit in Promote state.
            if self.retry_state[frame.index()].is_some()
                && self.state_of(frame) != Some(PageState::Promote)
            {
                violations.push(InvariantViolation {
                    frame,
                    message: "has retry bookkeeping but is not in Promote state".into(),
                });
            }
            // 8 (retry-boundedness). A stored episode is a *paused* one:
            //    its attempt count must still leave budget, or the give-up
            //    path failed to fire.
            if let Some(rs) = self.retry_state[frame.index()] {
                if self.cfg.retry.exhausted(rs.attempts) {
                    violations.push(InvariantViolation {
                        frame,
                        message: format!(
                            "retry bookkeeping holds {} attempts but the policy \
                             exhausts at {}",
                            rs.attempts, self.cfg.retry.max_attempts
                        ),
                    });
                }
            }
        }
        self.check_txn_bookkeeping(mem, &mut violations);
        violations
    }

    /// Invariant 8: cross-checks the policy's pending-transaction list
    /// against the substrate's open transactions and shadow table.
    fn check_txn_bookkeeping(&self, mem: &MemorySystem, violations: &mut Vec<InvariantViolation>) {
        let mut pending_seen: HashSet<u32> = HashSet::new();
        for frame in &self.txn_pending {
            if !pending_seen.insert(frame.raw()) {
                violations.push(InvariantViolation {
                    frame: *frame,
                    message: "appears twice in the pending-transaction list".into(),
                });
            }
            if self.state_of(*frame) != Some(PageState::Promote) {
                violations.push(InvariantViolation {
                    frame: *frame,
                    message: "pending transaction source is not in Promote state".into(),
                });
            }
            if !mem.migration_txns().iter().any(|t| t.frame == *frame) {
                violations.push(InvariantViolation {
                    frame: *frame,
                    message: "pending in the policy but the substrate has no transaction".into(),
                });
            }
        }
        let mut src_seen: HashSet<u32> = HashSet::new();
        for txn in mem.migration_txns() {
            if !src_seen.insert(txn.frame.raw()) {
                violations.push(InvariantViolation {
                    frame: txn.frame,
                    message: "frame is the source of more than one open transaction".into(),
                });
            }
            let dst = mem.frame(txn.dst_frame);
            if dst.state() != mc_mem::FrameState::Allocated || dst.vpage().is_some() {
                violations.push(InvariantViolation {
                    frame: txn.dst_frame,
                    message: "transaction destination is not an unmapped reservation".into(),
                });
            }
        }
        for (key, copy) in mem.shadow_pages().iter() {
            let live = mem.frame(key);
            if live.state() != mc_mem::FrameState::Allocated
                || live.vpage().is_none()
                || live.flags().contains(mc_mem::PageFlags::DIRTY)
            {
                violations.push(InvariantViolation {
                    frame: key,
                    message: "shadowed page is not a clean mapped page".into(),
                });
            }
            let retained = mem.frame(copy);
            if retained.state() != mc_mem::FrameState::Allocated
                || retained.vpage().is_some()
                || retained.tier() <= live.tier()
            {
                violations.push(InvariantViolation {
                    frame: copy,
                    message: "shadow copy is not an unmapped lower-tier retention".into(),
                });
            }
        }
    }

    /// Checks invariants 1–5 and 7 for one shard's lists, accumulating
    /// into `seen`/`violations`.
    fn check_shard(
        &self,
        mem: &MemorySystem,
        tier: TierId,
        shard_idx: usize,
        lists: &crate::lists::TierLists,
        seen: &mut HashSet<u32>,
        violations: &mut Vec<InvariantViolation>,
    ) {
        {
            for kind in PageKind::ALL {
                let set = lists.set(kind);
                for (which, list) in [
                    (WhichList::Inactive, &set.inactive),
                    (WhichList::Active, &set.active),
                    (WhichList::Promote, &set.promote),
                ] {
                    for frame in list.iter() {
                        if !seen.insert(frame.raw()) {
                            violations.push(InvariantViolation {
                                frame,
                                message: "appears on more than one list".into(),
                            });
                            continue;
                        }
                        match self.state_of(frame) {
                            None => violations.push(InvariantViolation {
                                frame,
                                message: format!("on the {which} list but untracked"),
                            }),
                            Some(st) if st.list() != which => violations.push(InvariantViolation {
                                frame,
                                message: format!("state {st} but on the {which} list"),
                            }),
                            Some(st) => {
                                let flags = mem.frame(frame).flags();
                                let want_active = st.is_active();
                                let want_promote = st == PageState::Promote;
                                if flags.contains(PageFlags::ACTIVE) != want_active
                                    || flags.contains(PageFlags::PROMOTE) != want_promote
                                    || flags.contains(PageFlags::REFERENCED) != st.is_referenced()
                                {
                                    violations.push(InvariantViolation {
                                        frame,
                                        message: format!(
                                            "flags {flags:?} disagree with state {st}"
                                        ),
                                    });
                                }
                            }
                        }
                        if mem.frame(frame).tier() != tier {
                            violations.push(InvariantViolation {
                                frame,
                                message: format!(
                                    "listed under {tier} but physically in {}",
                                    mem.frame(frame).tier()
                                ),
                            });
                        }
                        if mem.frame(frame).kind() != kind {
                            violations.push(InvariantViolation {
                                frame,
                                message: "listed under the wrong page kind".into(),
                            });
                        }
                        // 7. static frame→shard assignment is respected.
                        if self.shard_of(frame) != shard_idx {
                            violations.push(InvariantViolation {
                                frame,
                                message: format!(
                                    "listed in shard {shard_idx} but assigned to shard {}",
                                    self.shard_of(frame)
                                ),
                            });
                        }
                    }
                }
            }
            for frame in lists.unevictable.iter() {
                if !seen.insert(frame.raw()) {
                    violations.push(InvariantViolation {
                        frame,
                        message: "appears on more than one list".into(),
                    });
                }
                if self.state_of(frame) != Some(PageState::Unevictable) {
                    violations.push(InvariantViolation {
                        frame,
                        message: "on the unevictable list without Unevictable state".into(),
                    });
                }
                if self.shard_of(frame) != shard_idx {
                    violations.push(InvariantViolation {
                        frame,
                        message: format!(
                            "listed in shard {shard_idx} but assigned to shard {}",
                            self.shard_of(frame)
                        ),
                    });
                }
            }
        }
    }

    /// Debug-build self-check, wired after every scan, migrate and
    /// reclaim step: asserts the full invariant set via `debug_assert!`,
    /// so release builds compile it out entirely (the check is O(frames)
    /// and would dominate the simulation).
    #[inline]
    pub(crate) fn debug_validate(&self, mem: &MemorySystem) {
        // Nested steps (a promotion making room downstairs, a demotion
        // cascading) run while the outer step holds legitimately detached
        // in-flight pages, so validate only at quiescent points: when no
        // pressure run is active anywhere and nothing is mid-migration.
        if self.in_flight > 0 || self.pressure_guard.iter().any(|g| *g) {
            return;
        }
        debug_assert!(
            self.check_invariants(mem).is_empty(),
            "MULTI-CLOCK invariant violations:\n{}",
            self.check_invariants(mem)
                .iter()
                .map(|x| format!("  {x}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Panics with a readable report if any invariant is violated.
    ///
    /// # Panics
    ///
    /// Panics when [`Self::check_invariants`] finds anything.
    pub fn assert_invariants(&self, mem: &MemorySystem) {
        let v = self.check_invariants(mem);
        assert!(
            v.is_empty(),
            "MULTI-CLOCK invariant violations:\n{}",
            v.iter()
                .map(|x| format!("  {x}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiClockConfig;
    use mc_mem::{AccessKind, MemConfig, Nanos, TieringPolicy, VPage};

    #[test]
    fn fresh_policy_is_consistent() {
        let mem = MemorySystem::new(MemConfig::two_tier(32, 64));
        let mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        assert!(mc.check_invariants(&mem).is_empty());
    }

    #[test]
    fn consistent_after_activity() {
        let mut mem = MemorySystem::new(MemConfig::two_tier(32, 128));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page(mc_mem::PageKind::Anon) {
            mem.map(VPage::new(v), f).unwrap();
            mc.on_page_mapped(&mut mem, f);
            v += 1;
        }
        for s in 1..=5u64 {
            for touched in 0..v / 2 {
                mem.access(VPage::new(touched), AccessKind::Read).unwrap();
            }
            mc.tick(&mut mem, Nanos::from_secs(s));
            mc.assert_invariants(&mem);
        }
    }

    #[test]
    fn violation_is_detected() {
        let mut mem = MemorySystem::new(MemConfig::two_tier(32, 64));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let f = mem.alloc_page(mc_mem::PageKind::Anon).unwrap();
        mem.map(VPage::new(1), f).unwrap();
        mc.on_page_mapped(&mut mem, f);
        // Corrupt the flag mirror.
        mem.frame_flags_mut(f).insert(PageFlags::PROMOTE);
        let violations = mc.check_invariants(&mem);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("disagree"));
        assert!(!format!("{}", violations[0]).is_empty());
    }
}
