//! HM-Keeper-style adaptive regions: the frame space partitioned into
//! contiguous, variable-size regions whose boundaries adapt to observed
//! hotness (hot regions split, cold regions merge), so the profile of
//! where accesses land is kept at the granularity of the *working set*
//! rather than the machine size.

//! # Model
//!
//! The frame space `[0, total_frames)` is divided into fixed **granules**
//! of `granule` frames (the minimum region size). A **region** is a run
//! of consecutive granules; the region list is always a partition of the
//! granule space: sorted, disjoint, gap-free. Per-granule arrays hold the
//! exact tracked-page count and the heat accumulated in the current
//! observation window, and every region carries the sum over its
//! granules — so splits can compute both children's aggregates *exactly*
//! (heat is conserved; the region proptest pins this).
//!
//! # Adaptation
//!
//! [`RegionMap::rebalance`] runs once per scan tick:
//!
//! 1. every region whose window heat reached `split_heat` (and that
//!    spans ≥ 2 granules) splits at its middle granule — hot working
//!    sets get finer regions;
//! 2. adjacent regions that both stayed under `merge_heat` merge, up to
//!    `max_granules` per region — cold space coarsens back;
//! 3. the window heat resets (only regions with non-zero heat walk
//!    their granules), starting the next observation window.
//!
//! Region boundaries influence only how often the scanner wakes
//! (`take_churn`, consumed by the churn-interval extension). They never
//! change which pages the scan observes or what values it reads — the
//! scan walks the CLOCK lists themselves. Any split/merge threshold
//! therefore produces bit-identical simulation results — the
//! tick-equivalence contract of DESIGN.md §17.

use crate::config::RegionKnobs;
use mc_mem::{FrameId, FrameRange};

/// One region: a run of `len_g` granules starting at granule `start_g`,
/// with exact aggregates over its granules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Region {
    start_g: u64,
    len_g: u64,
    /// Tracked pages inside the region (sum of per-granule counts).
    tracked: u64,
    /// Heat observed inside the region this window (sum over granules).
    heat: u64,
}

/// Lifetime counters for the adaptation machinery. Deliberately *not*
/// part of the policy's vmstat counters: those feed the per-tick obs CSV,
/// whose byte layout the differential tests pin across the scheduler
/// refactor. Exposed through `MultiClock::region_stats` instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Current number of regions.
    pub regions: usize,
    /// Regions split since construction.
    pub splits: u64,
    /// Region merges since construction.
    pub merges: u64,
    /// Tracked pages across all regions.
    pub tracked: u64,
    /// Frames covered by populated regions ([`RegionMap::scan_ranges`]
    /// extent): how tightly the partition fits the tracked set.
    pub populated_frames: u64,
    /// Heat accumulated in the current observation window, summed over
    /// all regions (equals the sum of per-page contributions — the
    /// region proptest pins this).
    pub window_heat: u64,
}

/// The adaptive region partition over one machine's frame space.
#[derive(Debug, Clone)]
pub struct RegionMap {
    granule: u64,
    total_frames: u64,
    /// Tracked-page count per granule.
    tracked_per_granule: Vec<u32>,
    /// Window heat per granule.
    heat_per_granule: Vec<u64>,
    /// The partition: sorted, disjoint, gap-free over the granule space.
    regions: Vec<Region>,
    knobs: RegionKnobs,
    /// Tracked-set mutations since the last [`Self::take_churn`].
    churn: u64,
    splits: u64,
    merges: u64,
}

impl RegionMap {
    /// Builds the initial partition: regions of `max_granules` granules
    /// (the coarsest layout — adaptation refines from here).
    pub fn new(total_frames: u64, knobs: RegionKnobs) -> Self {
        knobs.validate();
        let granule = knobs.granule as u64;
        let granule_count = total_frames.div_ceil(granule).max(1);
        let max_g = knobs.max_granules as u64;
        let mut regions = Vec::with_capacity(granule_count.div_ceil(max_g) as usize);
        let mut start_g = 0;
        while start_g < granule_count {
            let len_g = max_g.min(granule_count - start_g);
            regions.push(Region {
                start_g,
                len_g,
                tracked: 0,
                heat: 0,
            });
            start_g += len_g;
        }
        RegionMap {
            granule,
            total_frames,
            tracked_per_granule: vec![0; granule_count as usize],
            heat_per_granule: vec![0; granule_count as usize],
            regions,
            knobs,
            churn: 0,
            splits: 0,
            merges: 0,
        }
    }

    /// The granule a frame belongs to.
    fn granule_of(&self, frame: FrameId) -> u64 {
        frame.index() as u64 / self.granule
    }

    /// Index into `regions` of the region containing granule `g`.
    fn region_index_of(&self, g: u64) -> usize {
        match self.regions.binary_search_by(|r| r.start_g.cmp(&g)) {
            Ok(i) => i,
            // `g` is inside the predecessor (the partition is gap-free,
            // so index 0 starts at granule 0 and Err(0) cannot occur).
            Err(i) => i - 1,
        }
    }

    /// A page entered tracking inside `frame`'s granule.
    pub fn track(&mut self, frame: FrameId) {
        let g = self.granule_of(frame);
        // lint: allow(indexing) - g = frame/granule < ceil(total/granule), the array length
        self.tracked_per_granule[g as usize] += 1;
        let i = self.region_index_of(g);
        // lint: allow(indexing) - region_index_of returns an index into the gap-free partition
        self.regions[i].tracked += 1;
        self.churn = self.churn.saturating_add(1);
    }

    /// A page left tracking inside `frame`'s granule.
    pub fn untrack(&mut self, frame: FrameId) {
        let g = self.granule_of(frame);
        // lint: allow(indexing) - g = frame/granule < ceil(total/granule), the array length
        self.tracked_per_granule[g as usize] -= 1;
        let i = self.region_index_of(g);
        // lint: allow(indexing) - region_index_of returns an index into the gap-free partition
        self.regions[i].tracked -= 1;
        self.churn = self.churn.saturating_add(1);
    }

    /// Records observed accesses (harvested reference bits, supervised
    /// ladder steps) against `frame`'s granule for this window.
    pub fn record_heat(&mut self, frame: FrameId, amount: u64) {
        let g = self.granule_of(frame);
        // lint: allow(indexing) - g = frame/granule < ceil(total/granule), the array length
        self.heat_per_granule[g as usize] =
            // lint: allow(indexing) - same granule index as the line above
            self.heat_per_granule[g as usize].saturating_add(amount);
        let i = self.region_index_of(g);
        // lint: allow(indexing) - region_index_of returns an index into the gap-free partition
        self.regions[i].heat = self.regions[i].heat.saturating_add(amount);
    }

    /// Exact aggregates over a granule run, from the per-granule arrays.
    fn aggregate(&self, start_g: u64, len_g: u64) -> (u64, u64) {
        let s = start_g as usize;
        let e = (start_g + len_g) as usize;
        let tracked = self.tracked_per_granule[s..e]
            .iter()
            .map(|&t| u64::from(t))
            .sum();
        let heat = self.heat_per_granule[s..e].iter().sum();
        (tracked, heat)
    }

    /// One adaptation step: split hot regions, merge cold neighbours,
    /// reset the observation window. Cost is O(current regions) plus the
    /// granules of regions that were hot this window.
    pub fn rebalance(&mut self) {
        // Split pass: one halving per hot region per rebalance (the map
        // converges over successive ticks, like HM-Keeper's gradual
        // region refinement).
        let mut split = Vec::with_capacity(self.regions.len());
        for r in std::mem::take(&mut self.regions) {
            if r.heat >= self.knobs.split_heat && r.len_g >= 2 {
                let mid = r.len_g / 2;
                let (lt, lh) = self.aggregate(r.start_g, mid);
                split.push(Region {
                    start_g: r.start_g,
                    len_g: mid,
                    tracked: lt,
                    heat: lh,
                });
                // Heat and tracked counts are conserved across a split:
                // the right child takes exactly the remainder.
                split.push(Region {
                    start_g: r.start_g + mid,
                    len_g: r.len_g - mid,
                    tracked: r.tracked - lt,
                    heat: r.heat - lh,
                });
                self.splits += 1;
            } else {
                split.push(r);
            }
        }
        // Merge pass: greedily fold a cold region into a cold left
        // neighbour while the result stays within `max_granules`.
        let mut merged: Vec<Region> = Vec::with_capacity(split.len());
        for r in split {
            if let Some(last) = merged.last_mut() {
                if last.heat < self.knobs.merge_heat
                    && r.heat < self.knobs.merge_heat
                    && last.len_g + r.len_g <= self.knobs.max_granules as u64
                {
                    last.len_g += r.len_g;
                    last.tracked += r.tracked;
                    last.heat += r.heat;
                    self.merges += 1;
                    continue;
                }
            }
            merged.push(r);
        }
        self.regions = merged;
        // Window reset: only regions that saw heat walk their granules.
        for i in 0..self.regions.len() {
            // lint: allow(indexing) - i ranges over 0..regions.len()
            if self.regions[i].heat > 0 {
                // lint: allow(indexing) - i ranges over 0..regions.len()
                let s = self.regions[i].start_g as usize;
                // lint: allow(indexing) - i ranges over 0..regions.len(); the run indexes the granule array
                let e = s + self.regions[i].len_g as usize;
                self.heat_per_granule[s..e].fill(0);
                // lint: allow(indexing) - i ranges over 0..regions.len()
                self.regions[i].heat = 0;
            }
        }
    }

    /// The frame extents of populated regions (tracked > 0), adjacent
    /// extents coalesced. Every tracked page lies inside one.
    pub fn scan_ranges(&self) -> Vec<FrameRange> {
        let mut ranges: Vec<FrameRange> = Vec::new();
        for r in &self.regions {
            if r.tracked == 0 {
                continue;
            }
            let start = r.start_g * self.granule;
            let len = (r.len_g * self.granule).min(self.total_frames - start);
            match ranges.last_mut() {
                Some(prev) if prev.start + prev.len == start => prev.len += len,
                _ => ranges.push(FrameRange::new(start, len)),
            }
        }
        ranges
    }

    /// Tracked-set mutations since the last call, resetting the counter.
    /// Feeds the churn-interval extension: a quiet map lets the scanner
    /// back off, a churning one snaps it back.
    pub fn take_churn(&mut self) -> u64 {
        std::mem::take(&mut self.churn)
    }

    /// Current adaptation counters.
    pub fn stats(&self) -> RegionStats {
        RegionStats {
            regions: self.regions.len(),
            splits: self.splits,
            merges: self.merges,
            tracked: self.regions.iter().map(|r| r.tracked).sum(),
            populated_frames: self.scan_ranges().iter().map(|r| r.len).sum(),
            window_heat: self.regions.iter().map(|r| r.heat).sum(),
        }
    }

    /// Structural self-check: the regions must partition the granule
    /// space and every aggregate must equal the sum over its granules.
    /// Returns the first inconsistency found. O(total granules) — test
    /// and invariant-checker use only.
    pub fn check(&self) -> Result<(), String> {
        let granule_count = self.total_frames.div_ceil(self.granule).max(1);
        let mut next_g = 0;
        for (i, r) in self.regions.iter().enumerate() {
            if r.start_g != next_g {
                return Err(format!(
                    "region {i} starts at granule {} but {next_g} expected",
                    r.start_g
                ));
            }
            if r.len_g == 0 {
                return Err(format!("region {i} is empty"));
            }
            if r.len_g > self.knobs.max_granules as u64 {
                return Err(format!(
                    "region {i} spans {} granules, above the {} cap",
                    r.len_g, self.knobs.max_granules
                ));
            }
            let (tracked, heat) = self.aggregate(r.start_g, r.len_g);
            if tracked != r.tracked {
                return Err(format!(
                    "region {i} says {} tracked but granules sum to {tracked}",
                    r.tracked
                ));
            }
            if heat != r.heat {
                return Err(format!(
                    "region {i} says heat {} but granules sum to {heat}",
                    r.heat
                ));
            }
            next_g += r.len_g;
        }
        if next_g != granule_count {
            return Err(format!(
                "regions cover {next_g} granules but the space has {granule_count}"
            ));
        }
        Ok(())
    }

    /// Whether `frame` lies inside a populated region. Every tracked
    /// frame must satisfy this.
    pub fn covers_tracked(&self, frame: FrameId) -> bool {
        let g = self.granule_of(frame);
        // lint: allow(indexing) - region_index_of returns an index into the gap-free partition
        self.regions[self.region_index_of(g)].tracked > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(granule: usize, max_granules: usize) -> RegionKnobs {
        RegionKnobs {
            granule,
            max_granules,
            ..RegionKnobs::default()
        }
    }

    #[test]
    fn initial_partition_covers_the_space_in_max_size_regions() {
        let map = RegionMap::new(10_000, knobs(16, 32));
        map.check().unwrap();
        // ceil(10000/16) = 625 granules in ceil(625/32) = 20 regions.
        assert_eq!(map.stats().regions, 20);
        assert_eq!(map.scan_ranges(), vec![], "nothing tracked yet");
    }

    #[test]
    fn track_untrack_keeps_aggregates_exact() {
        let mut map = RegionMap::new(1024, knobs(4, 8));
        for i in [0u32, 1, 5, 900] {
            map.track(FrameId::new(i));
        }
        map.check().unwrap();
        assert_eq!(map.stats().tracked, 4);
        map.untrack(FrameId::new(5));
        map.check().unwrap();
        assert_eq!(map.stats().tracked, 3);
        assert_eq!(map.take_churn(), 5);
        assert_eq!(map.take_churn(), 0);
    }

    #[test]
    fn scan_ranges_cover_only_populated_regions_and_coalesce() {
        let mut map = RegionMap::new(1024, knobs(4, 8));
        // Regions are 32 frames (8 granules × 4). Populate regions 0, 1
        // (adjacent → coalesced) and 20.
        map.track(FrameId::new(3));
        map.track(FrameId::new(40));
        map.track(FrameId::new(650));
        let ranges = map.scan_ranges();
        assert_eq!(
            ranges,
            vec![FrameRange::new(0, 64), FrameRange::new(640, 32)]
        );
        for f in [3u32, 40, 650] {
            assert!(map.covers_tracked(FrameId::new(f)));
        }
    }

    #[test]
    fn hot_regions_split_and_heat_is_conserved() {
        let mut knobs = knobs(4, 8);
        knobs.split_heat = 10;
        knobs.merge_heat = 0; // merges off: isolate the split behaviour
        let mut map = RegionMap::new(256, knobs);
        assert_eq!(map.stats().regions, 8); // 64 granules in 8-granule caps
        map.track(FrameId::new(2));
        for _ in 0..10 {
            map.record_heat(FrameId::new(2), 1);
        }
        map.rebalance();
        map.check().unwrap();
        let s = map.stats();
        assert_eq!(s.splits, 1);
        assert_eq!(s.regions, 9, "the hot region split in two, the rest stayed");
        // The tracked page sits in the left child; only its extent is
        // scanned now (4 granules × 4 frames).
        assert_eq!(map.scan_ranges(), vec![FrameRange::new(0, 16)]);
    }

    #[test]
    fn cold_regions_merge_back_to_the_cap() {
        let mut knobs = knobs(4, 8);
        knobs.split_heat = 4;
        knobs.merge_heat = 2;
        let mut map = RegionMap::new(256, knobs);
        map.track(FrameId::new(0));
        for _ in 0..4 {
            map.record_heat(FrameId::new(0), 1);
        }
        map.rebalance(); // splits the first region
        assert_eq!(map.stats().regions, 9);
        // No heat this window: everything cold, the split halves fold
        // back into one cap-size region.
        map.rebalance();
        map.check().unwrap();
        let s = map.stats();
        assert!(s.merges >= 1);
        assert_eq!(s.regions, 8, "back to the eight cap-size regions");
    }

    #[test]
    fn repeated_splits_converge_to_single_granule_regions() {
        let mut knobs = knobs(4, 64);
        knobs.split_heat = 1;
        knobs.merge_heat = 0; // merges off: let the splits accumulate
        let mut map = RegionMap::new(64, knobs);
        map.track(FrameId::new(9));
        for _ in 0..8 {
            map.record_heat(FrameId::new(9), 1);
            map.rebalance();
            map.check().unwrap();
        }
        // Granule 2 (frames 8..12) can never split further.
        let populated: Vec<_> = map.scan_ranges();
        assert_eq!(populated, vec![FrameRange::new(8, 4)]);
    }

    #[test]
    fn single_page_granule_supports_the_tick_equivalent_config() {
        let mut map = RegionMap::new(64, knobs(1, 64));
        map.track(FrameId::new(7));
        map.check().unwrap();
        assert_eq!(map.scan_ranges(), vec![FrameRange::new(0, 64)]);
    }

    #[test]
    fn stats_report_populated_extent() {
        let mut map = RegionMap::new(1024, knobs(4, 8));
        map.track(FrameId::new(100));
        assert_eq!(map.stats().populated_frames, 32);
    }
}
