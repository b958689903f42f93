//! TLB hierarchy model.
//!
//! The paper's §3.1 memory-cycle formula explicitly includes "second-level
//! TLB miss cycles and the first-level instruction TLB miss cycles", so the
//! TLBs are modeled as first-class citizens: per-core L1 instruction and
//! data TLBs backed by a unified second-level TLB, with fixed penalties for
//! an STLB hit and a full page walk.

use crate::cache::{Cache, LineMeta};
use crate::config::TlbConfig;

/// Which level satisfied a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// First-level TLB hit (no penalty).
    L1,
    /// First-level miss, second-level hit.
    Stlb,
    /// Full page walk.
    Walk,
}

/// Per-core TLB hierarchy (L1-I TLB, L1-D TLB, shared STLB).
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    itlb: Cache,
    dtlb: Cache,
    stlb: Cache,
    cfg: TlbConfig,
}

impl TlbHierarchy {
    /// Builds the hierarchy described by `cfg` (fully-associative levels
    /// are approximated as 4-way).
    pub fn new(cfg: TlbConfig) -> Self {
        let mk = |entries: usize| Cache::new((entries / 4).max(1), 4);
        Self {
            itlb: mk(cfg.itlb_entries),
            dtlb: mk(cfg.dtlb_entries),
            stlb: mk(cfg.stlb_entries),
            cfg,
        }
    }

    fn translate(first: &mut Cache, stlb: &mut Cache, page: u64) -> (TlbOutcome, usize) {
        if let Some((way, _)) = first.lookup(page) {
            return (TlbOutcome::L1, way);
        }
        let outcome = if stlb.lookup(page).is_some() {
            TlbOutcome::Stlb
        } else {
            stlb.fill(page, LineMeta::clean());
            TlbOutcome::Walk
        };
        let (way, _) = first.fill(page, LineMeta::clean());
        (outcome, way)
    }

    /// Translates an instruction-fetch page. Returns the outcome and the
    /// instruction-TLB way the page now sits at, where it hit or where it
    /// was filled.
    pub fn translate_instr(&mut self, page: u64) -> (TlbOutcome, usize) {
        Self::translate(&mut self.itlb, &mut self.stlb, page)
    }

    /// Translates a data page. Returns the outcome and the data-TLB way
    /// the page now sits at, where it hit or where it was filled.
    pub fn translate_data(&mut self, page: u64) -> (TlbOutcome, usize) {
        Self::translate(&mut self.dtlb, &mut self.stlb, page)
    }

    /// Whether `way` of the data TLB currently holds `page` (no LRU
    /// touch); O(1) revalidation of a memoized way index.
    #[inline]
    pub fn dtlb_way_holds(&self, way: usize, page: u64) -> bool {
        self.dtlb.way_holds(way, page).is_some()
    }

    /// Whether `way` of the instruction TLB currently holds `page` (no
    /// LRU touch); O(1) revalidation of a memoized way index.
    #[inline]
    pub fn itlb_way_holds(&self, way: usize, page: u64) -> bool {
        self.itlb.way_holds(way, page).is_some()
    }

    /// Re-stamps a data-TLB way as most-recently used, exactly as a
    /// [`TlbHierarchy::translate_data`] hit on its resident page would.
    #[inline]
    pub fn touch_dtlb(&mut self, way: usize) {
        self.dtlb.touch_way(way);
    }

    /// Re-stamps an instruction-TLB way as most-recently used, exactly as
    /// a [`TlbHierarchy::translate_instr`] hit on its resident page would.
    #[inline]
    pub fn touch_itlb(&mut self, way: usize) {
        self.itlb.touch_way(way);
    }

    /// Cycle penalty of an outcome under this configuration.
    pub fn penalty(&self, outcome: TlbOutcome) -> u32 {
        match outcome {
            TlbOutcome::L1 => 0,
            TlbOutcome::Stlb => self.cfg.stlb_hit_penalty,
            TlbOutcome::Walk => self.cfg.walk_penalty,
        }
    }

    /// Serializes all three TLB levels into `e`.
    pub fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        self.itlb.encode_snap(e);
        self.dtlb.encode_snap(e);
        self.stlb.encode_snap(e);
    }

    /// Restores state written by [`TlbHierarchy::encode_snap`]; the
    /// hierarchy must have been built from the same configuration.
    pub fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
    ) -> Result<(), cs_trace::snap::SnapError> {
        self.itlb.restore_snap(d)?;
        self.dtlb.restore_snap(d)?;
        self.stlb.restore_snap(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> TlbHierarchy {
        TlbHierarchy::new(TlbConfig::default())
    }

    #[test]
    fn first_access_walks_then_hits() {
        let mut t = tlb();
        assert_eq!(t.translate_data(42).0, TlbOutcome::Walk);
        assert_eq!(t.translate_data(42).0, TlbOutcome::L1);
    }

    #[test]
    fn stlb_backs_first_level_evictions() {
        let mut t = tlb();
        // Fill far beyond DTLB capacity (64) but within STLB (512).
        for page in 0..256u64 {
            t.translate_data(page);
        }
        // Page 0 fell out of the DTLB but should still be in the STLB.
        let outcome = t.translate_data(0).0;
        assert_ne!(outcome, TlbOutcome::L1);
        // Some early page must still be STLB-resident.
        let stlb_hits = (0..256u64)
            .filter(|&p| matches!(tlb_probe(&mut t, p), TlbOutcome::Stlb))
            .count();
        assert!(stlb_hits > 0);
    }

    fn tlb_probe(t: &mut TlbHierarchy, page: u64) -> TlbOutcome {
        t.translate_data(page).0
    }

    #[test]
    fn instruction_and_data_tlbs_are_separate() {
        let mut t = tlb();
        assert_eq!(t.translate_instr(7).0, TlbOutcome::Walk);
        // Data side misses its own L1 TLB but hits the shared STLB.
        assert_eq!(t.translate_data(7).0, TlbOutcome::Stlb);
    }

    #[test]
    fn penalties_follow_config() {
        let cfg = TlbConfig::default();
        let t = TlbHierarchy::new(cfg);
        assert_eq!(t.penalty(TlbOutcome::L1), 0);
        assert_eq!(t.penalty(TlbOutcome::Stlb), cfg.stlb_hit_penalty);
        assert_eq!(t.penalty(TlbOutcome::Walk), cfg.walk_penalty);
    }

    #[test]
    fn huge_page_set_thrashes_everything() {
        let mut t = tlb();
        for page in 0..100_000u64 {
            t.translate_data(page);
        }
        // A random old page walks again.
        assert_eq!(t.translate_data(3).0, TlbOutcome::Walk);
    }
}
