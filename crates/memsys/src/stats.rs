//! Memory-system statistics.
//!
//! Hot-path counters are plain struct fields, grouped per core and per
//! level, and classified along the two axes every figure in the paper
//! splits on: instruction vs. data, and application vs. operating system.

use crate::dram::DramStats;
use cs_trace::Privilege;
use serde::Serialize;

/// Classification of a memory access for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AccessClass {
    /// Instruction fetch, application code.
    InstrUser = 0,
    /// Instruction fetch, kernel code.
    InstrKernel = 1,
    /// Data access, application.
    DataUser = 2,
    /// Data access, kernel.
    DataKernel = 3,
}

impl AccessClass {
    /// Builds the class from the access axes.
    #[inline]
    pub fn new(is_instr: bool, privilege: Privilege) -> Self {
        match (is_instr, privilege.is_kernel()) {
            (true, false) => AccessClass::InstrUser,
            (true, true) => AccessClass::InstrKernel,
            (false, false) => AccessClass::DataUser,
            (false, true) => AccessClass::DataKernel,
        }
    }

    /// Index for stat arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Whether this is an instruction class.
    pub fn is_instr(self) -> bool {
        matches!(self, AccessClass::InstrUser | AccessClass::InstrKernel)
    }

    /// All four classes.
    pub fn all() -> [AccessClass; 4] {
        [
            AccessClass::InstrUser,
            AccessClass::InstrKernel,
            AccessClass::DataUser,
            AccessClass::DataKernel,
        ]
    }
}

cs_trace::snap_struct! {
    merge;
    /// Accesses and hits at one cache level, split by [`AccessClass`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
    pub struct LevelStats {
        /// Demand accesses per class.
        pub accesses: [u64; 4],
        /// Demand hits per class.
        pub hits: [u64; 4],
    }
}

impl LevelStats {
    /// Records an access and whether it hit.
    #[inline]
    pub fn record(&mut self, class: AccessClass, hit: bool) {
        self.accesses[class.idx()] += 1;
        if hit {
            self.hits[class.idx()] += 1;
        }
    }

    /// Misses per class.
    pub fn misses(&self, class: AccessClass) -> u64 {
        self.accesses[class.idx()] - self.hits[class.idx()]
    }

    /// Total accesses over all classes.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Total hits over all classes.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Overall hit ratio (0 when never accessed).
    pub fn hit_ratio(&self) -> f64 {
        cs_perf::ratio(self.total_hits(), self.total_accesses())
    }

    /// Instruction misses (user + kernel).
    pub fn instr_misses(&self) -> (u64, u64) {
        (self.misses(AccessClass::InstrUser), self.misses(AccessClass::InstrKernel))
    }
}

cs_trace::snap_struct! {
    merge;
    /// Prefetcher activity for one core.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
    pub struct PrefetchStats {
        /// Prefetches issued by the adjacent-line prefetcher.
        pub issued_adjacent: u64,
        /// Prefetches issued by the L2 HW stride prefetcher.
        pub issued_stride: u64,
        /// Prefetches issued by the DCU streamer.
        pub issued_dcu: u64,
        /// Prefetches issued by the L1-I next-line prefetcher.
        pub issued_instr: u64,
        /// Demand hits on prefetched lines, at the L1-D.
        pub useful_l1d: u64,
        /// Demand hits on prefetched lines, at the L2.
        pub useful_l2: u64,
        /// Demand hits on prefetched lines, at the L1-I.
        pub useful_l1i: u64,
    }
}

cs_trace::snap_struct! {
    merge;
    /// TLB activity for one core.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
    pub struct TlbStats {
        /// ITLB first-level misses.
        pub itlb_misses: u64,
        /// DTLB first-level misses.
        pub dtlb_misses: u64,
        /// Second-level TLB misses (page walks).
        pub stlb_misses: u64,
        /// Cycles of ITLB-miss stall (enters the §3.1 memory-cycle formula).
        pub itlb_miss_cycles: u64,
        /// Cycles of second-level TLB miss stall (ditto).
        pub stlb_miss_cycles: u64,
    }
}

cs_trace::snap_struct! {
    merge;
    /// All memory-system statistics attributed to one core.
    #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
    pub struct CoreMemStats {
        /// L1 instruction cache.
        pub l1i: LevelStats,
        /// L1 data cache.
        pub l1d: LevelStats,
        /// Private L2.
        pub l2: LevelStats,
        /// Shared LLC (accesses by this core).
        pub llc: LevelStats,
        /// LLC *data* references that hit a block most recently written by
        /// another core, split user/kernel (Figure 6 numerator).
        pub rw_shared: [u64; 2],
        /// Ownership upgrades (RFOs for lines already present clean).
        pub upgrades: u64,
        /// Bytes this core moved to/from DRAM (demand fills, prefetch fills and
        /// writebacks it caused), split user/kernel (Figure 7 numerator).
        pub dram_bytes: [u64; 2],
        /// Prefetcher activity.
        pub prefetch: PrefetchStats,
        /// TLB activity.
        pub tlb: TlbStats,
    }
}

impl CoreMemStats {
    /// LLC data references (Figure 6 denominator).
    pub fn llc_data_refs(&self) -> u64 {
        self.llc.accesses[AccessClass::DataUser.idx()]
            + self.llc.accesses[AccessClass::DataKernel.idx()]
    }

    /// Total read-write shared LLC hits.
    pub fn rw_shared_total(&self) -> u64 {
        self.rw_shared[0] + self.rw_shared[1]
    }

    /// Total DRAM bytes attributed to this core.
    pub fn dram_bytes_total(&self) -> u64 {
        self.dram_bytes[0] + self.dram_bytes[1]
    }
}

/// Statistics for the whole memory system.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct MemStats {
    /// Per-core statistics (indexed by global core id).
    pub per_core: Vec<CoreMemStats>,
    /// DRAM subsystem totals.
    pub dram: DramStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_trace::snap::{Codec, Merge};

    #[test]
    fn class_axes() {
        assert_eq!(AccessClass::new(true, Privilege::User), AccessClass::InstrUser);
        assert_eq!(AccessClass::new(false, Privilege::Kernel), AccessClass::DataKernel);
        assert!(AccessClass::InstrKernel.is_instr());
        assert!(!AccessClass::DataUser.is_instr());
    }

    #[test]
    fn level_stats_record_and_derive() {
        let mut s = LevelStats::default();
        s.record(AccessClass::DataUser, true);
        s.record(AccessClass::DataUser, false);
        s.record(AccessClass::InstrKernel, false);
        assert_eq!(s.total_accesses(), 3);
        assert_eq!(s.total_hits(), 1);
        assert_eq!(s.misses(AccessClass::DataUser), 1);
        assert_eq!(s.instr_misses(), (0, 1));
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn core_stats_aggregates() {
        let mut s = CoreMemStats::default();
        s.llc.record(AccessClass::DataUser, true);
        s.llc.record(AccessClass::DataKernel, true);
        s.llc.record(AccessClass::InstrUser, true);
        s.rw_shared[0] = 2;
        s.dram_bytes = [100, 50];
        assert_eq!(s.llc_data_refs(), 2);
        assert_eq!(s.rw_shared_total(), 2);
        assert_eq!(s.dram_bytes_total(), 150);
    }

    #[test]
    fn merge_sums_every_counter_and_codec_roundtrips() {
        let mut a = CoreMemStats::default();
        a.l1d.record(AccessClass::DataUser, true);
        a.l1d.record(AccessClass::DataKernel, false);
        a.llc.record(AccessClass::InstrUser, true);
        a.rw_shared = [3, 1];
        a.upgrades = 2;
        a.dram_bytes = [640, 128];
        a.prefetch.issued_stride = 5;
        a.prefetch.useful_l2 = 4;
        a.tlb.dtlb_misses = 9;
        a.tlb.stlb_miss_cycles = 77;
        let mut b = a.clone();
        b.merge_from(&a);
        assert_eq!(b.l1d.total_accesses(), 2 * a.l1d.total_accesses());
        assert_eq!(b.l1d.total_hits(), 2 * a.l1d.total_hits());
        assert_eq!(b.llc.accesses[AccessClass::InstrUser.idx()], 2);
        assert_eq!(b.rw_shared, [6, 2]);
        assert_eq!(b.upgrades, 4);
        assert_eq!(b.dram_bytes_total(), 2 * 768);
        assert_eq!(b.prefetch.issued_stride, 10);
        assert_eq!(b.prefetch.useful_l2, 8);
        assert_eq!(b.tlb.dtlb_misses, 18);
        assert_eq!(b.tlb.stlb_miss_cycles, 154);

        let mut e = cs_trace::snap::Enc::new();
        b.encode_snap(&mut e);
        let mut d = cs_trace::snap::Dec::new(&e.buf);
        let back = CoreMemStats::decode_snap(&mut d).expect("decode");
        d.finish().expect("no trailing bytes");
        assert_eq!(back, b);
    }
}
