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

/// Accesses and hits at one cache level, split by [`AccessClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LevelStats {
    /// Demand accesses per class.
    pub accesses: [u64; 4],
    /// Demand hits per class.
    pub hits: [u64; 4],
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

    /// Adds every counter of `other` into `self` (per-window aggregation).
    pub fn merge_from(&mut self, other: &LevelStats) {
        for i in 0..4 {
            self.accesses[i] += other.accesses[i];
            self.hits[i] += other.hits[i];
        }
    }

    /// Writes both counter arrays in a fixed order.
    pub fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        for &v in &self.accesses {
            e.u64(v);
        }
        for &v in &self.hits {
            e.u64(v);
        }
    }

    /// Inverse of [`LevelStats::encode_snap`].
    pub fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
    ) -> Result<(), cs_trace::snap::SnapError> {
        for v in &mut self.accesses {
            *v = d.u64()?;
        }
        for v in &mut self.hits {
            *v = d.u64()?;
        }
        Ok(())
    }
}

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

impl PrefetchStats {
    /// Adds every counter of `other` into `self`.
    pub fn merge_from(&mut self, other: &PrefetchStats) {
        self.issued_adjacent += other.issued_adjacent;
        self.issued_stride += other.issued_stride;
        self.issued_dcu += other.issued_dcu;
        self.issued_instr += other.issued_instr;
        self.useful_l1d += other.useful_l1d;
        self.useful_l2 += other.useful_l2;
        self.useful_l1i += other.useful_l1i;
    }
}

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

impl TlbStats {
    /// Adds every counter of `other` into `self`.
    pub fn merge_from(&mut self, other: &TlbStats) {
        self.itlb_misses += other.itlb_misses;
        self.dtlb_misses += other.dtlb_misses;
        self.stlb_misses += other.stlb_misses;
        self.itlb_miss_cycles += other.itlb_miss_cycles;
        self.stlb_miss_cycles += other.stlb_miss_cycles;
    }
}

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

    /// Adds every counter of `other` into `self`.
    ///
    /// Used by the sampling driver to fold per-window memory statistics
    /// into the campaign-level accumulator.
    pub fn merge_from(&mut self, other: &CoreMemStats) {
        self.l1i.merge_from(&other.l1i);
        self.l1d.merge_from(&other.l1d);
        self.l2.merge_from(&other.l2);
        self.llc.merge_from(&other.llc);
        self.rw_shared[0] += other.rw_shared[0];
        self.rw_shared[1] += other.rw_shared[1];
        self.upgrades += other.upgrades;
        self.dram_bytes[0] += other.dram_bytes[0];
        self.dram_bytes[1] += other.dram_bytes[1];
        self.prefetch.merge_from(&other.prefetch);
        self.tlb.merge_from(&other.tlb);
    }

    /// Writes every counter in a fixed order (shared with the
    /// [`crate::MemorySystem`] snapshot codec).
    pub fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        self.l1i.encode_snap(e);
        self.l1d.encode_snap(e);
        self.l2.encode_snap(e);
        self.llc.encode_snap(e);
        e.u64(self.rw_shared[0]);
        e.u64(self.rw_shared[1]);
        e.u64(self.upgrades);
        e.u64(self.dram_bytes[0]);
        e.u64(self.dram_bytes[1]);
        e.u64(self.prefetch.issued_adjacent);
        e.u64(self.prefetch.issued_stride);
        e.u64(self.prefetch.issued_dcu);
        e.u64(self.prefetch.issued_instr);
        e.u64(self.prefetch.useful_l1d);
        e.u64(self.prefetch.useful_l2);
        e.u64(self.prefetch.useful_l1i);
        e.u64(self.tlb.itlb_misses);
        e.u64(self.tlb.dtlb_misses);
        e.u64(self.tlb.stlb_misses);
        e.u64(self.tlb.itlb_miss_cycles);
        e.u64(self.tlb.stlb_miss_cycles);
    }

    /// Inverse of [`CoreMemStats::encode_snap`].
    pub fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
    ) -> Result<(), cs_trace::snap::SnapError> {
        self.l1i.restore_snap(d)?;
        self.l1d.restore_snap(d)?;
        self.l2.restore_snap(d)?;
        self.llc.restore_snap(d)?;
        self.rw_shared[0] = d.u64()?;
        self.rw_shared[1] = d.u64()?;
        self.upgrades = d.u64()?;
        self.dram_bytes[0] = d.u64()?;
        self.dram_bytes[1] = d.u64()?;
        self.prefetch.issued_adjacent = d.u64()?;
        self.prefetch.issued_stride = d.u64()?;
        self.prefetch.issued_dcu = d.u64()?;
        self.prefetch.issued_instr = d.u64()?;
        self.prefetch.useful_l1d = d.u64()?;
        self.prefetch.useful_l2 = d.u64()?;
        self.prefetch.useful_l1i = d.u64()?;
        self.tlb.itlb_misses = d.u64()?;
        self.tlb.dtlb_misses = d.u64()?;
        self.tlb.stlb_misses = d.u64()?;
        self.tlb.itlb_miss_cycles = d.u64()?;
        self.tlb.stlb_miss_cycles = d.u64()?;
        Ok(())
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
        let mut back = CoreMemStats::default();
        back.restore_snap(&mut d).expect("restore");
        assert_eq!(back, b);
    }
}
