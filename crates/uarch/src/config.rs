//! Core configuration, with Table 1 (Xeon X5670) defaults.

use crate::branch::BranchModel;
use serde::Serialize;

/// The largest ROB one hardware thread may have: the core keeps a
/// thread's ROB slots in 256-bit sets and names a slot in 8 bits.
pub const MAX_ROB_PER_THREAD: usize = 256;

/// How an SMT core divides fetch slots between its hardware threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum SmtFetchPolicy {
    /// Alternate threads every cycle.
    #[default]
    RoundRobin,
    /// ICOUNT (Tullsen et al.): fetch for the thread with the fewest
    /// instructions in flight, starving stalled threads of fetch slots.
    Icount,
}

/// Static parameters of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CoreConfig {
    /// Issue and retire width (Table 1: "4-wide issue and retire").
    pub width: u32,
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Reorder buffer entries (Table 1: 128). Partitioned evenly across
    /// hardware threads when SMT is enabled, as on Nehalem/Westmere.
    pub rob_entries: usize,
    /// Load-queue entries (Table 1: 48).
    pub load_queue: usize,
    /// Store-queue entries (Table 1: 32).
    pub store_queue: usize,
    /// Reservation-station entries (Table 1: 36); bounds ops dispatched but
    /// not yet issued.
    pub reservation_stations: usize,
    /// Maximum simultaneously outstanding off-core requests (the paper's
    /// "up to 16 L2 cache misses in flight", §4.3).
    pub mshrs: u32,
    /// Hardware threads sharing the core (1, or 2 with SMT).
    pub smt_threads: usize,
    /// When set, instructions issue strictly in program order (the
    /// "excessively simple core" comparison point of §4.2).
    pub in_order: bool,
    /// Pipeline refill penalty of a mispredicted branch, in cycles.
    pub mispredict_penalty: u32,
    /// Per-thread fetch buffer capacity.
    pub fetch_buffer: usize,
    /// Memory operations issued per cycle (load/store ports).
    pub mem_ports: u32,
    /// Cycles of an off-core instruction-fetch stall hidden by the
    /// decoupled fetch/decode queues (frontend fetch-ahead).
    pub fetch_ahead_credit: u32,
    /// Branch prediction model (trace-annotated rates, or a real gshare).
    pub branch_model: BranchModel,
    /// SMT fetch policy.
    pub smt_fetch: SmtFetchPolicy,
    /// Per-thread basis of the fetch buffer and ROB partitioning.
    pub fp_ports: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            width: 4,
            fetch_width: 4,
            rob_entries: 128,
            load_queue: 48,
            store_queue: 32,
            reservation_stations: 36,
            mshrs: 16,
            smt_threads: 1,
            in_order: false,
            mispredict_penalty: 15,
            fetch_buffer: 16,
            mem_ports: 2,
            fetch_ahead_credit: 10,
            branch_model: BranchModel::Trace,
            smt_fetch: SmtFetchPolicy::RoundRobin,
            fp_ports: 1,
        }
    }
}

impl CoreConfig {
    /// The Table 1 baseline core.
    pub fn x5670() -> Self {
        Self::default()
    }

    /// The baseline core with SMT enabled (two hardware threads).
    pub fn x5670_smt() -> Self {
        Self { smt_threads: 2, ..Self::default() }
    }

    /// A modest 2-wide out-of-order core with a small window — the design
    /// point §4.2 argues scale-out workloads deserve ("two independent
    /// 2-way cores would consume fewer resources while achieving higher
    /// aggregate performance").
    pub fn narrow2() -> Self {
        Self {
            width: 2,
            fetch_width: 2,
            rob_entries: 48,
            load_queue: 24,
            store_queue: 16,
            reservation_stations: 18,
            mshrs: 10,
            ..Self::default()
        }
    }

    /// An in-order core (the niche-processor comparison point of §4.2).
    pub fn in_order2() -> Self {
        Self { width: 2, fetch_width: 2, in_order: true, ..Self::default() }
    }

    /// ROB capacity available to one hardware thread.
    pub fn rob_per_thread(&self) -> usize {
        self.rob_entries / self.smt_threads.max(1)
    }

    /// Validates structural parameters.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero width, no ROB, no
    /// threads, more than 2 threads) and on a per-thread ROB larger than
    /// [`MAX_ROB_PER_THREAD`].
    pub fn validate(&self) {
        assert!(self.width >= 1, "core width must be at least 1");
        assert!(self.fetch_width >= 1, "fetch width must be at least 1");
        assert!(self.rob_entries >= self.smt_threads, "ROB too small");
        assert!(
            self.rob_per_thread() <= MAX_ROB_PER_THREAD,
            "ROB of {} entries per thread exceeds the {MAX_ROB_PER_THREAD} a thread can hold",
            self.rob_per_thread()
        );
        assert!((1..=2).contains(&self.smt_threads), "1 or 2 hardware threads");
        assert!(self.load_queue >= 1 && self.store_queue >= 1, "LSQ too small");
        assert!(self.mshrs >= 1, "need at least one MSHR");
        assert!(self.mem_ports >= 1, "need at least one memory port");
        assert!(self.fetch_buffer >= self.fetch_width as usize, "fetch buffer too small");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = CoreConfig::x5670();
        assert_eq!(c.width, 4);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.load_queue, 48);
        assert_eq!(c.store_queue, 32);
        assert_eq!(c.reservation_stations, 36);
        c.validate();
    }

    #[test]
    fn smt_partitions_rob() {
        let c = CoreConfig::x5670_smt();
        assert_eq!(c.smt_threads, 2);
        assert_eq!(c.rob_per_thread(), 64);
        c.validate();
    }

    #[test]
    fn ablation_configs_validate() {
        CoreConfig::narrow2().validate();
        CoreConfig::in_order2().validate();
        assert!(CoreConfig::in_order2().in_order);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn rejects_zero_width() {
        CoreConfig { width: 0, ..CoreConfig::default() }.validate();
    }

    #[test]
    fn every_configured_window_validates() {
        CoreConfig::narrow2().validate();
        CoreConfig::x5670_smt().validate();
        for rob_entries in [48, 64, 128, 256] {
            CoreConfig { rob_entries, ..CoreConfig::default() }.validate();
        }
        CoreConfig { rob_entries: 512, ..CoreConfig::x5670_smt() }.validate();
    }

    #[test]
    #[should_panic(expected = "ROB of 257 entries per thread exceeds the 256")]
    fn rejects_a_rob_past_the_slot_range() {
        CoreConfig { rob_entries: 257, ..CoreConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "threads")]
    fn rejects_three_threads() {
        CoreConfig { smt_threads: 3, ..CoreConfig::default() }.validate();
    }
}
