//! Core-level statistics and the §3.1 attribution methodology.
//!
//! The paper classifies every cycle as *Committing* (at least one
//! instruction retired) or *Stalled*, attributes each to application or OS
//! execution, and overlays a *Memory cycles* bar computed from super-queue
//! occupancy plus frontend components. This module holds exactly those
//! counters, per core.

use cs_perf::Histogram;
use serde::Serialize;

/// Counters for one core (aggregated over its hardware threads).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed, indexed `[user, kernel]`.
    pub committed: [u64; 2],
    /// Cycles in which ≥1 instruction committed, attributed to the
    /// privilege of the first retiring instruction, `[user, kernel]`.
    pub committing_cycles: [u64; 2],
    /// Cycles in which nothing committed, attributed to the privilege of
    /// the oldest in-flight (or being-fetched) instruction, `[user,
    /// kernel]`.
    pub stalled_cycles: [u64; 2],
    /// Cycles with at least one off-core demand *data* request (load or
    /// store RFO) outstanding — the super-queue occupancy component of the
    /// paper's memory cycles.
    pub offcore_outstanding_cycles: u64,
    /// Cycles the paper's Figure 1 classifies as memory cycles: an
    /// off-core data request outstanding, or the frontend stalled on the
    /// memory system (L1-I miss service beyond the L1, instruction TLB
    /// misses). Computed per cycle, so it never exceeds `cycles` — the
    /// non-overlap property §3.1 requires.
    pub memory_cycles: u64,
    /// Extra instruction-fetch stall cycles spent on L1-I misses that hit
    /// in the L2 (an explicit component of the §3.1 memory-cycle formula).
    pub l2_ifetch_stall_cycles: u64,
    /// Histogram of outstanding off-core demand *loads* per cycle; its
    /// nonzero mean is the paper's MLP metric.
    pub offcore_load_occupancy: Histogram,
    /// Branches executed.
    pub branches: u64,
    /// Mispredicted branches executed.
    pub mispredicts: u64,
    /// Sum of ROB occupancy over cycles (for average occupancy).
    pub rob_occupancy_sum: u64,
    /// Instructions committed per hardware thread.
    pub per_thread_committed: Vec<u64>,
}

impl CoreStats {
    /// Creates zeroed statistics for a core with `threads` hardware
    /// threads and `mshrs` outstanding-miss capacity.
    pub fn new(threads: usize, mshrs: u32) -> Self {
        Self {
            cycles: 0,
            committed: [0; 2],
            committing_cycles: [0; 2],
            stalled_cycles: [0; 2],
            offcore_outstanding_cycles: 0,
            memory_cycles: 0,
            l2_ifetch_stall_cycles: 0,
            offcore_load_occupancy: Histogram::new(mshrs as usize + 1),
            branches: 0,
            mispredicts: 0,
            rob_occupancy_sum: 0,
            per_thread_committed: vec![0; threads],
        }
    }

    /// Total instructions committed.
    pub fn instructions(&self) -> u64 {
        self.committed[0] + self.committed[1]
    }

    /// Total IPC over the window.
    pub fn ipc(&self) -> f64 {
        cs_perf::ratio(self.instructions(), self.cycles)
    }

    /// Application (user-mode) IPC — the paper's Figure 3 metric.
    pub fn app_ipc(&self) -> f64 {
        cs_perf::ratio(self.committed[0], self.cycles)
    }

    /// MLP: average outstanding off-core loads over cycles with at least
    /// one outstanding (the paper's §3.1 MLP methodology).
    pub fn mlp(&self) -> f64 {
        self.offcore_load_occupancy.mean_nonzero()
    }

    /// Fraction of cycles stalled (user + kernel).
    pub fn stall_fraction(&self) -> f64 {
        cs_perf::ratio(self.stalled_cycles[0] + self.stalled_cycles[1], self.cycles)
    }

    /// Fraction of cycles classified as memory cycles (Figure 1's
    /// overlapped bar).
    pub fn memory_fraction(&self) -> f64 {
        cs_perf::ratio(self.memory_cycles, self.cycles)
    }

    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        cs_perf::ratio(self.mispredicts, self.branches)
    }

    /// Average ROB occupancy.
    pub fn avg_rob_occupancy(&self) -> f64 {
        cs_perf::ratio(self.rob_occupancy_sum, self.cycles)
    }

    /// Bulk-accounts a span of `span` certified-idle cycles, producing the
    /// exact counter deltas the per-cycle path (`commit` stall attribution
    /// plus `per_cycle_stats`) would have produced had each cycle been
    /// stepped individually. Used by the chip's event-driven fast path to
    /// jump over dead cycles with byte-identical statistics.
    ///
    /// All inputs are frozen core state for the whole span (that is what
    /// *certified idle* means): `rob_total` ROB entries across threads,
    /// `outstanding_loads` off-core demand loads, `data_outstanding` when
    /// a demand load or store RFO is in flight, `mem_stall_cycles` cycles
    /// of the span spent under a frontend memory stall (already clamped to
    /// the span by the caller), and `stall_priv` the `[user, kernel]`
    /// index of the stall attribution — `None` for a threadless core,
    /// whose cycles are never classified.
    #[allow(clippy::too_many_arguments)]
    pub fn record_idle_span(
        &mut self,
        span: u64,
        rob_total: u64,
        outstanding_loads: u64,
        data_outstanding: bool,
        mem_stall_cycles: u64,
        stall_priv: Option<usize>,
    ) {
        self.cycles += span;
        self.rob_occupancy_sum += rob_total * span;
        self.offcore_load_occupancy.record_n(outstanding_loads, span);
        if data_outstanding {
            self.offcore_outstanding_cycles += span;
            self.memory_cycles += span;
        } else {
            self.memory_cycles += mem_stall_cycles;
        }
        if let Some(idx) = stall_priv {
            self.stalled_cycles[idx] += span;
        }
    }

    /// Adds every counter of `other` into `self` — used by the sampling
    /// harness to merge per-window statistics into run totals. Both sides
    /// must come from the same core configuration (same thread count and
    /// MSHR capacity).
    ///
    /// # Panics
    ///
    /// Panics if the per-thread vectors or occupancy-histogram capacities
    /// differ — merging windows measured on differently-shaped cores is a
    /// harness bug.
    pub fn absorb(&mut self, other: &CoreStats) {
        assert_eq!(
            self.per_thread_committed.len(),
            other.per_thread_committed.len(),
            "thread-count mismatch in stats merge"
        );
        self.cycles += other.cycles;
        for i in 0..2 {
            self.committed[i] += other.committed[i];
            self.committing_cycles[i] += other.committing_cycles[i];
            self.stalled_cycles[i] += other.stalled_cycles[i];
        }
        self.offcore_outstanding_cycles += other.offcore_outstanding_cycles;
        self.memory_cycles += other.memory_cycles;
        self.l2_ifetch_stall_cycles += other.l2_ifetch_stall_cycles;
        self.offcore_load_occupancy.merge_from(&other.offcore_load_occupancy);
        self.branches += other.branches;
        self.mispredicts += other.mispredicts;
        self.rob_occupancy_sum += other.rob_occupancy_sum;
        for (a, b) in self.per_thread_committed.iter_mut().zip(&other.per_thread_committed) {
            *a += *b;
        }
    }

    /// Serializes every counter — including the full occupancy histogram —
    /// into `e` for checkpointing.
    pub fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        e.u64(self.cycles);
        for v in self.committed.iter().chain(&self.committing_cycles).chain(&self.stalled_cycles) {
            e.u64(*v);
        }
        e.u64(self.offcore_outstanding_cycles);
        e.u64(self.memory_cycles);
        e.u64(self.l2_ifetch_stall_cycles);
        let cap = self.offcore_load_occupancy.capacity();
        e.len(cap);
        for i in 0..cap {
            e.u64(self.offcore_load_occupancy.count_at(i as u64));
        }
        e.u64(self.offcore_load_occupancy.overflow());
        e.u64(self.branches);
        e.u64(self.mispredicts);
        e.u64(self.rob_occupancy_sum);
        e.len(self.per_thread_committed.len());
        for v in &self.per_thread_committed {
            e.u64(*v);
        }
    }

    /// Rebuilds counters from [`CoreStats::encode_snap`] bytes.
    pub fn decode_snap(
        d: &mut cs_trace::snap::Dec<'_>,
    ) -> Result<Self, cs_trace::snap::SnapError> {
        let read2 = |d: &mut cs_trace::snap::Dec<'_>| -> Result<[u64; 2], _> {
            Ok([d.u64()?, d.u64()?])
        };
        let cycles = d.u64()?;
        let committed = read2(d)?;
        let committing_cycles = read2(d)?;
        let stalled_cycles = read2(d)?;
        let offcore_outstanding_cycles = d.u64()?;
        let memory_cycles = d.u64()?;
        let l2_ifetch_stall_cycles = d.u64()?;
        let cap = d.len()?;
        if cap == 0 {
            return Err(cs_trace::snap::SnapError::Mismatch("empty histogram".into()));
        }
        let mut offcore_load_occupancy = Histogram::new(cap);
        for i in 0..cap {
            offcore_load_occupancy.record_n(i as u64, d.u64()?);
        }
        // Out-of-range values land in the overflow bucket by construction.
        offcore_load_occupancy.record_n(cap as u64, d.u64()?);
        let branches = d.u64()?;
        let mispredicts = d.u64()?;
        let rob_occupancy_sum = d.u64()?;
        let n_threads = d.len()?;
        let mut per_thread_committed = Vec::with_capacity(n_threads);
        for _ in 0..n_threads {
            per_thread_committed.push(d.u64()?);
        }
        Ok(Self {
            cycles,
            committed,
            committing_cycles,
            stalled_cycles,
            offcore_outstanding_cycles,
            memory_cycles,
            l2_ifetch_stall_cycles,
            offcore_load_occupancy,
            branches,
            mispredicts,
            rob_occupancy_sum,
            per_thread_committed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_classes_partition_time() {
        let mut s = CoreStats::new(1, 16);
        s.cycles = 10;
        s.committing_cycles = [4, 2];
        s.stalled_cycles = [3, 1];
        let total: u64 = s.committing_cycles.iter().chain(s.stalled_cycles.iter()).sum();
        assert_eq!(total, s.cycles);
        assert!((s.stall_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ipc_metrics() {
        let mut s = CoreStats::new(1, 16);
        s.cycles = 100;
        s.committed = [80, 20];
        assert!((s.ipc() - 1.0).abs() < 1e-12);
        assert!((s.app_ipc() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn mlp_uses_nonzero_mean() {
        let mut s = CoreStats::new(1, 16);
        s.offcore_load_occupancy.record_n(0, 90);
        s.offcore_load_occupancy.record_n(2, 5);
        s.offcore_load_occupancy.record_n(4, 5);
        assert_eq!(s.mlp(), 3.0);
    }

    #[test]
    fn snapshot_roundtrips_every_counter() {
        let mut s = CoreStats::new(2, 4);
        s.cycles = 1000;
        s.committed = [800, 150];
        s.committing_cycles = [500, 100];
        s.stalled_cycles = [350, 50];
        s.offcore_outstanding_cycles = 77;
        s.memory_cycles = 123;
        s.l2_ifetch_stall_cycles = 9;
        s.offcore_load_occupancy.record_n(0, 900);
        s.offcore_load_occupancy.record_n(3, 60);
        s.offcore_load_occupancy.record_n(99, 40); // overflow
        s.branches = 33;
        s.mispredicts = 4;
        s.rob_occupancy_sum = 42_000;
        s.per_thread_committed = vec![700, 250];
        let mut e = cs_trace::snap::Enc::new();
        s.encode_snap(&mut e);
        let mut d = cs_trace::snap::Dec::new(&e.buf);
        let back = CoreStats::decode_snap(&mut d).expect("decode");
        d.finish().expect("no trailing bytes");
        assert_eq!(back, s);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let mut a = CoreStats::new(2, 4);
        a.cycles = 10;
        a.committed = [6, 1];
        a.committing_cycles = [5, 1];
        a.stalled_cycles = [3, 1];
        a.memory_cycles = 4;
        a.offcore_load_occupancy.record_n(1, 3);
        a.branches = 2;
        a.per_thread_committed = vec![4, 3];
        let mut b = CoreStats::new(2, 4);
        b.cycles = 20;
        b.committed = [10, 3];
        b.committing_cycles = [8, 2];
        b.stalled_cycles = [9, 1];
        b.memory_cycles = 7;
        b.offcore_load_occupancy.record_n(1, 5);
        b.offcore_load_occupancy.record_n(99, 2);
        b.branches = 4;
        b.mispredicts = 1;
        b.per_thread_committed = vec![9, 4];
        a.absorb(&b);
        assert_eq!(a.cycles, 30);
        assert_eq!(a.committed, [16, 4]);
        assert_eq!(a.instructions(), 20);
        assert_eq!(a.committing_cycles, [13, 3]);
        assert_eq!(a.stalled_cycles, [12, 2]);
        assert_eq!(a.memory_cycles, 11);
        assert_eq!(a.offcore_load_occupancy.count_at(1), 8);
        assert_eq!(a.offcore_load_occupancy.overflow(), 2);
        assert_eq!(a.branches, 6);
        assert_eq!(a.per_thread_committed, vec![13, 7]);
        // The partition invariant survives the merge.
        let classified: u64 =
            a.committing_cycles.iter().chain(a.stalled_cycles.iter()).sum();
        assert_eq!(classified, a.cycles);
    }

    #[test]
    #[should_panic(expected = "thread-count mismatch")]
    fn absorb_rejects_shape_mismatch() {
        let mut a = CoreStats::new(1, 4);
        a.absorb(&CoreStats::new(2, 4));
    }

    #[test]
    fn empty_stats_are_all_zero() {
        let s = CoreStats::new(1, 8);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mlp(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.avg_rob_occupancy(), 0.0);
    }
}
