//! Deterministic fault injection for the memory system.
//!
//! Production measurement infrastructure has to prove that its failure
//! paths — watchdogs, truncation reporting, retries — actually fire. A
//! [`FaultPlan`] describes a seeded, reproducible perturbation of the
//! memory system: extra latency added to a configurable fraction of DRAM
//! reads, and a configurable fraction of prefetch issues silently dropped.
//! Because the perturbation stream is a pure function of the seed, a
//! faulty run is exactly as replayable as a healthy one, so tests can
//! assert on the precise failure a plan provokes — and future studies can
//! measure metric stability under controlled perturbation.

use cs_trace::snap::Codec;
use serde::Serialize;

/// A seeded perturbation of the memory system.
///
/// Rates are probabilities in `[0, 1]` evaluated independently per event
/// from a dedicated xorshift stream, so the same plan perturbs the same
/// run identically every time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Extra cycles added to a perturbed DRAM read.
    pub dram_extra_latency: u32,
    /// Fraction of DRAM reads that receive the extra latency.
    pub dram_perturb_rate: f64,
    /// Fraction of prefetch issues that are dropped before touching any
    /// cache state.
    pub prefetch_drop_rate: f64,
    /// Seed of the perturbation stream (independent of the workload seed).
    pub seed: u64,
}

impl FaultPlan {
    /// A mild plan: jitters `rate` of DRAM reads by `extra` cycles.
    pub fn dram_jitter(extra: u32, rate: f64, seed: u64) -> Self {
        Self { dram_extra_latency: extra, dram_perturb_rate: rate, prefetch_drop_rate: 0.0, seed }
    }

    /// A lethal plan: every DRAM read takes effectively forever, which
    /// livelocks any workload that leaves the chip. Used to prove that
    /// the harness watchdog cuts a sick run short.
    pub fn stall(seed: u64) -> Self {
        Self {
            dram_extra_latency: 2_000_000_000,
            dram_perturb_rate: 1.0,
            prefetch_drop_rate: 0.0,
            seed,
        }
    }

    /// Drops `rate` of prefetch issues.
    pub fn prefetch_drops(rate: f64, seed: u64) -> Self {
        Self { dram_extra_latency: 0, dram_perturb_rate: 0.0, prefetch_drop_rate: rate, seed }
    }
}

cs_trace::snap_struct! {
    /// Counts of faults actually injected, for tests and reports.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
    pub struct FaultCounters {
        /// DRAM reads that received extra latency.
        pub perturbed_dram_reads: u64,
        /// Prefetch issues that were dropped.
        pub dropped_prefetches: u64,
    }
}

/// Runtime state of an active plan: the plan plus its random stream.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: u64,
    counters: FaultCounters,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        // splitmix-style scramble so seed 0 still produces a live stream.
        let rng = plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Self { plan, rng, counters: FaultCounters::default() }
    }

    /// Uniform draw in [0, 1) from a dedicated xorshift64 stream.
    fn roll(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Extra latency for this DRAM read (0 when unperturbed).
    pub(crate) fn perturb_dram(&mut self) -> u32 {
        if self.plan.dram_perturb_rate > 0.0 && self.roll() < self.plan.dram_perturb_rate {
            self.counters.perturbed_dram_reads += 1;
            self.plan.dram_extra_latency
        } else {
            0
        }
    }

    /// Whether this prefetch issue is dropped.
    pub(crate) fn drop_prefetch(&mut self) -> bool {
        if self.plan.prefetch_drop_rate > 0.0 && self.roll() < self.plan.prefetch_drop_rate {
            self.counters.dropped_prefetches += 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Serializes the perturbation cursor (RNG word) and injected-fault
    /// counters into `e`; the plan itself is configuration.
    pub(crate) fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        e.u64(self.rng);
        self.counters.encode_snap(e);
    }

    /// Restores the cursor written by [`FaultState::encode_snap`].
    pub(crate) fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
    ) -> Result<(), cs_trace::snap::SnapError> {
        self.rng = d.u64()?;
        self.counters = FaultCounters::decode_snap(d)?;
        Ok(())
    }

    /// Earliest cycle at which the fault plan would act on its own —
    /// `u64::MAX`, always: perturbations are *event-indexed* (one RNG draw
    /// per DRAM read or prefetch issue, inside the access that triggers
    /// them), never scheduled at a wall-clock cycle. Cycle skipping is
    /// therefore transparent to the fault stream: the same accesses draw
    /// the same rolls in the same order whether dead cycles are stepped
    /// or jumped. A future *time-scheduled* fault (e.g. "stall channel 2
    /// at cycle N") must report N here.
    pub(crate) fn next_event_cycle(&self) -> u64 {
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_respected_roughly() {
        let mut s = FaultState::new(FaultPlan::dram_jitter(100, 0.25, 7));
        let hits = (0..10_000).filter(|_| s.perturb_dram() > 0).count();
        assert!((1_800..3_200).contains(&hits), "25% rate drew {hits}/10000");
        assert_eq!(s.counters().perturbed_dram_reads, hits as u64);
    }

    #[test]
    fn zero_rate_never_fires_and_one_always_fires() {
        let mut quiet = FaultState::new(FaultPlan::dram_jitter(100, 0.0, 3));
        assert!((0..1000).all(|_| quiet.perturb_dram() == 0));
        let mut loud = FaultState::new(FaultPlan::stall(3));
        assert!((0..1000).all(|_| loud.perturb_dram() == 2_000_000_000));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = FaultState::new(FaultPlan::prefetch_drops(0.5, 11));
        let mut b = FaultState::new(FaultPlan::prefetch_drops(0.5, 11));
        let xs: Vec<bool> = (0..256).map(|_| a.drop_prefetch()).collect();
        let ys: Vec<bool> = (0..256).map(|_| b.drop_prefetch()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = FaultState::new(FaultPlan::prefetch_drops(0.5, 1));
        let mut b = FaultState::new(FaultPlan::prefetch_drops(0.5, 2));
        let xs: Vec<bool> = (0..256).map(|_| a.drop_prefetch()).collect();
        let ys: Vec<bool> = (0..256).map(|_| b.drop_prefetch()).collect();
        assert_ne!(xs, ys);
    }
}
