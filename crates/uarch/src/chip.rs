//! Multi-core chip assembly.
//!
//! A [`Chip`] owns a set of [`OooCore`]s and the shared
//! [`MemorySystem`], advancing everything in lock-step, one cycle at a
//! time. This is the unit the experiment harness drives: workload threads
//! (and, for the Figure 4 methodology, cache-polluter threads) are attached
//! to specific cores, mirroring the paper's practice of pinning workloads
//! to cores and disabling the rest.

use crate::config::CoreConfig;
use crate::core::{Fidelity, OooCore};
use cs_memsys::{MemSysConfig, MemorySystem};
use cs_trace::TraceSource;

/// How a watched measurement window ended (other than by stalling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowOutcome {
    /// Cycles simulated in this window.
    pub cycles: u64,
    /// Instructions the measured cores committed in this window.
    pub committed: u64,
    /// Whether the instruction target was reached (`false` means the
    /// window was truncated by `max_cycles` or by source exhaustion).
    pub reached_target: bool,
}

/// Diagnosis produced when the forward-progress watchdog fires: a measured
/// core has an attached, unfinished workload but has not committed a single
/// instruction for a full grace period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallDiagnosis {
    /// The first measured core found to be livelocked.
    pub core: usize,
    /// How long it has gone without committing, in cycles.
    pub cycles_without_commit: u64,
}

/// Resumable state of a watched measurement window.
///
/// [`Chip::run_until_committed_watched`] used to hold this state in local
/// variables, which made a half-finished window impossible to checkpoint.
/// Splitting it out lets the harness drive the window in budgeted slices
/// via [`Chip::step_watched`], snapshot between slices, and resume a
/// restored window with the *same* watchdog bookkeeping — so a killed and
/// resumed run takes every decision (including a watchdog trip) at exactly
/// the cycle the uninterrupted run would have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchedWindow {
    measured: Vec<usize>,
    target: u64,
    start: u64,
    start_cycle: u64,
    max_cycles: u64,
    stall_grace: u64,
    last_count: Vec<u64>,
    last_progress: Vec<u64>,
}

impl WatchedWindow {
    /// Serializes the window cursor into `e`.
    pub fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        e.len(self.measured.len());
        for &c in &self.measured {
            e.len(c);
        }
        e.u64(self.target);
        e.u64(self.start);
        e.u64(self.start_cycle);
        e.u64(self.max_cycles);
        e.u64(self.stall_grace);
        for &v in &self.last_count {
            e.u64(v);
        }
        for &v in &self.last_progress {
            e.u64(v);
        }
    }

    /// Reads a window cursor written by [`WatchedWindow::encode_snap`].
    pub fn decode_snap(
        d: &mut cs_trace::snap::Dec<'_>,
    ) -> Result<Self, cs_trace::snap::SnapError> {
        let n = d.len()?;
        let mut measured = Vec::with_capacity(n);
        for _ in 0..n {
            measured.push(d.len()?);
        }
        let target = d.u64()?;
        let start = d.u64()?;
        let start_cycle = d.u64()?;
        let max_cycles = d.u64()?;
        let stall_grace = d.u64()?;
        let mut last_count = Vec::with_capacity(n);
        for _ in 0..n {
            last_count.push(d.u64()?);
        }
        let mut last_progress = Vec::with_capacity(n);
        for _ in 0..n {
            last_progress.push(d.u64()?);
        }
        Ok(Self { measured, target, start, start_cycle, max_cycles, stall_grace, last_count, last_progress })
    }
}

/// A chip: cores plus the shared memory system.
#[derive(Debug)]
pub struct Chip {
    cores: Vec<OooCore>,
    mem: MemorySystem,
    cycle: u64,
    /// Event-driven fast path: jump over certified-dead cycles instead of
    /// stepping them (on by default; results are byte-identical either
    /// way, so disabling it only costs wall-clock time).
    cycle_skip: bool,
    /// Cycles covered by jumps rather than stepped individually.
    skipped_cycles: u64,
    /// Per-core next-event certificates, reused across `run_cycles`
    /// iterations within one call (reset at entry: cores may be mutated
    /// between calls). `<= now` means expired.
    skip_next: Vec<u64>,
    /// Per-core start of the current certified-idle span, bulk-accounted
    /// lazily when the certificate expires or the window ends.
    skip_idle: Vec<Option<u64>>,
    /// The cores a `run_cycles` call still visits, in index order: those
    /// whose certificate is not `u64::MAX`.
    live: Vec<usize>,
}

impl Chip {
    /// Builds a chip with `n_cores` identical cores.
    pub fn new(core_cfg: CoreConfig, mem_cfg: MemSysConfig, n_cores: usize) -> Self {
        Self {
            cores: (0..n_cores).map(|_| OooCore::new(core_cfg)).collect(),
            mem: MemorySystem::new(mem_cfg, n_cores),
            cycle: 0,
            cycle_skip: true,
            skipped_cycles: 0,
            skip_next: vec![0; n_cores],
            skip_idle: vec![None; n_cores],
            live: Vec::with_capacity(n_cores),
        }
    }

    /// Enables or disables the event-driven cycle-skipping fast path.
    /// Results are byte-identical either way; the switch exists so any
    /// suspected divergence is immediately bisectable (`--no-skip`).
    pub fn set_cycle_skip(&mut self, on: bool) {
        self.cycle_skip = on;
    }

    /// Whether the cycle-skipping fast path is enabled.
    pub fn cycle_skip(&self) -> bool {
        self.cycle_skip
    }

    /// Cycles jumped over by the fast path so far (never reset; compare
    /// against [`Chip::cycle`] for the skipped fraction of a whole run).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Switches every core's fidelity level (see [`Fidelity`] and
    /// [`OooCore::set_fidelity`] for the drain semantics). Safe between
    /// [`Chip::run_cycles`] windows: the skip certificates are reset at
    /// entry, so the change takes effect on the next cycle stepped.
    pub fn set_fidelity(&mut self, fidelity: Fidelity) {
        for core in &mut self.cores {
            core.set_fidelity(fidelity);
        }
    }

    /// The fidelity level the cores are running at. All cores switch
    /// together; a coreless chip reports `Detailed`.
    pub fn fidelity(&self) -> Fidelity {
        self.cores.first().map_or(Fidelity::Detailed, OooCore::fidelity)
    }

    /// Attaches a trace source to a hardware context of core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or its contexts are full.
    pub fn attach(&mut self, core: usize, source: Box<dyn TraceSource>) {
        self.cores[core].attach(source);
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The cores.
    pub fn cores(&self) -> &[OooCore] {
        &self.cores
    }

    /// The shared memory system.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Assigns `core` to `tenant` for co-location studies: the memory
    /// system tags every line the core fills and books its DRAM traffic
    /// against that tenant's QoS budgets. Tenant assignment is
    /// configuration (like the core→workload map), not simulated state,
    /// so the harness re-applies it on both fresh and restored runs.
    pub fn set_tenant(&mut self, core: usize, tenant: u8) {
        self.mem.set_tenant(core, tenant);
    }

    /// Advances every core by `n` cycles.
    ///
    /// With cycle skipping enabled, each core carries a *certificate*
    /// ([`OooCore::next_event_cycle`]): the earliest future cycle at which
    /// stepping it could change anything beyond the bulk-accountable idle
    /// pattern. A certificate issued at cycle `t` stays valid until it
    /// expires — a certified-dead core's step is inert by construction, so
    /// neither its own (skipped) steps nor other cores' activity can
    /// invalidate it early. That makes two savings sound:
    ///
    /// - **Per-core skips:** a certified-idle core is not stepped at all
    ///   while other cores run; its idle span is accumulated and
    ///   bulk-accounted when the certificate expires or the window ends.
    ///   (Bulk accounting distributes over any partition of a span — every
    ///   term is additive, including the fetch-stall clamp — so the split
    ///   points cannot show through in the counters.)
    /// - **Chip jumps:** when every certificate (and every memory-system
    ///   timer) lies in the future, the clock jumps straight to the
    ///   earliest one.
    /// - **Live cores:** a core certified `u64::MAX` (no thread, or
    ///   drained) can never act again in this call, so it leaves the loop
    ///   and is not visited again until its idle span is flushed.
    ///
    /// Jumps are clamped to the end of this call's window and all pending
    /// idle spans are flushed before returning, so the chip always lands on
    /// exactly `cycle + n` with fully up-to-date counters — callers that
    /// interleave `run_cycles` with inspection (the watchdog in
    /// [`Chip::run_until_committed_watched`] checks every stride) observe
    /// the same cycle boundaries, and therefore the same diagnoses, in
    /// both modes. Certificates are reset at entry: between calls the
    /// cores may be mutated (sources attached, stats exported) without
    /// this loop noticing.
    pub fn run_cycles(&mut self, n: u64) {
        let end = self.cycle + n;
        if !self.cycle_skip {
            while self.cycle < end {
                for (id, core) in self.cores.iter_mut().enumerate() {
                    core.step(id, &mut self.mem, self.cycle);
                }
                self.cycle += 1;
            }
            return;
        }
        let live = &mut self.live;
        live.clear();
        for (i, core) in self.cores.iter().enumerate() {
            let cert = core.next_event_cycle(self.cycle);
            self.skip_next[i] = cert;
            self.skip_idle[i] = (cert > self.cycle).then_some(self.cycle);
            if cert != u64::MAX {
                live.push(i);
            }
        }
        while self.cycle < end {
            let now = self.cycle;
            let mut chip_next = self.mem.next_event_cycle(now);
            let mut kept = 0;
            for j in 0..live.len() {
                let i = live[j];
                if self.skip_next[i] <= now {
                    let core = &mut self.cores[i];
                    if let Some(s) = self.skip_idle[i].take() {
                        core.account_idle_cycles(s, now - s);
                    }
                    let cert = core.next_event_cycle(now);
                    self.skip_next[i] = cert;
                    if cert > now {
                        self.skip_idle[i] = Some(now);
                    }
                    if cert == u64::MAX {
                        continue;
                    }
                }
                live[kept] = i;
                kept += 1;
                chip_next = chip_next.min(self.skip_next[i]);
            }
            live.truncate(kept);
            if chip_next > now {
                let to = chip_next.min(end);
                self.skipped_cycles += to - now;
                self.cycle = to;
                continue;
            }
            for &i in live.iter() {
                if self.skip_next[i] <= now {
                    self.cores[i].step(i, &mut self.mem, now);
                }
            }
            self.cycle += 1;
        }
        for (i, core) in self.cores.iter_mut().enumerate() {
            if let Some(s) = self.skip_idle[i].take() {
                core.account_idle_cycles(s, end - s);
            }
        }
    }

    /// Runs until the cores listed in `measured` have together committed
    /// `instructions` more instructions, or `max_cycles` elapse. Returns
    /// the number of cycles simulated.
    ///
    /// This is the unwatched variant: it cannot distinguish a livelocked
    /// core from a slow one and will burn the whole `max_cycles` budget on
    /// either. Prefer [`Chip::run_until_committed_watched`].
    pub fn run_until_committed(
        &mut self,
        measured: &[usize],
        instructions: u64,
        max_cycles: u64,
    ) -> u64 {
        match self.run_until_committed_watched(measured, instructions, max_cycles, 0) {
            Ok(w) => w.cycles,
            Err(_) => unreachable!("watchdog is disabled when stall_grace is 0"),
        }
    }

    /// Runs until the cores listed in `measured` have together committed
    /// `instructions` more instructions, `max_cycles` elapse, or the
    /// forward-progress watchdog fires.
    ///
    /// The watchdog tracks each measured core's committed-instruction count
    /// at every check interval. If a core whose workload is still attached
    /// and unfinished commits nothing for `stall_grace` consecutive cycles,
    /// the run is cut short with a [`StallDiagnosis`] instead of burning
    /// the rest of the `max_cycles` budget on a livelocked source. A
    /// `stall_grace` of `0` disables the watchdog.
    pub fn run_until_committed_watched(
        &mut self,
        measured: &[usize],
        instructions: u64,
        max_cycles: u64,
        stall_grace: u64,
    ) -> Result<WindowOutcome, StallDiagnosis> {
        let mut w = self.begin_watched(measured, instructions, max_cycles, stall_grace);
        loop {
            if let Some(out) = self.step_watched(&mut w, u64::MAX)? {
                return Ok(out);
            }
        }
    }

    /// Opens a watched window at the current cycle. Drive it with
    /// [`Chip::step_watched`].
    pub fn begin_watched(
        &self,
        measured: &[usize],
        instructions: u64,
        max_cycles: u64,
        stall_grace: u64,
    ) -> WatchedWindow {
        let start: u64 = measured.iter().map(|&c| self.cores[c].stats().instructions()).sum();
        WatchedWindow {
            measured: measured.to_vec(),
            target: start + instructions,
            start,
            start_cycle: self.cycle,
            max_cycles,
            stall_grace,
            last_count: measured.iter().map(|&c| self.cores[c].stats().instructions()).collect(),
            last_progress: vec![self.cycle; measured.len()],
        }
    }

    /// Advances the window by up to `budget` cycles and reports whether it
    /// finished: `Ok(Some(outcome))` when the window ended (target reached,
    /// `max_cycles` spent, or every source exhausted), `Ok(None)` when only
    /// the budget ran out, `Err` when the watchdog fired.
    ///
    /// Progress is made in fixed strides whose lengths depend only on the
    /// window state — never on `budget`, which is consulted purely *between*
    /// strides. The sequence of [`Chip::run_cycles`] calls (and therefore
    /// every cycle boundary the watchdog observes) is identical for any
    /// slicing of the same window, which is what makes a checkpointed run
    /// byte-identical to an uninterrupted one.
    pub fn step_watched(
        &mut self,
        w: &mut WatchedWindow,
        budget: u64,
    ) -> Result<Option<WindowOutcome>, StallDiagnosis> {
        // Check in strides to amortize the aggregation.
        const STRIDE: u64 = 1024;
        let mut spent: u64 = 0;
        loop {
            let elapsed = self.cycle - w.start_cycle;
            let done: u64 =
                w.measured.iter().map(|&c| self.cores[c].stats().instructions()).sum();
            if elapsed >= w.max_cycles || done >= w.target {
                return Ok(Some(self.close_watched(w, done)));
            }
            if spent >= budget {
                return Ok(None);
            }
            self.run_cycles(STRIDE.min(w.max_cycles - elapsed));
            spent = spent.saturating_add(STRIDE);
            let done: u64 =
                w.measured.iter().map(|&c| self.cores[c].stats().instructions()).sum();
            if done >= w.target {
                return Ok(Some(self.close_watched(w, done)));
            }
            if self.cores.iter().all(|c| c.is_done()) {
                return Ok(Some(self.close_watched(w, done)));
            }
            if w.stall_grace > 0 {
                for (i, &c) in w.measured.iter().enumerate() {
                    let count = self.cores[c].stats().instructions();
                    if count != w.last_count[i] {
                        w.last_count[i] = count;
                        w.last_progress[i] = self.cycle;
                    } else if !self.cores[c].is_done()
                        && self.cycle - w.last_progress[i] >= w.stall_grace
                    {
                        return Err(StallDiagnosis {
                            core: c,
                            cycles_without_commit: self.cycle - w.last_progress[i],
                        });
                    }
                }
            }
        }
    }

    fn close_watched(&self, w: &WatchedWindow, done: u64) -> WindowOutcome {
        WindowOutcome {
            cycles: self.cycle - w.start_cycle,
            committed: done - w.start,
            reached_target: done >= w.target,
        }
    }

    /// Zeroes all core and memory statistics while preserving
    /// micro-architectural state (end of the warmup window).
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.reset_stats();
        }
        self.mem.reset_stats();
    }

    /// Serializes the chip's complete deterministic state into `e`: the
    /// cycle counter, the skipped-cycle tally, every core (pipeline,
    /// threads, predictor, statistics) and the shared memory system.
    ///
    /// Not serialized: `cycle_skip` (configuration, chosen by the run, and
    /// byte-identical either way) and the `skip_next` / `skip_idle` /
    /// `live` scratch, which [`Chip::run_cycles`] resets at entry precisely so
    /// cores may be mutated — or snapshotted and restored — between calls.
    pub fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        e.u64(self.cycle);
        e.u64(self.skipped_cycles);
        e.len(self.cores.len());
        for core in &self.cores {
            core.encode_snap(e);
        }
        self.mem.encode_snap(e);
    }

    /// Restores state written by [`Chip::encode_snap`] into a chip built
    /// from the same configuration, with the same trace sources already
    /// attached in the same order.
    pub fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
    ) -> Result<(), cs_trace::snap::SnapError> {
        use cs_trace::snap::SnapError;
        self.cycle = d.u64()?;
        self.skipped_cycles = d.u64()?;
        let n = d.len()?;
        if n != self.cores.len() {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {n} cores, chip has {}",
                self.cores.len()
            )));
        }
        for core in &mut self.cores {
            core.restore_snap(d, self.cycle)?;
        }
        self.mem.restore_snap(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_memsys::PrefetchConfig;
    use cs_trace::source::{LoopSource, VecSource};
    use cs_trace::MicroOp;

    fn mem_cfg() -> MemSysConfig {
        MemSysConfig { prefetch: PrefetchConfig::none(), ..MemSysConfig::default() }
    }

    fn alu_ops(n: usize) -> Vec<MicroOp> {
        (0..n).map(|i| MicroOp::alu(0x40_0000 + 4 * (i % 256) as u64)).collect()
    }

    #[test]
    fn two_cores_run_independently() {
        let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 2);
        chip.attach(0, Box::new(VecSource::new(alu_ops(1000))));
        chip.attach(1, Box::new(VecSource::new(alu_ops(500))));
        chip.run_cycles(10_000);
        assert_eq!(chip.cores()[0].stats().instructions(), 1000);
        assert_eq!(chip.cores()[1].stats().instructions(), 500);
    }

    #[test]
    fn run_until_committed_stops_near_target() {
        let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 1);
        chip.attach(0, Box::new(LoopSource::new(alu_ops(64))));
        let cycles = chip.run_until_committed(&[0], 50_000, 1_000_000);
        let done = chip.cores()[0].stats().instructions();
        assert!(done >= 50_000);
        assert!(done < 80_000, "overshoot too large: {done}");
        assert!(cycles > 0);
    }

    #[test]
    fn reset_stats_preserves_cache_state() {
        let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 1);
        let ops: Vec<MicroOp> =
            (0..64u64).map(|i| MicroOp::load(0x40_0000, 0x1000_0000 + i * 64, 8)).collect();
        let mut warm = ops.clone();
        warm.extend(ops.clone());
        chip.attach(0, Box::new(VecSource::new(warm)));
        chip.run_cycles(20_000);
        chip.reset_stats();
        assert_eq!(chip.cores()[0].stats().instructions(), 0);
        assert_eq!(chip.mem().stats().per_core[0].l1d.total_accesses(), 0);
    }

    #[test]
    fn idle_cores_are_harmless() {
        let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 4);
        chip.attach(0, Box::new(VecSource::new(alu_ops(100))));
        chip.run_cycles(30_000);
        assert_eq!(chip.cores()[0].stats().instructions(), 100);
        assert_eq!(chip.cores()[3].stats().instructions(), 0);
    }

    #[test]
    fn cycle_counter_advances() {
        let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 1);
        chip.run_cycles(123);
        assert_eq!(chip.cycle(), 123);
    }

    #[test]
    fn watchdog_cuts_livelocked_run_short() {
        use cs_memsys::FaultPlan;
        let cfg = MemSysConfig { fault: Some(FaultPlan::stall(1)), ..mem_cfg() };
        let mut chip = Chip::new(CoreConfig::x5670(), cfg, 1);
        let loads: Vec<MicroOp> =
            (0..64u64).map(|i| MicroOp::load(0x40_0000, 0x1000_0000 + i * 64, 8)).collect();
        chip.attach(0, Box::new(VecSource::new(loads)));
        let grace = 10_000;
        let max_cycles = 5_000_000;
        let diag = chip
            .run_until_committed_watched(&[0], 1_000, max_cycles, grace)
            .expect_err("a stalled DRAM must trip the watchdog");
        assert_eq!(diag.core, 0);
        assert!(diag.cycles_without_commit >= grace);
        assert!(
            chip.cycle() < max_cycles / 100,
            "watchdog must fire well before max_cycles; ran {} cycles",
            chip.cycle()
        );
    }

    #[test]
    fn watchdog_leaves_healthy_runs_alone() {
        let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 1);
        chip.attach(0, Box::new(LoopSource::new(alu_ops(64))));
        let w = chip
            .run_until_committed_watched(&[0], 50_000, 1_000_000, 5_000)
            .expect("healthy run must not trip the watchdog");
        assert!(w.reached_target);
        assert!(w.committed >= 50_000);
        assert_eq!(chip.cycle(), w.cycles);
    }

    #[test]
    fn truncated_window_is_reported_not_silent() {
        let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 1);
        chip.attach(0, Box::new(LoopSource::new(alu_ops(64))));
        let w = chip
            .run_until_committed_watched(&[0], u64::MAX / 2, 10_000, 0)
            .expect("watchdog disabled");
        assert!(!w.reached_target, "cycle-capped window must be flagged");
        assert_eq!(w.cycles, 10_000);
        assert!(w.committed > 0);
    }

    /// Asserts two chips are in byte-identical observable state: cycle,
    /// every core's statistics, and the shared memory system's counters.
    fn assert_identical(fast: &Chip, slow: &Chip) {
        assert_eq!(fast.cycle(), slow.cycle(), "cycle counters diverged");
        for (i, (a, b)) in fast.cores().iter().zip(slow.cores()).enumerate() {
            assert_eq!(a.stats(), b.stats(), "core {i} stats diverged");
        }
        assert_eq!(fast.mem().stats(), slow.mem().stats(), "memory stats diverged");
        assert_eq!(fast.mem().dram_stats(), slow.mem().dram_stats(), "dram stats diverged");
    }

    /// Runs two identically-built chips — one with cycle skipping, one
    /// without — through the same deliberately awkward sequence of
    /// `run_cycles` windows, so jumps keep colliding with window clamps.
    /// Returns `(skipping, naive)`.
    fn run_both(mk: impl Fn() -> Chip, total: u64) -> (Chip, Chip) {
        let mut fast = mk();
        fast.set_cycle_skip(true);
        let mut slow = mk();
        slow.set_cycle_skip(false);
        for chip in [&mut fast, &mut slow] {
            let mut remaining = total;
            let mut chunk: u64 = 1;
            while remaining > 0 {
                let n = chunk.min(remaining);
                chip.run_cycles(n);
                remaining -= n;
                chunk = chunk * 7 % 9973 + 1;
            }
        }
        (fast, slow)
    }

    fn far_load_chain(n: u64, stride: u64) -> Vec<MicroOp> {
        (0..n)
            .map(|i| MicroOp::load(0x40_0000, 0x8000_0000 + i * stride * 64, 8).with_deps(1, 0))
            .collect()
    }

    #[test]
    fn cycle_skip_is_identical_on_stall_heavy_trace() {
        // Dependent far loads: the skip-friendliest pattern, with long
        // certified-dead spans between DRAM returns.
        let mk = || {
            let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 2);
            chip.attach(0, Box::new(VecSource::new(far_load_chain(300, 1009))));
            chip.attach(1, Box::new(VecSource::new(alu_ops(500))));
            chip
        };
        let (fast, slow) = run_both(mk, 300_000);
        assert_identical(&fast, &slow);
        assert_eq!(slow.skipped_cycles(), 0);
        assert!(
            fast.skipped_cycles() > fast.cycle() / 2,
            "a load-latency-bound trace must be mostly skippable, skipped {} of {}",
            fast.skipped_cycles(),
            fast.cycle()
        );
    }

    #[test]
    fn cycle_skip_is_identical_under_smt_round_robin_and_icount() {
        use crate::config::SmtFetchPolicy;
        for policy in [SmtFetchPolicy::RoundRobin, SmtFetchPolicy::Icount] {
            let mk = move || {
                let cfg = CoreConfig {
                    smt_threads: 2,
                    smt_fetch: policy,
                    ..CoreConfig::x5670()
                };
                let mut chip = Chip::new(cfg, mem_cfg(), 1);
                chip.attach(0, Box::new(VecSource::new(far_load_chain(200, 997))));
                chip.attach(0, Box::new(LoopSource::new(alu_ops(64))));
                chip
            };
            let (fast, slow) = run_both(mk, 200_000);
            assert_identical(&fast, &slow);
            assert!(fast.skipped_cycles() > 0, "{policy:?} must still skip");
        }
    }

    #[test]
    fn cycle_skip_is_identical_with_gshare_and_prefetchers() {
        use crate::branch::BranchModel;
        let mk = || {
            let cfg = CoreConfig {
                branch_model: BranchModel::Gshare { bits: 10 },
                ..CoreConfig::x5670()
            };
            // Default memory config: all prefetchers enabled.
            let mut chip = Chip::new(cfg, MemSysConfig::default(), 1);
            let mut ops = Vec::new();
            for i in 0..150u64 {
                ops.push(MicroOp::load(0x40_0000, 0x9000_0000 + i * 771 * 64, 8).with_deps(1, 0));
                ops.push(MicroOp::branch(0x40_0010 + 8 * (i % 32), false));
                ops.push(MicroOp::alu(0x40_0014 + 8 * (i % 32)));
            }
            chip.attach(0, Box::new(VecSource::new(ops)));
            chip
        };
        let (fast, slow) = run_both(mk, 250_000);
        assert_identical(&fast, &slow);
        assert!(fast.skipped_cycles() > 0);
    }

    #[test]
    fn cycle_skip_is_identical_under_fault_injection() {
        use cs_memsys::FaultPlan;
        // DRAM jitter plus prefetch drops: the fault stream is
        // event-indexed, so skipping dead cycles must not change which
        // accesses are perturbed.
        let plan = FaultPlan {
            dram_extra_latency: 180,
            dram_perturb_rate: 0.3,
            prefetch_drop_rate: 0.2,
            seed: 0xFEED,
        };
        let mk = move || {
            let cfg = MemSysConfig { fault: Some(plan), ..MemSysConfig::default() };
            let mut chip = Chip::new(CoreConfig::x5670(), cfg, 1);
            chip.attach(0, Box::new(VecSource::new(far_load_chain(250, 1013))));
            chip
        };
        let (fast, slow) = run_both(mk, 300_000);
        assert_identical(&fast, &slow);
        assert_eq!(fast.mem().fault_counters(), slow.mem().fault_counters());
        assert!(fast.skipped_cycles() > 0);
    }

    #[test]
    fn cycle_skip_bulk_accounts_the_drained_tail() {
        // Run far past source exhaustion: the drained tail is one giant
        // dead span, and its bulk accounting must match naive stepping.
        let mk = || {
            let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 1);
            chip.attach(0, Box::new(VecSource::new(alu_ops(100))));
            chip
        };
        let (fast, slow) = run_both(mk, 50_000);
        assert_identical(&fast, &slow);
        let s = fast.cores()[0].stats();
        let classified: u64 =
            s.committing_cycles.iter().sum::<u64>() + s.stalled_cycles.iter().sum::<u64>();
        assert_eq!(classified, s.cycles);
        assert!(fast.skipped_cycles() > 40_000, "the drained tail must be skipped");
    }

    #[test]
    fn cycle_skip_handles_threadless_cores() {
        // Cores with no attached sources accumulate cycles but are never
        // classified — the bulk path must reproduce that exactly.
        let mk = || {
            let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 3);
            chip.attach(0, Box::new(VecSource::new(alu_ops(200))));
            chip
        };
        let (fast, slow) = run_both(mk, 20_000);
        assert_identical(&fast, &slow);
        let idle = fast.cores()[2].stats();
        assert_eq!(idle.cycles, 20_000);
        assert_eq!(idle.stalled_cycles, [0, 0]);
        assert_eq!(idle.committing_cycles, [0, 0]);
    }

    #[test]
    fn cycle_skip_is_identical_when_cores_leave_the_live_loop() {
        // Cores 2 and 3 have no thread and leave the loop at entry; core 1
        // runs dry mid-window and leaves once drained, while core 0
        // keeps running long windows across both.
        let mk = || {
            let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 4);
            chip.attach(0, Box::new(VecSource::new(far_load_chain(2_000, 1009))));
            chip.attach(1, Box::new(VecSource::new(alu_ops(3_000))));
            chip
        };
        let run = |skip: bool| {
            let mut chip = mk();
            chip.set_cycle_skip(skip);
            chip.run_cycles(200_000);
            chip
        };
        let (fast, slow) = (run(true), run(false));
        assert_identical(&fast, &slow);
        let (windowed, _) = run_both(mk, 200_000);
        assert_identical(&windowed, &slow);
        assert!(!fast.cores()[0].is_done(), "core 0 must run the whole window");
        assert_eq!(fast.cores()[1].stats().instructions(), 3_000);
        assert!(fast.cores()[1..].iter().all(|c| c.is_done() && c.stats().cycles == 200_000));
    }

    #[test]
    fn watchdog_diagnosis_is_identical_under_cycle_skip() {
        use cs_memsys::FaultPlan;
        // A stalled DRAM livelocks the workload; the watchdog must fire
        // at the same cycle with the same diagnosis in both modes, since
        // jumps are clamped to each watchdog stride.
        let run_mode = |skip: bool| {
            let cfg = MemSysConfig { fault: Some(FaultPlan::stall(1)), ..mem_cfg() };
            let mut chip = Chip::new(CoreConfig::x5670(), cfg, 1);
            let loads: Vec<MicroOp> = (0..64u64)
                .map(|i| MicroOp::load(0x40_0000, 0x1000_0000 + i * 64, 8))
                .collect();
            chip.attach(0, Box::new(VecSource::new(loads)));
            chip.set_cycle_skip(skip);
            let diag = chip
                .run_until_committed_watched(&[0], 1_000, 5_000_000, 10_000)
                .expect_err("a stalled DRAM must trip the watchdog");
            (diag, chip.cycle())
        };
        let (diag_fast, cycle_fast) = run_mode(true);
        let (diag_slow, cycle_slow) = run_mode(false);
        assert_eq!(diag_fast, diag_slow);
        assert_eq!(cycle_fast, cycle_slow);
    }

    #[test]
    fn run_until_committed_is_identical_under_cycle_skip() {
        let run_mode = |skip: bool| {
            let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 1);
            chip.attach(0, Box::new(VecSource::new(far_load_chain(400, 883))));
            chip.set_cycle_skip(skip);
            let w = chip
                .run_until_committed_watched(&[0], 300, 10_000_000, 50_000)
                .expect("healthy run");
            (w, chip.cycle(), chip.cores()[0].stats().clone())
        };
        let (w_fast, cycle_fast, stats_fast) = run_mode(true);
        let (w_slow, cycle_slow, stats_slow) = run_mode(false);
        assert_eq!(w_fast, w_slow);
        assert_eq!(cycle_fast, cycle_slow);
        assert_eq!(stats_fast, stats_slow);
    }

    #[test]
    fn step_watched_slicing_is_invisible() {
        // The same window driven in budgeted slices must produce the same
        // outcome, final cycle and stats as one unsliced call, because the
        // run_cycles sequence is budget-independent.
        let mk = || {
            let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 2);
            chip.attach(0, Box::new(VecSource::new(far_load_chain(300, 991))));
            chip.attach(1, Box::new(LoopSource::new(alu_ops(64))));
            chip
        };
        let mut whole = mk();
        let w_whole = whole
            .run_until_committed_watched(&[0, 1], 20_000, 2_000_000, 50_000)
            .expect("healthy");
        let mut sliced = mk();
        let mut w = sliced.begin_watched(&[0, 1], 20_000, 2_000_000, 50_000);
        let mut budgets = [1u64, 3000, 700, 12_000, 1, 250_000].iter().cycle();
        let outcome = loop {
            match sliced.step_watched(&mut w, *budgets.next().unwrap()).expect("healthy") {
                Some(out) => break out,
                None => continue,
            }
        };
        assert_eq!(outcome, w_whole);
        assert_eq!(sliced.cycle(), whole.cycle());
        assert_identical(&sliced, &whole);
    }

    #[test]
    fn chip_snapshot_resumes_byte_identically_mid_window() {
        let attach_all = |chip: &mut Chip| {
            chip.attach(0, Box::new(VecSource::new(far_load_chain(400, 883))));
            chip.attach(1, Box::new(LoopSource::new(alu_ops(64))));
        };
        for skip in [true, false] {
            // Reference: uninterrupted run.
            let mut straight = Chip::new(CoreConfig::x5670(), mem_cfg(), 2);
            attach_all(&mut straight);
            straight.set_cycle_skip(skip);
            let w_ref = straight
                .run_until_committed_watched(&[0, 1], 30_000, 3_000_000, 50_000)
                .expect("healthy");

            // Interrupted run: stop mid-window, snapshot, throw the chip
            // away, rebuild, restore, finish.
            let mut first = Chip::new(CoreConfig::x5670(), mem_cfg(), 2);
            attach_all(&mut first);
            first.set_cycle_skip(skip);
            let mut w = first.begin_watched(&[0, 1], 30_000, 3_000_000, 50_000);
            assert!(
                first.step_watched(&mut w, 2_000).expect("healthy").is_none(),
                "window must not finish in 2000 cycles"
            );
            let mut enc = cs_trace::snap::Enc::new();
            first.encode_snap(&mut enc);
            w.encode_snap(&mut enc);
            drop(first);

            let mut resumed = Chip::new(CoreConfig::x5670(), mem_cfg(), 2);
            attach_all(&mut resumed);
            resumed.set_cycle_skip(skip);
            let mut dec = cs_trace::snap::Dec::new(&enc.buf);
            resumed.restore_snap(&mut dec).expect("restore");
            let mut w2 = WatchedWindow::decode_snap(&mut dec).expect("window");
            dec.finish().expect("no trailing bytes");
            assert_eq!(w2, w);
            let outcome = loop {
                if let Some(out) = resumed.step_watched(&mut w2, 7_777).expect("healthy") {
                    break out;
                }
            };
            assert_eq!(outcome, w_ref, "skip={skip}");
            assert_identical(&resumed, &straight);
            assert_eq!(resumed.skipped_cycles(), straight.skipped_cycles(), "skip={skip}");
        }
    }

    #[test]
    fn functional_mode_is_identical_under_cycle_skip() {
        // A detailed → functional → detailed round trip must land on the
        // same state regardless of the skip mode, because functional
        // cores certify "now" (never skipped) while live and the drain at
        // the switch point is cycle-independent.
        let run_mode = |skip: bool| {
            let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 2);
            chip.attach(0, Box::new(VecSource::new(far_load_chain(300, 1009))));
            chip.attach(1, Box::new(LoopSource::new(alu_ops(64))));
            chip.set_cycle_skip(skip);
            chip.run_cycles(10_000);
            chip.set_fidelity(Fidelity::Functional);
            assert_eq!(chip.fidelity(), Fidelity::Functional);
            chip.run_cycles(5_000);
            chip.set_fidelity(Fidelity::Detailed);
            chip.run_cycles(20_000);
            chip
        };
        let fast = run_mode(true);
        let slow = run_mode(false);
        assert_identical(&fast, &slow);
    }

    #[test]
    fn watchdog_skips_exhausted_cores() {
        let mut chip = Chip::new(CoreConfig::x5670(), mem_cfg(), 2);
        chip.attach(0, Box::new(LoopSource::new(alu_ops(64))));
        chip.attach(1, Box::new(VecSource::new(alu_ops(32))));
        // Core 1 drains almost immediately; only core 0 keeps committing.
        // The watchdog must not misdiagnose the finished core as stalled.
        let w = chip
            .run_until_committed_watched(&[0, 1], 40_000, 1_000_000, 2_000)
            .expect("an exhausted source is completion, not a stall");
        assert!(w.reached_target);
    }
}
