//! The composed memory system: private caches, shared LLCs, coherence,
//! prefetchers, TLBs and DRAM.
//!
//! One [`MemorySystem`] models both sockets of the paper's blade. Demand
//! accesses walk the hierarchy synchronously and return an outcome carrying
//! everything the §3.1 methodology needs:
//!
//! - the load-to-use **latency** in cycles (including TLB penalties and
//!   DRAM queueing),
//! - whether the request went **off-core** (missed the private L2 — the
//!   super-queue events whose occupancy defines memory cycles and MLP),
//! - which **level** serviced it (L2 instruction hits enter the memory
//!   cycle formula; Figure 1),
//! - whether the line was **read-write shared**, i.e. most recently written
//!   by a different core (Figure 6),
//! - the **TLB stall** components (Figure 1's memory-cycle formula).
//!
//! Coherence is modeled MESI-like: private lines track writability
//! (E/M vs. S), stores to non-writable lines issue upgrades (RFOs) that
//! travel off-core, LLC lines remember their `fresh_writer` until the write
//! is observed by another core, and cross-socket requests snoop the remote
//! LLC. Inclusion is enforced: LLC evictions back-invalidate private
//! copies.

use crate::cache::{Cache, LineMeta};
use crate::config::MemSysConfig;
use crate::dram::{BandwidthRegulator, Dram, DramStats};
use crate::fault::{FaultCounters, FaultState};
use crate::prefetch::{adjacent_line, next_line, StridePrefetcher};
use crate::stats::{AccessClass, CoreMemStats, MemStats};
use crate::tlb::{TlbHierarchy, TlbOutcome};
use cs_trace::snap::Codec;
use cs_trace::Privilege;

/// Which level of the hierarchy serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceLevel {
    /// First-level cache hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Local-socket LLC hit.
    LocalLlc,
    /// Snoop hit in the remote socket's LLC.
    RemoteLlc,
    /// Off-chip memory access.
    Dram,
}

impl ServiceLevel {
    /// Whether the request left the core (missed the private L2).
    pub fn is_offcore(self) -> bool {
        self >= ServiceLevel::LocalLlc
    }
}

/// Outcome of an instruction fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Load-to-use latency in cycles, including TLB penalties.
    pub latency: u32,
    /// Servicing level.
    pub level: ServiceLevel,
    /// Whether the fetch went off-core.
    pub offcore: bool,
    /// Cycles stalled on an ITLB miss that hit the STLB.
    pub itlb_stall: u32,
    /// Cycles stalled on a second-level TLB miss (page walk).
    pub stlb_stall: u32,
}

/// Outcome of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataOutcome {
    /// Load-to-use latency in cycles, including TLB penalties.
    pub latency: u32,
    /// Servicing level.
    pub level: ServiceLevel,
    /// Whether the request went off-core (L2 miss or upgrade).
    pub offcore: bool,
    /// Whether the line was most recently written by another core.
    pub rw_shared: bool,
    /// Cycles stalled on a second-level TLB miss (page walk).
    pub stlb_stall: u32,
}

/// The full two-socket memory system.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemSysConfig,
    n_cores: usize,
    n_sockets: usize,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    llcs: Vec<Cache>,
    tlbs: Vec<TlbHierarchy>,
    stride: Vec<StridePrefetcher>,
    dcu_last_miss: Vec<u64>,
    dram: Dram,
    stats: MemStats,
    pf_buf: Vec<u64>,
    fault: Option<FaultState>,
    /// Transient flag set only for the duration of one
    /// [`MemorySystem::ifetch_warm`] / [`MemorySystem::data_access_warm`]
    /// call: the access updates every piece of microarchitectural state
    /// but bypasses the DRAM channel timers and bandwidth books. Always
    /// false between accesses (like `pf_buf`), so it is not serialized.
    warming: bool,
    /// Per-core direct-mapped memo tables over recent pure-L1 hits on the
    /// warm path: `warm_data[core]` for `data_access_warm`,
    /// `warm_instr[core]` for `ifetch_warm`. A memo records where a line
    /// and its page were found (L1 way, first-level-TLB way) the last
    /// time a warm access to the line was serviced as a pure L1 hit. On
    /// a repeat touch, the warm path revalidates every premise of the
    /// skip *directly against current state* in O(1) — the line still
    /// sits at that way, its `prefetched` flag is clear, for stores it
    /// is writable and dirty, and the page still sits at that TLB way —
    /// and then replays the hit: the exact LRU touches the walk would
    /// make (way-for-way, tick-for-tick, so snapshots and digests are
    /// byte-identical) plus the L1 hit counter. Because validation reads
    /// the live cache state, no invalidation hooks are needed anywhere:
    /// any fill, eviction, coherence invalidation or downgrade that
    /// breaks a premise makes the check fail and the access fall back to
    /// the ordinary walk. Pure accelerator — never serialized, wiped on
    /// restore.
    warm_data: Vec<Box<[WarmMemo]>>,
    /// Instruction-side memo table; see `warm_data`.
    warm_instr: Vec<Box<[WarmMemo]>>,
    /// Tenant id of each core (all `0` unless the harness co-locates
    /// workloads). Configuration-like — set once before simulation by
    /// [`MemorySystem::set_tenant`] on both the fresh and the restore
    /// path, so it is not serialized.
    tenants: Vec<u8>,
    /// Per-tenant DRAM bandwidth throttle, present only when
    /// [`crate::config::QosConfig::dram_budgets`] is configured. Its
    /// window cursors are dynamic simulation state and are serialized.
    regulator: Option<BandwidthRegulator>,
}

/// One entry of the warm-path memo tables; see `MemorySystem::warm_data`.
#[derive(Debug, Clone, Copy)]
struct WarmMemo {
    /// Memoized line address; `u64::MAX` marks an empty entry.
    line: u64,
    /// Way the line was last found at in the L1 cache.
    l1_way: u32,
    /// Way the line's page was last found at in the first-level TLB.
    tlb_way: u32,
    /// Tenant the memo was recorded under: a memo keyed by (tenant, line)
    /// never replays for a core whose tenant has since changed, keeping
    /// functional warming sound under co-location.
    tenant: u8,
}

impl WarmMemo {
    const EMPTY: Self = Self { line: u64::MAX, l1_way: 0, tlb_way: 0, tenant: 0 };
}

/// Entries per warm-memo table. Power of two (the index is a mask of the
/// line address); 512 matches the L1-D line capacity, so the table can
/// cover the whole warm working set that is skippable at all.
const WARM_MEMO_SLOTS: usize = 512;

impl MemorySystem {
    /// Builds the memory system for `n_cores` cores under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero or exceeds what the sharer bitmask can
    /// track per socket (16).
    pub fn new(cfg: MemSysConfig, n_cores: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        assert!(cfg.cores_per_socket > 0 && cfg.cores_per_socket <= 16, "1..=16 cores per socket");
        let n_sockets = n_cores.div_ceil(cfg.cores_per_socket);
        Self {
            l1i: (0..n_cores).map(|_| Cache::from_config(&cfg.l1i)).collect(),
            l1d: (0..n_cores).map(|_| Cache::from_config(&cfg.l1d)).collect(),
            l2: (0..n_cores).map(|_| Cache::from_config(&cfg.l2)).collect(),
            llcs: (0..n_sockets).map(|_| Cache::from_config(&cfg.llc)).collect(),
            tlbs: (0..n_cores).map(|_| TlbHierarchy::new(cfg.tlb)).collect(),
            stride: (0..n_cores).map(|_| StridePrefetcher::default()).collect(),
            dcu_last_miss: vec![u64::MAX - 1; n_cores],
            dram: Dram::new(cfg.dram),
            stats: MemStats { per_core: vec![CoreMemStats::default(); n_cores], ..Default::default() },
            pf_buf: Vec::with_capacity(8),
            fault: cfg.fault.map(FaultState::new),
            warming: false,
            warm_data: (0..n_cores)
                .map(|_| vec![WarmMemo::EMPTY; WARM_MEMO_SLOTS].into_boxed_slice())
                .collect(),
            warm_instr: (0..n_cores)
                .map(|_| vec![WarmMemo::EMPTY; WARM_MEMO_SLOTS].into_boxed_slice())
                .collect(),
            tenants: vec![0; n_cores],
            regulator: cfg
                .qos
                .dram_budgets
                .as_ref()
                .map(|b| BandwidthRegulator::new(cfg.qos.dram_budget_window, b.clone())),
            n_cores,
            n_sockets,
            cfg,
        }
    }

    /// Assigns `core` to `tenant` (default: every core is tenant 0).
    /// Called by the harness before simulation starts; the tenant map is
    /// part of the run's configuration, not of its dynamic state, so the
    /// restore path re-applies it the same way the fresh path does.
    ///
    /// Changing a core's tenant invalidates that core's warm memos: a
    /// memoized hit must not replay under a different tenant tag.
    pub fn set_tenant(&mut self, core: usize, tenant: u8) {
        if self.tenants[core] != tenant {
            self.tenants[core] = tenant;
            self.warm_data[core].fill(WarmMemo::EMPTY);
            self.warm_instr[core].fill(WarmMemo::EMPTY);
        }
    }

    /// Tenant id of `core`.
    pub fn tenant_of(&self, core: usize) -> u8 {
        self.tenants[core]
    }

    /// LLC lines currently owned by `tenant`, summed over sockets
    /// (O(LLC capacity); read at report time only).
    pub fn llc_tenant_lines(&self, tenant: u8) -> u64 {
        self.llcs.iter().map(|c| c.tenant_lines(tenant) as u64).sum()
    }

    /// Total valid LLC lines, summed over sockets.
    pub fn llc_valid_lines(&self) -> u64 {
        self.llcs.iter().map(|c| c.valid_lines() as u64).sum()
    }

    /// The LLC way mask tenant `t` allocates under (full when
    /// partitioning is off or the tenant is beyond the configured list).
    #[inline]
    fn way_mask_of(&self, tenant: u8) -> u64 {
        match &self.cfg.qos.llc_way_masks {
            Some(masks) => masks.get(tenant as usize).copied().unwrap_or(u64::MAX),
            None => u64::MAX,
        }
    }

    /// Wipes every warm-path memo (see `warm_data`).
    fn clear_warm_memos(&mut self) {
        for table in self.warm_data.iter_mut().chain(self.warm_instr.iter_mut()) {
            table.fill(WarmMemo::EMPTY);
        }
    }

    /// Counts of injected faults so far, when a [`crate::fault::FaultPlan`]
    /// is active.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.fault.as_ref().map(|f| f.counters())
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MemSysConfig {
        &self.cfg
    }

    /// Number of cores served.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Mutable statistics (for window snapshotting by the harness).
    pub fn stats_mut(&mut self) -> &mut MemStats {
        &mut self.stats
    }

    /// Zeroes all statistics while preserving cache, TLB, prefetcher and
    /// DRAM *state*. Called by the harness at the end of the warmup window
    /// (the simulator's equivalent of starting the paper's 180-second
    /// VTune measurement after ramp-up).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats {
            per_core: vec![CoreMemStats::default(); self.n_cores],
            ..Default::default()
        };
        self.dram.reset_stats();
    }

    /// DRAM statistics (includes totals for Figure 7).
    pub fn dram_stats(&self) -> crate::dram::DramStats {
        self.dram.stats()
    }

    /// Writes a self-contained snapshot of all statistics into `out`,
    /// with the DRAM totals filled in (the in-place [`Self::stats`] view
    /// keeps them separate for hot-path reasons).
    ///
    /// Reuses `out`'s buffers, so repeated snapshotting — the harness
    /// takes one per measurement window — allocates at most once instead
    /// of cloning the full per-core block each time. One-shot callers
    /// that only need the live counters should read [`Self::stats`] and
    /// [`Self::dram_stats`] directly, by reference.
    pub fn export_stats_into(&self, out: &mut MemStats) {
        out.per_core.clone_from(&self.stats.per_core);
        out.dram = self.dram.stats();
    }

    /// DRAM bandwidth utilization over `elapsed_cycles` (Figure 7 metric).
    pub fn dram_utilization(&self, elapsed_cycles: u64) -> f64 {
        self.dram.utilization(elapsed_cycles)
    }

    /// Serializes the complete mutable state of the memory system into
    /// `e`: every cache array, TLB level, prefetcher table, the DCU miss
    /// cursors, DRAM channel timing, all accumulated statistics and the
    /// fault-plan cursor. Geometry (core/socket counts, cache shapes) is
    /// configuration: it is written only as a guard and rebuilt from the
    /// config on restore. `pf_buf` is per-access scratch, always empty
    /// between accesses, and is not serialized.
    pub fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        e.len(self.n_cores);
        e.len(self.n_sockets);
        for c in &self.l1i {
            c.encode_snap(e);
        }
        for c in &self.l1d {
            c.encode_snap(e);
        }
        for c in &self.l2 {
            c.encode_snap(e);
        }
        for c in &self.llcs {
            c.encode_snap(e);
        }
        for t in &self.tlbs {
            t.encode_snap(e);
        }
        for s in &self.stride {
            s.encode_snap(e);
        }
        for &m in &self.dcu_last_miss {
            e.u64(m);
        }
        self.dram.encode_snap(e);
        for core in &self.stats.per_core {
            core.encode_snap(e);
        }
        self.stats.dram.encode_snap(e);
        match &self.fault {
            Some(f) => {
                e.bool(true);
                f.encode_snap(e);
            }
            None => e.bool(false),
        }
        match &self.regulator {
            Some(r) => {
                e.bool(true);
                r.encode_snap(e);
            }
            None => e.bool(false),
        }
    }

    /// Restores state written by [`MemorySystem::encode_snap`] into a
    /// system freshly built from the *same configuration*. Topology
    /// disagreements (core count, socket count, fault-plan presence)
    /// are reported as [`cs_trace::snap::SnapError::Mismatch`].
    pub fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
    ) -> Result<(), cs_trace::snap::SnapError> {
        use cs_trace::snap::SnapError;
        let cores = d.len()?;
        if cores != self.n_cores {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {cores} cores, memory system has {}",
                self.n_cores
            )));
        }
        let sockets = d.len()?;
        if sockets != self.n_sockets {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {sockets} sockets, memory system has {}",
                self.n_sockets
            )));
        }
        for c in &mut self.l1i {
            c.restore_snap(d)?;
        }
        for c in &mut self.l1d {
            c.restore_snap(d)?;
        }
        for c in &mut self.l2 {
            c.restore_snap(d)?;
        }
        for c in &mut self.llcs {
            c.restore_snap(d)?;
        }
        for t in &mut self.tlbs {
            t.restore_snap(d)?;
        }
        for s in &mut self.stride {
            s.restore_snap(d)?;
        }
        for m in &mut self.dcu_last_miss {
            *m = d.u64()?;
        }
        self.dram.restore_snap(d)?;
        for core in &mut self.stats.per_core {
            *core = CoreMemStats::decode_snap(d)?;
        }
        self.stats.dram = DramStats::decode_snap(d)?;
        let had_fault = d.bool()?;
        match (had_fault, &mut self.fault) {
            (true, Some(f)) => f.restore_snap(d)?,
            (false, None) => {}
            (true, None) => {
                return Err(SnapError::Mismatch(
                    "snapshot has an active fault plan, config has none".into(),
                ))
            }
            (false, Some(_)) => {
                return Err(SnapError::Mismatch(
                    "snapshot has no fault plan, config expects one".into(),
                ))
            }
        }
        let had_regulator = d.bool()?;
        match (had_regulator, &mut self.regulator) {
            (true, Some(r)) => r.restore_snap(d)?,
            (false, None) => {}
            (true, None) => {
                return Err(SnapError::Mismatch(
                    "snapshot has a bandwidth regulator, config has none".into(),
                ))
            }
            (false, Some(_)) => {
                return Err(SnapError::Mismatch(
                    "snapshot has no bandwidth regulator, config expects one".into(),
                ))
            }
        }
        // The warm memos are a pure in-memory accelerator, never
        // serialized; start the restored run with them wiped so a resumed
        // run and an uninterrupted one behave identically.
        self.clear_warm_memos();
        Ok(())
    }

    /// Earliest cycle ≥ `now` at which the memory system itself would act
    /// without being called — the memory-side input to the chip's
    /// event-driven cycle skipping.
    ///
    /// The model is *latency-on-access* (see the crate docs): caches,
    /// TLBs, prefetchers, DRAM channel timing and the fault plan all
    /// mutate only inside [`MemorySystem::ifetch`] / [`MemorySystem::data_access`]
    /// calls made by the cores, so today every component honestly reports
    /// "never" and this returns `u64::MAX`. The per-component queries
    /// ([`Dram::next_event_cycle`], [`crate::fault::FaultPlan`]'s
    /// event-indexed stream, the decide-only prefetchers) keep the
    /// contract explicit: any future *time-driven* component (a DRAM
    /// refresh model, an autonomous prefetch queue, a time-scheduled
    /// fault) must surface its next timer here or it will be skipped
    /// over, breaking byte-identity.
    pub fn next_event_cycle(&self, _now: u64) -> u64 {
        let fault_next = self.fault.as_ref().map_or(u64::MAX, |f| f.next_event_cycle());
        self.dram.next_event_cycle().min(fault_next)
    }

    #[inline]
    fn socket_of(&self, core: usize) -> usize {
        core / self.cfg.cores_per_socket
    }

    #[inline]
    fn local_bit(&self, core: usize) -> u16 {
        1 << (core % self.cfg.cores_per_socket)
    }

    /// Iterates global core ids of socket `socket` selected by `mask`.
    fn cores_in_mask(&self, socket: usize, mask: u16) -> impl Iterator<Item = usize> {
        let base = socket * self.cfg.cores_per_socket;
        let n = self.n_cores;
        let cps = self.cfg.cores_per_socket;
        (0..cps).filter(move |i| mask & (1 << i) != 0).map(move |i| base + i).filter(move |c| *c < n)
    }

    // ------------------------------------------------------------------
    // Warming-only paths (functional fast-forward)
    // ------------------------------------------------------------------

    /// [`MemorySystem::ifetch`] minus the timing: the access walks the
    /// same hierarchy and updates every piece of microarchitectural state
    /// — cache arrays and replacement order, coherence metadata, TLBs,
    /// prefetcher tables and streams, and the fault-stream cursor — but
    /// never touches the DRAM channel timers or bandwidth books, and its
    /// latency is discarded. Functional-mode cores drive this during
    /// sampled fast-forward so the next detailed window opens on caches
    /// warmed exactly as detailed execution of the same instruction
    /// stream would have left them ([`MemorySystem::warm_state_digest`]).
    pub fn ifetch_warm(&mut self, core: usize, privilege: Privilege, addr: u64, now: u64) {
        let line = addr >> 6;
        let slot = (line as usize) & (WARM_MEMO_SLOTS - 1);
        let m = self.warm_instr[core][slot];
        if m.line == line && m.tenant == self.tenants[core] {
            let resident = self.l1i[core]
                .way_holds(m.l1_way as usize, line)
                .is_some_and(|meta| !meta.prefetched);
            if resident && self.tlbs[core].itlb_way_holds(m.tlb_way as usize, addr >> 12) {
                // Replay the pure L1-I hit the walk would perform: the
                // ITLB and L1-I LRU touches (way-for-way, tick-for-tick)
                // and the hit counter. See `data_access_warm` for the
                // full argument.
                self.tlbs[core].touch_itlb(m.tlb_way as usize);
                self.l1i[core].touch_way(m.l1_way as usize);
                self.stats.per_core[core].l1i.record(AccessClass::new(true, privilege), true);
                return;
            }
        }
        self.warming = true;
        let _ = self.ifetch(core, privilege, addr, now);
        self.warming = false;
        // Record a memo wherever the line now sits in L1 — after pure L1
        // hits AND after walks that just filled it (the repeat-after-L2-hit
        // pattern: a line bouncing between L1 and L2 becomes replayable on
        // its *second* touch instead of its third). Safe at any service
        // level because every premise is revalidated against live state at
        // replay time; an entry the fill path made invalid (say, a
        // prefetched flag) just falls back to the walk.
        if let (Some((way, _)), Some(tway)) =
            (self.l1i[core].probe(line), self.tlbs[core].itlb_way_of(addr >> 12))
        {
            self.warm_instr[core][slot] = WarmMemo {
                line,
                l1_way: way as u32,
                tlb_way: tway as u32,
                tenant: self.tenants[core],
            };
        }
    }

    /// [`MemorySystem::data_access`] minus the timing; see
    /// [`MemorySystem::ifetch_warm`].
    ///
    /// The warm path additionally memoizes recent pure-L1-hit lines
    /// (`warm_data`) and replays a repeat touch in O(1) instead of
    /// re-walking. The replay is byte-identical to walking: a repeat
    /// pure-L1-D hit's only effects are the DTLB and L1-D LRU touches
    /// (replayed way-for-way, tick advance included, so snapshots and
    /// digests cannot tell the difference), the L1-D hit counter
    /// (recorded right here with the access's own class), and — for
    /// stores — the dirty bit, which the revalidated `writable && dirty`
    /// premise guarantees is already set. Every premise is checked
    /// against live state immediately before the replay: the line still
    /// sits at the memoized L1-D way with `prefetched` clear (so the
    /// walk would record no useful-prefetch event), a store finds it
    /// writable and dirty (so the walk's in-place dirty update and the
    /// upgrade path are both no-ops), and — since a line's 64 bytes lie
    /// within one page — the page still sits at the memoized DTLB way
    /// (so the walk's translation would hit with no TLB stats). The
    /// fault cursor only advances on the DRAM path, so replayed hits
    /// never disturb it.
    pub fn data_access_warm(
        &mut self,
        core: usize,
        privilege: Privilege,
        addr: u64,
        is_store: bool,
        pc: u64,
        now: u64,
    ) {
        let line = addr >> 6;
        let slot = (line as usize) & (WARM_MEMO_SLOTS - 1);
        let m = self.warm_data[core][slot];
        if m.line == line && m.tenant == self.tenants[core] {
            let ok = self.l1d[core].way_holds(m.l1_way as usize, line).is_some_and(|meta| {
                !meta.prefetched && (!is_store || (meta.writable && meta.dirty))
            });
            if ok && self.tlbs[core].dtlb_way_holds(m.tlb_way as usize, addr >> 12) {
                self.tlbs[core].touch_dtlb(m.tlb_way as usize);
                self.l1d[core].touch_way(m.l1_way as usize);
                self.stats.per_core[core].l1d.record(AccessClass::new(false, privilege), true);
                return;
            }
        }
        self.warming = true;
        let _ = self.data_access(core, privilege, addr, is_store, pc, now);
        self.warming = false;
        // Widened like `ifetch_warm`: memoize after fills too, not only
        // pure L1 hits — replay-time revalidation (including the
        // writable-and-dirty premise for stores) keeps it sound.
        if let (Some((way, _)), Some(dway)) =
            (self.l1d[core].probe(line), self.tlbs[core].dtlb_way_of(addr >> 12))
        {
            self.warm_data[core][slot] = WarmMemo {
                line,
                l1_way: way as u32,
                tlb_way: dway as u32,
                tenant: self.tenants[core],
            };
        }
    }

    /// FNV-1a digest over the warmable microarchitectural state — every
    /// cache array, TLB level, prefetcher table and the DCU stream
    /// cursors — and nothing else: no statistics, no DRAM timing, no
    /// fault cursor. Functional-warming soundness is the claim that
    /// detailed and functional execution of the same reference sequence
    /// leave this digest identical; the cs-uarch property tests assert
    /// exactly that.
    pub fn warm_state_digest(&self) -> u64 {
        let mut e = cs_trace::snap::Enc::new();
        for c in &self.l1i {
            c.encode_snap(&mut e);
        }
        for c in &self.l1d {
            c.encode_snap(&mut e);
        }
        for c in &self.l2 {
            c.encode_snap(&mut e);
        }
        for c in &self.llcs {
            c.encode_snap(&mut e);
        }
        for t in &self.tlbs {
            t.encode_snap(&mut e);
        }
        for s in &self.stride {
            s.encode_snap(&mut e);
        }
        for &m in &self.dcu_last_miss {
            e.u64(m);
        }
        cs_trace::snap::fnv1a64(&e.buf)
    }

    // ------------------------------------------------------------------
    // Demand paths
    // ------------------------------------------------------------------

    /// Performs an instruction fetch of the line containing `addr`.
    pub fn ifetch(&mut self, core: usize, privilege: Privilege, addr: u64, now: u64) -> FetchOutcome {
        let line = addr >> 6;
        let class = AccessClass::new(true, privilege);

        // ITLB.
        let tlb_outcome = self.tlbs[core].translate_instr(addr >> 12);
        let tlb_pen = self.tlbs[core].penalty(tlb_outcome);
        let (mut itlb_stall, mut stlb_stall) = (0, 0);
        match tlb_outcome {
            TlbOutcome::L1 => {}
            TlbOutcome::Stlb => {
                self.stats.per_core[core].tlb.itlb_misses += 1;
                self.stats.per_core[core].tlb.itlb_miss_cycles += tlb_pen as u64;
                itlb_stall = tlb_pen;
            }
            TlbOutcome::Walk => {
                self.stats.per_core[core].tlb.itlb_misses += 1;
                self.stats.per_core[core].tlb.stlb_misses += 1;
                self.stats.per_core[core].tlb.stlb_miss_cycles += tlb_pen as u64;
                stlb_stall = tlb_pen;
            }
        }

        // L1-I.
        let mut hit = false;
        if let Some(meta) = self.l1i[core].lookup(line) {
            hit = true;
            if meta.prefetched {
                meta.prefetched = false;
                self.stats.per_core[core].prefetch.useful_l1i += 1;
            }
        }
        self.stats.per_core[core].l1i.record(class, hit);
        if hit {
            return FetchOutcome {
                latency: self.cfg.l1i.latency + tlb_pen,
                level: ServiceLevel::L1,
                offcore: false,
                itlb_stall,
                stlb_stall,
            };
        }

        let (lat, level, _) = self.access_l2(core, privilege, true, false, line, addr, now, false);
        self.fill_l1(core, true, line, false, false, now);

        // Next-line instruction prefetch on the L1-I miss (degree 2: the
        // frontend runs ahead of sequential fetch within a function, but
        // complex control transfers between functions still miss — the
        // inadequacy §4.1 describes).
        if self.cfg.prefetch.instr_next_line {
            self.stats.per_core[core].prefetch.issued_instr += 2;
            self.prefetch_line(core, privilege, true, next_line(line), now, true);
            self.prefetch_line(core, privilege, true, next_line(next_line(line)), now, true);
        }

        FetchOutcome {
            latency: lat + tlb_pen,
            level,
            offcore: level.is_offcore(),
            itlb_stall,
            stlb_stall,
        }
    }

    /// Performs a data access at `addr`. `pc` trains the stride prefetcher.
    pub fn data_access(
        &mut self,
        core: usize,
        privilege: Privilege,
        addr: u64,
        is_store: bool,
        pc: u64,
        now: u64,
    ) -> DataOutcome {
        let line = addr >> 6;
        let class = AccessClass::new(false, privilege);

        // DTLB.
        let tlb_outcome = self.tlbs[core].translate_data(addr >> 12);
        let tlb_pen = self.tlbs[core].penalty(tlb_outcome);
        let mut stlb_stall = 0;
        match tlb_outcome {
            TlbOutcome::L1 => {}
            TlbOutcome::Stlb => self.stats.per_core[core].tlb.dtlb_misses += 1,
            TlbOutcome::Walk => {
                self.stats.per_core[core].tlb.dtlb_misses += 1;
                self.stats.per_core[core].tlb.stlb_misses += 1;
                self.stats.per_core[core].tlb.stlb_miss_cycles += tlb_pen as u64;
                stlb_stall = tlb_pen;
            }
        }

        // L1-D.
        let mut present = false;
        let mut writable = false;
        if let Some(meta) = self.l1d[core].lookup(line) {
            present = true;
            writable = meta.writable;
            if meta.prefetched {
                meta.prefetched = false;
                self.stats.per_core[core].prefetch.useful_l1d += 1;
            }
            if is_store && meta.writable {
                meta.dirty = true;
            }
        }
        self.stats.per_core[core].l1d.record(class, present);
        if present && (!is_store || writable) {
            return DataOutcome {
                latency: self.cfg.l1d.latency + tlb_pen,
                level: ServiceLevel::L1,
                offcore: false,
                rw_shared: false,
                stlb_stall,
            };
        }
        let upgrade = present; // store hit on a shared (non-writable) line
        if upgrade {
            self.stats.per_core[core].upgrades += 1;
        }

        // DCU streamer: next-line into the L1-D when the L1-D miss stream
        // is ascending (two consecutive misses on adjacent lines arm it;
        // random misses leave it quiet).
        if !upgrade && self.cfg.prefetch.dcu_streamer {
            let ascending = line == self.dcu_last_miss[core].wrapping_add(1);
            self.dcu_last_miss[core] = line;
            if ascending {
                self.stats.per_core[core].prefetch.issued_dcu += 1;
                self.prefetch_line(core, privilege, false, next_line(line), now, true);
            }
        }

        let (lat, level, rw_shared) =
            self.access_l2(core, privilege, false, is_store, line, pc, now, upgrade);

        if upgrade {
            if let Some(meta) = self.l1d[core].peek_mut(line) {
                meta.writable = true;
                meta.dirty = true;
            }
        } else {
            self.fill_l1(core, false, line, is_store, false, now);
        }

        DataOutcome {
            latency: lat + tlb_pen,
            level,
            offcore: level.is_offcore(),
            rw_shared,
            stlb_stall,
        }
    }

    // ------------------------------------------------------------------
    // Inner levels
    // ------------------------------------------------------------------

    /// L2 lookup and, on a miss (or ownership upgrade), LLC/remote/DRAM.
    #[allow(clippy::too_many_arguments)]
    fn access_l2(
        &mut self,
        core: usize,
        privilege: Privilege,
        is_instr: bool,
        want_write: bool,
        line: u64,
        pc: u64,
        now: u64,
        upgrade: bool,
    ) -> (u32, ServiceLevel, bool) {
        let class = AccessClass::new(is_instr, privilege);

        let mut present = false;
        let mut writable = false;
        if let Some(meta) = self.l2[core].lookup(line) {
            present = true;
            writable = meta.writable;
            if meta.prefetched {
                meta.prefetched = false;
                self.stats.per_core[core].prefetch.useful_l2 += 1;
            }
        }
        self.stats.per_core[core].l2.record(class, present);
        if present && (!want_write || writable) {
            return (self.cfg.l2.latency, ServiceLevel::L2, false);
        }

        // Train the stride prefetcher on demand data accesses that reach
        // the L2 (i.e. the L1-D miss stream).
        let mut pf = std::mem::take(&mut self.pf_buf);
        pf.clear();
        let mut adjacent_idx: Option<usize> = None;
        if !is_instr && !upgrade && self.cfg.prefetch.hw_stride {
            self.stride[core].on_access(pc, line, &mut pf);
            self.stats.per_core[core].prefetch.issued_stride += pf.len() as u64;
        }

        let (lat, level, rw_shared) =
            self.access_llc(core, privilege, is_instr, want_write, line, now, false);

        if present {
            // Upgrade: grant ownership in place.
            if let Some(meta) = self.l2[core].peek_mut(line) {
                meta.writable = true;
            }
        } else {
            self.fill_l2(core, line, want_write, false, now);
            // Adjacent-line prefetch triggers on L2 misses.
            if self.cfg.prefetch.adjacent_line {
                self.stats.per_core[core].prefetch.issued_adjacent += 1;
                adjacent_idx = Some(pf.len());
                pf.push(adjacent_line(line));
            }
        }

        // Execute collected prefetches into the L2. The stride prefetcher
        // may run ahead to DRAM; the adjacent-line prefetcher is
        // LLC-bounded (its companion line is dropped on an LLC miss rather
        // than generating off-chip traffic).
        for (i, &target) in pf.iter().enumerate() {
            let llc_bound = Some(i) == adjacent_idx;
            self.prefetch_line_bounded(core, privilege, is_instr, target, now, false, llc_bound);
        }
        self.pf_buf = pf;

        (lat, level, rw_shared)
    }

    /// Local LLC, remote snoop, or DRAM. Fills the local LLC.
    #[allow(clippy::too_many_arguments)]
    fn access_llc(
        &mut self,
        core: usize,
        privilege: Privilege,
        is_instr: bool,
        want_write: bool,
        line: u64,
        now: u64,
        is_prefetch: bool,
    ) -> (u32, ServiceLevel, bool) {
        let socket = self.socket_of(core);
        let class = AccessClass::new(is_instr, privilege);
        let my_bit = self.local_bit(core);
        let mut rw_shared = false;

        // --- Local LLC probe ---
        let mut local_hit = false;
        let mut invalidate_mask: u16 = 0;
        let mut downgrade_mask: u16 = 0;
        if let Some(meta) = self.llcs[socket].lookup(line) {
            local_hit = true;
            if !is_prefetch && !is_instr {
                if let Some(w) = meta.fresh_writer {
                    if w as usize != core {
                        rw_shared = true;
                        if !want_write {
                            // The write has now been observed; the next
                            // reference is not "recently written by remote".
                            meta.fresh_writer = None;
                            downgrade_mask = meta.sharers & !my_bit;
                        }
                    }
                }
            }
            if want_write {
                invalidate_mask = meta.sharers & !my_bit;
                meta.sharers = my_bit;
                // Core ids are bounded by the sharer bitmask width (<= 64),
                // far inside u8 range.
                #[allow(clippy::cast_possible_truncation)]
                {
                    meta.fresh_writer = Some(core as u8);
                }
                meta.dirty = true;
                meta.writable = true;
            } else {
                meta.sharers |= my_bit;
            }
            if !is_prefetch && meta.prefetched {
                meta.prefetched = false;
            }
        }
        if !is_prefetch {
            self.stats.per_core[core].llc.record(class, local_hit);
            if rw_shared {
                self.stats.per_core[core].rw_shared[usize::from(privilege.is_kernel())] += 1;
            }
        }
        if local_hit {
            for c in self.cores_in_mask(socket, invalidate_mask).collect::<Vec<_>>() {
                self.l1d[c].invalidate(line);
                self.l1i[c].invalidate(line);
                self.l2[c].invalidate(line);
            }
            for c in self.cores_in_mask(socket, downgrade_mask).collect::<Vec<_>>() {
                if let Some(m) = self.l1d[c].peek_mut(line) {
                    m.writable = false;
                }
                if let Some(m) = self.l2[c].peek_mut(line) {
                    m.writable = false;
                }
            }
            return (self.cfg.llc.latency, ServiceLevel::LocalLlc, rw_shared);
        }

        // --- Remote socket snoop ---
        let mut remote_state = None;
        for rs in (0..self.n_sockets).filter(|rs| *rs != socket) {
            let mut found = false;
            let mut remote_invalidate: u16 = 0;
            if let Some(meta) = self.llcs[rs].peek_mut(line) {
                found = true;
                if !is_prefetch && !is_instr {
                    if let Some(w) = meta.fresh_writer {
                        if w as usize != core {
                            rw_shared = true;
                        }
                    }
                }
                if want_write {
                    remote_invalidate = meta.sharers;
                } else {
                    meta.fresh_writer = None;
                    meta.writable = false;
                }
            }
            if found {
                if want_write {
                    self.llcs[rs].invalidate(line);
                    for c in self.cores_in_mask(rs, remote_invalidate).collect::<Vec<_>>() {
                        self.l1d[c].invalidate(line);
                        self.l1i[c].invalidate(line);
                        self.l2[c].invalidate(line);
                    }
                }
                remote_state = Some(rs);
                break;
            }
        }

        let (lat, level) = if remote_state.is_some() {
            (self.cfg.llc.latency + self.cfg.remote_snoop_extra, ServiceLevel::RemoteLlc)
        } else {
            // Warming accesses bypass the DRAM channel timers and the
            // bandwidth regulator (their fake pacing would corrupt queueing
            // and window state for the next detailed window), but the fault
            // stream is event-indexed over hierarchy events: the roll is
            // consumed either way so detailed and warmed runs see the same
            // cursor.
            let mut dram_lat = if self.warming {
                0
            } else {
                let throttle = match &mut self.regulator {
                    Some(r) => r.admit(self.tenants[core] as usize, 64, now),
                    None => 0,
                };
                // Throttle delays are bounded by a handful of windows; the
                // u32 latency domain comfortably holds them.
                #[allow(clippy::cast_possible_truncation)]
                self.dram.read(line, now + throttle).saturating_add(throttle as u32)
            };
            if let Some(f) = &mut self.fault {
                dram_lat = dram_lat.saturating_add(f.perturb_dram());
            }
            self.stats.per_core[core].dram_bytes[usize::from(privilege.is_kernel())] += 64;
            (self.cfg.llc.latency.saturating_add(dram_lat), ServiceLevel::Dram)
        };

        // The access itself was already recorded in the local-probe stage;
        // only sharing discovered at the remote socket is recorded here.
        if !is_prefetch && rw_shared {
            self.stats.per_core[core].rw_shared[usize::from(privilege.is_kernel())] += 1;
        }

        // Fill the local LLC, allocating only inside the tenant's way
        // partition when one is configured. Core ids are bounded by the
        // sharer bitmask width (<= 64), far inside u8 range.
        let tenant = self.tenants[core];
        let mask = self.way_mask_of(tenant);
        #[allow(clippy::cast_possible_truncation)]
        let meta = LineMeta {
            dirty: want_write,
            writable: want_write,
            prefetched: is_prefetch,
            sharers: my_bit,
            fresh_writer: if want_write { Some(core as u8) } else { None },
            tenant,
        };
        if let Some(evicted) = self.llcs[socket].fill_masked(line, meta, mask) {
            self.evict_llc_victim(core, socket, evicted, privilege, now);
        }

        (lat, level, rw_shared)
    }

    /// Handles an LLC eviction: inclusive back-invalidation of private
    /// copies plus the writeback, if any copy was dirty.
    fn evict_llc_victim(
        &mut self,
        core: usize,
        socket: usize,
        evicted: crate::cache::Evicted,
        privilege: Privilege,
        now: u64,
    ) {
        let mut dirty = evicted.meta.dirty;
        for c in self.cores_in_mask(socket, evicted.meta.sharers).collect::<Vec<_>>() {
            if let Some(m) = self.l1d[c].invalidate(evicted.line) {
                dirty |= m.dirty;
            }
            self.l1i[c].invalidate(evicted.line);
            if let Some(m) = self.l2[c].invalidate(evicted.line) {
                dirty |= m.dirty;
            }
        }
        if dirty {
            if !self.warming {
                self.dram.write(evicted.line, now);
                // Writebacks are charged against the *evicting* tenant's
                // bandwidth budget but proceed asynchronously — the delay
                // is folded into window occupancy, not demand latency.
                if let Some(r) = &mut self.regulator {
                    let _ = r.admit(self.tenants[core] as usize, 64, now);
                }
            }
            self.stats.per_core[core].dram_bytes[usize::from(privilege.is_kernel())] += 64;
        }
    }

    /// Fills `line` into the private L2, handling dirty victims.
    fn fill_l2(&mut self, core: usize, line: u64, writable: bool, prefetched: bool, now: u64) {
        let meta = LineMeta {
            dirty: false,
            writable,
            prefetched,
            sharers: 0,
            fresh_writer: None,
            tenant: self.tenants[core],
        };
        if let Some(evicted) = self.l2[core].fill(line, meta) {
            if evicted.meta.dirty {
                self.writeback_to_llc(core, evicted.line, now);
            }
        }
    }

    /// Fills `line` into an L1, handling dirty victims (written through to
    /// the L2, or to the LLC if the L2 no longer holds the line).
    fn fill_l1(
        &mut self,
        core: usize,
        is_instr: bool,
        line: u64,
        writable: bool,
        prefetched: bool,
        now: u64,
    ) {
        let meta = LineMeta {
            dirty: false,
            writable,
            prefetched,
            sharers: 0,
            fresh_writer: None,
            tenant: self.tenants[core],
        };
        let cache = if is_instr { &mut self.l1i[core] } else { &mut self.l1d[core] };
        if let Some(evicted) = cache.fill(line, meta) {
            if evicted.meta.dirty {
                if let Some(m) = self.l2[core].peek_mut(evicted.line) {
                    m.dirty = true;
                } else {
                    self.writeback_to_llc(core, evicted.line, now);
                }
            }
        }
    }

    /// Marks `line` dirty in the local LLC, or writes it to DRAM if the
    /// LLC no longer holds it.
    fn writeback_to_llc(&mut self, core: usize, line: u64, now: u64) {
        let socket = self.socket_of(core);
        if let Some(m) = self.llcs[socket].peek_mut(line) {
            m.dirty = true;
        } else {
            if !self.warming {
                self.dram.write(line, now);
                if let Some(r) = &mut self.regulator {
                    let _ = r.admit(self.tenants[core] as usize, 64, now);
                }
            }
            // Attribution of stale writebacks: charged as user traffic to
            // the evicting core (privilege of the original writer is gone).
            self.stats.per_core[core].dram_bytes[0] += 64;
        }
    }

    /// Executes one prefetch of `line` into the L2 (and the L1 of the
    /// requesting side when `into_l1` is set). Prefetches consume DRAM
    /// bandwidth and can pollute, but never charge demand latency.
    fn prefetch_line(
        &mut self,
        core: usize,
        privilege: Privilege,
        is_instr: bool,
        line: u64,
        now: u64,
        into_l1: bool,
    ) {
        self.prefetch_line_bounded(core, privilege, is_instr, line, now, into_l1, false);
    }

    /// [`Self::prefetch_line`] with an optional LLC bound: when set, the
    /// prefetch is dropped if the line is not already LLC-resident,
    /// avoiding off-chip pollution.
    #[allow(clippy::too_many_arguments)]
    fn prefetch_line_bounded(
        &mut self,
        core: usize,
        privilege: Privilege,
        is_instr: bool,
        line: u64,
        now: u64,
        into_l1: bool,
        llc_bound: bool,
    ) {
        if let Some(f) = &mut self.fault {
            if f.drop_prefetch() {
                return;
            }
        }
        if llc_bound {
            let socket = self.socket_of(core);
            if self.llcs[socket].peek(line).is_none() {
                return;
            }
        }
        let in_l1 = if is_instr {
            self.l1i[core].peek(line).is_some()
        } else {
            self.l1d[core].peek(line).is_some()
        };
        if in_l1 {
            return;
        }
        if self.l2[core].peek(line).is_none() {
            let _ = self.access_llc(core, privilege, is_instr, false, line, now, true);
            self.fill_l2(core, line, false, true, now);
        }
        if into_l1 {
            // DCU streamer and instruction next-line prefetches land in the
            // L1 of the requesting side.
            self.fill_l1(core, is_instr, line, false, true, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MemSysConfig, PrefetchConfig, QosConfig};

    fn small_system(n_cores: usize) -> MemorySystem {
        let cfg = MemSysConfig { prefetch: PrefetchConfig::none(), ..MemSysConfig::default() };
        MemorySystem::new(cfg, n_cores)
    }

    #[test]
    fn first_access_goes_to_dram_then_hits_l1() {
        let mut m = small_system(1);
        let a = m.data_access(0, Privilege::User, 0x1000_0000, false, 0x400000, 0);
        assert_eq!(a.level, ServiceLevel::Dram);
        assert!(a.offcore);
        let b = m.data_access(0, Privilege::User, 0x1000_0000, false, 0x400000, 10);
        assert_eq!(b.level, ServiceLevel::L1);
        assert!(!b.offcore);
        assert!(b.latency < a.latency);
    }

    #[test]
    fn latencies_are_ordered_by_level() {
        let mut m = small_system(1);
        let dram = m.data_access(0, Privilege::User, 0x2000_0000, false, 0, 0).latency;
        // Evict from L1 by filling the set; simpler: access a second line
        // then re-access — still L1. Instead check L1 < LLC < DRAM via
        // fresh lines and config.
        let l1 = m.data_access(0, Privilege::User, 0x2000_0000, false, 0, 0).latency;
        assert!(l1 < dram);
    }

    #[test]
    fn ifetch_miss_returns_l2_instr_level() {
        let mut m = small_system(1);
        let a = m.ifetch(0, Privilege::User, 0x40_0000, 0);
        assert_eq!(a.level, ServiceLevel::Dram);
        let b = m.ifetch(0, Privilege::User, 0x40_0000, 5);
        assert_eq!(b.level, ServiceLevel::L1);
        // Evict only the L1-I line: fill conflicting lines in the same set.
        // 64 sets in L1-I: lines differing by 64 map to the same set.
        for k in 1..=8u64 {
            m.ifetch(0, Privilege::User, 0x40_0000 + k * 64 * 64, 10 + k);
        }
        let c = m.ifetch(0, Privilege::User, 0x40_0000, 100);
        assert_eq!(c.level, ServiceLevel::L2, "line should still be in L2");
    }

    #[test]
    fn store_to_shared_line_upgrades_offcore() {
        let mut m = small_system(2);
        let addr = 0x3000_0000;
        // Core 0 reads (line becomes shared/clean in core 0's caches).
        m.data_access(0, Privilege::User, addr, false, 0, 0);
        // Core 1 reads the same line (both sharers now).
        let r1 = m.data_access(1, Privilege::User, addr, false, 0, 1);
        assert_eq!(r1.level, ServiceLevel::LocalLlc);
        // Core 0 stores: upgrade must go off-core even though data is in L1.
        let w = m.data_access(0, Privilege::User, addr, true, 0, 2);
        assert!(w.offcore, "RFO must be visible off-core");
        assert_eq!(m.stats().per_core[0].upgrades, 1);
        // Core 1's copy was invalidated.
        let r2 = m.data_access(1, Privilege::User, addr, false, 0, 3);
        assert!(r2.level > ServiceLevel::L2, "core 1 copy must be invalidated, got {:?}", r2.level);
        assert!(r2.rw_shared, "core 1 reads a line freshly written by core 0");
    }

    #[test]
    fn rw_sharing_detected_once_per_write() {
        let mut m = small_system(2);
        let addr = 0x4000_0000;
        m.data_access(0, Privilege::User, addr, true, 0, 0); // core 0 writes
        let r1 = m.data_access(1, Privilege::User, addr, false, 0, 1);
        assert!(r1.rw_shared);
        // Second read by core 1 hits its own L1 — not shared.
        let r2 = m.data_access(1, Privilege::User, addr, false, 0, 2);
        assert!(!r2.rw_shared);
        assert_eq!(m.stats().per_core[1].rw_shared[0], 1);
    }

    #[test]
    fn cross_socket_read_snoops_remote_llc() {
        let mut m = small_system(12); // 2 sockets of 6
        let addr = 0x5000_0000;
        m.data_access(0, Privilege::User, addr, true, 0, 0); // socket 0 writes
        let r = m.data_access(6, Privilege::User, addr, false, 0, 1); // socket 1 reads
        assert_eq!(r.level, ServiceLevel::RemoteLlc);
        assert!(r.rw_shared);
        assert!(r.offcore);
    }

    #[test]
    fn inclusion_back_invalidates_private_copies() {
        // Tiny LLC to force evictions quickly.
        let cfg = MemSysConfig {
            prefetch: PrefetchConfig::none(),
            llc: crate::config::CacheConfig { size_bytes: 64 * 64, assoc: 1, latency: 39 },
            ..MemSysConfig::default()
        };
        let mut m = MemorySystem::new(cfg, 1);
        let addr = 0x1_0000;
        m.data_access(0, Privilege::User, addr, false, 0, 0);
        assert_eq!(m.data_access(0, Privilege::User, addr, false, 0, 1).level, ServiceLevel::L1);
        // Evict the LLC set containing `addr` (64 sets, so +64*64 bytes
        // collides).
        m.data_access(0, Privilege::User, addr + 64 * 64, false, 0, 2);
        // The L1 copy must be gone (inclusive hierarchy).
        let r = m.data_access(0, Privilege::User, addr, false, 0, 3);
        assert_eq!(r.level, ServiceLevel::Dram, "back-invalidation must purge private copies");
    }

    #[test]
    fn dirty_evictions_write_back_to_dram() {
        let cfg = MemSysConfig {
            prefetch: PrefetchConfig::none(),
            llc: crate::config::CacheConfig { size_bytes: 64 * 64, assoc: 1, latency: 39 },
            ..MemSysConfig::default()
        };
        let mut m = MemorySystem::new(cfg, 1);
        m.data_access(0, Privilege::User, 0x1_0000, true, 0, 0); // dirty line
        let w0 = m.dram_stats().writes;
        m.data_access(0, Privilege::User, 0x1_0000 + 64 * 64, false, 0, 1); // evict it
        assert_eq!(m.dram_stats().writes, w0 + 1);
    }

    #[test]
    fn adjacent_line_prefetcher_fills_companion() {
        let cfg = MemSysConfig {
            prefetch: PrefetchConfig {
                adjacent_line: true,
                hw_stride: false,
                dcu_streamer: false,
                instr_next_line: false,
            },
            ..MemSysConfig::default()
        };
        let mut m = MemorySystem::new(cfg, 2);
        // Core 1 warms the companion line into the shared LLC.
        m.data_access(1, Privilege::User, 0x9000_0040, false, 0x400100, 0);
        // Core 0 misses on the pair line; the adjacent-line prefetcher
        // pulls the LLC-resident companion into core 0's L2.
        m.data_access(0, Privilege::User, 0x9000_0000, false, 0x400100, 1);
        assert!(m.stats().per_core[0].prefetch.issued_adjacent >= 1);
        let r = m.data_access(0, Privilege::User, 0x9000_0040, false, 0x400100, 2);
        assert_eq!(r.level, ServiceLevel::L2);
        assert_eq!(m.stats().per_core[0].prefetch.useful_l2, 1);
        // The prefetcher is LLC-bounded: a companion absent from the LLC
        // generates no off-chip traffic.
        let reads0 = m.dram_stats().reads;
        m.data_access(0, Privilege::User, 0xF000_0000, false, 0x400100, 3);
        assert_eq!(m.dram_stats().reads, reads0 + 1, "only the demand line may read DRAM");
    }

    #[test]
    fn stride_prefetcher_covers_sequential_streams() {
        let cfg = MemSysConfig {
            prefetch: PrefetchConfig {
                adjacent_line: false,
                hw_stride: true,
                dcu_streamer: false,
                instr_next_line: false,
            },
            ..MemSysConfig::default()
        };
        let mut m = MemorySystem::new(cfg, 1);
        let pc = 0x400200;
        let mut dram_hits = 0;
        for i in 0..64u64 {
            let r = m.data_access(0, Privilege::User, 0xA000_0000 + i * 64, false, pc, i * 400);
            if r.level == ServiceLevel::Dram {
                dram_hits += 1;
            }
        }
        assert!(m.stats().per_core[0].prefetch.issued_stride > 0);
        assert!(
            dram_hits < 40,
            "stride prefetcher should cover much of a sequential stream, {dram_hits}/64 went to DRAM"
        );
        assert!(m.stats().per_core[0].prefetch.useful_l2 > 10);
    }

    #[test]
    fn dcu_streamer_prefetches_next_line_into_l1() {
        let cfg = MemSysConfig {
            prefetch: PrefetchConfig {
                adjacent_line: false,
                hw_stride: false,
                dcu_streamer: true,
                instr_next_line: false,
            },
            ..MemSysConfig::default()
        };
        let mut m = MemorySystem::new(cfg, 1);
        // Two ascending misses arm the streamer; the second one prefetches
        // the third line.
        m.data_access(0, Privilege::User, 0xB000_0000, false, 0, 0);
        assert_eq!(m.stats().per_core[0].prefetch.issued_dcu, 0, "first miss must not fire");
        m.data_access(0, Privilege::User, 0xB000_0040, false, 0, 1);
        assert_eq!(m.stats().per_core[0].prefetch.issued_dcu, 1);
        let r = m.data_access(0, Privilege::User, 0xB000_0080, false, 0, 2);
        assert_eq!(r.level, ServiceLevel::L1, "next line must be L1-resident");
        assert_eq!(m.stats().per_core[0].prefetch.useful_l1d, 1);
    }

    #[test]
    fn tlb_misses_accumulate_stall_cycles() {
        let mut m = small_system(1);
        // Touch many distinct pages.
        for p in 0..2000u64 {
            m.data_access(0, Privilege::User, p * 4096, false, 0, p);
        }
        let t = &m.stats().per_core[0].tlb;
        assert!(t.dtlb_misses > 0);
        assert!(t.stlb_misses > 0);
        assert!(t.stlb_miss_cycles > 0);
    }

    #[test]
    fn instruction_fetches_do_not_count_as_data_sharing() {
        let mut m = small_system(2);
        let addr = 0xC000_0000u64;
        m.data_access(0, Privilege::User, addr, true, 0, 0);
        // Instruction fetch of the same line by core 1: not a *data* ref.
        let f = m.ifetch(1, Privilege::User, addr, 1);
        assert!(f.offcore);
        assert_eq!(m.stats().per_core[1].rw_shared, [0, 0]);
    }

    #[test]
    fn disabled_prefetchers_issue_nothing() {
        let mut m = small_system(1);
        for i in 0..200u64 {
            m.data_access(0, Privilege::User, 0xE000_0000 + i * 64, false, 0x40_0000, i);
            m.ifetch(0, Privilege::User, 0x40_0000 + i * 64, i);
        }
        let p = &m.stats().per_core[0].prefetch;
        assert_eq!(
            (p.issued_adjacent, p.issued_stride, p.issued_dcu, p.issued_instr),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn cross_socket_write_invalidates_the_remote_copy() {
        let mut m = small_system(12);
        let addr = 0x6100_0000u64;
        // Socket 1 (core 6) reads; socket 0 (core 0) then writes.
        m.data_access(6, Privilege::User, addr, false, 0, 0);
        m.data_access(0, Privilege::User, addr, true, 0, 1);
        // Core 6's copy is gone; its re-read must leave the core and see
        // the fresh write.
        let r = m.data_access(6, Privilege::User, addr, false, 0, 2);
        assert!(r.offcore, "remote invalidation must purge core 6's copies");
        assert!(r.rw_shared, "and the re-read observes core 0's write");
    }

    #[test]
    fn kernel_accesses_are_classified_separately() {
        let mut m = small_system(1);
        m.data_access(0, Privilege::Kernel, 0xFFFF_9000_0000_0100, false, 0, 0);
        m.data_access(0, Privilege::User, 0x1000, false, 0, 1);
        m.ifetch(0, Privilege::Kernel, 0xFFFF_8000_0000_0000, 2);
        let s = &m.stats().per_core[0];
        assert_eq!(s.l1d.accesses[AccessClass::DataKernel.idx()], 1);
        assert_eq!(s.l1d.accesses[AccessClass::DataUser.idx()], 1);
        assert_eq!(s.l1i.accesses[AccessClass::InstrKernel.idx()], 1);
    }

    #[test]
    fn tlb_stall_components_are_reported() {
        let mut m = small_system(1);
        // First touch of a page: full walk, reported as STLB stall.
        let a = m.data_access(0, Privilege::User, 0x5555_0000, false, 0, 0);
        assert!(a.stlb_stall > 0, "first touch must walk");
        // Second touch of the same page: no TLB stall.
        let b = m.data_access(0, Privilege::User, 0x5555_0008, false, 0, 1);
        assert_eq!(b.stlb_stall, 0);
        assert!(b.latency < a.latency);
    }

    #[test]
    fn upgrades_do_not_inflate_l1_misses() {
        let mut m = small_system(2);
        let addr = 0x7100_0000u64;
        m.data_access(0, Privilege::User, addr, false, 0, 0); // core 0 read
        m.data_access(1, Privilege::User, addr, false, 0, 1); // core 1 read (shared)
        m.data_access(0, Privilege::User, addr, true, 0, 2); // core 0 upgrade
        let s = &m.stats().per_core[0];
        assert_eq!(s.upgrades, 1);
        // Core 0: one cold miss (the read) and one hit (the upgrade found
        // its data in the L1; only ownership travelled off-core).
        assert_eq!(s.l1d.total_accesses(), 2);
        assert_eq!(s.l1d.total_hits(), 1, "the upgrade still found its data in the L1");
    }

    #[test]
    fn export_stats_into_includes_dram_totals_and_reuses_the_buffer() {
        let mut m = small_system(1);
        m.data_access(0, Privilege::User, 0x9999_0000, false, 0, 0);
        let mut snap = MemStats::default();
        m.export_stats_into(&mut snap);
        assert_eq!(snap.dram, m.dram_stats());
        assert!(snap.dram.reads >= 1);
        assert_eq!(snap.per_core[0].l1d.total_accesses(), 1);
        // A second snapshot into the same buffer stays consistent (and
        // reuses the per-core allocation rather than cloning afresh).
        m.data_access(0, Privilege::User, 0x9999_0000, false, 0, 1);
        m.export_stats_into(&mut snap);
        assert_eq!(snap.per_core[0].l1d.total_accesses(), 2);
        assert_eq!(snap.dram, m.dram_stats());
    }

    #[test]
    fn counters_track_levels_consistently() {
        let mut m = small_system(1);
        for i in 0..100u64 {
            m.data_access(0, Privilege::User, 0xD000_0000 + i * 8, false, 0, i);
        }
        let s = &m.stats().per_core[0];
        let l1_acc = s.l1d.total_accesses();
        let l1_hit = s.l1d.total_hits();
        let l2_acc = s.l2.total_accesses();
        assert_eq!(l1_acc, 100);
        assert_eq!(l1_acc - l1_hit, l2_acc, "every L1 miss must access the L2");
        let llc_acc = s.llc.total_accesses();
        assert_eq!(l2_acc - s.l2.total_hits(), llc_acc);
    }

    #[test]
    fn fault_plan_perturbs_dram_latency() {
        use crate::fault::FaultPlan;
        let mut clean = small_system(1);
        let cfg = MemSysConfig {
            prefetch: PrefetchConfig::none(),
            fault: Some(FaultPlan::dram_jitter(10_000, 1.0, 1)),
            ..MemSysConfig::default()
        };
        let mut faulty = MemorySystem::new(cfg, 1);
        let a = clean.data_access(0, Privilege::User, 0x1000_0000, false, 0x400000, 0);
        let b = faulty.data_access(0, Privilege::User, 0x1000_0000, false, 0x400000, 0);
        assert_eq!(a.level, ServiceLevel::Dram);
        assert_eq!(b.level, ServiceLevel::Dram);
        assert_eq!(b.latency, a.latency + 10_000, "rate-1.0 plan must hit every DRAM read");
        assert_eq!(clean.fault_counters(), None);
        assert_eq!(faulty.fault_counters().expect("plan active").perturbed_dram_reads, 1);
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical_and_behavior_preserving() {
        use crate::fault::FaultPlan;
        // Prefetchers on and a fault plan active: every snapshotted
        // component carries non-trivial state.
        let cfg = MemSysConfig {
            fault: Some(FaultPlan::prefetch_drops(0.25, 11)),
            ..MemSysConfig::default()
        };
        let mut live = MemorySystem::new(cfg.clone(), 4);
        for i in 0..3_000u64 {
            let core = (i % 4) as usize;
            let priv_ = if i % 7 == 0 { Privilege::Kernel } else { Privilege::User };
            live.data_access(core, priv_, 0x1000_0000 + (i % 512) * 64, i % 3 == 0, 0x40_0000 + i * 4, i * 2);
            live.ifetch(core, priv_, 0x40_0000 + (i % 128) * 64, i * 2 + 1);
        }

        let mut enc = cs_trace::snap::Enc::new();
        live.encode_snap(&mut enc);
        let bytes = enc.buf.clone();

        let mut restored = MemorySystem::new(cfg, 4);
        let mut dec = cs_trace::snap::Dec::new(&bytes);
        restored.restore_snap(&mut dec).expect("restore");
        dec.finish().expect("no trailing bytes");

        // Re-encoding the restored system reproduces the snapshot bytes.
        let mut enc2 = cs_trace::snap::Enc::new();
        restored.encode_snap(&mut enc2);
        assert_eq!(enc2.buf, bytes, "restore(save(s)) must re-encode identically");

        // And both systems continue identically.
        for i in 0..1_000u64 {
            let core = (i % 4) as usize;
            let a = live.data_access(core, Privilege::User, 0x2000_0000 + i * 64, false, 0x41_0000, 6_000 + i);
            let b = restored.data_access(core, Privilege::User, 0x2000_0000 + i * 64, false, 0x41_0000, 6_000 + i);
            assert_eq!(a, b);
        }
        assert_eq!(live.stats(), restored.stats());
        assert_eq!(live.dram_stats(), restored.dram_stats());
        assert_eq!(live.fault_counters(), restored.fault_counters());
    }

    #[test]
    fn snapshot_restore_rejects_topology_mismatch() {
        let mut a = small_system(2);
        let mut enc = cs_trace::snap::Enc::new();
        a.encode_snap(&mut enc);
        // Wrong core count.
        let mut b = small_system(4);
        let mut dec = cs_trace::snap::Dec::new(&enc.buf);
        match b.restore_snap(&mut dec) {
            Err(cs_trace::snap::SnapError::Mismatch(_)) => {}
            other => panic!("expected Mismatch, got {other:?}"),
        }
        // Fault-plan presence disagreement.
        use crate::fault::FaultPlan;
        let cfg = MemSysConfig {
            prefetch: PrefetchConfig::none(),
            fault: Some(FaultPlan::dram_jitter(10, 0.5, 3)),
            ..MemSysConfig::default()
        };
        let mut c = MemorySystem::new(cfg, 2);
        let mut dec = cs_trace::snap::Dec::new(&enc.buf);
        match c.restore_snap(&mut dec) {
            Err(cs_trace::snap::SnapError::Mismatch(_)) => {}
            other => panic!("expected Mismatch, got {other:?}"),
        }
        let _ = a.data_access(0, Privilege::User, 0x1000, false, 0, 0);
    }

    #[test]
    fn warm_accesses_leave_cache_state_identical_to_detailed() {
        // The functional-warming soundness claim at the memsys level: the
        // same reference sequence, driven once through the demand paths
        // and once through the warming paths, must leave byte-identical
        // cache/TLB/prefetcher state — only DRAM timing may differ.
        let mk = || MemorySystem::new(MemSysConfig::default(), 2);
        let mut detailed = mk();
        let mut warmed = mk();
        for i in 0..2_000u64 {
            let core = (i % 2) as usize;
            let priv_ = if i % 7 == 0 { Privilege::Kernel } else { Privilege::User };
            let addr = 0x1000_0000 + (i % 777) * 64;
            let pc = 0x40_0000 + (i % 64) * 4;
            detailed.data_access(core, priv_, addr, i % 3 == 0, pc, i);
            detailed.ifetch(core, priv_, pc, i);
            warmed.data_access_warm(core, priv_, addr, i % 3 == 0, pc, i);
            warmed.ifetch_warm(core, priv_, pc, i);
        }
        assert_eq!(detailed.warm_state_digest(), warmed.warm_state_digest());
        // Demand stats are identical too (warming records them; they are
        // zeroed at each measurement-window start anyway).
        assert_eq!(detailed.stats().per_core, warmed.stats().per_core);
        // But warming never touched the DRAM channel books.
        assert_eq!(warmed.dram_stats().reads, 0);
        assert_eq!(warmed.dram_stats().writes, 0);
        assert!(detailed.dram_stats().reads > 0);
    }

    #[test]
    fn widened_memo_stays_sound_under_l1_thrash() {
        // The widened memo records entries after L2-serviced fills, so a
        // line bouncing between L1 and L2 replays on its second touch.
        // Drive an L1-thrashing ping-pong (working set larger than L1,
        // comfortably inside L2, with immediate re-touches that hit the
        // fresh memo) and assert the soundness digest still matches the
        // demand walk exactly, stores included.
        let mk = || MemorySystem::new(MemSysConfig::default(), 1);
        let mut detailed = mk();
        let mut warmed = mk();
        let l1_lines = MemSysConfig::default().l1d.size_bytes / 64;
        for i in 0..6_000u64 {
            // Stride over 4x the L1 capacity so most touches are L2 hits,
            // then touch the same line twice more (memo replays).
            let base = 0x2000_0000 + (i % (l1_lines * 4)) * 64;
            let pc = 0x40_0000 + (i % 2048) * 4;
            for _ in 0..3 {
                detailed.data_access(0, Privilege::User, base, i % 5 == 0, pc, i);
                detailed.ifetch(0, Privilege::User, pc, i);
                warmed.data_access_warm(0, Privilege::User, base, i % 5 == 0, pc, i);
                warmed.ifetch_warm(0, Privilege::User, pc, i);
            }
        }
        assert_eq!(detailed.warm_state_digest(), warmed.warm_state_digest());
        assert_eq!(detailed.stats().per_core, warmed.stats().per_core);
    }

    #[test]
    fn warm_accesses_consume_the_fault_stream_like_demand_accesses() {
        use crate::fault::FaultPlan;
        // One shared RNG feeds DRAM perturbation and prefetch drops; the
        // warming path must consume rolls at exactly the demand rate or a
        // sampled run's post-warming fault cursor would diverge.
        let plan = FaultPlan {
            dram_extra_latency: 150,
            dram_perturb_rate: 0.4,
            prefetch_drop_rate: 0.3,
            seed: 0xABCD,
        };
        let mk = || {
            let cfg = MemSysConfig { fault: Some(plan), ..MemSysConfig::default() };
            MemorySystem::new(cfg, 1)
        };
        let mut detailed = mk();
        let mut warmed = mk();
        for i in 0..1_500u64 {
            let addr = 0x9000_0000 + (i % 500) * 64;
            detailed.data_access(0, Privilege::User, addr, false, 0x40_0000, i);
            warmed.data_access_warm(0, Privilege::User, addr, false, 0x40_0000, i);
        }
        let a = detailed.fault_counters().expect("plan active");
        let b = warmed.fault_counters().expect("plan active");
        assert_eq!(a, b, "fault cursor must advance identically in both paths");
        assert!(a.perturbed_dram_reads > 0);
    }

    #[test]
    fn prefetch_drop_plan_suppresses_prefetches() {
        use crate::fault::FaultPlan;
        let mk = |fault| {
            let cfg = MemSysConfig { fault, ..MemSysConfig::default() };
            MemorySystem::new(cfg, 1)
        };
        let mut clean = mk(None);
        let mut faulty = mk(Some(FaultPlan::prefetch_drops(1.0, 9)));
        // A sequential stream trains the stride/DCU/adjacent-line
        // prefetchers; with a rate-1.0 drop plan none of their issues may
        // touch the hierarchy.
        for m in [&mut clean, &mut faulty] {
            for i in 0..64u64 {
                m.data_access(0, Privilege::User, 0x4000_0000 + i * 64, false, 0x400000, i * 20);
            }
        }
        let dropped = faulty.fault_counters().expect("plan active").dropped_prefetches;
        assert!(dropped > 0, "stream must have provoked prefetch issues");
        let lines_touched = |m: &MemorySystem| m.stats().per_core[0].dram_bytes[0] / 64;
        assert!(
            lines_touched(&faulty) <= lines_touched(&clean),
            "dropping prefetches cannot increase DRAM traffic"
        );
    }

    /// Two tenants, two cores, with the LLC split into disjoint way
    /// halves. Under the partition, no amount of streaming by one tenant
    /// may evict the other tenant's LLC-resident lines.
    #[test]
    fn way_partition_isolates_tenant_llc_occupancy() {
        let cfg = MemSysConfig {
            prefetch: PrefetchConfig::none(),
            qos: QosConfig {
                llc_way_masks: Some(vec![0x00FF, 0xFF00]),
                ..QosConfig::default()
            },
            ..MemSysConfig::default()
        };
        let mut m = MemorySystem::new(cfg, 2);
        m.set_tenant(0, 0);
        m.set_tenant(1, 1);
        // Tenant 0 loads a modest working set.
        for i in 0..256u64 {
            m.data_access(0, Privilege::User, 0x1000_0000 + i * 64, false, 0, i);
        }
        let resident = m.llc_tenant_lines(0);
        assert_eq!(resident, 256);
        // Tenant 1 streams far more than the whole LLC.
        let llc_lines = (12u64 << 20) / 64;
        for i in 0..(llc_lines * 2) {
            m.data_access(1, Privilege::User, 0x8000_0000 + i * 64, false, 0, 1_000 + i);
        }
        assert_eq!(
            m.llc_tenant_lines(0),
            resident,
            "a way-partitioned polluter must not evict the victim tenant's lines"
        );
        // And the polluter is capped at its half of the ways.
        assert!(m.llc_tenant_lines(1) <= llc_lines / 2);
    }

    /// Without a partition the same polluter stream wipes out the victim
    /// tenant's occupancy — the contrast that makes the previous test
    /// meaningful.
    #[test]
    fn unpartitioned_polluter_evicts_the_other_tenant() {
        let mut m = small_system(2);
        m.set_tenant(1, 1);
        for i in 0..256u64 {
            m.data_access(0, Privilege::User, 0x1000_0000 + i * 64, false, 0, i);
        }
        let llc_lines = (12u64 << 20) / 64;
        for i in 0..(llc_lines * 2) {
            m.data_access(1, Privilege::User, 0x8000_0000 + i * 64, false, 0, 1_000 + i);
        }
        assert_eq!(m.llc_tenant_lines(0), 0, "an unpartitioned polluter sweeps the whole LLC");
    }

    /// The throttle delays demand reads once a tenant exhausts its window
    /// budget, and an unthrottled config is untouched.
    #[test]
    fn throttle_defers_reads_beyond_the_window_budget() {
        let qos = QosConfig {
            dram_budgets: Some(vec![128, u64::MAX / 2]),
            dram_budget_window: 100_000,
            ..QosConfig::default()
        };
        let cfg = MemSysConfig { prefetch: PrefetchConfig::none(), qos, ..MemSysConfig::default() };
        let mut throttled = MemorySystem::new(cfg, 1);
        let mut free = small_system(1);
        // Two reads fit the 128-byte budget; the third must wait for the
        // next 100k-cycle window, which dwarfs any DRAM latency.
        for m in [&mut free, &mut throttled] {
            for k in 0..3u64 {
                let out = m.data_access(0, Privilege::User, 0x6000_0000 + k * 1_000_000, false, 0, k);
                assert_eq!(out.level, ServiceLevel::Dram);
            }
        }
        let free_lat = free.data_access(0, Privilege::User, 0x7000_0000, false, 0, 10).latency;
        let thr_lat = throttled.data_access(0, Privilege::User, 0x7000_0000, false, 0, 10).latency;
        assert!(
            thr_lat > free_lat + 50_000,
            "4th read of an exhausted budget must wait for a future window \
             (throttled {thr_lat} vs free {free_lat})"
        );
    }

    /// Functional warming must leave the regulator's window state alone,
    /// exactly as it leaves the DRAM channel timers alone.
    #[test]
    fn warm_accesses_bypass_the_regulator() {
        let qos = QosConfig {
            dram_budgets: Some(vec![64]),
            dram_budget_window: 1_000_000,
            ..QosConfig::default()
        };
        let cfg = MemSysConfig { prefetch: PrefetchConfig::none(), qos, ..MemSysConfig::default() };
        let mut m = MemorySystem::new(cfg, 1);
        // Warm far past the 64-byte budget.
        for i in 0..100u64 {
            m.data_access_warm(0, Privilege::User, 0x5000_0000 + i * 64, false, 0, i);
        }
        // The first detailed read still sees a full budget: no throttle
        // delay on top of the plain DRAM latency.
        let lat = m.data_access(0, Privilege::User, 0x9000_0000, false, 0, 200).latency;
        let mut plain = small_system(1);
        let base = plain.data_access(0, Privilege::User, 0x9000_0000, false, 0, 200).latency;
        assert_eq!(lat, base, "warming must not consume regulator budget");
    }

    /// Regulator window state survives a snapshot/restore round trip, and
    /// the restored system keeps deferring exactly like the live one.
    #[test]
    fn snapshot_roundtrip_preserves_regulator_state() {
        let qos = QosConfig {
            dram_budgets: Some(vec![128]),
            dram_budget_window: 100_000,
            ..QosConfig::default()
        };
        let cfg = MemSysConfig { prefetch: PrefetchConfig::none(), qos, ..MemSysConfig::default() };
        let mut live = MemorySystem::new(cfg.clone(), 1);
        for k in 0..3u64 {
            live.data_access(0, Privilege::User, 0x6000_0000 + k * 1_000_000, false, 0, k);
        }
        let mut enc = cs_trace::snap::Enc::new();
        live.encode_snap(&mut enc);
        let mut restored = MemorySystem::new(cfg, 1);
        let mut dec = cs_trace::snap::Dec::new(&enc.buf);
        restored.restore_snap(&mut dec).expect("restore");
        dec.finish().expect("no trailing bytes");
        let a = live.data_access(0, Privilege::User, 0x7000_0000, false, 0, 10).latency;
        let b = restored.data_access(0, Privilege::User, 0x7000_0000, false, 0, 10).latency;
        assert_eq!(a, b, "restored regulator must defer identically to the live one");
        assert!(a > 50_000, "the post-roundtrip read should still be throttled");
    }

    /// A tenant-count mismatch between snapshot and config is rejected,
    /// mirroring the fault-plan presence guards.
    #[test]
    fn snapshot_with_regulator_needs_matching_config() {
        let qos = QosConfig {
            dram_budgets: Some(vec![128]),
            dram_budget_window: 100_000,
            ..QosConfig::default()
        };
        let cfg = MemSysConfig { prefetch: PrefetchConfig::none(), qos, ..MemSysConfig::default() };
        let live = MemorySystem::new(cfg, 1);
        let mut enc = cs_trace::snap::Enc::new();
        live.encode_snap(&mut enc);
        let mut plain = small_system(1);
        let mut dec = cs_trace::snap::Dec::new(&enc.buf);
        match plain.restore_snap(&mut dec) {
            Err(cs_trace::snap::SnapError::Mismatch(msg)) => {
                assert!(msg.contains("regulator"), "unexpected message: {msg}");
            }
            other => panic!("expected a mismatch, got {other:?}"),
        }
    }

    /// Changing a core's tenant wipes its warm memos, so a memoized hit
    /// recorded under one tenant never replays under another.
    #[test]
    fn warm_memo_is_keyed_by_tenant() {
        let mut m = small_system(1);
        let addr = 0x4000_0000;
        // Record a warm memo for tenant 0.
        m.data_access_warm(0, Privilege::User, addr, false, 0, 0);
        m.data_access_warm(0, Privilege::User, addr, false, 0, 1);
        let hits_before = m.stats().per_core[0].l1d.total_hits();
        // Switch tenants; the line is still L1-resident, so the re-walk
        // (not the memo) must service the touch and re-memoize under the
        // new tenant id.
        m.set_tenant(0, 1);
        m.data_access_warm(0, Privilege::User, addr, false, 0, 2);
        assert!(m.stats().per_core[0].l1d.total_hits() > hits_before);
        assert_eq!(m.tenant_of(0), 1);
    }
}
