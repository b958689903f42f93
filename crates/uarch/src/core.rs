//! Cycle-level out-of-order core model.
//!
//! The pipeline advances one cycle at a time through five stages:
//!
//! 1. **complete** — instructions whose execution latency has elapsed are
//!    marked done (a completion heap avoids scanning the window);
//!    mispredicted branches redirect fetch with a refill penalty;
//! 2. **fetch** — one hardware thread per cycle (round-robin under SMT)
//!    pulls micro-ops from its trace source; crossing into a new cache
//!    line performs an instruction fetch through the memory system, and
//!    any latency beyond the L1-I stalls the thread's frontend — the
//!    mechanism behind the paper's frontend-stall findings (§4.1);
//! 3. **dispatch** — up to `width` ops enter the reorder buffer, gated by
//!    the per-thread ROB partition, the shared reservation stations and
//!    the load/store queues (Table 1 sizes);
//! 4. **issue** — up to `width` ready ops begin execution, oldest first,
//!    limited by memory/FP/divide ports; loads walk the cache hierarchy
//!    and, when they leave the core, occupy one of the 16 MSHRs — the
//!    structural limit on memory-level parallelism (§4.3). Issue is
//!    wakeup-driven: a dispatched op registers on the wake lists of its
//!    unfinished producers, and a producer's completion moves consumers
//!    whose last operand arrived onto a seq-ordered ready list, the only
//!    ops the issue stage examines;
//! 5. **commit** — up to `width` done ops retire in per-thread program
//!    order. Each cycle is classified *Committing* or *Stalled* and
//!    attributed to application or OS execution, the paper's Figure 1
//!    methodology.

use crate::branch::{BranchModel, Gshare};
use crate::config::{CoreConfig, SmtFetchPolicy};
use crate::stats::CoreStats;
use cs_memsys::MemorySystem;
use cs_trace::{MicroOp, OpKind, Privilege, TraceSource};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulation fidelity level of a core.
///
/// `Detailed` is the full cycle-level out-of-order pipeline. `Functional`
/// retires instructions at commit width with no pipeline modeling, but
/// still drives every instruction and data reference through the memory
/// system's warming path so caches, TLBs, prefetcher tables and the
/// branch predictor keep evolving exactly as their contents would under
/// detailed execution of the same instruction stream — the
/// functional-warming fast-forward of SMARTS-style sampled simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Full out-of-order timing model.
    #[default]
    Detailed,
    /// Warming-only fast path: no timing, full state updates.
    Functional,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Issued,
    Done,
}

#[derive(Debug)]
struct RobEntry {
    op: MicroOp,
    seq: u64,
    state: EntryState,
    offcore_load: bool,
    /// Wakeup bookkeeping, derived and never serialized (see
    /// [`Thread::rebuild_wakeup`]): producers not yet `Done`, counted per
    /// dependency slot. A waiting entry at 0 is on the ready list.
    unresolved: u8,
    /// Head of the list of consumers waiting on this entry, as wake nodes
    /// (`consumer_seq << 1 | dependency_slot`); [`NO_WAKE`] when empty.
    wake_head: u64,
    /// Next wake node after this entry's node for each dependency slot.
    wake_next: [u64; 2],
}

impl RobEntry {
    fn new(op: MicroOp, seq: u64, state: EntryState, offcore_load: bool) -> Self {
        Self {
            op,
            seq,
            state,
            offcore_load,
            unresolved: 0,
            wake_head: NO_WAKE,
            wake_next: [NO_WAKE; 2],
        }
    }
}

/// End-of-list marker of the wake lists.
const NO_WAKE: u64 = u64::MAX;

/// Issue-port classes with a per-cycle limit: memory, FP, divide.
const PORT_CLASSES: usize = 3;

/// The issue-port class an op competes for, if any (index into
/// [`PORT_CLASSES`]-sized tables).
fn port_class(kind: OpKind) -> Option<usize> {
    match kind {
        OpKind::Load | OpKind::Store => Some(0),
        OpKind::Fp => Some(1),
        OpKind::IntDiv => Some(2),
        _ => None,
    }
}

/// Ops pulled from the trace source per refill. Large enough to amortize
/// the virtual `next_block` dispatch, small enough that the buffered
/// run-ahead past the fetch point stays negligible.
const FETCH_BLOCK: usize = 32;

struct Thread {
    source: Box<dyn TraceSource>,
    /// Total ops ever pulled from `source`. Snapshots store this instead
    /// of the source's internal state: synthetic sources are pure
    /// functions of `(profile, thread, seed)` with no feedback from the
    /// simulation, so restore rebuilds the source from the same factory
    /// and fast-forwards it by re-pulling exactly this many ops.
    ops_pulled: u64,
    /// Block buffer refilled from `source` ([`FETCH_BLOCK`] ops at a
    /// time); `block_pos` is the next unconsumed op.
    block: Vec<MicroOp>,
    block_pos: usize,
    rob: VecDeque<RobEntry>,
    fetch_buf: VecDeque<MicroOp>,
    pending: Option<MicroOp>,
    next_seq: u64,
    fetch_stall_until: u64,
    /// Portion of the fetch stall caused by the memory system (L1-I miss
    /// service, instruction TLB); feeds the paper's memory-cycles bar.
    mem_fetch_stall_until: u64,
    cur_fetch_line: u64,
    flush_pending: bool,
    last_fetch_priv: Privilege,
    exhausted: bool,
    /// Dispatched-but-not-issued (`Waiting`) ROB entries, bounded by the
    /// reservation stations. In-order cores issue in program order, so
    /// theirs are always the youngest `n_waiting` entries. This count and
    /// the ready and per-class lists below are derived from the ROB entry
    /// states and not serialized; snapshots list the waiting entries
    /// themselves (see `Thread::waiting`).
    n_waiting: usize,
    /// The waiting entries whose producers are all `Done` or retired, in
    /// program order: the only entries the issue stage examines.
    ready: Vec<u64>,
    /// The waiting entries of each port class, in program order; lets
    /// issue reproduce the port-blocking rule of a full waiting-list scan
    /// without walking the window.
    port_waiting: [Vec<u64>; PORT_CLASSES],
    /// A fetched branch awaiting its outcome (gshare mode): resolved by
    /// the next fetched instruction's PC.
    held_branch: Option<MicroOp>,
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("label", &self.source.label())
            .field("rob_len", &self.rob.len())
            .field("next_seq", &self.next_seq)
            .field("exhausted", &self.exhausted)
            .finish()
    }
}

impl Thread {
    fn new(source: Box<dyn TraceSource>) -> Self {
        Self {
            source,
            ops_pulled: 0,
            block: Vec::with_capacity(FETCH_BLOCK),
            block_pos: 0,
            rob: VecDeque::new(),
            fetch_buf: VecDeque::new(),
            pending: None,
            next_seq: 0,
            fetch_stall_until: 0,
            mem_fetch_stall_until: 0,
            cur_fetch_line: u64::MAX,
            flush_pending: false,
            last_fetch_priv: Privilege::User,
            exhausted: false,
            n_waiting: 0,
            ready: Vec::new(),
            port_waiting: Default::default(),
            held_branch: None,
        }
    }

    /// Next op from the block buffer, refilling from the source when the
    /// buffer runs dry. Sets `exhausted` when a refill yields nothing, so
    /// `exhausted` always implies an empty buffer.
    #[inline]
    fn next_from_block(&mut self) -> Option<MicroOp> {
        if self.block_pos == self.block.len() {
            if self.exhausted {
                return None;
            }
            self.block.clear();
            self.block_pos = 0;
            let pulled = self.source.next_block(&mut self.block, FETCH_BLOCK);
            self.ops_pulled += pulled as u64;
            if pulled == 0 {
                self.exhausted = true;
                return None;
            }
        }
        let op = self.block[self.block_pos];
        self.block_pos += 1;
        Some(op)
    }

    /// Serializes everything except the trace source itself (see
    /// `ops_pulled` for how the source is reconstructed).
    fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        use cs_trace::snap::encode_op;
        e.u64(self.ops_pulled);
        e.len(self.block.len());
        for op in &self.block {
            encode_op(e, op);
        }
        e.len(self.block_pos);
        e.len(self.rob.len());
        for entry in &self.rob {
            encode_op(e, &entry.op);
            e.u64(entry.seq);
            e.u8(match entry.state {
                EntryState::Waiting => 0,
                EntryState::Issued => 1,
                EntryState::Done => 2,
            });
            e.bool(entry.offcore_load);
        }
        e.len(self.fetch_buf.len());
        for op in &self.fetch_buf {
            encode_op(e, op);
        }
        match &self.pending {
            None => e.u8(0),
            Some(op) => {
                e.u8(1);
                encode_op(e, op);
            }
        }
        e.u64(self.next_seq);
        e.u64(self.fetch_stall_until);
        e.u64(self.mem_fetch_stall_until);
        e.u64(self.cur_fetch_line);
        e.bool(self.flush_pending);
        cs_trace::snap::encode_privilege(e, self.last_fetch_priv);
        e.bool(self.exhausted);
        e.len(self.n_waiting);
        for seq in self.waiting() {
            e.u64(seq);
        }
        match &self.held_branch {
            None => e.u8(0),
            Some(op) => {
                e.u8(1);
                encode_op(e, op);
            }
        }
    }

    /// Restores a snapshot written by [`Thread::encode_snap`] into this
    /// thread, whose `source` must be a *fresh* copy of the snapshotted
    /// one (same factory, same seed). The source is fast-forwarded by
    /// re-pulling the snapshotted number of ops before the buffered state
    /// is installed, so its internal RNG/synth cursors land exactly where
    /// they were when the snapshot was taken. `max_pulled` bounds that
    /// count: a corrupt one past it fails rather than pulling for ever.
    fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
        max_pulled: u64,
    ) -> Result<(), cs_trace::snap::SnapError> {
        use cs_trace::snap::{decode_op, SnapError};
        let ops_pulled = d.u64()?;
        if ops_pulled > max_pulled {
            return Err(SnapError::Mismatch(format!(
                "{ops_pulled} ops pulled, more than the snapshot's cycle count allows"
            )));
        }
        // Fast-forward the fresh source. A source that dries up early is
        // not the source the snapshot was taken from.
        let mut remaining = ops_pulled;
        let mut scratch: Vec<MicroOp> = Vec::with_capacity(4096);
        while remaining > 0 {
            scratch.clear();
            let want = remaining.min(4096) as usize;
            let got = self.source.next_block(&mut scratch, want);
            if got == 0 {
                return Err(SnapError::Mismatch(format!(
                    "trace source dried up {remaining} ops before the snapshot point"
                )));
            }
            remaining -= got as u64;
        }
        self.ops_pulled = ops_pulled;
        let n = d.len()?;
        self.block.clear();
        for _ in 0..n {
            self.block.push(decode_op(d)?);
        }
        self.block_pos = d.len()?;
        if self.block_pos > self.block.len() {
            return Err(SnapError::Mismatch("block cursor past buffer end".into()));
        }
        let n = d.len()?;
        self.rob.clear();
        for _ in 0..n {
            let op = decode_op(d)?;
            let seq = d.u64()?;
            let state = match d.u8()? {
                0 => EntryState::Waiting,
                1 => EntryState::Issued,
                2 => EntryState::Done,
                t => return Err(SnapError::BadTag(t)),
            };
            let offcore_load = d.bool()?;
            // Wakeup indexes the ROB by sequence number.
            if self.rob.back().is_some_and(|prev| prev.seq.checked_add(1) != Some(seq)) {
                return Err(SnapError::Mismatch("ROB sequence numbers not consecutive".into()));
            }
            self.rob.push_back(RobEntry::new(op, seq, state, offcore_load));
        }
        let n = d.len()?;
        self.fetch_buf.clear();
        for _ in 0..n {
            self.fetch_buf.push_back(decode_op(d)?);
        }
        self.pending = match d.u8()? {
            0 => None,
            1 => Some(decode_op(d)?),
            t => return Err(SnapError::BadTag(t)),
        };
        self.next_seq = d.u64()?;
        self.fetch_stall_until = d.u64()?;
        self.mem_fetch_stall_until = d.u64()?;
        self.cur_fetch_line = d.u64()?;
        self.flush_pending = d.bool()?;
        self.last_fetch_priv = cs_trace::snap::decode_privilege(d)?;
        self.exhausted = d.bool()?;
        let n = d.len()?;
        let mut waiting = Vec::with_capacity(n);
        for _ in 0..n {
            waiting.push(d.u64()?);
        }
        self.held_branch = match d.u8()? {
            0 => None,
            1 => Some(decode_op(d)?),
            t => return Err(SnapError::BadTag(t)),
        };
        if !self.waiting().eq(waiting) {
            return Err(SnapError::Mismatch("waiting list disagrees with the ROB".into()));
        }
        self.rebuild_wakeup();
        Ok(())
    }

    /// Sequence numbers of the waiting entries, in program order.
    fn waiting(&self) -> impl Iterator<Item = u64> + '_ {
        self.rob.iter().filter(|e| e.state == EntryState::Waiting).map(|e| e.seq)
    }

    /// ROB index of the in-flight entry `seq`.
    #[inline]
    fn rob_idx(&self, seq: u64) -> usize {
        (seq - self.rob.front().expect("entry is in flight").seq) as usize
    }

    /// Registers the newest waiting entry `seq` for wakeup: counts its
    /// producers that are not yet `Done`, links it onto their wake lists
    /// and files it under its port class, or on the ready list if no
    /// producer is outstanding. Entries must register in program order.
    fn register_waiting(&mut self, seq: u64) {
        let front = self.rob.front().expect("entry is in flight").seq;
        let idx = (seq - front) as usize;
        let op = self.rob[idx].op;
        let mut unresolved = 0;
        for (slot, dist) in [op.dep1, op.dep2].into_iter().enumerate() {
            let Some(p) = seq.checked_sub(u64::from(dist)).filter(|&p| dist > 0 && p >= front)
            else {
                continue; // no dependency, or the producer already retired
            };
            let producer = &mut self.rob[(p - front) as usize];
            if producer.state == EntryState::Done {
                continue;
            }
            let next = std::mem::replace(&mut producer.wake_head, seq << 1 | slot as u64);
            self.rob[idx].wake_next[slot] = next;
            unresolved += 1;
        }
        self.rob[idx].unresolved = unresolved;
        if let Some(c) = port_class(op.kind) {
            debug_assert!(self.port_waiting[c].last().is_none_or(|&l| l < seq));
            self.port_waiting[c].push(seq);
        }
        if unresolved == 0 {
            debug_assert!(self.ready.last().is_none_or(|&l| l < seq));
            self.ready.push(seq);
        }
        self.n_waiting += 1;
    }

    /// Marks the entry at `idx` `Done` and wakes its consumers: each loses
    /// one unresolved producer, and those left with none join the ready
    /// list in program order.
    fn mark_done(&mut self, idx: usize) {
        let front = self.rob.front().expect("entry is in flight").seq;
        let entry = &mut self.rob[idx];
        entry.state = EntryState::Done;
        let mut node = std::mem::replace(&mut entry.wake_head, NO_WAKE);
        while node != NO_WAKE {
            let seq = node >> 1;
            let consumer = &mut self.rob[(seq - front) as usize];
            debug_assert_eq!(consumer.state, EntryState::Waiting);
            node = consumer.wake_next[(node & 1) as usize];
            consumer.unresolved -= 1;
            if consumer.unresolved == 0 {
                let pos = self.ready.partition_point(|&s| s < seq);
                self.ready.insert(pos, seq);
            }
        }
    }

    /// Marks the waiting entry at `idx` issued and drops it from its port
    /// class list (the caller owns the ready list during issue).
    fn mark_issued(&mut self, idx: usize, class: Option<usize>) {
        let entry = &mut self.rob[idx];
        entry.state = EntryState::Issued;
        let seq = entry.seq;
        self.n_waiting -= 1;
        if let Some(c) = class {
            let list = &mut self.port_waiting[c];
            let pos = list.binary_search(&seq).expect("issuing entry is waiting");
            list.remove(pos);
        }
    }

    /// Rebuilds the derived wakeup state — wake lists, unresolved counts,
    /// the waiting count, ready and per-class lists — from the ROB entry
    /// states, exactly as dispatch and completion would have left it.
    fn rebuild_wakeup(&mut self) {
        self.n_waiting = 0;
        self.ready.clear();
        self.port_waiting.iter_mut().for_each(Vec::clear);
        for idx in 0..self.rob.len() {
            if self.rob[idx].state == EntryState::Waiting {
                self.register_waiting(self.rob[idx].seq);
            }
        }
    }

    /// Debug check of the wakeup bookkeeping: the ready list is the
    /// waiting entries whose producers are all `Done` or retired, the
    /// per-class lists partition the port-bound waiting entries by port
    /// class, and `n_waiting` counts the waiting entries — on an in-order
    /// core, the youngest ones. One allocation-free pass over the ROB, as
    /// it runs after every issue pass of every debug-build test.
    #[cfg(debug_assertions)]
    fn assert_wakeup_invariants(&self, in_order: bool) {
        let front = self.rob.front().map_or(0, |e| e.seq);
        let (mut waiting, mut ready, mut class_len) = (0, 0, [0; PORT_CLASSES]);
        for e in &self.rob {
            if e.state != EntryState::Waiting {
                debug_assert!(!in_order || waiting == 0, "in-order entry {} issued early", e.seq);
                continue;
            }
            waiting += 1;
            let done = |dist: u8| {
                let p = e.seq.checked_sub(u64::from(dist));
                dist == 0
                    || p.is_none_or(|p| {
                        p < front || self.rob[(p - front) as usize].state == EntryState::Done
                    })
            };
            if done(e.op.dep1) && done(e.op.dep2) {
                let list = &self.ready;
                debug_assert_eq!(list.get(ready), Some(&e.seq), "ready list {list:?}");
                ready += 1;
            }
            if let Some(c) = port_class(e.op.kind) {
                let list = &self.port_waiting[c];
                debug_assert_eq!(list.get(class_len[c]), Some(&e.seq), "class {c} list {list:?}");
                class_len[c] += 1;
            }
        }
        debug_assert_eq!(ready, self.ready.len(), "ready list {:?}", self.ready);
        for (c, list) in self.port_waiting.iter().enumerate() {
            debug_assert_eq!(class_len[c], list.len(), "class {c} list {list:?}");
        }
        debug_assert_eq!(waiting, self.n_waiting);
    }
}

/// One out-of-order core with up to two SMT hardware threads.
#[derive(Debug)]
pub struct OooCore {
    cfg: CoreConfig,
    threads: Vec<Thread>,
    stats: CoreStats,
    rs_used: usize,
    loads_in_rob: usize,
    stores_in_rob: usize,
    outstanding_offcore_loads: u32,
    store_drain: VecDeque<u64>,
    completion_heap: BinaryHeap<Reverse<(u64, usize, u64)>>,
    ready_dirty: bool,
    /// Shared gshare predictor (as on real SMT cores), when enabled.
    gshare: Option<Gshare>,
    /// Current fidelity level; see [`Fidelity`] and
    /// [`OooCore::set_fidelity`].
    fidelity: Fidelity,
}

impl OooCore {
    /// Creates a core with no attached threads.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn new(cfg: CoreConfig) -> Self {
        cfg.validate();
        let gshare = match cfg.branch_model {
            BranchModel::Trace => None,
            BranchModel::Gshare { bits } => Some(Gshare::new(bits)),
        };
        Self {
            threads: Vec::new(),
            stats: CoreStats::new(cfg.smt_threads, cfg.mshrs),
            rs_used: 0,
            loads_in_rob: 0,
            stores_in_rob: 0,
            outstanding_offcore_loads: 0,
            store_drain: VecDeque::new(),
            completion_heap: BinaryHeap::new(),
            ready_dirty: false,
            gshare,
            fidelity: Fidelity::Detailed,
            cfg,
        }
    }

    /// The gshare predictor's observed misprediction rate, when the core
    /// runs one.
    pub fn gshare_mispredict_rate(&self) -> Option<f64> {
        self.gshare.as_ref().map(|g| g.mispredict_rate())
    }

    /// Attaches a hardware thread's trace source.
    ///
    /// # Panics
    ///
    /// Panics if all `smt_threads` contexts are already occupied.
    pub fn attach(&mut self, source: Box<dyn TraceSource>) {
        assert!(self.threads.len() < self.cfg.smt_threads, "all hardware contexts occupied");
        self.threads.push(Thread::new(source));
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Zeroes statistics while preserving pipeline state (end-of-warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::new(self.cfg.smt_threads, self.cfg.mshrs);
    }

    /// Per-thread ready-list lengths: waiting ops with every operand
    /// available.
    #[cfg(test)]
    pub(crate) fn ready_counts(&self) -> Vec<usize> {
        self.threads.iter().map(|t| t.ready.len()).collect()
    }

    /// True when every attached thread has exhausted its trace and drained
    /// its pipeline.
    pub fn is_done(&self) -> bool {
        self.threads.iter().all(|t| {
            t.exhausted && t.rob.is_empty() && t.fetch_buf.is_empty() && t.pending.is_none()
        }) || self.threads.is_empty()
    }

    /// The fidelity level the core is currently running at.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Switches the core's fidelity level.
    ///
    /// Entering `Functional` first *drains* the pipeline: every in-flight
    /// instruction (ROB, then fetch buffer, in per-thread program order)
    /// retires immediately with no further memory traffic or timing, and
    /// all structural bookkeeping (reservation stations, load/store
    /// queues, MSHR occupancy, completion/store-drain timers) is cleared.
    /// Drained instructions count toward the committed-instruction
    /// meters, and branches that had not yet been issue-counted are
    /// counted here, so the meters stay monotone and deterministic. A
    /// gshare-held branch and a fetch-stalled `pending` op are *not*
    /// drained — the functional path consumes them first, preserving the
    /// exact resolution order the detailed path would have used.
    ///
    /// Switching back to `Detailed` is trivial: the functional path keeps
    /// the pipeline empty, so the detailed model simply starts fetching.
    pub fn set_fidelity(&mut self, fidelity: Fidelity) {
        if fidelity == self.fidelity {
            return;
        }
        if fidelity == Fidelity::Functional {
            self.drain_pipeline();
        }
        self.fidelity = fidelity;
    }

    fn drain_pipeline(&mut self) {
        for tid in 0..self.threads.len() {
            while let Some(e) = self.threads[tid].rob.pop_front() {
                // Waiting entries never reached issue, where branches are
                // normally counted; count them now.
                if e.state == EntryState::Waiting {
                    if let OpKind::Branch { mispredict } = e.op.kind {
                        self.stats.branches += 1;
                        if mispredict {
                            self.stats.mispredicts += 1;
                        }
                    }
                }
                self.stats.committed[usize::from(e.op.is_kernel())] += 1;
                self.stats.per_thread_committed[tid] += 1;
            }
            while let Some(op) = self.threads[tid].fetch_buf.pop_front() {
                if let OpKind::Branch { mispredict } = op.kind {
                    self.stats.branches += 1;
                    if mispredict {
                        self.stats.mispredicts += 1;
                    }
                }
                self.stats.committed[usize::from(op.is_kernel())] += 1;
                self.stats.per_thread_committed[tid] += 1;
            }
            let thread = &mut self.threads[tid];
            thread.n_waiting = 0;
            thread.ready.clear();
            thread.port_waiting.iter_mut().for_each(Vec::clear);
            thread.flush_pending = false;
        }
        self.completion_heap.clear();
        self.store_drain.clear();
        self.rs_used = 0;
        self.loads_in_rob = 0;
        self.stores_in_rob = 0;
        self.outstanding_offcore_loads = 0;
        self.ready_dirty = false;
    }

    /// Advances the core by one cycle at time `now`, using `mem` for all
    /// instruction and data accesses. `core_id` is this core's global id
    /// within `mem`.
    pub fn step(&mut self, core_id: usize, mem: &mut MemorySystem, now: u64) {
        match self.fidelity {
            Fidelity::Detailed => {
                self.complete(now);
                self.fetch(core_id, mem, now);
                self.dispatch();
                self.issue(core_id, mem, now);
                self.commit(now);
                self.per_cycle_stats(now);
            }
            Fidelity::Functional => self.step_functional(core_id, mem, now),
        }
    }

    /// One functional-mode cycle: retire up to `width` instructions (one
    /// per thread per round-robin round, starting at `now % threads` like
    /// the detailed commit stage) while driving every instruction-line
    /// crossing and data reference through the memory system's warming
    /// path. Gshare branches are held and resolved against the next
    /// fetched PC exactly as the detailed frontend does, so the predictor
    /// sees the identical training sequence. Cycles still classify as
    /// committing/stalled and flow into the same per-cycle statistics, so
    /// the audit partition (`committing + stalled == cycles`) holds in
    /// both fidelity levels.
    fn step_functional(&mut self, core_id: usize, mem: &mut MemorySystem, now: u64) {
        let n = self.threads.len();
        // The dominant warming shape — one hardware thread, trace-carried
        // branch outcomes — takes a batched fast path that consumes the
        // block buffer in runs instead of op-at-a-time rounds.
        if n == 1 && self.gshare.is_none() {
            self.step_functional_single(core_id, mem, now);
            return;
        }
        let mut first_priv: Option<Privilege> = None;
        if n > 0 {
            let mut budget = self.cfg.width;
            let start = (now % n as u64) as usize;
            'rounds: loop {
                let mut progressed = false;
                for k in 0..n {
                    if budget == 0 {
                        break 'rounds;
                    }
                    let tid = (start + k) % n;
                    let thread = &mut self.threads[tid];
                    let Some(op) = thread.pending.take().or_else(|| thread.next_from_block())
                    else {
                        continue;
                    };
                    progressed = true;
                    let line = op.pc >> 6;
                    if line != thread.cur_fetch_line {
                        mem.ifetch_warm(core_id, op.privilege, op.pc, now);
                        thread.cur_fetch_line = line;
                    }
                    thread.last_fetch_priv = op.privilege;
                    if let Some(g) = self.gshare.as_mut() {
                        if let Some(held) = thread.held_branch.take() {
                            let taken = op.pc != held.pc + 4;
                            let mispredict = g.predict_and_update(held.pc, taken);
                            self.stats.branches += 1;
                            if mispredict {
                                self.stats.mispredicts += 1;
                            }
                            self.stats.committed[usize::from(held.is_kernel())] += 1;
                            self.stats.per_thread_committed[tid] += 1;
                            if first_priv.is_none() {
                                first_priv = Some(held.privilege);
                            }
                            budget -= 1;
                            if budget == 0 {
                                // The resolving op is not lost: it waits
                                // in `pending` for the next cycle.
                                self.threads[tid].pending = Some(op);
                                break 'rounds;
                            }
                        }
                        if op.kind.is_branch() {
                            self.threads[tid].held_branch = Some(op);
                            continue;
                        }
                    }
                    match op.kind {
                        OpKind::Branch { mispredict } => {
                            self.stats.branches += 1;
                            if mispredict {
                                self.stats.mispredicts += 1;
                            }
                        }
                        OpKind::Load | OpKind::Store => {
                            let mref = op.mem.expect("memory ops carry refs");
                            mem.data_access_warm(
                                core_id,
                                op.privilege,
                                mref.addr,
                                matches!(op.kind, OpKind::Store),
                                op.pc,
                                now,
                            );
                        }
                        _ => {}
                    }
                    self.stats.committed[usize::from(op.is_kernel())] += 1;
                    self.stats.per_thread_committed[tid] += 1;
                    if first_priv.is_none() {
                        first_priv = Some(op.privilege);
                    }
                    budget -= 1;
                }
                if !progressed {
                    break;
                }
            }
        }
        if let Some(p) = first_priv {
            self.stats.committing_cycles[usize::from(p.is_kernel())] += 1;
        } else if n > 0 {
            self.stats.stalled_cycles[usize::from(self.stall_privilege().is_kernel())] += 1;
        }
        self.per_cycle_stats(now);
    }

    /// The single-thread, trace-branch specialization of
    /// [`OooCore::step_functional`]: byte-identical retirement order and
    /// statistics, restructured for throughput. The round-robin scaffolding
    /// collapses (one thread always wins every round), the per-op stats
    /// stores are batched into local counters flushed once per cycle, and
    /// the hot per-thread fields (fetch line, privilege) live in locals so
    /// the inner loop carries no redundant loads or round bookkeeping.
    fn step_functional_single(&mut self, core_id: usize, mem: &mut MemorySystem, now: u64) {
        let thread = &mut self.threads[0];
        let mut budget = self.cfg.width;
        let mut committed = [0u64; 2];
        let mut branches = 0u64;
        let mut mispredicts = 0u64;
        let mut first_priv: Option<Privilege> = None;
        // Local mirrors of the hot per-thread fields keep the inner loop
        // free of repeated field loads/stores; written back once below.
        let mut cur_line = thread.cur_fetch_line;
        let mut last_priv = thread.last_fetch_priv;
        // A fetch-stalled op parked by a previous detailed phase retires
        // first, exactly as the generic path's `pending.take()` would.
        let mut pending = thread.pending.take();
        'cycle: while budget > 0 {
            let op = if let Some(op) = pending.take() {
                op
            } else {
                if thread.block_pos == thread.block.len() {
                    if thread.exhausted {
                        break 'cycle;
                    }
                    thread.block.clear();
                    thread.block_pos = 0;
                    let pulled = thread.source.next_block(&mut thread.block, FETCH_BLOCK);
                    thread.ops_pulled += pulled as u64;
                    if pulled == 0 {
                        thread.exhausted = true;
                        break 'cycle;
                    }
                }
                let op = thread.block[thread.block_pos];
                thread.block_pos += 1;
                op
            };
            budget -= 1;
            let line = op.pc >> 6;
            if line != cur_line {
                mem.ifetch_warm(core_id, op.privilege, op.pc, now);
                cur_line = line;
            }
            last_priv = op.privilege;
            match op.kind {
                OpKind::Branch { mispredict } => {
                    branches += 1;
                    mispredicts += u64::from(mispredict);
                }
                OpKind::Load | OpKind::Store => {
                    let mref = op.mem.expect("memory ops carry refs");
                    mem.data_access_warm(
                        core_id,
                        op.privilege,
                        mref.addr,
                        matches!(op.kind, OpKind::Store),
                        op.pc,
                        now,
                    );
                }
                _ => {}
            }
            committed[usize::from(op.is_kernel())] += 1;
            if first_priv.is_none() {
                first_priv = Some(op.privilege);
            }
        }
        thread.cur_fetch_line = cur_line;
        thread.last_fetch_priv = last_priv;
        self.stats.branches += branches;
        self.stats.mispredicts += mispredicts;
        self.stats.committed[0] += committed[0];
        self.stats.committed[1] += committed[1];
        self.stats.per_thread_committed[0] += committed[0] + committed[1];
        if let Some(p) = first_priv {
            self.stats.committing_cycles[usize::from(p.is_kernel())] += 1;
        } else {
            self.stats.stalled_cycles[usize::from(self.stall_privilege().is_kernel())] += 1;
        }
        self.per_cycle_stats(now);
    }

    // ------------------------------------------------------------------

    fn complete(&mut self, now: u64) {
        while let Some(&Reverse((done_at, tid, seq))) = self.completion_heap.peek() {
            if done_at > now {
                break;
            }
            self.completion_heap.pop();
            let thread = &mut self.threads[tid];
            let front_seq = match thread.rob.front() {
                Some(e) => e.seq,
                None => continue,
            };
            if seq < front_seq {
                continue; // already retired (cannot normally happen)
            }
            let idx = (seq - front_seq) as usize;
            thread.mark_done(idx);
            let entry = &thread.rob[idx];
            if entry.offcore_load {
                self.outstanding_offcore_loads -= 1;
            }
            if let OpKind::Branch { mispredict: true } = entry.op.kind {
                // Redirect: frontend refill penalty from resolution time.
                thread.fetch_stall_until =
                    thread.fetch_stall_until.max(now + self.cfg.mispredict_penalty as u64);
                thread.flush_pending = false;
            }
            self.ready_dirty = true;
        }
        // Drain completed store RFOs.
        while let Some(&t) = self.store_drain.front() {
            if t > now {
                break;
            }
            self.store_drain.pop_front();
        }
    }

    fn fetch(&mut self, core_id: usize, mem: &mut MemorySystem, now: u64) {
        if self.threads.is_empty() {
            return;
        }
        // One thread fetches per cycle: round-robin, or ICOUNT (the thread
        // with the fewest instructions in flight).
        let tid = match self.cfg.smt_fetch {
            SmtFetchPolicy::RoundRobin => (now % self.threads.len() as u64) as usize,
            SmtFetchPolicy::Icount => self
                .threads
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.rob.len() + t.fetch_buf.len())
                .map(|(i, _)| i)
                .unwrap_or(0),
        };
        let l1i_lat = mem.config().l1i.latency;
        let thread = &mut self.threads[tid];
        if thread.exhausted && thread.pending.is_none() {
            return;
        }
        let mut budget = self.cfg.fetch_width;
        while budget > 0
            && thread.fetch_buf.len() < self.cfg.fetch_buffer
            && !thread.flush_pending
            && now >= thread.fetch_stall_until
        {
            let op = match thread.pending.take().or_else(|| thread.next_from_block()) {
                Some(op) => op,
                None => break,
            };
            let line = op.pc >> 6;
            if line != thread.cur_fetch_line {
                let outcome = mem.ifetch(core_id, op.privilege, op.pc, now);
                thread.cur_fetch_line = line;
                if outcome.latency > l1i_lat {
                    let mut stall = (outcome.latency - l1i_lat) as u64;
                    if outcome.offcore {
                        // The decoupled frontend queues hide part of an
                        // off-core fetch.
                        stall = stall.saturating_sub(self.cfg.fetch_ahead_credit as u64);
                    }
                    thread.fetch_stall_until = now + stall;
                    thread.mem_fetch_stall_until = now + stall;
                    if outcome.level == cs_memsys::ServiceLevel::L2 {
                        let tlb = (outcome.itlb_stall + outcome.stlb_stall) as u64;
                        self.stats.l2_ifetch_stall_cycles += stall.saturating_sub(tlb);
                    }
                    thread.pending = Some(op);
                    break;
                }
            }
            thread.last_fetch_priv = op.privilege;

            // Gshare mode: a branch's outcome is reconstructed from the
            // next instruction's PC (taken iff not the fall-through), so
            // branches are held one slot and resolved here.
            if let Some(g) = self.gshare.as_mut() {
                if let Some(held) = thread.held_branch.take() {
                    let taken = op.pc != held.pc + 4;
                    let mispredict = g.predict_and_update(held.pc, taken);
                    let resolved = MicroOp::branch(held.pc, mispredict)
                        .with_privilege(held.privilege)
                        .with_deps(held.dep1 as u64, held.dep2 as u64);
                    thread.fetch_buf.push_back(resolved);
                    budget = budget.saturating_sub(1);
                    if mispredict {
                        thread.flush_pending = true;
                        thread.pending = Some(op);
                        break;
                    }
                    if budget == 0 || thread.fetch_buf.len() >= self.cfg.fetch_buffer {
                        thread.pending = Some(op);
                        break;
                    }
                }
                if op.kind.is_branch() {
                    thread.held_branch = Some(op);
                    continue;
                }
            }

            let halts = matches!(op.kind, OpKind::Branch { mispredict: true });
            thread.fetch_buf.push_back(op);
            budget -= 1;
            if halts {
                // Stop fetching down the (unknown) wrong path until the
                // branch resolves.
                thread.flush_pending = true;
                break;
            }
        }
    }

    fn dispatch(&mut self) {
        let mut budget = self.cfg.width;
        let rob_cap = self.cfg.rob_per_thread();
        let n = self.threads.len();
        let mut blocked = [false; 2];
        while budget > 0 {
            let mut progressed = false;
            #[allow(clippy::needless_range_loop)] // `tid` also indexes `self.threads`
            for tid in 0..n {
                if budget == 0 || blocked[tid] {
                    continue;
                }
                let can_rs = self.rs_used < self.cfg.reservation_stations;
                let thread = &mut self.threads[tid];
                let Some(op) = thread.fetch_buf.front() else {
                    blocked[tid] = true;
                    continue;
                };
                let room = thread.rob.len() < rob_cap
                    && can_rs
                    && (!op.is_load() || self.loads_in_rob < self.cfg.load_queue)
                    && (!op.is_store() || self.stores_in_rob < self.cfg.store_queue);
                if !room {
                    blocked[tid] = true;
                    continue;
                }
                let op = thread.fetch_buf.pop_front().expect("checked above");
                let seq = thread.next_seq;
                thread.next_seq += 1;
                if op.is_load() {
                    self.loads_in_rob += 1;
                }
                if op.is_store() {
                    self.stores_in_rob += 1;
                }
                thread.rob.push_back(RobEntry::new(op, seq, EntryState::Waiting, false));
                thread.register_waiting(seq);
                self.rs_used += 1;
                budget -= 1;
                progressed = true;
                self.ready_dirty = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Issues up to `width` ready ops, threads in rotation from `now %
    /// threads`, each thread's ready list in program order. The outcome —
    /// which ops issue and the `ready_dirty` it leaves — is that of a scan
    /// of every waiting entry in the same order that checks an entry's
    /// port before its operands.
    fn issue(&mut self, core_id: usize, mem: &mut MemorySystem, now: u64) {
        if !self.ready_dirty {
            return;
        }
        let mut budget = self.cfg.width;
        let mut ports = [self.cfg.mem_ports, self.cfg.fp_ports, 1];
        // Scan position (rotation slot, seq) of the op that took each
        // class's last port.
        let mut port_spent_at: [Option<(usize, u64)>; PORT_CLASSES] = [None; PORT_CLASSES];
        // Entries blocked on ports (or left unexamined when the budget
        // runs out) must be retried next cycle; entries blocked on
        // dependencies or MSHRs wake up via the completion path setting
        // `ready_dirty`.
        let mut structural_block = false;

        let n = self.threads.len();
        let start = (now % n.max(1) as u64) as usize;
        for k in 0..n {
            if budget == 0 {
                break;
            }
            let tid = (start + k) % n;
            // Walk this thread's ready list (program order), compacting
            // out the entries that issue.
            let mut ready = std::mem::take(&mut self.threads[tid].ready);
            let mut kept = 0;
            for r in 0..ready.len() {
                let seq = ready[r];
                let thread = &mut self.threads[tid];
                let idx = thread.rob_idx(seq);
                debug_assert_eq!(thread.rob[idx].state, EntryState::Waiting);
                // In-order issue stops at the first entry that does not
                // issue, and never passes an older entry still waiting on
                // operands.
                let oldest_waiting = thread.rob.len() - thread.n_waiting;
                let blocked_in_order = self.cfg.in_order && (kept > 0 || idx != oldest_waiting);
                if budget == 0 || blocked_in_order {
                    ready[kept] = seq;
                    kept += 1;
                    continue;
                }
                let op = thread.rob[idx].op;
                let class = port_class(op.kind);
                let port_free = class.is_none_or(|c| ports[c] > 0);
                // Conservative MSHR gate: no loads issue while full
                // (re-checked per issue, since loads issued earlier this
                // cycle may have taken the last slots).
                let mshr_free = !op.is_load() || self.outstanding_offcore_loads < self.cfg.mshrs;
                if !(port_free && mshr_free) {
                    ready[kept] = seq;
                    kept += 1;
                    continue;
                }

                // Issue the op.
                let done_at = match op.kind {
                    OpKind::IntAlu => now + 1,
                    OpKind::IntMul => now + 3,
                    OpKind::IntDiv => now + 24,
                    OpKind::Fp => now + 4,
                    OpKind::Branch { mispredict } => {
                        self.stats.branches += 1;
                        if mispredict {
                            self.stats.mispredicts += 1;
                        }
                        now + 1
                    }
                    OpKind::Load => {
                        let mref = op.mem.expect("loads carry memory refs");
                        let out =
                            mem.data_access(core_id, op.privilege, mref.addr, false, op.pc, now);
                        if out.offcore {
                            thread.rob[idx].offcore_load = true;
                            self.outstanding_offcore_loads += 1;
                        }
                        now + out.latency as u64
                    }
                    OpKind::Store => {
                        let mref = op.mem.expect("stores carry memory refs");
                        let out =
                            mem.data_access(core_id, op.privilege, mref.addr, true, op.pc, now);
                        if out.offcore {
                            // Store RFOs occupy the super queue until the
                            // ownership response returns, but do not block
                            // dependents or retirement.
                            let release = now + out.latency as u64;
                            let pos = self.store_drain.partition_point(|&t| t <= release);
                            self.store_drain.insert(pos, release);
                        }
                        now + 1
                    }
                };
                if let Some(c) = class {
                    ports[c] -= 1;
                    if ports[c] == 0 {
                        port_spent_at[c] = Some((k, seq));
                    }
                }
                thread.mark_issued(idx, class);
                self.completion_heap.push(Reverse((done_at, tid, seq)));
                self.rs_used -= 1;
                budget -= 1;
            }
            ready.truncate(kept);
            let thread = &mut self.threads[tid];
            thread.ready = ready;
            // In-order, the scan stops at the oldest waiting entry: it is
            // port-blocked if its class ran out, whether or not it is ready.
            if self.cfg.in_order && budget > 0 && thread.n_waiting > 0 {
                let head = &thread.rob[thread.rob.len() - thread.n_waiting];
                structural_block |= port_class(head.op.kind).is_some_and(|c| ports[c] == 0);
            }
        }
        // Out of order with budget left, the scan port-checked every
        // waiting entry: a class is port-blocked if one of its entries
        // lies after the op that took its last port. (A spent budget
        // leaves `ready_dirty` set whenever anything still waits.)
        if !self.cfg.in_order && budget > 0 {
            structural_block = port_spent_at.iter().enumerate().any(|(c, spent)| {
                let Some((spent_k, spent_seq)) = *spent else { return false };
                (spent_k..n).any(|k| {
                    let youngest = self.threads[(start + k) % n].port_waiting[c].last();
                    youngest.is_some_and(|&s| k > spent_k || s > spent_seq)
                })
            });
        }
        self.ready_dirty = structural_block || (budget == 0 && self.rs_used > 0);
        #[cfg(debug_assertions)]
        self.threads.iter().for_each(|t| t.assert_wakeup_invariants(self.cfg.in_order));
    }

    fn commit(&mut self, now: u64) {
        let mut budget = self.cfg.width;
        let mut committed_any = false;
        let mut first_priv: Option<Privilege> = None;
        let n = self.threads.len();
        if n == 0 {
            return;
        }
        let start = (now % n as u64) as usize;
        for k in 0..n {
            let tid = (start + k) % n;
            while budget > 0 {
                let thread = &mut self.threads[tid];
                match thread.rob.front() {
                    Some(e) if e.state == EntryState::Done => {
                        let e = thread.rob.pop_front().expect("front exists");
                        let priv_idx = usize::from(e.op.is_kernel());
                        self.stats.committed[priv_idx] += 1;
                        self.stats.per_thread_committed[tid] += 1;
                        if e.op.is_load() {
                            self.loads_in_rob -= 1;
                        }
                        if e.op.is_store() {
                            self.stores_in_rob -= 1;
                        }
                        committed_any = true;
                        if first_priv.is_none() {
                            first_priv = Some(e.op.privilege);
                        }
                        budget -= 1;
                    }
                    _ => break,
                }
            }
        }
        if committed_any {
            let idx = usize::from(first_priv.expect("set when committing").is_kernel());
            self.stats.committing_cycles[idx] += 1;
        } else {
            self.stats.stalled_cycles[usize::from(self.stall_privilege().is_kernel())] += 1;
        }
    }

    /// Privilege a stalled (nothing-committed) cycle is attributed to: the
    /// oldest in-flight instruction, or the instruction being fetched when
    /// the window is empty. Shared between the per-cycle `commit` path and
    /// the bulk idle accounting so the two can never drift apart.
    fn stall_privilege(&self) -> Privilege {
        self.threads
            .iter()
            .filter_map(|t| t.rob.front().map(|e| e.op.privilege))
            .next()
            .or_else(|| {
                self.threads.iter().filter_map(|t| t.fetch_buf.front()).next().map(|o| o.privilege)
            })
            .unwrap_or_else(|| {
                self.threads.first().map(|t| t.last_fetch_priv).unwrap_or(Privilege::User)
            })
    }

    fn per_cycle_stats(&mut self, now: u64) {
        self.stats.cycles += 1;
        let rob_total: usize = self.threads.iter().map(|t| t.rob.len()).sum();
        self.stats.rob_occupancy_sum += rob_total as u64;
        self.stats.offcore_load_occupancy.record(self.outstanding_offcore_loads as u64);
        let data_outstanding =
            self.outstanding_offcore_loads > 0 || !self.store_drain.is_empty();
        if data_outstanding {
            self.stats.offcore_outstanding_cycles += 1;
        }
        let ifetch_mem_stall = self.threads.iter().any(|t| now < t.mem_fetch_stall_until);
        if data_outstanding || ifetch_mem_stall {
            self.stats.memory_cycles += 1;
        }
    }

    // ------------------------------------------------------------------
    // Event-driven stall skipping.
    //
    // A cycle is *dead* when `step` would change nothing beyond the
    // bulk-accountable idle pattern: no completion ripens, nothing can
    // commit, dispatch and fetch are blocked, and the issue scan is known
    // to be a no-op (`ready_dirty` false). `next_event_cycle` certifies
    // the earliest cycle at which that might stop holding; the chip may
    // then jump straight to it, bulk-accounting the skipped span with
    // `account_idle_cycles`. Returning an earlier cycle than necessary is
    // always safe (the skip is merely shorter); returning a later one
    // would break byte-identity, so every bound below is conservative.

    /// Earliest cycle ≥ `now` at which stepping this core could do
    /// anything beyond idle accounting — `now` itself when the core is
    /// not certifiably idle, `u64::MAX` when it is fully drained and no
    /// timer can ever wake it.
    pub fn next_event_cycle(&self, now: u64) -> u64 {
        if self.threads.is_empty() {
            return u64::MAX;
        }
        // Functional mode has no dead cycles while ops remain: every step
        // retires work. Once fully drained, nothing can ever wake it.
        if self.fidelity == Fidelity::Functional {
            return if self.is_done() { u64::MAX } else { now };
        }
        // A pending issue scan must run this cycle: its outcome (issues,
        // or clearing the flag) is state the naive loop would produce.
        if self.ready_dirty {
            return now;
        }
        let mut next = u64::MAX;
        if let Some(&Reverse((done_at, _, _))) = self.completion_heap.peek() {
            if done_at <= now {
                return now;
            }
            next = next.min(done_at);
        }
        if let Some(&t) = self.store_drain.front() {
            if t <= now {
                return now;
            }
            next = next.min(t);
        }
        // Commit: a Done entry at any ROB head retires this cycle.
        if self.threads.iter().any(|t| {
            t.rob.front().is_some_and(|e| e.state == EntryState::Done)
        }) {
            return now;
        }
        // Dispatch: a fetch-buffer head with room moves into the ROB this
        // cycle. Room can otherwise only appear through a completion or
        // commit, which are events in their own right.
        let rob_cap = self.cfg.rob_per_thread();
        for t in &self.threads {
            if let Some(op) = t.fetch_buf.front() {
                let room = t.rob.len() < rob_cap
                    && self.rs_used < self.cfg.reservation_stations
                    && (!op.is_load() || self.loads_in_rob < self.cfg.load_queue)
                    && (!op.is_store() || self.stores_in_rob < self.cfg.store_queue);
                if room {
                    return now;
                }
            }
        }
        next.min(self.next_fetch_cycle(now))
    }

    /// When a thread could fetch, ignoring the SMT fetch-slot rotation:
    /// `Some(fetch_stall_until)` if it has (or may refill) ops and its
    /// frontend is not flush- or buffer-blocked, else `None`. A `None`
    /// thread can only be re-enabled by a completion (flush resolution)
    /// or dispatch (buffer room) — events certified elsewhere. A thread
    /// with an empty block buffer but an unexhausted source counts as
    /// ready: the refill attempt itself mutates the source (and may set
    /// `exhausted`, which `is_done` observes), so it must not be skipped.
    fn thread_fetch_ready(t: &Thread, fetch_buffer: usize) -> Option<u64> {
        if t.flush_pending || t.fetch_buf.len() >= fetch_buffer {
            return None;
        }
        let ops_maybe = t.pending.is_some() || t.block_pos < t.block.len() || !t.exhausted;
        if ops_maybe {
            Some(t.fetch_stall_until)
        } else {
            None
        }
    }

    /// Earliest cycle ≥ `now` at which `fetch` would do real work, given
    /// that per-thread state is frozen until then (the premise of a dead
    /// span). Honors the SMT fetch rotation: under round-robin a thread
    /// only fetches on cycles ≡ its index (mod threads); under ICOUNT the
    /// selection is a pure function of ROB and fetch-buffer occupancy,
    /// which cannot change during a dead span, so only the currently
    /// chosen thread is consulted — including the modeled quirk that a
    /// drained chosen thread starves the others.
    fn next_fetch_cycle(&self, now: u64) -> u64 {
        let n = self.threads.len() as u64;
        match self.cfg.smt_fetch {
            SmtFetchPolicy::RoundRobin => {
                let mut next = u64::MAX;
                for (tid, t) in self.threads.iter().enumerate() {
                    let Some(ready) = Self::thread_fetch_ready(t, self.cfg.fetch_buffer) else {
                        continue;
                    };
                    let at = ready.max(now);
                    let phase = (tid as u64 + n - at % n) % n;
                    next = next.min(at + phase);
                }
                next
            }
            SmtFetchPolicy::Icount => {
                let chosen = self
                    .threads
                    .iter()
                    .min_by_key(|t| t.rob.len() + t.fetch_buf.len())
                    .expect("threads checked non-empty");
                match Self::thread_fetch_ready(chosen, self.cfg.fetch_buffer) {
                    Some(ready) => ready.max(now),
                    None => u64::MAX,
                }
            }
        }
    }

    /// Bulk-accounts `span` certified-dead cycles starting at `start`,
    /// producing byte-identical statistics to stepping each cycle. All
    /// state consulted here is frozen for the whole span — the definition
    /// of a dead span certified by [`OooCore::next_event_cycle`].
    pub fn account_idle_cycles(&mut self, start: u64, span: u64) {
        let rob_total: usize = self.threads.iter().map(|t| t.rob.len()).sum();
        let data_outstanding =
            self.outstanding_offcore_loads > 0 || !self.store_drain.is_empty();
        // Frontend memory stalls may expire mid-span: count exactly the
        // cycles `c` in [start, start+span) with `c < mem_stall_until`,
        // as the per-cycle path would.
        let mem_stall_until =
            self.threads.iter().map(|t| t.mem_fetch_stall_until).max().unwrap_or(0);
        let mem_stall_cycles = mem_stall_until.saturating_sub(start).min(span);
        let stall_priv = if self.threads.is_empty() {
            None // `commit` never classifies cycles of a threadless core.
        } else {
            Some(usize::from(self.stall_privilege().is_kernel()))
        };
        self.stats.record_idle_span(
            span,
            rob_total as u64,
            self.outstanding_offcore_loads as u64,
            data_outstanding,
            mem_stall_cycles,
            stall_priv,
        );
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore.

    /// Serializes the complete core state — pipeline, in-flight timers,
    /// predictor, statistics, and per-thread fast-forward cursors — into
    /// `e`. The attached trace sources are captured by their pull count
    /// only (see `Thread::encode_snap`).
    pub fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        self.stats.encode_snap(e);
        e.len(self.rs_used);
        e.len(self.loads_in_rob);
        e.len(self.stores_in_rob);
        e.u32(self.outstanding_offcore_loads);
        e.len(self.store_drain.len());
        for &t in &self.store_drain {
            e.u64(t);
        }
        // BinaryHeap iteration order is unspecified; serialize sorted so
        // identical states produce identical bytes.
        let heap: Vec<_> = self.completion_heap.clone().into_sorted_vec();
        e.len(heap.len());
        for Reverse((done_at, tid, seq)) in heap {
            e.u64(done_at);
            e.len(tid);
            e.u64(seq);
        }
        e.bool(self.ready_dirty);
        e.u8(match self.fidelity {
            Fidelity::Detailed => 0,
            Fidelity::Functional => 1,
        });
        match &self.gshare {
            None => e.u8(0),
            Some(g) => {
                e.u8(1);
                g.encode_snap(e);
            }
        }
        e.len(self.threads.len());
        for t in &self.threads {
            t.encode_snap(e);
        }
    }

    /// Restores a snapshot written by [`OooCore::encode_snap`] into this
    /// core, which must have been built with the same configuration and
    /// have the same number of threads attached (each with a fresh copy
    /// of the snapshotted trace source). `cycle` is the number of cycles
    /// stepped before the snapshot (the chip's cycle counter). A thread
    /// consumes at most one fetch or commit width of ops a cycle, plus
    /// the block it has buffered, which bounds the ops its source is
    /// fast-forwarded by.
    pub fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
        cycle: u64,
    ) -> Result<(), cs_trace::snap::SnapError> {
        use cs_trace::snap::SnapError;
        self.stats = CoreStats::decode_snap(d)?;
        self.rs_used = d.len()?;
        self.loads_in_rob = d.len()?;
        self.stores_in_rob = d.len()?;
        self.outstanding_offcore_loads = d.u32()?;
        let n = d.len()?;
        self.store_drain.clear();
        for _ in 0..n {
            self.store_drain.push_back(d.u64()?);
        }
        let n = d.len()?;
        self.completion_heap.clear();
        for _ in 0..n {
            let done_at = d.u64()?;
            let tid = d.len()?;
            let seq = d.u64()?;
            self.completion_heap.push(Reverse((done_at, tid, seq)));
        }
        self.ready_dirty = d.bool()?;
        self.fidelity = match d.u8()? {
            0 => Fidelity::Detailed,
            1 => Fidelity::Functional,
            t => return Err(SnapError::BadTag(t)),
        };
        match (d.u8()?, &mut self.gshare) {
            (0, None) => {}
            (1, slot @ Some(_)) => *slot = Some(Gshare::decode_snap(d)?),
            (0 | 1, _) => {
                return Err(SnapError::Mismatch("branch-model mismatch with snapshot".into()))
            }
            (t, _) => return Err(SnapError::BadTag(t)),
        }
        let n = d.len()?;
        if n != self.threads.len() {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {n} threads, core has {}",
                self.threads.len()
            )));
        }
        let per_cycle = u64::from(self.cfg.width.max(self.cfg.fetch_width));
        let max_pulled = cycle.saturating_mul(per_cycle).saturating_add(FETCH_BLOCK as u64);
        for t in &mut self.threads {
            t.restore_snap(d, max_pulled)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_memsys::{MemSysConfig, MemorySystem, PrefetchConfig};
    use cs_trace::source::VecSource;
    use cs_trace::MicroOp;

    fn mem() -> MemorySystem {
        let cfg = MemSysConfig { prefetch: PrefetchConfig::none(), ..MemSysConfig::default() };
        MemorySystem::new(cfg, 1)
    }

    fn run(core: &mut OooCore, mem: &mut MemorySystem, max_cycles: u64) -> u64 {
        let mut now = 0;
        while !core.is_done() && now < max_cycles {
            core.step(0, mem, now);
            now += 1;
        }
        now
    }

    fn alu_ops(n: usize) -> Vec<MicroOp> {
        (0..n).map(|i| MicroOp::alu(0x40_0000 + 4 * i as u64)).collect()
    }

    /// Runs `warm` cycles, resets statistics (steady-state measurement as
    /// in the paper's methodology), then runs `measure` cycles more.
    fn warm_run(core: &mut OooCore, m: &mut MemorySystem, warm: u64, measure: u64) {
        for now in 0..warm {
            core.step(0, m, now);
        }
        core.reset_stats();
        for now in warm..warm + measure {
            core.step(0, m, now);
        }
    }

    #[test]
    fn independent_alu_ops_reach_full_width() {
        // A small loop of independent ALU ops, measured after the I-cache
        // is warm: a 4-wide core must sustain IPC close to 4.
        use cs_trace::source::LoopSource;
        let ops: Vec<MicroOp> =
            (0..256).map(|i| MicroOp::alu(0x40_0000 + 4 * (i % 256) as u64)).collect();
        let mut core = OooCore::new(CoreConfig::x5670());
        core.attach(Box::new(LoopSource::new(ops)));
        let mut m = mem();
        warm_run(&mut core, &mut m, 20_000, 20_000);
        let s = core.stats();
        assert!(s.ipc() > 3.0, "ipc {}", s.ipc());
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        use cs_trace::source::LoopSource;
        let ops: Vec<MicroOp> = (0..256)
            .map(|i| MicroOp::alu(0x40_0000 + 4 * (i % 256) as u64).with_deps(1, 0))
            .collect();
        let mut core = OooCore::new(CoreConfig::x5670());
        core.attach(Box::new(LoopSource::new(ops)));
        let mut m = mem();
        warm_run(&mut core, &mut m, 20_000, 20_000);
        let s = core.stats();
        assert!(s.ipc() <= 1.05, "chained ops cannot exceed IPC 1, got {}", s.ipc());
        assert!(s.ipc() > 0.7, "ipc suspiciously low: {}", s.ipc());
    }

    #[test]
    fn in_order_core_is_slower_on_dependent_loads() {
        // Each iteration: a long-latency load whose value feeds the
        // following ALU chain. An OoO window runs ahead into later
        // iterations; an in-order core cannot issue past the stalled
        // consumer.
        let mk = || {
            let mut ops = Vec::new();
            for i in 0..200u64 {
                ops.push(MicroOp::load(0x40_0000, 0x1000_0000 + i * 131 * 64, 8));
                for j in 0..10u64 {
                    ops.push(MicroOp::alu(0x40_0010 + 4 * j).with_deps(1, 0));
                }
            }
            ops
        };
        let mut ooo = OooCore::new(CoreConfig::x5670());
        ooo.attach(Box::new(VecSource::new(mk())));
        let mut m1 = mem();
        let ooo_cycles = run(&mut ooo, &mut m1, 1_000_000);

        let mut ino = OooCore::new(CoreConfig { in_order: true, ..CoreConfig::x5670() });
        ino.attach(Box::new(VecSource::new(mk())));
        let mut m2 = mem();
        let ino_cycles = run(&mut ino, &mut m2, 1_000_000);
        assert!(
            ooo_cycles * 2 < ino_cycles,
            "OoO ({ooo_cycles}) must beat in-order ({ino_cycles}) decisively"
        );
    }

    #[test]
    fn dependent_loads_serialize_but_independent_loads_overlap() {
        // 64 dependent loads (one chain) vs 64 independent loads.
        let chain: Vec<MicroOp> = (0..64u64)
            .map(|i| MicroOp::load(0x40_0000, 0x2000_0000 + i * 997 * 64, 8).with_deps(1, 0))
            .collect();
        let indep: Vec<MicroOp> =
            (0..64u64).map(|i| MicroOp::load(0x40_0000, 0x3000_0000 + i * 997 * 64, 8)).collect();

        let mut a = OooCore::new(CoreConfig::x5670());
        a.attach(Box::new(VecSource::new(chain)));
        let mut m1 = mem();
        let chain_cycles = run(&mut a, &mut m1, 1_000_000);

        let mut b = OooCore::new(CoreConfig::x5670());
        b.attach(Box::new(VecSource::new(indep)));
        let mut m2 = mem();
        let indep_cycles = run(&mut b, &mut m2, 1_000_000);

        assert!(
            indep_cycles * 4 < chain_cycles,
            "independent loads ({indep_cycles}) must overlap far better than a chain ({chain_cycles})"
        );
        assert!(b.stats().mlp() > 2.0, "independent-load MLP {}", b.stats().mlp());
        assert!(a.stats().mlp() < 1.5, "chained-load MLP {}", a.stats().mlp());
    }

    #[test]
    fn mshr_limit_caps_mlp() {
        let indep: Vec<MicroOp> =
            (0..512u64).map(|i| MicroOp::load(0x40_0000, 0x5000_0000 + i * 997 * 64, 8)).collect();
        let mut core = OooCore::new(CoreConfig { mshrs: 4, ..CoreConfig::x5670() });
        core.attach(Box::new(VecSource::new(indep)));
        let mut m = mem();
        run(&mut core, &mut m, 1_000_000);
        assert!(core.stats().mlp() <= 4.0 + 1e-9, "mlp {} exceeds MSHR cap", core.stats().mlp());
    }

    #[test]
    fn port_blocked_ops_retry_on_the_next_cycle() {
        // A far load feeds an FP op and a second op. When the load
        // completes both become ready; a second FP op finds the single FP
        // port taken and must issue on the very next cycle, though no
        // completion or dispatch happens then to wake the issue stage.
        for cfg in [CoreConfig::x5670(), CoreConfig::in_order2()] {
            let cycles = |second: MicroOp| {
                let ops = vec![
                    MicroOp::load(0x40_0000, 0x7000_0000, 8),
                    MicroOp::of_kind(0x40_0004, OpKind::Fp).with_deps(1, 0),
                    second.with_deps(2, 0),
                ];
                let mut core = OooCore::new(cfg);
                core.attach(Box::new(VecSource::new(ops)));
                run(&mut core, &mut mem(), 100_000)
            };
            let alu = cycles(MicroOp::alu(0x40_0008));
            let fp = cycles(MicroOp::of_kind(0x40_0008, OpKind::Fp));
            assert_eq!(fp, alu + 1, "in_order {}: port-blocked FP op issued late", cfg.in_order);
        }
    }

    #[test]
    fn mispredicts_charge_fetch_penalty() {
        let clean: Vec<MicroOp> =
            (0..2000).map(|i| MicroOp::branch(0x40_0000 + 4 * (i % 64) as u64, false)).collect();
        let dirty: Vec<MicroOp> = (0..2000)
            .map(|i| MicroOp::branch(0x40_0000 + 4 * (i % 64) as u64, i % 4 == 0))
            .collect();
        let mut a = OooCore::new(CoreConfig::x5670());
        a.attach(Box::new(VecSource::new(clean)));
        let mut m1 = mem();
        let fast = run(&mut a, &mut m1, 1_000_000);
        let mut b = OooCore::new(CoreConfig::x5670());
        b.attach(Box::new(VecSource::new(dirty)));
        let mut m2 = mem();
        let slow = run(&mut b, &mut m2, 1_000_000);
        assert!(slow > fast * 2, "mispredicts must hurt: {fast} vs {slow}");
        assert_eq!(b.stats().mispredicts, 500);
        assert_eq!(b.stats().branches, 2000);
    }

    #[test]
    fn kernel_ops_are_attributed_to_os() {
        let ops: Vec<MicroOp> = (0..1000)
            .map(|i| {
                let op = MicroOp::alu(0x40_0000 + 4 * (i % 16) as u64);
                if i % 2 == 0 {
                    op.with_privilege(Privilege::Kernel)
                } else {
                    op
                }
            })
            .collect();
        let mut core = OooCore::new(CoreConfig::x5670());
        core.attach(Box::new(VecSource::new(ops)));
        let mut m = mem();
        run(&mut core, &mut m, 100_000);
        let s = core.stats();
        assert_eq!(s.committed[0], 500);
        assert_eq!(s.committed[1], 500);
    }

    #[test]
    fn smt_two_threads_share_the_core() {
        let mut core = OooCore::new(CoreConfig::x5670_smt());
        core.attach(Box::new(VecSource::new(alu_ops(1000))));
        core.attach(Box::new(VecSource::new(alu_ops(1000))));
        let mut m = mem();
        run(&mut core, &mut m, 100_000);
        let s = core.stats();
        assert_eq!(s.instructions(), 2000);
        assert_eq!(s.per_thread_committed, vec![1000, 1000]);
    }

    #[test]
    #[should_panic(expected = "contexts occupied")]
    fn cannot_overcommit_hardware_threads() {
        let mut core = OooCore::new(CoreConfig::x5670());
        core.attach(Box::new(VecSource::new(alu_ops(1))));
        core.attach(Box::new(VecSource::new(alu_ops(1))));
    }

    #[test]
    fn stall_and_commit_cycles_partition_time() {
        let mut core = OooCore::new(CoreConfig::x5670());
        core.attach(Box::new(VecSource::new(alu_ops(100))));
        let mut m = mem();
        run(&mut core, &mut m, 100_000);
        let s = core.stats();
        let classified: u64 =
            s.committing_cycles.iter().sum::<u64>() + s.stalled_cycles.iter().sum::<u64>();
        assert_eq!(classified, s.cycles);
    }

    #[test]
    fn gshare_mode_runs_and_measures_a_sane_rate() {
        use crate::branch::BranchModel;
        use cs_trace::source::LoopSource;
        // A loop body whose backward branch is almost always taken: the
        // predictor must learn it and the core must retire everything.
        let mut ops = Vec::new();
        for i in 0..63 {
            ops.push(MicroOp::alu(0x40_0000 + 4 * i));
        }
        ops.push(MicroOp::branch(0x40_0000 + 4 * 63, false));
        let mut core = OooCore::new(CoreConfig {
            branch_model: BranchModel::Gshare { bits: 12 },
            ..CoreConfig::x5670()
        });
        core.attach(Box::new(LoopSource::new(ops)));
        let mut m = mem();
        for now in 0..60_000 {
            core.step(0, &mut m, now);
        }
        let s = core.stats();
        assert!(s.instructions() > 30_000, "retired {}", s.instructions());
        let rate = core.gshare_mispredict_rate().expect("gshare enabled");
        assert!(rate < 0.05, "a steady loop must be predictable, rate {rate:.3}");
        // Mispredict accounting flows through the same counters.
        assert!(s.mispredict_rate() < 0.05);
    }

    #[test]
    fn icount_favors_the_unstalled_thread() {
        use crate::config::SmtFetchPolicy;
        use cs_trace::source::LoopSource;
        // Thread A: pure compute. Thread B: dependent far loads (stalls).
        let compute: Vec<MicroOp> =
            (0..64).map(|i| MicroOp::alu(0x40_0000 + 4 * i)).collect();
        let stalls: Vec<MicroOp> = (0..64u64)
            .map(|i| MicroOp::load(0x41_0000, 0x9000_0000 + i * 8191 * 64, 8).with_deps(1, 0))
            .collect();
        let run_policy = |policy: SmtFetchPolicy| {
            let mut core = OooCore::new(CoreConfig {
                smt_threads: 2,
                smt_fetch: policy,
                ..CoreConfig::x5670()
            });
            core.attach(Box::new(LoopSource::new(compute.clone())));
            core.attach(Box::new(LoopSource::new(stalls.clone())));
            let mut m = mem();
            for now in 0..60_000 {
                core.step(0, &mut m, now);
            }
            core.stats().instructions()
        };
        let rr = run_policy(SmtFetchPolicy::RoundRobin);
        let ic = run_policy(SmtFetchPolicy::Icount);
        assert!(
            ic as f64 > rr as f64 * 1.05,
            "ICOUNT should outperform round-robin on asymmetric threads: {ic} vs {rr}"
        );
    }

    #[test]
    fn trace_mode_has_no_gshare() {
        let core = OooCore::new(CoreConfig::x5670());
        assert!(core.gshare_mispredict_rate().is_none());
    }

    #[test]
    fn snapshot_restore_continues_byte_identically() {
        use cs_trace::snap::{Dec, Enc};
        // A mixed stream exercising loads, stores, branches and deps.
        let mk_ops = || -> Vec<MicroOp> {
            (0..4000u64)
                .map(|i| match i % 5 {
                    0 => MicroOp::load(0x40_0000 + 4 * (i % 64), 0x6000_0000 + i * 577 * 8, 8),
                    1 => MicroOp::store(0x40_0100 + 4 * (i % 64), 0x6100_0000 + i * 131 * 8, 8),
                    2 => MicroOp::branch(0x40_0200 + 4 * (i % 64), i % 35 == 0),
                    _ => MicroOp::alu(0x40_0300 + 4 * (i % 64)).with_deps(i % 3, 0),
                })
                .collect()
        };
        let mut live = OooCore::new(CoreConfig::x5670());
        live.attach(Box::new(VecSource::new(mk_ops())));
        let mut m_live = mem();
        for now in 0..5_000 {
            live.step(0, &mut m_live, now);
        }
        let mut snap = Enc::new();
        live.encode_snap(&mut snap);

        // Restore into a freshly-built core with a fresh source.
        let mut restored = OooCore::new(CoreConfig::x5670());
        restored.attach(Box::new(VecSource::new(mk_ops())));
        let mut d = Dec::new(&snap.buf);
        restored.restore_snap(&mut d, 5_000).expect("restore");
        d.finish().expect("full consumption");

        // Re-encoding the restored core must reproduce the bytes exactly.
        let mut reenc = Enc::new();
        restored.encode_snap(&mut reenc);
        assert_eq!(reenc.buf, snap.buf, "save(restore(save(s))) == save(s)");

        // Continuing both cores must stay in lockstep. The memory system
        // is restored separately in the full chip path; here both sides
        // share identically-warmed memories by construction.
        let mut m_restored = MemorySystem::new(
            cs_memsys::MemSysConfig {
                prefetch: PrefetchConfig::none(),
                ..cs_memsys::MemSysConfig::default()
            },
            1,
        );
        let mut me = cs_trace::snap::Enc::new();
        m_live.encode_snap(&mut me);
        let mut md = cs_trace::snap::Dec::new(&me.buf);
        m_restored.restore_snap(&mut md).expect("mem restore");
        for now in 5_000..9_000 {
            live.step(0, &mut m_live, now);
            restored.step(0, &mut m_restored, now);
        }
        assert_eq!(restored.stats(), live.stats());
        let mut a = Enc::new();
        let mut b = Enc::new();
        live.encode_snap(&mut a);
        restored.encode_snap(&mut b);
        assert_eq!(a.buf, b.buf, "continued states must stay byte-identical");
    }

    #[test]
    fn functional_mode_retires_everything_and_partitions_cycles() {
        let mk_ops = || -> Vec<MicroOp> {
            (0..3000u64)
                .map(|i| match i % 5 {
                    0 => MicroOp::load(0x40_0000 + 4 * (i % 64), 0x6000_0000 + i * 577 * 8, 8),
                    1 => MicroOp::store(0x40_0100 + 4 * (i % 64), 0x6100_0000 + i * 131 * 8, 8),
                    2 => MicroOp::branch(0x40_0200 + 4 * (i % 64), i % 35 == 0),
                    _ => MicroOp::alu(0x40_0300 + 4 * (i % 64)).with_deps(i % 3, 0),
                })
                .collect()
        };
        let mut core = OooCore::new(CoreConfig::x5670());
        core.attach(Box::new(VecSource::new(mk_ops())));
        core.set_fidelity(Fidelity::Functional);
        let mut m = mem();
        let cycles = run(&mut core, &mut m, 100_000);
        let s = core.stats();
        assert_eq!(s.instructions(), 3000, "functional mode must retire the full trace");
        assert_eq!(s.branches, 600);
        // Retires exactly `width` per cycle while ops remain.
        assert!(cycles <= 3000 / 4 + 2, "took {cycles} cycles");
        let classified: u64 =
            s.committing_cycles.iter().sum::<u64>() + s.stalled_cycles.iter().sum::<u64>();
        assert_eq!(classified, s.cycles, "partition must hold in functional mode");
        // Warming really happened: the memory system saw the misses.
        assert!(m.stats().per_core[0].l1d.total_accesses() > 0);
    }

    #[test]
    fn fidelity_switch_drains_and_detailed_resumes() {
        let ops: Vec<MicroOp> = (0..2000u64)
            .map(|i| MicroOp::load(0x40_0000 + 4 * (i % 64), 0x8000_0000 + i * 709 * 8, 8))
            .collect();
        let mut core = OooCore::new(CoreConfig::x5670());
        core.attach(Box::new(VecSource::new(ops)));
        let mut m = mem();
        let mut now = 0u64;
        for _ in 0..200 {
            core.step(0, &mut m, now);
            now += 1;
        }
        let before = core.stats().instructions();
        core.set_fidelity(Fidelity::Functional);
        let drained = core.stats().instructions();
        assert!(drained >= before, "drain never loses committed instructions");
        for _ in 0..300 {
            core.step(0, &mut m, now);
            now += 1;
        }
        core.set_fidelity(Fidelity::Detailed);
        while !core.is_done() && now < 1_000_000 {
            core.step(0, &mut m, now);
            now += 1;
        }
        assert!(core.is_done(), "detailed mode must finish the trace after the round trip");
        assert_eq!(core.stats().instructions(), 2000);
    }

    #[test]
    fn corrupt_op_count_fails_instead_of_fast_forwarding() {
        use cs_trace::snap::{Dec, Enc, SnapError};
        use cs_trace::source::LoopSource;
        let mk = || {
            let mut c = OooCore::new(CoreConfig::x5670());
            c.attach(Box::new(LoopSource::new(alu_ops(64))));
            c
        };
        let mut live = mk();
        let mut m = mem();
        for now in 0..100 {
            live.step(0, &mut m, now);
        }
        let mut e = Enc::new();
        live.encode_snap(&mut e);
        // The one thread's state ends the core's bytes, and opens with its
        // count of ops pulled from the (endless) source.
        let mut thread = Enc::new();
        live.threads[0].encode_snap(&mut thread);
        let at = e.buf.len() - thread.buf.len();
        let pulled = u64::from_le_bytes(e.buf[at..at + 8].try_into().expect("8 bytes"));
        assert!(pulled > 0 && pulled <= 100 * 4 + FETCH_BLOCK as u64);
        for bad in [100 * 4 + FETCH_BLOCK as u64 + 1, 1 << 40, u64::MAX] {
            let mut bytes = e.buf.clone();
            bytes[at..at + 8].copy_from_slice(&bad.to_le_bytes());
            let got = mk().restore_snap(&mut Dec::new(&bytes), 100);
            assert!(matches!(got, Err(SnapError::Mismatch(_))), "{bad}: {got:?}");
        }
        mk().restore_snap(&mut Dec::new(&e.buf), 100).expect("the intact bytes restore");
    }

    #[test]
    fn snapshot_roundtrip_preserves_fidelity() {
        use cs_trace::snap::{Dec, Enc};
        let mk = || {
            let mut c = OooCore::new(CoreConfig::x5670());
            c.attach(Box::new(VecSource::new(alu_ops(500))));
            c
        };
        let mut live = mk();
        let mut m = mem();
        for now in 0..50 {
            live.step(0, &mut m, now);
        }
        live.set_fidelity(Fidelity::Functional);
        for now in 50..80 {
            live.step(0, &mut m, now);
        }
        let mut e = Enc::new();
        live.encode_snap(&mut e);
        let mut restored = mk();
        assert_eq!(restored.fidelity(), Fidelity::Detailed);
        let mut d = Dec::new(&e.buf);
        restored.restore_snap(&mut d, 80).expect("restore");
        d.finish().expect("full consumption");
        assert_eq!(restored.fidelity(), Fidelity::Functional);
        let mut re = Enc::new();
        restored.encode_snap(&mut re);
        assert_eq!(re.buf, e.buf);
    }

    #[test]
    fn functional_gshare_trains_like_a_frontend() {
        use crate::branch::BranchModel;
        use cs_trace::source::LoopSource;
        // Same predictable loop as the detailed gshare test: the
        // functional path must hold/resolve branches identically, so the
        // predictor learns the loop just as well.
        let mut ops = Vec::new();
        for i in 0..63 {
            ops.push(MicroOp::alu(0x40_0000 + 4 * i));
        }
        ops.push(MicroOp::branch(0x40_0000 + 4 * 63, false));
        let mut core = OooCore::new(CoreConfig {
            branch_model: BranchModel::Gshare { bits: 12 },
            ..CoreConfig::x5670()
        });
        core.attach(Box::new(LoopSource::new(ops)));
        core.set_fidelity(Fidelity::Functional);
        let mut m = mem();
        for now in 0..30_000 {
            core.step(0, &mut m, now);
        }
        let s = core.stats();
        assert!(s.instructions() > 100_000, "retired {}", s.instructions());
        let rate = core.gshare_mispredict_rate().expect("gshare enabled");
        assert!(rate < 0.05, "functional training must learn the loop, rate {rate:.3}");
    }

    #[test]
    fn functional_warming_leaves_identical_warm_state() {
        use crate::branch::BranchModel;
        // Serialized trace (each op depends on its predecessor) confined
        // to one instruction line: even the OoO core issues its memory
        // references in program order, so detailed and functional
        // execution drive the identical sequence through the hierarchy
        // and must leave every warmable structure bit-identical. The
        // prefetchers stay enabled — their tables are part of the claim.
        let mk_ops = || -> Vec<MicroOp> {
            let mut x = 0x9E37_79B9u64;
            (0..4000u64)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let pc = 0x40_0000 + 4 * (i % 16);
                    let op = match x % 5 {
                        0 => MicroOp::load(pc, (x >> 16) % (1 << 22), 8),
                        1 => MicroOp::store(pc, (x >> 24) % (1 << 22), 8),
                        2 => MicroOp::branch(pc, x.is_multiple_of(31)),
                        _ => MicroOp::alu(pc),
                    };
                    op.with_deps(1, 0)
                })
                .collect()
        };
        let run_mode = |functional: bool| -> (u64, u64, u64, u64) {
            let mut core = OooCore::new(CoreConfig {
                branch_model: BranchModel::Gshare { bits: 12 },
                ..CoreConfig::x5670()
            });
            core.attach(Box::new(VecSource::new(mk_ops())));
            if functional {
                core.set_fidelity(Fidelity::Functional);
            }
            let mut m = MemorySystem::new(MemSysConfig::default(), 1);
            let mut now = 0;
            while !core.is_done() && now < 2_000_000 {
                core.step(0, &mut m, now);
                now += 1;
            }
            assert!(core.is_done(), "trace must finish");
            let s = core.stats();
            (m.warm_state_digest(), s.instructions(), s.branches, s.mispredicts)
        };
        let (d_digest, d_instr, d_br, d_miss) = run_mode(false);
        let (f_digest, f_instr, f_br, f_miss) = run_mode(true);
        assert_eq!(d_instr, f_instr);
        assert_eq!((d_br, d_miss), (f_br, f_miss), "gshare must train identically");
        assert_eq!(
            d_digest, f_digest,
            "functional warming must leave caches/TLBs/prefetchers bit-identical"
        );
    }

    #[test]
    fn offcore_cycles_track_misses() {
        let ops: Vec<MicroOp> =
            (0..100u64).map(|i| MicroOp::load(0x40_0000, 0x7000_0000 + i * 313 * 64, 8)).collect();
        let mut core = OooCore::new(CoreConfig::x5670());
        core.attach(Box::new(VecSource::new(ops)));
        let mut m = mem();
        run(&mut core, &mut m, 1_000_000);
        let s = core.stats();
        assert!(s.offcore_outstanding_cycles > 0);
        assert!(s.offcore_outstanding_cycles <= s.cycles);
    }
}
