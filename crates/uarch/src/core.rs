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
//!    whose last operand arrived into a ready set over ROB slots, the
//!    only ops the issue stage examines;
//! 5. **commit** — up to `width` done ops retire in per-thread program
//!    order. Each cycle is classified *Committing* or *Stalled* and
//!    attributed to application or OS execution, the paper's Figure 1
//!    methodology.

use crate::branch::{BranchModel, Gshare};
use crate::config::{CoreConfig, SmtFetchPolicy, MAX_ROB_PER_THREAD};
use crate::stats::CoreStats;
use cs_memsys::MemorySystem;
use cs_trace::snap::Codec;
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

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    op: MicroOp,
    state: EntryState,
    offcore_load: bool,
    /// Wakeup bookkeeping, derived and never serialized (see
    /// [`Thread::rebuild_wakeup`]): producers not yet `Done`, counted per
    /// dependency slot. A waiting entry at 0 is on the ready set.
    unresolved: u8,
    /// Head of the list of consumers waiting on this entry, as wake nodes
    /// (`consumer_slot << 1 | dependency_slot`); [`NO_WAKE`] when empty.
    wake_head: u16,
    /// Next wake node after this entry's node for each dependency slot.
    wake_next: [u16; 2],
}

impl RobEntry {
    fn new(op: MicroOp, state: EntryState, offcore_load: bool) -> Self {
        Self { op, state, offcore_load, unresolved: 0, wake_head: NO_WAKE, wake_next: [NO_WAKE; 2] }
    }
}

/// End-of-list marker of the wake lists.
const NO_WAKE: u16 = u16::MAX;

/// Completion keys pack `done_at << 9 | tid << 8 | slot` into one `u64`,
/// so the heap orders by completion cycle and compares one word.
const KEY_DONE_SHIFT: u32 = 9;

/// Completion cycles a key can hold. A snapshot past it fails to restore.
const MAX_DONE_AT: u64 = u64::MAX >> KEY_DONE_SHIFT;

fn completion_key(done_at: u64, tid: usize, slot: usize) -> u64 {
    debug_assert!(done_at <= MAX_DONE_AT && tid < 2 && slot < MAX_ROB_PER_THREAD);
    done_at << KEY_DONE_SHIFT | (tid as u64) << 8 | slot as u64
}

/// `(done_at, tid, slot)` of a completion key.
fn split_key(key: u64) -> (u64, usize, usize) {
    (key >> KEY_DONE_SHIFT, (key >> 8 & 1) as usize, (key & 0xff) as usize)
}

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

/// A fixed-capacity FIFO over a power-of-two slot array. Indexing takes a
/// slot, not a position: the ROB keeps entry `seq` in slot `seq & mask`.
#[derive(Debug)]
struct Ring<T> {
    slots: Box<[T]>,
    head: usize,
    len: usize,
}

impl<T: Copy> Ring<T> {
    /// A ring holding at least `cap` items, filled with `fill`.
    fn new(cap: usize, fill: T) -> Self {
        Self { slots: vec![fill; cap.next_power_of_two()].into_boxed_slice(), head: 0, len: 0 }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn front(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    fn push_back(&mut self, v: T) {
        debug_assert!(self.len < self.slots.len(), "ring overflow");
        self.slots[(self.head + self.len) & self.mask()] = v;
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<T> {
        let v = *self.front()?;
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        Some(v)
    }

    /// Empties the ring, its next item going to `head` (masked).
    fn reset(&mut self, head: usize) {
        self.head = head & self.mask();
        self.len = 0;
    }

    fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |k| &self.slots[(self.head + k) & self.mask()])
    }
}

impl<T> std::ops::Index<usize> for Ring<T> {
    type Output = T;
    fn index(&self, slot: usize) -> &T {
        &self.slots[slot]
    }
}

impl<T> std::ops::IndexMut<usize> for Ring<T> {
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.slots[slot]
    }
}

/// A set of ROB slots. Program order is slot order starting at the ROB
/// head: `[head, cap)`, then `[0, head)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SlotSet([u64; MAX_ROB_PER_THREAD / 64]);

impl SlotSet {
    fn insert(&mut self, slot: usize) {
        self.0[slot >> 6] |= 1 << (slot & 63);
    }

    fn remove(&mut self, slot: usize) {
        self.0[slot >> 6] &= !(1 << (slot & 63));
    }

    fn contains(&self, slot: usize) -> bool {
        self.0[slot >> 6] >> (slot & 63) & 1 == 1
    }

    fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn clear(&mut self) {
        self.0 = [0; MAX_ROB_PER_THREAD / 64];
    }

    /// The lowest member in `[lo, hi)`.
    fn first_in(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let mut w = lo >> 6;
        let mut bits = self.0[w] & (!0 << (lo & 63));
        loop {
            if bits != 0 {
                let slot = w << 6 | bits.trailing_zeros() as usize;
                return (slot < hi).then_some(slot);
            }
            w += 1;
            if w << 6 >= hi {
                return None;
            }
            bits = self.0[w];
        }
    }

    /// The highest member in `[lo, hi)`.
    fn last_in(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let mut w = (hi - 1) >> 6;
        let mut bits = self.0[w] & (!0 >> (63 - ((hi - 1) & 63)));
        loop {
            if bits != 0 {
                let slot = w << 6 | (63 - bits.leading_zeros() as usize);
                return (slot >= lo).then_some(slot);
            }
            if w << 6 <= lo {
                return None;
            }
            w -= 1;
            bits = self.0[w];
        }
    }

    /// The first member at or after program-order position `ord` of a
    /// ROB whose head is `head` in `cap` slots.
    fn next_in_order(&self, head: usize, cap: usize, ord: usize) -> Option<usize> {
        let from = head + ord;
        if from < cap {
            self.first_in(from, cap).or_else(|| self.first_in(0, head))
        } else {
            self.first_in(from - cap, head)
        }
    }

    /// The youngest member in program order.
    fn youngest(&self, head: usize, cap: usize) -> Option<usize> {
        self.last_in(0, head).or_else(|| self.last_in(head, cap))
    }
}

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
    /// The reorder buffer: entry `seq` lives in slot `seq & mask`, so the
    /// head holds `next_seq - len`.
    rob: Ring<RobEntry>,
    fetch_buf: Ring<MicroOp>,
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
    /// the ready and per-class sets below are derived from the ROB entry
    /// states and not serialized; snapshots list the waiting entries
    /// themselves (see `Thread::waiting`).
    n_waiting: usize,
    /// The slots of the waiting entries whose producers are all `Done` or
    /// retired: the only entries the issue stage examines.
    ready: SlotSet,
    /// The slots of the waiting entries of each port class; lets issue
    /// reproduce the port-blocking rule of a full waiting-list scan
    /// without walking the window.
    port_waiting: [SlotSet; PORT_CLASSES],
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
    fn new(source: Box<dyn TraceSource>, cfg: &CoreConfig) -> Self {
        let idle = MicroOp::alu(0);
        Self {
            source,
            ops_pulled: 0,
            block: Vec::with_capacity(FETCH_BLOCK),
            block_pos: 0,
            rob: Ring::new(cfg.rob_per_thread(), RobEntry::new(idle, EntryState::Done, false)),
            fetch_buf: Ring::new(cfg.fetch_buffer, idle),
            pending: None,
            next_seq: 0,
            fetch_stall_until: 0,
            mem_fetch_stall_until: 0,
            cur_fetch_line: u64::MAX,
            flush_pending: false,
            last_fetch_priv: Privilege::User,
            exhausted: false,
            n_waiting: 0,
            ready: SlotSet::default(),
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

    /// Sequence number of the ROB head.
    #[inline]
    fn front_seq(&self) -> u64 {
        self.next_seq - self.rob.len() as u64
    }

    /// ROB slot of the in-flight entry `seq`.
    #[inline]
    #[allow(clippy::cast_possible_truncation)] // only the low slot bits are kept
    fn slot(&self, seq: u64) -> usize {
        seq as usize & self.rob.mask()
    }

    /// Program-order position of ROB slot `slot` (0 at the head).
    #[inline]
    fn ord(&self, slot: usize) -> usize {
        slot.wrapping_sub(self.rob.head) & self.rob.mask()
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
        for (seq, entry) in self.entries() {
            encode_op(e, &entry.op);
            e.u64(seq);
            e.u8(match entry.state {
                EntryState::Waiting => 0,
                EntryState::Issued => 1,
                EntryState::Done => 2,
            });
            e.bool(entry.offcore_load);
        }
        e.len(self.fetch_buf.len());
        for op in self.fetch_buf.iter() {
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
    /// `rob_cap` and `fetch_cap` bound the ROB and the fetch buffer.
    fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
        max_pulled: u64,
        rob_cap: usize,
        fetch_cap: usize,
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
        if n > rob_cap {
            return Err(SnapError::Mismatch(format!("ROB holds {n} entries, capacity {rob_cap}")));
        }
        let mut last_seq: Option<u64> = None;
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
            // Entry `seq` lives in slot `seq & mask`.
            match last_seq {
                None => self.rob.reset(self.slot(seq)),
                Some(prev) if prev.checked_add(1) != Some(seq) => {
                    return Err(SnapError::Mismatch("ROB sequence numbers not consecutive".into()))
                }
                Some(_) => {}
            }
            last_seq = Some(seq);
            self.rob.push_back(RobEntry::new(op, state, offcore_load));
        }
        let n = d.len()?;
        if n > fetch_cap {
            return Err(SnapError::Mismatch(format!(
                "fetch buffer holds {n} ops, capacity {fetch_cap}"
            )));
        }
        self.fetch_buf.reset(0);
        for _ in 0..n {
            self.fetch_buf.push_back(decode_op(d)?);
        }
        self.pending = match d.u8()? {
            0 => None,
            1 => Some(decode_op(d)?),
            t => return Err(SnapError::BadTag(t)),
        };
        self.next_seq = d.u64()?;
        match last_seq {
            None => self.rob.reset(self.slot(self.next_seq)),
            Some(last) if last.checked_add(1) != Some(self.next_seq) => {
                return Err(SnapError::Mismatch(
                    "ROB does not end at the next sequence number".into(),
                ))
            }
            Some(_) => {}
        }
        self.fetch_stall_until = d.u64()?;
        self.mem_fetch_stall_until = d.u64()?;
        self.cur_fetch_line = d.u64()?;
        self.flush_pending = d.bool()?;
        self.last_fetch_priv = cs_trace::snap::decode_privilege(d)?;
        self.exhausted = d.bool()?;
        let n = d.len()?;
        let mut waiting = Vec::with_capacity(n.min(rob_cap));
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

    /// The in-flight entries with their sequence numbers, in program
    /// order.
    fn entries(&self) -> impl Iterator<Item = (u64, &RobEntry)> + '_ {
        let front = self.front_seq();
        self.rob.iter().enumerate().map(move |(k, e)| (front + k as u64, e))
    }

    /// Sequence numbers of the waiting entries, in program order.
    fn waiting(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries().filter(|(_, e)| e.state == EntryState::Waiting).map(|(seq, _)| seq)
    }

    /// Registers the newest waiting entry `seq` for wakeup: counts its
    /// producers that are not yet `Done`, links it onto their wake lists
    /// and files it under its port class, or in the ready set if no
    /// producer is outstanding.
    fn register_waiting(&mut self, seq: u64) {
        let front = self.front_seq();
        let slot = self.slot(seq);
        let op = self.rob[slot].op;
        let mut unresolved = 0;
        for (dep, dist) in [op.dep1, op.dep2].into_iter().enumerate() {
            let Some(p) = seq.checked_sub(u64::from(dist)).filter(|&p| dist > 0 && p >= front)
            else {
                continue; // no dependency, or the producer already retired
            };
            let producer_slot = self.slot(p);
            let producer = &mut self.rob[producer_slot];
            if producer.state == EntryState::Done {
                continue;
            }
            #[allow(clippy::cast_possible_truncation)] // slot < MAX_ROB_PER_THREAD
            let node = (slot << 1 | dep) as u16;
            let next = std::mem::replace(&mut producer.wake_head, node);
            self.rob[slot].wake_next[dep] = next;
            unresolved += 1;
        }
        self.rob[slot].unresolved = unresolved;
        if let Some(c) = port_class(op.kind) {
            self.port_waiting[c].insert(slot);
        }
        if unresolved == 0 {
            self.ready.insert(slot);
        }
        self.n_waiting += 1;
    }

    /// Marks the entry in `slot` `Done` and wakes its consumers: each
    /// loses one unresolved producer, and those left with none join the
    /// ready set.
    fn mark_done(&mut self, slot: usize) {
        let entry = &mut self.rob[slot];
        entry.state = EntryState::Done;
        let mut node = std::mem::replace(&mut entry.wake_head, NO_WAKE);
        while node != NO_WAKE {
            let consumer_slot = usize::from(node >> 1);
            let consumer = &mut self.rob[consumer_slot];
            debug_assert_eq!(consumer.state, EntryState::Waiting);
            node = consumer.wake_next[usize::from(node & 1)];
            consumer.unresolved -= 1;
            if consumer.unresolved == 0 {
                self.ready.insert(consumer_slot);
            }
        }
    }

    /// Marks the waiting entry in `slot` issued and drops it from the
    /// ready set and its port class set.
    fn mark_issued(&mut self, slot: usize, class: Option<usize>) {
        self.rob[slot].state = EntryState::Issued;
        self.n_waiting -= 1;
        self.ready.remove(slot);
        if let Some(c) = class {
            self.port_waiting[c].remove(slot);
        }
    }

    /// Rebuilds the derived wakeup state — wake lists, unresolved counts,
    /// the waiting count, ready and per-class sets — from the ROB entry
    /// states, exactly as dispatch and completion would have left it.
    fn rebuild_wakeup(&mut self) {
        self.n_waiting = 0;
        self.ready.clear();
        self.port_waiting.iter_mut().for_each(SlotSet::clear);
        let front = self.front_seq();
        for k in 0..self.rob.len() {
            let seq = front + k as u64;
            if self.rob[self.slot(seq)].state == EntryState::Waiting {
                self.register_waiting(seq);
            }
        }
    }

    /// Debug check of the wakeup bookkeeping: the ready set is the
    /// waiting entries whose producers are all `Done` or retired, the
    /// per-class sets partition the port-bound waiting entries by port
    /// class, and `n_waiting` counts the waiting entries — on an in-order
    /// core, the youngest ones. One allocation-free pass over the ROB, as
    /// it runs after every issue pass of every debug-build test.
    #[cfg(debug_assertions)]
    fn assert_wakeup_invariants(&self, in_order: bool) {
        let front = self.front_seq();
        let (mut waiting, mut ready, mut class_len) = (0, 0, [0; PORT_CLASSES]);
        for (seq, e) in self.entries() {
            let slot = self.slot(seq);
            if e.state != EntryState::Waiting {
                debug_assert!(!in_order || waiting == 0, "in-order entry {seq} issued early");
                continue;
            }
            waiting += 1;
            let done = |dist: u8| {
                let p = seq.checked_sub(u64::from(dist));
                dist == 0
                    || p.is_none_or(|p| {
                        p < front || self.rob[self.slot(p)].state == EntryState::Done
                    })
            };
            let is_ready = done(e.op.dep1) && done(e.op.dep2);
            debug_assert_eq!(self.ready.contains(slot), is_ready, "ready bit of entry {seq}");
            ready += usize::from(is_ready);
            for (c, set) in self.port_waiting.iter().enumerate() {
                let member = port_class(e.op.kind) == Some(c);
                debug_assert_eq!(set.contains(slot), member, "class {c} bit of entry {seq}");
                class_len[c] += usize::from(member);
            }
        }
        debug_assert_eq!(ready, self.ready.len(), "stray ready bits");
        for (c, set) in self.port_waiting.iter().enumerate() {
            debug_assert_eq!(class_len[c], set.len(), "stray class {c} bits");
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
    /// In-flight completions as packed keys (see [`completion_key`]),
    /// earliest `done_at` first.
    completion_heap: BinaryHeap<Reverse<u64>>,
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
        self.threads.push(Thread::new(source, &self.cfg));
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
            thread.port_waiting.iter_mut().for_each(SlotSet::clear);
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

    /// Marks every ripe completion `Done`. Their order among equal
    /// `done_at` cannot show: each sets a ready bit, decrements a counter
    /// or raises `fetch_stall_until` to the same `now + penalty`.
    fn complete(&mut self, now: u64) {
        while let Some(&Reverse(key)) = self.completion_heap.peek() {
            let (done_at, tid, slot) = split_key(key);
            if done_at > now {
                break;
            }
            self.completion_heap.pop();
            let thread = &mut self.threads[tid];
            thread.mark_done(slot);
            let entry = &thread.rob[slot];
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
                thread.rob.push_back(RobEntry::new(op, EntryState::Waiting, false));
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
    /// threads`, each thread's ready set in program order. The outcome —
    /// which ops issue and the `ready_dirty` it leaves — is that of a scan
    /// of every waiting entry in the same order that checks an entry's
    /// port before its operands.
    fn issue(&mut self, core_id: usize, mem: &mut MemorySystem, now: u64) {
        if !self.ready_dirty {
            return;
        }
        let mut budget = self.cfg.width;
        let mut ports = [self.cfg.mem_ports, self.cfg.fp_ports, 1];
        // Scan position (rotation slot, program-order position) of the op
        // that took each class's last port.
        let mut port_spent_at: [Option<(usize, usize)>; PORT_CLASSES] = [None; PORT_CLASSES];
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
            let thread = &mut self.threads[tid];
            let (head, cap) = (thread.rob.head, thread.rob.capacity());
            // Walk this thread's ready set in program order. Issuing an
            // entry clears its bit, behind the cursor.
            let mut ord = 0;
            while let Some(slot) = thread.ready.next_in_order(head, cap, ord) {
                if budget == 0 {
                    break;
                }
                ord = thread.ord(slot) + 1;
                debug_assert_eq!(thread.rob[slot].state, EntryState::Waiting);
                let op = thread.rob[slot].op;
                let class = port_class(op.kind);
                let port_free = class.is_none_or(|c| ports[c] > 0);
                // Conservative MSHR gate: no loads issue while full
                // (re-checked per issue, since loads issued earlier this
                // cycle may have taken the last slots).
                let mshr_free = !op.is_load() || self.outstanding_offcore_loads < self.cfg.mshrs;
                if self.cfg.in_order {
                    // In-order issue stops at the first entry that does
                    // not issue, and never passes an older entry still
                    // waiting on operands.
                    let oldest_waiting = thread.slot(thread.next_seq - thread.n_waiting as u64);
                    if slot != oldest_waiting || !(port_free && mshr_free) {
                        break;
                    }
                } else if !(port_free && mshr_free) {
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
                            thread.rob[slot].offcore_load = true;
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
                        port_spent_at[c] = Some((k, ord - 1));
                    }
                }
                thread.mark_issued(slot, class);
                self.completion_heap.push(Reverse(completion_key(done_at, tid, slot)));
                self.rs_used -= 1;
                budget -= 1;
            }
            // In-order, the scan stops at the oldest waiting entry: it is
            // port-blocked if its class ran out, whether or not it is ready.
            if self.cfg.in_order && budget > 0 && thread.n_waiting > 0 {
                let oldest = &thread.rob[thread.slot(thread.next_seq - thread.n_waiting as u64)];
                structural_block |= port_class(oldest.op.kind).is_some_and(|c| ports[c] == 0);
            }
        }
        // Out of order with budget left, the scan port-checked every
        // waiting entry: a class is port-blocked if one of its entries
        // lies after the op that took its last port. (A spent budget
        // leaves `ready_dirty` set whenever anything still waits.)
        if !self.cfg.in_order && budget > 0 {
            structural_block = port_spent_at.iter().enumerate().any(|(c, spent)| {
                let Some((spent_k, spent_ord)) = *spent else { return false };
                (spent_k..n).any(|k| {
                    let t = &self.threads[(start + k) % n];
                    let youngest = t.port_waiting[c].youngest(t.rob.head, t.rob.capacity());
                    youngest.is_some_and(|s| k > spent_k || t.ord(s) > spent_ord)
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
        if let Some(&Reverse(key)) = self.completion_heap.peek() {
            let (done_at, _, _) = split_key(key);
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
        // Completions are written as `(done_at, tid, seq)` in descending
        // order: heap iteration order is unspecified, and the bytes stay
        // those of a heap that held the unpacked tuples.
        let mut heap: Vec<(u64, usize, u64)> = (self.completion_heap.iter())
            .map(|&Reverse(key)| {
                let (done_at, tid, slot) = split_key(key);
                let t = &self.threads[tid];
                (done_at, tid, t.front_seq() + t.ord(slot) as u64)
            })
            .collect();
        heap.sort_unstable_by(|a, b| b.cmp(a));
        e.len(heap.len());
        for (done_at, tid, seq) in heap {
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
    ///
    /// Beyond decoding each field, restore checks that the structures
    /// agree as stepping would have left them: every completion names a
    /// distinct in-flight `Issued` entry and every such entry has one,
    /// and the occupancy counters match the ROB contents. A snapshot that
    /// fails a check is an error, never a core that panics once stepped.
    pub fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
        cycle: u64,
    ) -> Result<(), cs_trace::snap::SnapError> {
        use cs_trace::snap::SnapError;
        if cycle > MAX_DONE_AT {
            return Err(mismatch_err("cycle count past the completion-key range"));
        }
        self.stats = CoreStats::decode_snap(d)?;
        if self.stats.per_thread_committed.len() != self.cfg.smt_threads {
            return Err(mismatch_err("per-thread counters disagree with the core's thread count"));
        }
        self.rs_used = d.len()?;
        self.loads_in_rob = d.len()?;
        self.stores_in_rob = d.len()?;
        self.outstanding_offcore_loads = d.u32()?;
        let n = d.len()?;
        self.store_drain.clear();
        for _ in 0..n {
            self.store_drain.push_back(d.u64()?);
        }
        // Completions name their entries by seq; they are checked against
        // the threads, which follow them in the bytes.
        let n = d.len()?;
        let mut completions = Vec::new();
        for _ in 0..n {
            completions.push((d.u64()?, d.len()?, d.u64()?));
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
        let (rob_cap, fetch_cap) = (self.cfg.rob_per_thread(), self.cfg.fetch_buffer);
        for t in &mut self.threads {
            t.restore_snap(d, max_pulled, rob_cap, fetch_cap)?;
        }
        self.completion_heap.clear();
        let mut claimed = [SlotSet::default(); 2];
        for (done_at, tid, seq) in completions {
            let Some(t) = self.threads.get(tid) else {
                return Err(mismatch_err("completion names no attached thread"));
            };
            if done_at > MAX_DONE_AT {
                return Err(mismatch_err("completion cycle past the completion-key range"));
            }
            if !(t.front_seq()..t.next_seq).contains(&seq) {
                return Err(mismatch_err("completion names an entry not in flight"));
            }
            let slot = t.slot(seq);
            if t.rob[slot].state != EntryState::Issued || claimed[tid].contains(slot) {
                return Err(mismatch_err("completion names an entry not issued, or twice"));
            }
            claimed[tid].insert(slot);
            self.completion_heap.push(Reverse(completion_key(done_at, tid, slot)));
        }
        self.check_occupancy(&claimed)
    }

    /// The restore checks of the occupancy counters: each must count what
    /// the restored ROBs hold, as dispatch, issue, completion and commit
    /// keep it. `claimed` holds the slots named by completions.
    fn check_occupancy(&self, claimed: &[SlotSet; 2]) -> Result<(), cs_trace::snap::SnapError> {
        let (mut waiting, mut loads, mut stores, mut offcore) = (0, 0, 0, 0u64);
        for (tid, t) in self.threads.iter().enumerate() {
            let mut issued = 0;
            for (seq, e) in t.entries() {
                waiting += usize::from(e.state == EntryState::Waiting);
                loads += usize::from(e.op.is_load());
                stores += usize::from(e.op.is_store());
                let in_flight = e.state == EntryState::Issued;
                issued += usize::from(in_flight);
                if e.offcore_load && !(e.op.is_load() && e.state != EntryState::Waiting) {
                    return Err(mismatch_err("off-core flag on an entry that issued no load"));
                }
                offcore += u64::from(e.offcore_load && in_flight);
                // In-order cores issue in program order: every waiting
                // entry is younger than every issued one.
                let younger = seq >= t.next_seq - t.n_waiting as u64;
                if self.cfg.in_order && (e.state == EntryState::Waiting) != younger {
                    return Err(mismatch_err("in-order core issued out of program order"));
                }
            }
            if issued != claimed[tid].len() {
                return Err(mismatch_err("an issued entry has no completion"));
            }
        }
        let counts = [self.rs_used, self.loads_in_rob, self.stores_in_rob];
        if counts != [waiting, loads, stores]
            || u64::from(self.outstanding_offcore_loads) != offcore
        {
            return Err(mismatch_err("occupancy counters disagree with the ROB"));
        }
        Ok(())
    }
}

fn mismatch_err(what: &str) -> cs_trace::snap::SnapError {
    cs_trace::snap::SnapError::Mismatch(what.into())
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
    fn restore_rejects_structures_that_disagree() {
        use cs_trace::snap::{Dec, Enc, SnapError};
        let mk = |cfg: CoreConfig| {
            let ops = (0..4000u64).map(|i| match i % 4 {
                0 => MicroOp::load(0x40_0000, 0x6000_0000 + i * 577 * 64, 8),
                _ => MicroOp::alu(0x40_0004 + 4 * (i % 3)).with_deps(i % 4, 0),
            });
            let mut c = OooCore::new(cfg);
            c.attach(Box::new(VecSource::new(ops.collect())));
            c
        };
        let mut live = mk(CoreConfig::x5670());
        let mut m = mem();
        for now in 0..600 {
            live.step(0, &mut m, now);
        }
        let t = &live.threads[0];
        let (front, next) = (t.front_seq(), t.next_seq);
        assert!(front > 0 && t.rob.len() > 32 && t.fetch_buf.len() > 4);
        assert!(live.completion_heap.len() >= 2, "completions in flight");
        let not_issued = t.entries().find(|(_, e)| e.state != EntryState::Issued).expect("one").0;
        let mut e = Enc::new();
        live.encode_snap(&mut e);
        let bytes = e.buf;
        let restore = |cfg: CoreConfig, b: &[u8]| mk(cfg).restore_snap(&mut Dec::new(b), 600);
        restore(CoreConfig::x5670(), &bytes).expect("the intact bytes restore");

        // The stats open the core's bytes; then three counts, the off-core
        // load count, the store-drain list and the completion list of
        // (done_at, tid, seq). The one thread's bytes end the core's, and
        // close with next_seq, three u64s, three flag bytes, the waiting
        // list and the (empty) held branch.
        let mut stats = Enc::new();
        live.stats.encode_snap(&mut stats);
        let rs_used = stats.buf.len();
        let completion = rs_used + 3 * 8 + 4 + 8 + 8 * live.store_drain.len() + 8;
        let next_seq = bytes.len() - (8 + 3 * 8 + 3 + 8 + 8 * t.n_waiting + 1);
        assert_eq!(bytes[next_seq..next_seq + 8], next.to_le_bytes());
        let put = |at: usize, v: u64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            b
        };
        let first_seq = u64::from_le_bytes(bytes[completion + 16..][..8].try_into().expect("8"));
        let x5670 = CoreConfig::x5670();
        let cases = [
            ("completion names thread 1", x5670, put(completion + 8, 1)),
            ("completion past next_seq", x5670, put(completion + 16, next)),
            ("completion before the head", x5670, put(completion + 16, front - 1)),
            ("completion of an entry not issued", x5670, put(completion + 16, not_issued)),
            ("two completions of one entry", x5670, put(completion + 24 + 16, first_seq)),
            ("ROB ends short of next_seq", x5670, put(next_seq, next + 1)),
            ("reservation count off by one", x5670, put(rs_used, live.rs_used as u64 + 1)),
            ("ROB past its capacity", CoreConfig { rob_entries: 32, ..x5670 }, bytes.clone()),
            ("fetch buffer past its capacity", CoreConfig { fetch_buffer: 4, ..x5670 }, bytes),
        ];
        for (what, cfg, b) in cases {
            let got = restore(cfg, &b);
            assert!(matches!(got, Err(SnapError::Mismatch(_))), "{what}: {got:?}");
        }
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
