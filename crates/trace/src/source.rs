//! The pull-based trace source abstraction.
//!
//! A [`TraceSource`] is a hardware thread's dynamic instruction stream. The
//! core model in `cs-uarch` pulls micro-ops from one source per hardware
//! context, which keeps workload execution in lock-step with simulated time
//! and avoids materializing multi-hundred-megabyte traces.
//!
//! Because op streams carry no feedback from simulated time, a stream may
//! also be synthesized ahead of the core that consumes it:
//! [`PipelinedSource`] runs its generator on a small process-wide pool of
//! generator threads, at most two chunks of [`CHUNK_OPS`] ops ahead, and
//! hands the consumer exactly the ops (and request-meter bumps) the
//! generator would have produced inline.

use crate::op::MicroOp;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A stream of micro-ops feeding one hardware thread.
///
/// Sources for the CloudSuite workloads are endless (the applications serve
/// an open request stream); sources for run-to-completion benchmarks such as
/// SPEC may terminate by returning `None`, after which the core parks the
/// thread.
pub trait TraceSource {
    /// Produces the next micro-op in program order, or `None` when the
    /// workload has run to completion.
    fn next_op(&mut self) -> Option<MicroOp>;

    /// Produces up to `max` micro-ops in program order, appending them to
    /// `out`, and returns how many were appended. Returning fewer than
    /// `max` — in particular zero — means the workload has run to
    /// completion.
    ///
    /// Op streams carry no feedback from simulated time, so a block is
    /// exactly the ops the same number of [`TraceSource::next_op`] calls
    /// would yield; the core model pulls blocks to amortize the per-op
    /// virtual dispatch on its fetch path. The default implementation
    /// loops `next_op`; hot sources override it with a devirtualized loop.
    fn next_block(&mut self, out: &mut Vec<MicroOp>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.next_op() {
                Some(op) => {
                    out.push(op);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// A short human-readable label for reports; defaults to `"anonymous"`.
    fn label(&self) -> &str {
        "anonymous"
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_op(&mut self) -> Option<MicroOp> {
        (**self).next_op()
    }

    fn next_block(&mut self, out: &mut Vec<MicroOp>, max: usize) -> usize {
        (**self).next_block(out, max)
    }

    fn label(&self) -> &str {
        (**self).label()
    }
}

/// A trace source that replays a fixed vector of micro-ops once.
///
/// Used pervasively by unit tests of the core model, and by trace capture
/// tooling.
#[derive(Debug, Clone)]
pub struct VecSource {
    ops: Vec<MicroOp>,
    pos: usize,
    label: String,
}

impl VecSource {
    /// Creates a source replaying `ops` in order, once.
    pub fn new(ops: Vec<MicroOp>) -> Self {
        Self { ops, pos: 0, label: "vec".to_owned() }
    }

    /// Creates a named source replaying `ops` in order, once.
    pub fn with_label(ops: Vec<MicroOp>, label: impl Into<String>) -> Self {
        Self { ops, pos: 0, label: label.into() }
    }

    /// Number of ops remaining.
    pub fn remaining(&self) -> usize {
        self.ops.len() - self.pos
    }
}

impl TraceSource for VecSource {
    fn next_op(&mut self) -> Option<MicroOp> {
        let op = self.ops.get(self.pos).copied();
        if op.is_some() {
            self.pos += 1;
        }
        op
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// A trace source that cycles a fixed vector of micro-ops forever.
#[derive(Debug, Clone)]
pub struct LoopSource {
    ops: Vec<MicroOp>,
    pos: usize,
    label: String,
}

impl LoopSource {
    /// Creates a source replaying `ops` in order, forever.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty (an empty loop cannot make progress).
    pub fn new(ops: Vec<MicroOp>) -> Self {
        assert!(!ops.is_empty(), "loop source requires at least one op");
        Self { ops, pos: 0, label: "loop".to_owned() }
    }
}

impl TraceSource for LoopSource {
    fn next_op(&mut self) -> Option<MicroOp> {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        Some(op)
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// Limits an inner source to a fixed number of ops, then reports exhaustion.
#[derive(Debug, Clone)]
pub struct TakeSource<S> {
    inner: S,
    remaining: u64,
}

impl<S: TraceSource> TakeSource<S> {
    /// Wraps `inner`, passing through at most `limit` micro-ops.
    pub fn new(inner: S, limit: u64) -> Self {
        Self { inner, remaining: limit }
    }
}

impl<S: TraceSource> TraceSource for TakeSource<S> {
    fn next_op(&mut self) -> Option<MicroOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next_op()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

// ---------------------------------------------------------------------
// The generation pipeline.
// ---------------------------------------------------------------------

/// Ops a pool worker synthesizes into one chunk per turn.
pub const CHUNK_OPS: usize = 1024;

/// Filled chunks a pipelined source may hold ahead of its consumer.
const PIPELINE_DEPTH: usize = 2;

/// A request counter shared between a source and its reader (the same
/// type as the workloads' request meter).
pub type Meter = Arc<AtomicU64>;

/// Locks a slot or the pool queue. Generator code runs unlocked, under
/// `catch_unwind`, and nothing else panics while holding these locks, so
/// a poisoned lock's data is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A run of consecutive ops of one stream.
#[derive(Debug, Default)]
struct Chunk {
    ops: Vec<MicroOp>,
    /// `(i, n)`: the generator's meter rose by `n` while it produced op
    /// `i` of this chunk; `i == ops.len()` for the call that found the end.
    bumps: Vec<(usize, u64)>,
    /// The stream ends after these ops.
    end: bool,
}

/// A source as the pool runs it: fills one chunk per turn.
trait Fill: Send {
    fn fill(&mut self, chunk: &mut Chunk);
}

struct Generator<S> {
    source: S,
    /// The private meter `source` bumps, and its value at the last op.
    meter: Option<(Meter, u64)>,
}

impl<S: TraceSource + Send> Fill for Generator<S> {
    fn fill(&mut self, chunk: &mut Chunk) {
        let Some((meter, seen)) = &mut self.meter else {
            chunk.end = self.source.next_block(&mut chunk.ops, CHUNK_OPS) < CHUNK_OPS;
            return;
        };
        // Metered: one op at a time, so every bump is tied to the op whose
        // production made it.
        for _ in 0..CHUNK_OPS {
            let op = self.source.next_op();
            let now = meter.load(Ordering::Relaxed);
            if now != *seen {
                chunk.bumps.push((chunk.ops.len(), now - *seen));
                *seen = now;
            }
            match op {
                Some(op) => chunk.ops.push(op),
                None => {
                    chunk.end = true;
                    return;
                }
            }
        }
    }
}

/// The queue between one source's generator and its consumer.
struct Slot {
    label: String,
    state: Mutex<SlotState>,
    /// Signalled when a chunk is filled or the generator panics.
    filled: Condvar,
}

#[derive(Default)]
struct SlotState {
    /// Filled chunks, oldest first; at most [`PIPELINE_DEPTH`].
    ready: VecDeque<Chunk>,
    /// Consumed chunks whose buffers the generator reuses.
    spare: Vec<Chunk>,
    /// `None` while a worker fills a chunk, and for good once the stream
    /// ended, the consumer left, or the generator panicked.
    generator: Option<Box<dyn Fill>>,
    /// In the pool's run queue or held by a worker. Kept true whenever a
    /// live generator has room to fill, so the consumer never waits on a
    /// source nobody will serve.
    queued: bool,
    /// The consumer dropped its handle.
    closed: bool,
    /// The generator's panic message.
    panic: Option<String>,
}

/// The process-wide generator pool.
struct Pool {
    queue: Mutex<VecDeque<Arc<Slot>>>,
    work: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The number of generator threads: one per host core the simulation
/// thread leaves, at least one.
fn pool_size() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get() - 1).max(1)
}

/// The pool, started on first use. Its threads live as long as the
/// process and are never joined: each catches the panics of the
/// generators it runs.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        for i in 0..pool_size() {
            std::thread::Builder::new()
                .name(format!("trace-gen-{i}"))
                .spawn(|| work(pool()))
                .expect("cannot start a trace generator thread");
        }
        Pool { queue: Mutex::new(VecDeque::new()), work: Condvar::new() }
    })
}

impl Pool {
    fn push(&self, slot: Arc<Slot>) {
        lock(&self.queue).push_back(slot);
        self.work.notify_one();
    }

    fn pop(&self) -> Arc<Slot> {
        let mut queue = lock(&self.queue);
        loop {
            match queue.pop_front() {
                Some(slot) => return slot,
                None => queue = self.work.wait(queue).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// Frees a generator, even one whose drop panics: a worker outlives every
/// source it serves.
fn free(generator: Box<dyn Fill>) {
    let _ = catch_unwind(AssertUnwindSafe(move || drop(generator)));
}

/// A pool worker: takes one queued source at a time, fills one chunk for
/// it, and re-queues it at the back while it has room. It never waits on
/// a full queue: a source with no room leaves the run queue until its
/// consumer takes a chunk.
fn work(pool: &Pool) {
    loop {
        let slot = pool.pop();
        let mut st = lock(&slot.state);
        // No generator: the stream ended, the consumer left, or the
        // generator panicked.
        let Some(mut generator) = st.generator.take() else {
            st.queued = false;
            continue;
        };
        debug_assert!(st.ready.len() < PIPELINE_DEPTH, "queued a source with no room");
        let mut chunk = st.spare.pop().unwrap_or_default();
        drop(st);

        chunk.ops.clear();
        chunk.bumps.clear();
        chunk.end = false;
        let filled = catch_unwind(AssertUnwindSafe(|| generator.fill(&mut chunk)));

        let mut st = lock(&slot.state);
        let keep = match filled {
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                st.panic = Some(msg);
                false
            }
            Ok(()) if st.closed => false,
            Ok(()) => {
                let end = chunk.end;
                st.ready.push_back(chunk);
                !end
            }
        };
        slot.filled.notify_one();
        if !keep {
            st.queued = false;
            drop(st);
            free(generator);
            continue;
        }
        st.generator = Some(generator);
        let room = st.ready.len() < PIPELINE_DEPTH;
        st.queued = room;
        drop(st);
        if room {
            pool.push(slot);
        }
    }
}

/// A trace source whose generator runs on the process-wide generator
/// pool, filling chunks of [`CHUNK_OPS`] ops at most two chunks ahead of
/// this handle.
///
/// The handle yields exactly the ops the generator yields, in the same
/// blocks a direct pull would return (a short block only at the end).
/// A metered generator bumps a private meter; the handle replays each
/// bump into the caller's meter as it hands out the op whose production
/// made it, so the caller's meter reads the same after every call as if
/// the generator ran inline. Dropping the handle frees the generator; a
/// panicking generator makes the next pull that needs its ops panic with
/// the source's label.
pub struct PipelinedSource {
    slot: Arc<Slot>,
    /// The chunk being handed out, and the next op and bump in it.
    chunk: Chunk,
    pos: usize,
    bump: usize,
    meter: Option<Meter>,
}

impl std::fmt::Debug for PipelinedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedSource").field("label", &self.slot.label).finish()
    }
}

impl PipelinedSource {
    /// Runs `source` on the generator pool.
    pub fn new<S: TraceSource + Send + 'static>(source: S) -> Self {
        Self::start(Generator { source, meter: None }, None)
    }

    /// Runs the source `build` makes on the generator pool. `build`
    /// receives a private meter for the source to bump; the handle
    /// replays its bumps into `meter`.
    pub fn metered<S: TraceSource + Send + 'static>(
        meter: Meter,
        build: impl FnOnce(Meter) -> S,
    ) -> Self {
        let private = Meter::default();
        let source = build(Arc::clone(&private));
        let seen = private.load(Ordering::Relaxed);
        meter.fetch_add(seen, Ordering::Relaxed);
        Self::start(Generator { source, meter: Some((private, seen)) }, Some(meter))
    }

    fn start<S: TraceSource + Send + 'static>(generator: Generator<S>, meter: Option<Meter>) -> Self {
        let slot = Arc::new(Slot {
            label: generator.source.label().to_owned(),
            state: Mutex::new(SlotState {
                generator: Some(Box::new(generator)),
                queued: true,
                ..SlotState::default()
            }),
            filled: Condvar::new(),
        });
        pool().push(Arc::clone(&slot));
        Self { slot, chunk: Chunk::default(), pos: 0, bump: 0, meter }
    }

    /// Replays the bumps of every op before `upto` into the meter.
    #[inline]
    fn replay(&mut self, upto: usize) {
        while let Some(&(i, n)) = self.chunk.bumps.get(self.bump) {
            if i >= upto {
                break;
            }
            if let Some(m) = &self.meter {
                m.fetch_add(n, Ordering::Relaxed);
            }
            self.bump += 1;
        }
    }

    /// Moves to the next chunk, waiting for the generator if it is behind.
    /// Returns false at the end of the stream, having replayed the bumps
    /// of the call that found it.
    fn advance(&mut self) -> bool {
        if self.chunk.end {
            self.replay(usize::MAX);
            return false;
        }
        let mut st = lock(&self.slot.state);
        let next = loop {
            if let Some(chunk) = st.ready.pop_front() {
                break chunk;
            }
            if let Some(msg) = st.panic.clone() {
                drop(st);
                panic!("trace generator of source {:?} panicked: {msg}", self.slot.label);
            }
            st = self.slot.filled.wait(st).unwrap_or_else(PoisonError::into_inner);
        };
        let used = std::mem::replace(&mut self.chunk, next);
        st.spare.push(used);
        let wake = !st.queued && st.generator.is_some();
        st.queued |= wake;
        drop(st);
        if wake {
            pool().push(Arc::clone(&self.slot));
        }
        self.pos = 0;
        self.bump = 0;
        true
    }

    #[cfg(test)]
    fn ready_chunks(&self) -> usize {
        lock(&self.slot.state).ready.len()
    }
}

impl TraceSource for PipelinedSource {
    fn next_op(&mut self) -> Option<MicroOp> {
        if self.pos == self.chunk.ops.len() && !self.advance() {
            return None;
        }
        let op = self.chunk.ops[self.pos];
        self.pos += 1;
        self.replay(self.pos);
        Some(op)
    }

    fn next_block(&mut self, out: &mut Vec<MicroOp>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            if self.pos == self.chunk.ops.len() && !self.advance() {
                break;
            }
            let take = (max - n).min(self.chunk.ops.len() - self.pos);
            out.extend_from_slice(&self.chunk.ops[self.pos..self.pos + take]);
            self.pos += take;
            n += take;
            self.replay(self.pos);
        }
        n
    }

    fn label(&self) -> &str {
        &self.slot.label
    }
}

impl Drop for PipelinedSource {
    fn drop(&mut self) {
        let generator = {
            let mut st = lock(&self.slot.state);
            st.closed = true;
            st.ready.clear();
            st.spare.clear();
            st.generator.take()
        };
        if let Some(g) = generator {
            free(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MicroOp;
    use std::sync::atomic::AtomicUsize;

    fn ops(n: usize) -> Vec<MicroOp> {
        (0..n).map(|i| MicroOp::alu(0x400000 + 4 * i as u64)).collect()
    }

    #[test]
    fn vec_source_replays_once() {
        let mut s = VecSource::new(ops(3));
        assert_eq!(s.remaining(), 3);
        assert!(s.next_op().is_some());
        assert!(s.next_op().is_some());
        assert!(s.next_op().is_some());
        assert!(s.next_op().is_none());
        assert!(s.next_op().is_none());
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn loop_source_wraps_around() {
        let mut s = LoopSource::new(ops(2));
        let a = s.next_op().unwrap();
        let b = s.next_op().unwrap();
        let a2 = s.next_op().unwrap();
        assert_ne!(a.pc, b.pc);
        assert_eq!(a.pc, a2.pc);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn loop_source_rejects_empty() {
        let _ = LoopSource::new(Vec::new());
    }

    #[test]
    fn take_source_truncates() {
        let mut s = TakeSource::new(LoopSource::new(ops(2)), 5);
        let mut n = 0;
        while s.next_op().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn default_next_block_stops_at_exhaustion() {
        let mut s = VecSource::new(ops(5));
        let mut out = Vec::new();
        assert_eq!(s.next_block(&mut out, 3), 3);
        assert_eq!(s.next_block(&mut out, 3), 2);
        assert_eq!(s.next_block(&mut out, 3), 0);
        assert_eq!(out, ops(5));
    }

    #[test]
    fn pipelined_finite_source_ends_with_the_same_short_block() {
        let n = 2 * CHUNK_OPS + 300;
        let mut direct = VecSource::new(ops(n));
        let mut piped = PipelinedSource::new(VecSource::with_label(ops(n), "finite"));
        assert_eq!(piped.label(), "finite");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut sizes = Vec::new();
        loop {
            let got = direct.next_block(&mut a, 1000);
            assert_eq!(piped.next_block(&mut b, 1000), got);
            sizes.push(got);
            if got == 0 {
                break;
            }
        }
        assert_eq!(sizes, [1000, 1000, 348, 0]);
        assert_eq!(a, b);
        assert!(piped.next_op().is_none());
        assert_eq!(piped.next_block(&mut b, 8), 0);
    }

    /// An endless source that counts its drops.
    struct Counted(Arc<AtomicUsize>);

    impl TraceSource for Counted {
        fn next_op(&mut self) -> Option<MicroOp> {
            Some(MicroOp::alu(0x400000))
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn dropping_handles_frees_their_generators() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut handles: Vec<_> =
            (0..64).map(|_| PipelinedSource::new(Counted(Arc::clone(&drops)))).collect();
        for h in &mut handles {
            assert!(h.next_op().is_some());
        }
        wait_until("full queues", || handles.iter().all(|h| h.ready_chunks() == PIPELINE_DEPTH));
        drop(handles);
        assert_eq!(drops.load(Ordering::Relaxed), 64);
        // Handles dropped while queued or being filled free theirs too.
        drop((0..64).map(|_| PipelinedSource::new(Counted(Arc::clone(&drops)))).collect::<Vec<_>>());
        wait_until("queued generators to be freed", || drops.load(Ordering::Relaxed) == 128);
        let mut fresh = PipelinedSource::new(LoopSource::new(ops(3)));
        let mut out = Vec::new();
        assert_eq!(fresh.next_block(&mut out, 3 * CHUNK_OPS), 3 * CHUNK_OPS);
    }

    /// A source that panics at its 1500th op.
    struct Exploding(usize);

    impl TraceSource for Exploding {
        fn next_op(&mut self) -> Option<MicroOp> {
            self.0 += 1;
            assert!(self.0 < 1500, "synthesis failed");
            Some(MicroOp::alu(0x400000))
        }

        fn label(&self) -> &str {
            "exploding-source"
        }
    }

    #[test]
    #[should_panic(expected = "exploding-source")]
    fn generator_panic_reaches_the_consumer() {
        let mut s = PipelinedSource::new(Exploding(0));
        for _ in 0..10 * CHUNK_OPS {
            s.next_op();
        }
    }

    /// Live threads of this process named like pool workers.
    fn pool_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, |tasks| {
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .filter(|name| name.starts_with("trace-gen-"))
                .count()
        })
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn pool_threads_stay_fixed_with_many_live_sources() {
        let mut live: Vec<_> =
            (0..64).map(|_| PipelinedSource::new(LoopSource::new(ops(5)))).collect();
        for s in &mut live {
            assert!(s.next_op().is_some());
        }
        wait_until("the pool to start", || pool_threads() == pool_size());
        live.extend((0..64).map(|_| PipelinedSource::new(LoopSource::new(ops(5)))));
        let mut out = Vec::new();
        for s in &mut live {
            assert_eq!(s.next_block(&mut out, 2 * CHUNK_OPS), 2 * CHUNK_OPS);
        }
        assert_eq!(pool_threads(), pool_size());
    }

    #[test]
    fn boxed_source_dispatches() {
        let mut s: Box<dyn TraceSource> = Box::new(VecSource::with_label(ops(1), "t"));
        assert_eq!(s.label(), "t");
        assert!(s.next_op().is_some());
        assert!(s.next_op().is_none());
    }
}
