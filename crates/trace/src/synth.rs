//! The synthetic trace source: compiles a [`WorkloadProfile`] into an
//! endless micro-op stream for one hardware thread.
//!
//! The source runs two interleaved execution modes — application and
//! operating system — matching the paper's methodology, where every counter
//! is attributed to one of the two. Kernel time arrives in bursts (syscalls,
//! softirq work) whose frequency and length are set by the profile's
//! [`crate::profile::OsProfile`].

use crate::datagen::Pattern;
use crate::ifoot::CodeWalker;
use crate::layout;
use crate::op::{MicroOp, OpKind, Privilege};
use crate::profile::{IlpModel, InstrMix, OsProfile, WorkloadProfile};
use crate::rng::{chance, geometric, stream_rng, weighted_index, GeometricTable, SmallRng};
use crate::source::TraceSource;
use crate::datagen::PatternSpec;

/// Generator state for one execution mode (application or kernel).
#[derive(Debug)]
struct ModeState {
    walker: CodeWalker,
    patterns: Vec<Pattern>,
    weights: Vec<f64>,
    mix: InstrMix,
    privilege: Privilege,
}

impl ModeState {
    fn build(
        code_base: u64,
        code: &crate::ifoot::CodeProfile,
        data: &[(f64, PatternSpec)],
        mix: InstrMix,
        privilege: Privilege,
        thread: usize,
        shared_data: bool,
    ) -> Self {
        let mut patterns = Vec::with_capacity(data.len());
        let mut weights = Vec::with_capacity(data.len());
        for (i, (w, spec)) in data.iter().enumerate() {
            let base = region_base(spec, privilege, i, thread, shared_data);
            patterns.push(spec.build(base, thread));
            weights.push(*w);
        }
        Self {
            walker: CodeWalker::new(code_base, code.clone()),
            patterns,
            weights,
            mix,
            privilege,
        }
    }
}

/// Assigns a pattern its address-space region.
///
/// Private patterns ([`PatternSpec::Hot`]) go to the per-thread stack area;
/// shared pools go to the dedicated shared regions (application shared
/// structures or kernel network buffers); everything else receives a
/// disjoint 1 TiB slot in the heap (application) or kernel data area — the
/// same slot for every thread when the profile shares its dataset
/// (server-style), or a per-thread sub-slot when it does not (independent
/// SPEC/PARSEC-style processes).
fn region_base(
    spec: &PatternSpec,
    privilege: Privilege,
    index: usize,
    thread: usize,
    shared_data: bool,
) -> u64 {
    const SLOT: u64 = 1 << 40;
    // 64 GiB per-thread sub-slots inside a pattern's slot.
    let private_off = if shared_data { 0 } else { thread as u64 * (64 << 30) };
    match (spec, privilege) {
        // Multiple Hot patterns per thread get disjoint 1 MiB sub-regions
        // of the thread's stack slot.
        (PatternSpec::Hot { .. }, Privilege::User) => {
            layout::stack_base(thread) + index as u64 * (1 << 20)
        }
        (PatternSpec::Hot { .. }, Privilege::Kernel) => {
            layout::KERNEL_DATA_BASE
                + (layout::stack_base(thread) - layout::STACK_REGION_BASE)
                + index as u64 * (1 << 20)
        }
        (PatternSpec::SharedRw { .. }, Privilege::User) => {
            layout::APP_SHARED_BASE + index as u64 * (1 << 30)
        }
        (PatternSpec::SharedRw { .. }, Privilege::Kernel) => {
            layout::NET_BUF_BASE + index as u64 * (1 << 30)
        }
        (_, Privilege::User) => layout::APP_HEAP_BASE + index as u64 * SLOT + private_off,
        (_, Privilege::Kernel) => layout::KERNEL_DATA_BASE + (1 + index as u64) * SLOT,
    }
}

/// Sentinel marking an empty [`ChainTable`] slot. Real keys are
/// `(pattern index << 32) | chain id` with both halves tiny, so the
/// all-ones key can never occur.
const CHAIN_EMPTY: u64 = u64::MAX;

/// Fixed-size open-addressed map from chain key to the sequence number
/// of that chain's last load.
///
/// This sits on the hottest line of the generator — every chained memory
/// op does one lookup and one store — and replaces a `HashMap<u64, u64>`
/// whose SipHash plus control-byte probing dominated the profile. The
/// key universe is known exactly at build time (one key per
/// (pattern, chain) pair), so the table is sized once to stay at most
/// half full: it never grows, never evicts, and linear probes terminate
/// quickly.
#[derive(Debug)]
struct ChainTable {
    keys: Box<[u64]>,
    vals: Box<[u64]>,
    mask: usize,
}

impl ChainTable {
    /// A table for at most `chain_keys` distinct keys: capacity is the
    /// next power of two past twice the key count (load factor ≤ 0.5),
    /// at least 4 so chain-free engines still get a valid (if unused)
    /// table.
    fn with_chains(chain_keys: usize) -> Self {
        let cap = (chain_keys * 2).next_power_of_two().max(4);
        Self {
            keys: vec![CHAIN_EMPTY; cap].into_boxed_slice(),
            vals: vec![0; cap].into_boxed_slice(),
            mask: cap - 1,
        }
    }

    /// Home slot: a Fibonacci multiply scrambles the low-entropy
    /// (index, chain) keys before masking.
    #[inline]
    fn slot(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u64> {
        debug_assert_ne!(key, CHAIN_EMPTY);
        let mut i = self.slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == CHAIN_EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    fn insert(&mut self, key: u64, val: u64) {
        debug_assert_ne!(key, CHAIN_EMPTY);
        let mut i = self.slot(key);
        loop {
            let k = self.keys[i];
            if k == key || k == CHAIN_EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// A self-contained micro-op generator for one execution mode: code
/// walker, data patterns, instruction mix, dependency model and chain
/// bookkeeping. [`SyntheticSource`] runs two of these (application and
/// kernel); [`OsInterleaver`] pairs one kernel engine with an arbitrary
/// application source.
#[derive(Debug)]
pub struct ModeEngine {
    state: ModeState,
    ilp: IlpModel,
    dep_table: GeometricTable,
    last_chain_load: ChainTable,
    last_load_seq: Option<u64>,
}

impl ModeEngine {
    /// Builds an engine for one mode.
    #[allow(clippy::too_many_arguments)]
    fn new(
        code_base: u64,
        code: &crate::ifoot::CodeProfile,
        data: &[(f64, PatternSpec)],
        mix: InstrMix,
        privilege: Privilege,
        ilp: IlpModel,
        thread: usize,
        shared_data: bool,
        rng: &mut SmallRng,
    ) -> Self {
        let state = ModeState::build(code_base, code, data, mix, privilege, thread, shared_data);
        let chain_keys: usize = state
            .patterns
            .iter()
            .map(|p| match p {
                Pattern::Chase(c) => c.chains(),
                _ => 0,
            })
            .sum();
        Self {
            state,
            ilp,
            dep_table: GeometricTable::new(rng, ilp.mean_dep_distance),
            last_chain_load: ChainTable::with_chains(chain_keys),
            last_load_seq: None,
        }
    }

    /// Builds a kernel-mode engine from an [`OsProfile`].
    pub fn kernel(os: &OsProfile, ilp: IlpModel, thread: usize, rng: &mut SmallRng) -> Self {
        Self::new(
            layout::KERNEL_CODE_BASE,
            &os.code,
            &os.data,
            os.mix,
            Privilege::Kernel,
            ilp,
            thread,
            true,
            rng,
        )
    }

    fn generic_deps(&self, rng: &mut SmallRng) -> (u64, u64) {
        let dep1 = if chance(rng, self.ilp.dep_prob) { self.dep_table.sample(rng) } else { 0 };
        let dep2 = if dep1 != 0 && chance(rng, self.ilp.second_dep_prob) {
            self.dep_table.sample(rng)
        } else {
            0
        };
        (dep1, dep2)
    }

    /// Generates the next op of this mode; `seq` is the global program
    /// order position of the op in the thread's stream.
    pub fn next_op(&mut self, rng: &mut SmallRng, seq: u64) -> MicroOp {
        let step = self.state.walker.step(rng);
        let privilege = self.state.privilege;

        if step.is_branch {
            let dep1 = if chance(rng, self.ilp.dep_prob) { self.dep_table.sample(rng) } else { 0 };
            MicroOp::branch(step.pc, step.mispredict).with_privilege(privilege).with_deps(dep1, 0)
        } else {
            let mix = self.state.mix;
            let r = rng.gen_f64();
            let mut kind = if r < mix.load {
                OpKind::Load
            } else if r < mix.load + mix.store {
                OpKind::Store
            } else if r < mix.load + mix.store + mix.fp {
                OpKind::Fp
            } else if r < mix.load + mix.store + mix.fp + mix.mul {
                OpKind::IntMul
            } else if r < mix.total() {
                OpKind::IntDiv
            } else {
                OpKind::IntAlu
            };

            if kind.is_mem() {
                let idx = weighted_index(rng, &self.state.weights);
                let access = self.state.patterns[idx].next(rng);
                if let Some(p) = access.write_bias {
                    kind = if chance(rng, p) { OpKind::Store } else { OpKind::Load };
                }
                let mut op = match kind {
                    OpKind::Store => MicroOp::store(step.pc, access.addr, access.size),
                    _ => MicroOp::load(step.pc, access.addr, access.size),
                };
                op = op.with_privilege(privilege);
                if access.chained {
                    let key = (idx as u64) << 32 | access.chain_id as u64;
                    let dep = match self.last_chain_load.get(key) {
                        Some(last) => seq - last,
                        None => 0,
                    };
                    if op.is_load() {
                        self.last_chain_load.insert(key, seq);
                    }
                    op = op.with_deps(dep, 0);
                } else if op.is_load()
                    && chance(rng, self.ilp.load_chain_prob)
                    && self.last_load_seq.is_some()
                {
                    // Request-processing serialization: this load's address
                    // came out of the previous load (hash bucket -> entry ->
                    // field), the paper's "complex data structure
                    // dependencies" limiting MLP.
                    let dep = seq - self.last_load_seq.expect("checked");
                    op = op.with_deps(dep, 0);
                } else {
                    let (d1, d2) = self.generic_deps(rng);
                    op = op.with_deps(d1, d2);
                }
                if op.is_load() {
                    self.last_load_seq = Some(seq);
                }
                op
            } else {
                let (d1, d2) = self.generic_deps(rng);
                MicroOp::of_kind(step.pc, kind).with_privilege(privilege).with_deps(d1, d2)
            }
        }
    }
}

/// An endless synthetic micro-op stream for one hardware thread.
///
/// Built by [`WorkloadProfile::build_source`].
#[derive(Debug)]
pub struct SyntheticSource {
    label: String,
    rng: SmallRng,
    app: ModeEngine,
    os: Option<(ModeEngine, f64 /* burst mean */, f64 /* user period mean */)>,
    /// Remaining kernel-mode ops in the current burst (0 = user mode).
    kernel_left: u64,
    /// Remaining user-mode ops until the next syscall.
    until_syscall: u64,
    /// Ops emitted so far (program-order sequence number).
    seq: u64,
}

impl SyntheticSource {
    /// Compiles `profile` into a stream for hardware thread `thread`,
    /// seeding all randomness from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`].
    pub fn new(profile: &WorkloadProfile, thread: usize, seed: u64) -> Self {
        profile.validate();
        let mut rng = stream_rng(seed, thread as u64);
        let app = ModeEngine::new(
            layout::APP_CODE_BASE,
            &profile.code,
            &profile.data,
            profile.mix,
            Privilege::User,
            profile.ilp,
            thread,
            profile.shared_data,
            &mut rng,
        );
        let os = profile.os.as_ref().map(|os: &OsProfile| {
            let engine = ModeEngine::kernel(os, profile.ilp, thread, &mut rng);
            let user_period = if os.fraction > 0.0 {
                os.burst_mean * (1.0 - os.fraction) / os.fraction
            } else {
                f64::INFINITY
            };
            (engine, os.burst_mean, user_period)
        });
        let until_syscall = match &os {
            Some((_, _, period)) if period.is_finite() => geometric(&mut rng, period.max(1.0)),
            _ => u64::MAX,
        };
        Self { label: profile.name.clone(), rng, app, os, kernel_left: 0, until_syscall, seq: 0 }
    }

    /// Advances mode bookkeeping and returns whether the next op is
    /// kernel-mode.
    fn advance_mode(&mut self) -> bool {
        if self.os.is_none() {
            return false;
        }
        if self.kernel_left > 0 {
            self.kernel_left -= 1;
            return true;
        }
        if self.until_syscall == 0 {
            let (_, burst_mean, period) = self.os.as_ref().expect("checked above");
            let (burst_mean, period) = (*burst_mean, *period);
            let burst = geometric(&mut self.rng, burst_mean.max(1.0));
            self.kernel_left = burst.saturating_sub(1);
            self.until_syscall = geometric(&mut self.rng, period.max(1.0));
            return true;
        }
        self.until_syscall -= 1;
        false
    }
}

impl TraceSource for SyntheticSource {
    fn next_op(&mut self) -> Option<MicroOp> {
        let kernel = self.advance_mode();
        let engine =
            if kernel { &mut self.os.as_mut().expect("kernel mode requires os").0 } else { &mut self.app };
        let op = engine.next_op(&mut self.rng, self.seq);
        self.seq += 1;
        Some(op)
    }

    /// The stream is endless, so a block is always full: a tight
    /// monomorphic loop the core model pulls instead of `max` virtual
    /// `next_op` calls.
    fn next_block(&mut self, out: &mut Vec<MicroOp>, max: usize) -> usize {
        out.reserve(max);
        for _ in 0..max {
            let kernel = self.advance_mode();
            let engine = if kernel {
                &mut self.os.as_mut().expect("kernel mode requires os").0
            } else {
                &mut self.app
            };
            let op = engine.next_op(&mut self.rng, self.seq);
            self.seq += 1;
            out.push(op);
        }
        max
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// Interleaves kernel-mode bursts into an arbitrary application-level
/// source — the OS overlay used by the mini applications in
/// `cs-workloads`, mirroring how the paper's workloads spend part of their
/// time in the operating system.
#[derive(Debug)]
pub struct OsInterleaver<S> {
    inner: S,
    rng: SmallRng,
    kernel: ModeEngine,
    burst_mean: f64,
    user_period: f64,
    kernel_left: u64,
    until_syscall: u64,
    seq: u64,
}

impl<S: TraceSource> OsInterleaver<S> {
    /// Wraps `inner` with kernel bursts described by `os`; `ilp` shapes the
    /// kernel ops' dependencies.
    pub fn new(inner: S, os: &OsProfile, ilp: IlpModel, thread: usize, seed: u64) -> Self {
        let mut rng = stream_rng(seed ^ 0xC0FE, thread as u64);
        let kernel = ModeEngine::kernel(os, ilp, thread, &mut rng);
        let user_period = if os.fraction > 0.0 {
            os.burst_mean * (1.0 - os.fraction) / os.fraction
        } else {
            f64::INFINITY
        };
        let until_syscall =
            if user_period.is_finite() { geometric(&mut rng, user_period.max(1.0)) } else { u64::MAX };
        Self {
            inner,
            rng,
            kernel,
            burst_mean: os.burst_mean,
            user_period,
            kernel_left: 0,
            until_syscall,
            seq: 0,
        }
    }

    /// The wrapped application source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TraceSource> TraceSource for OsInterleaver<S> {
    fn next_op(&mut self) -> Option<MicroOp> {
        let kernel = if self.kernel_left > 0 {
            self.kernel_left -= 1;
            true
        } else if self.until_syscall == 0 && self.user_period.is_finite() {
            let burst = geometric(&mut self.rng, self.burst_mean.max(1.0));
            self.kernel_left = burst.saturating_sub(1);
            self.until_syscall = geometric(&mut self.rng, self.user_period.max(1.0));
            true
        } else {
            self.until_syscall = self.until_syscall.saturating_sub(1);
            false
        };
        let op = if kernel {
            Some(self.kernel.next_op(&mut self.rng, self.seq))
        } else {
            self.inner.next_op()
        };
        if op.is_some() {
            self.seq += 1;
        }
        op
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn pull(profile: &WorkloadProfile, n: usize) -> Vec<MicroOp> {
        let mut src = profile.build_source(0, 1234);
        (0..n).map(|_| src.next_op().expect("endless")).collect()
    }

    #[test]
    fn stream_is_endless_and_deterministic() {
        let p = WorkloadProfile::tpce();
        let a = pull(&p, 5000);
        let b = pull(&p, 5000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_threads_differ() {
        let p = WorkloadProfile::web_backend();
        let mut s0 = p.build_source(0, 7);
        let mut s1 = p.build_source(1, 7);
        let a: Vec<_> = (0..200).map(|_| s0.next_op().unwrap()).collect();
        let b: Vec<_> = (0..200).map(|_| s1.next_op().unwrap()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn os_fraction_is_respected() {
        let p = WorkloadProfile::web_backend();
        let target = p.os.as_ref().unwrap().fraction;
        let ops = pull(&p, 400_000);
        let kernel = ops.iter().filter(|o| o.is_kernel()).count() as f64 / ops.len() as f64;
        assert!(
            (kernel - target).abs() < 0.05,
            "kernel fraction {kernel:.3} vs target {target:.3}"
        );
    }

    #[test]
    fn no_os_profile_means_no_kernel_ops() {
        let ops = pull(&WorkloadProfile::specint_cpu(), 100_000);
        assert!(ops.iter().all(|o| !o.is_kernel()));
    }

    #[test]
    fn load_store_fractions_track_mix() {
        let p = WorkloadProfile::specint_cpu();
        let ops = pull(&p, 300_000);
        let loads = ops.iter().filter(|o| o.is_load()).count() as f64 / ops.len() as f64;
        // Branch slots dilute the mix slightly; allow a generous band.
        assert!((0.15..0.32).contains(&loads), "load fraction {loads}");
    }

    #[test]
    fn kernel_ops_fetch_kernel_code_and_touch_kernel_data() {
        let ops = pull(&WorkloadProfile::tpcc(), 300_000);
        for op in ops.iter().filter(|o| o.is_kernel()) {
            assert!(layout::is_kernel_addr(op.pc), "kernel op with user pc {:x}", op.pc);
            if let Some(m) = op.mem {
                assert!(layout::is_kernel_addr(m.addr), "kernel op with user data {:x}", m.addr);
            }
        }
        for op in ops.iter().filter(|o| !o.is_kernel()) {
            assert!(!layout::is_kernel_addr(op.pc), "user op with kernel pc {:x}", op.pc);
        }
    }

    #[test]
    fn chained_loads_carry_dependencies() {
        // The polluter is a pure chase workload: after warmup, most loads
        // must carry a chained dependency.
        let ops = pull(&WorkloadProfile::polluter(1 << 20), 50_000);
        let loads: Vec<_> = ops.iter().filter(|o| o.is_load()).collect();
        let with_dep = loads.iter().filter(|o| o.dep1 != 0).count();
        assert!(
            with_dep as f64 / loads.len() as f64 > 0.9,
            "only {with_dep}/{} chase loads have deps",
            loads.len()
        );
    }

    #[test]
    fn next_block_matches_per_op_pulls() {
        let p = WorkloadProfile::tpcc();
        let mut per_op = p.build_source(0, 77);
        let mut blocked = p.build_source(0, 77);
        let expect: Vec<_> = (0..4096).map(|_| per_op.next_op().expect("endless")).collect();
        let mut got = Vec::new();
        while got.len() < 4096 {
            // An odd block size keeps block edges crossing kernel-burst
            // boundaries.
            let want = (4096 - got.len()).min(33);
            assert_eq!(blocked.next_block(&mut got, want), want);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn chain_table_replays_like_a_hashmap() {
        use std::collections::HashMap;
        // The realistic key universe: a handful of patterns, each with a
        // small number of chains.
        let keys: Vec<u64> =
            (0..6u64).flat_map(|idx| (0..24u64).map(move |c| idx << 32 | c)).collect();
        let mut table = ChainTable::with_chains(keys.len());
        let mut map: HashMap<u64, u64> = HashMap::new();
        let mut rng = stream_rng(99, 0);
        for seq in 0..20_000u64 {
            let key = keys[rng.gen_range(0..keys.len())];
            assert_eq!(
                table.get(key),
                map.get(&key).copied(),
                "replay divergence at seq {seq}, key {key:#x}"
            );
            if chance(&mut rng, 0.7) {
                table.insert(key, seq);
                map.insert(key, seq);
            }
        }
        // Every key was eventually written; the full universe must agree.
        for &key in &keys {
            assert_eq!(table.get(key), map.get(&key).copied());
        }
    }

    #[test]
    fn mem_ops_always_carry_refs() {
        let ops = pull(&WorkloadProfile::web_backend(), 100_000);
        for op in &ops {
            assert_eq!(op.is_mem(), op.mem.is_some());
        }
    }
}
