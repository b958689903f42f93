//! Micro-op emission for the mini applications.
//!
//! [`EmitCtx`] turns an application's algorithmic steps into the micro-op
//! stream the core model consumes. Data addresses come from the
//! application (genuine); program counters come from a calibrated
//! instruction-footprint walker ([`cs_trace::ifoot`]), with one branch per
//! basic block; dependencies are wired explicitly for pointer-dependent
//! loads and statistically (per the workload's ILP model) for everything
//! else.
//!
//! [`AppSource`] adapts a request-generating application to the pull-based
//! [`TraceSource`] interface, and applications are usually further wrapped
//! in an [`cs_trace::synth::OsInterleaver`] for their kernel-mode time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cs_trace::ifoot::{CodeProfile, CodeWalker};
use cs_trace::profile::{IlpModel, OsProfile};
use cs_trace::rng::{chance, stream_rng, GeometricTable, SmallRng};
use cs_trace::{layout, MicroOp, OpKind, TraceSource};
use std::collections::VecDeque;

/// The calibrated instruction side of one mini application: the code
/// footprint its [`EmitCtx`] walks, the ILP structure of its ops, and the
/// kernel time its [`cs_trace::synth::OsInterleaver`] mixes in. Each
/// application's `model()` is the one place these values live.
#[derive(Debug, Clone, PartialEq)]
pub struct AppModel {
    /// Application code footprint.
    pub code: CodeProfile,
    /// ILP structure of application and kernel ops.
    pub ilp: IlpModel,
    /// Operating-system involvement.
    pub os: OsProfile,
}

/// How a load's address was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dep {
    /// Address is available early (array indexing, streaming): the load
    /// gets only the statistical register dependencies.
    Free,
    /// Address was computed from the value of the most recent load
    /// (pointer chase, hash-bucket walk): an explicit dependency is wired,
    /// serializing the two.
    OnPrevLoad,
}

/// Emission context for one hardware thread of one application.
#[derive(Debug)]
pub struct EmitCtx {
    rng: SmallRng,
    walker: CodeWalker,
    ilp: IlpModel,
    dep_table: GeometricTable,
    seq: u64,
    last_load_seq: Option<u64>,
    /// Fraction of compute ops that are floating point.
    fp_frac: f64,
    /// Per-thread scratch (stack/locals) region.
    scratch_base: u64,
    scratch_bytes: u64,
    /// Probability that a compute slot is a scratch access.
    scratch_frac: f64,
    /// Per-thread warm region (per-request state, tables): larger than the
    /// L1, mostly L2-resident.
    warm_base: u64,
    warm_bytes: u64,
    /// Probability that a compute slot is a warm-region access.
    warm_frac: f64,
}

impl EmitCtx {
    /// Creates a context with the given code-footprint model and ILP
    /// structure, deterministically seeded per `(seed, thread)`.
    pub fn new(code: CodeProfile, ilp: IlpModel, fp_frac: f64, thread: usize, seed: u64) -> Self {
        let mut rng = stream_rng(seed, thread as u64);
        let dep_table = GeometricTable::new(&mut rng, ilp.mean_dep_distance);
        Self {
            walker: CodeWalker::new(layout::APP_CODE_BASE, code),
            rng,
            ilp,
            dep_table,
            seq: 0,
            last_load_seq: None,
            fp_frac,
            scratch_base: layout::stack_base(thread),
            scratch_bytes: 24 * 1024,
            scratch_frac: 0.34,
            warm_base: layout::stack_base(thread) + (1 << 20),
            warm_bytes: 160 * 1024,
            warm_frac: 0.12,
        }
    }

    /// Overrides the per-thread scratch region size and access fraction.
    pub fn with_scratch(mut self, bytes: u64, frac: f64) -> Self {
        self.scratch_bytes = bytes.max(64);
        self.scratch_frac = frac;
        self
    }

    /// Overrides the per-thread warm region size and access fraction.
    pub fn with_warm(mut self, bytes: u64, frac: f64) -> Self {
        self.warm_bytes = bytes.max(64);
        self.warm_frac = frac;
        self
    }

    /// The context RNG, for application-level decisions (request sampling).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    fn generic_deps(&mut self) -> (u64, u64) {
        let d1 = if chance(&mut self.rng, self.ilp.dep_prob) {
            self.dep_table.sample(&mut self.rng)
        } else {
            0
        };
        let d2 = if d1 != 0 && chance(&mut self.rng, self.ilp.second_dep_prob) {
            self.dep_table.sample(&mut self.rng)
        } else {
            0
        };
        (d1, d2)
    }

    /// Steps the code walker; emits branch ops for branch slots until a
    /// plain slot is reached, whose PC is returned.
    fn next_pc(&mut self, out: &mut VecDeque<MicroOp>) -> u64 {
        loop {
            let step = self.walker.step(&mut self.rng);
            if step.is_branch {
                let (d1, _) = self.generic_deps();
                let op = MicroOp::branch(step.pc, step.mispredict).with_deps(d1, 0);
                self.seq += 1;
                out.push_back(op);
            } else {
                return step.pc;
            }
        }
    }

    /// Emits `n` compute micro-ops: an ALU/FP mix plus structural branches,
    /// with the workload's share of accesses to per-thread scratch (stack)
    /// and warm (per-request state) memory — the bulk of a server
    /// application's cache-friendly memory traffic.
    pub fn compute(&mut self, n: u32, out: &mut VecDeque<MicroOp>) {
        for _ in 0..n {
            let r = self.rng.gen_f64();
            if r < self.scratch_frac {
                let slot = self.rng.gen_range(0..self.scratch_bytes / 8) * 8;
                let addr = self.scratch_base + slot;
                if chance(&mut self.rng, 0.28) {
                    self.store(addr, 8, out);
                } else {
                    self.load_inner(addr, 8, Dep::Free, false, out);
                }
            } else if r < self.scratch_frac + self.warm_frac {
                let slot = self.rng.gen_range(0..self.warm_bytes / 8) * 8;
                let addr = self.warm_base + slot;
                if chance(&mut self.rng, 0.22) {
                    self.store(addr, 8, out);
                } else {
                    self.load_inner(addr, 8, Dep::Free, false, out);
                }
            } else {
                let pc = self.next_pc(out);
                let kind =
                    if chance(&mut self.rng, self.fp_frac) { OpKind::Fp } else { OpKind::IntAlu };
                let (d1, d2) = self.generic_deps();
                let op = MicroOp::of_kind(pc, kind).with_deps(d1, d2);
                self.seq += 1;
                out.push_back(op);
            }
        }
    }

    /// Emits a load of `size` bytes at `addr`.
    ///
    /// `Dep::OnPrevLoad` chains to the most recent *application* load (the
    /// scratch/warm accesses inside [`EmitCtx::compute`] do not count —
    /// pointer chains go through the data structure, not the stack).
    pub fn load(&mut self, addr: u64, size: u8, dep: Dep, out: &mut VecDeque<MicroOp>) {
        self.load_inner(addr, size, dep, true, out);
    }

    fn load_inner(
        &mut self,
        addr: u64,
        size: u8,
        dep: Dep,
        app_level: bool,
        out: &mut VecDeque<MicroOp>,
    ) {
        let pc = self.next_pc(out);
        let mut op = MicroOp::load(pc, addr, size);
        match (dep, self.last_load_seq) {
            (Dep::OnPrevLoad, Some(last)) => {
                op = op.with_deps(self.seq - last, 0);
            }
            _ => {
                let (d1, d2) = self.generic_deps();
                op = op.with_deps(d1, d2);
            }
        }
        if app_level {
            self.last_load_seq = Some(self.seq);
        }
        self.seq += 1;
        out.push_back(op);
    }

    /// Emits sequential loads covering `bytes` starting at `addr` (one per
    /// cache line), the first one optionally dependent on the previous
    /// load; interleaves `pad` compute ops per line.
    pub fn load_span(&mut self, addr: u64, bytes: u64, dep: Dep, pad: u32, out: &mut VecDeque<MicroOp>) {
        let first_line = addr >> 6;
        let last_line = (addr + bytes.max(1) - 1) >> 6;
        for (i, line) in (first_line..=last_line).enumerate() {
            let d = if i == 0 { dep } else { Dep::Free };
            self.load(line << 6, 8, d, out);
            if pad > 0 {
                self.compute(pad, out);
            }
        }
    }

    /// Emits a store of `size` bytes at `addr`.
    pub fn store(&mut self, addr: u64, size: u8, out: &mut VecDeque<MicroOp>) {
        let pc = self.next_pc(out);
        let (d1, d2) = self.generic_deps();
        let op = MicroOp::store(pc, addr, size).with_deps(d1, d2);
        self.seq += 1;
        out.push_back(op);
    }

    /// Emits sequential stores covering `bytes` starting at `addr`,
    /// interleaving `pad` compute ops per line.
    pub fn store_span(&mut self, addr: u64, bytes: u64, pad: u32, out: &mut VecDeque<MicroOp>) {
        let first_line = addr >> 6;
        let last_line = (addr + bytes.max(1) - 1) >> 6;
        for line in first_line..=last_line {
            self.store(line << 6, 8, out);
            if pad > 0 {
                self.compute(pad, out);
            }
        }
    }

    /// Ops emitted so far.
    pub fn emitted(&self) -> u64 {
        self.seq
    }
}

/// A request-generating application.
pub trait RequestApp {
    /// Generates one request (or one algorithmic episode) worth of
    /// micro-ops into `out`. Must emit at least one op.
    fn generate(&mut self, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>);

    /// Workload name.
    fn label(&self) -> &str;
}

/// A shared request counter, bumped once per generated request. The
/// harness snapshots it around the measurement window to compute service
/// throughput (requests per cycle) — the metric the paper's footnote 3
/// relates to user-IPC.
pub type RequestMeter = Arc<AtomicU64>;

/// Adapts a [`RequestApp`] to the [`TraceSource`] interface.
#[derive(Debug)]
pub struct AppSource<A> {
    app: A,
    ctx: EmitCtx,
    buf: VecDeque<MicroOp>,
    meter: Option<RequestMeter>,
}

impl<A: RequestApp> AppSource<A> {
    /// Creates a source for `app` with the given emission context.
    pub fn new(app: A, ctx: EmitCtx) -> Self {
        Self { app, ctx, buf: VecDeque::with_capacity(512), meter: None }
    }

    /// Attaches a request meter (if any), bumped once per generated
    /// request.
    pub fn with_meter(mut self, meter: Option<RequestMeter>) -> Self {
        self.meter = meter;
        self
    }

    /// The wrapped application.
    pub fn app(&self) -> &A {
        &self.app
    }
}

impl<A: RequestApp> TraceSource for AppSource<A> {
    fn next_op(&mut self) -> Option<MicroOp> {
        while self.buf.is_empty() {
            self.app.generate(&mut self.ctx, &mut self.buf);
            if let Some(m) = &self.meter {
                m.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.buf.pop_front()
    }

    fn label(&self) -> &str {
        self.app.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> EmitCtx {
        EmitCtx::new(CodeProfile::new(64 * 1024, 0.8, 0.01), IlpModel::new(3.0, 0.3), 0.0, 0, 7)
    }

    #[test]
    fn compute_emits_requested_plus_branches() {
        let mut c = ctx();
        let mut out = VecDeque::new();
        c.compute(200, &mut out);
        let branches = out.iter().filter(|o| o.kind.is_branch()).count();
        let mem = out.iter().filter(|o| o.is_mem()).count();
        let plain = out.len() - branches;
        assert_eq!(plain, 200);
        assert!(branches > 10, "structural branches expected, got {branches}");
        // Scratch + warm accesses make up roughly 46% of compute slots.
        assert!(mem > 60 && mem < 130, "scratch/warm accesses expected, got {mem}");
    }

    #[test]
    fn dependent_load_is_wired_to_previous_load() {
        let mut c = ctx();
        let mut out = VecDeque::new();
        c.load(0x1000, 8, Dep::Free, &mut out);
        c.compute(5, &mut out);
        c.load(0x2000, 8, Dep::OnPrevLoad, &mut out);
        // Application loads only (compute may emit scratch loads, which a
        // pointer chain must skip over).
        let app_loads: Vec<&MicroOp> = out
            .iter()
            .filter(|o| o.is_load() && o.mem.is_some_and(|m| m.addr < 0x10_0000))
            .collect();
        assert_eq!(app_loads.len(), 2);
        let dist_ops_between =
            out.iter().position(|o| o.mem.map(|m| m.addr) == Some(0x2000)).unwrap()
                - out.iter().position(|o| o.mem.map(|m| m.addr) == Some(0x1000)).unwrap();
        assert_eq!(app_loads[1].dep1 as usize, dist_ops_between);
    }

    #[test]
    fn load_span_touches_every_line() {
        let mut c = ctx();
        let mut out = VecDeque::new();
        c.load_span(0x10_0020, 200, Dep::Free, 0, &mut out);
        let lines: Vec<u64> =
            out.iter().filter_map(|o| o.mem.map(|m| m.addr >> 6)).collect();
        // 200 bytes starting at offset 0x20 cross 4 lines.
        assert_eq!(lines.len(), 4);
        assert!(lines.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn store_span_emits_stores() {
        let mut c = ctx();
        let mut out = VecDeque::new();
        c.store_span(0x20_0000, 128, 2, &mut out);
        assert!(out.iter().filter(|o| o.is_store()).count() >= 2);
        assert!(out.len() >= 6, "padding compute ops expected");
    }

    #[test]
    fn pcs_stay_in_app_code_region() {
        let mut c = ctx();
        let mut out = VecDeque::new();
        c.compute(50, &mut out);
        c.load(0x1234, 8, Dep::Free, &mut out);
        for op in &out {
            assert!(op.pc >= cs_trace::layout::APP_CODE_BASE);
            assert!(!cs_trace::layout::is_kernel_addr(op.pc));
        }
        // Scratch/warm accesses land in the thread's stack slot.
        for op in out.iter().filter(|o| o.is_mem()) {
            let a = op.mem.expect("mem op").addr;
            assert!(
                a == 0x1234 || a >= cs_trace::layout::stack_base(0),
                "unexpected address {a:#x}"
            );
        }
    }

    struct CountApp(u32);
    impl RequestApp for CountApp {
        fn generate(&mut self, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>) {
            self.0 += 1;
            ctx.compute(3, out);
        }
        fn label(&self) -> &str {
            "count"
        }
    }

    #[test]
    fn app_source_refills_on_demand() {
        let mut src = AppSource::new(CountApp(0), ctx());
        for _ in 0..100 {
            assert!(src.next_op().is_some());
        }
        assert!(src.app().0 >= 20, "app generated {} batches", src.app().0);
        assert_eq!(src.label(), "count");
    }

    #[test]
    fn meter_counts_requests() {
        let meter: RequestMeter = Default::default();
        let mut src = AppSource::new(CountApp(0), ctx()).with_meter(Some(meter.clone()));
        for _ in 0..100 {
            src.next_op();
        }
        let n = meter.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(n, src.app().0 as u64, "meter must track generate() calls");
        assert!(n > 0);
    }
}
