//! SAT Solver: a real DPLL solver with unit propagation.
//!
//! Models the paper's Klee/Cloud9 setup (§3.2): one solver instance per
//! core, CPU-bound, with pointer-heavy traversal of a clause database. The
//! solver is a genuine DPLL implementation over random 3-SAT instances —
//! decisions, unit propagation through occurrence lists, conflict
//! backtracking — with the clause database and occurrence nodes laid out
//! in the simulated address space. Each finished instance is replaced by a
//! fresh one (the paper reuses input traces for run-to-run comparability;
//! we reuse the generator seed).

use crate::emit::{build_source, AppModel, DataRegion, Dep, EmitCtx, RequestApp, RequestMeter};
use crate::heap::SimHeap;
use cs_trace::ifoot::CodeProfile;
use cs_trace::profile::{IlpModel, OsProfile};
use cs_trace::rng::{splitmix64, SmallRng};
use cs_trace::{MicroOp, TraceSource};
use std::collections::VecDeque;

/// Configuration of the solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatSolver {
    /// Variables per instance.
    pub n_vars: usize,
    /// Clause-to-variable ratio (4.26 is the hard region for 3-SAT).
    pub clause_ratio: f64,
    /// Simulated bytes the active clause shard spans.
    pub shard_bytes: u64,
    /// Simulated bytes of the learned-clause / trace database.
    pub learned_bytes: u64,
}

impl SatSolver {
    /// The paper's setup, scaled: Klee-style symbolic-execution queries as
    /// a stream of hard random 3-SAT instances.
    pub fn paper_setup() -> Self {
        Self { n_vars: 320, clause_ratio: 3.9, shard_bytes: 1 << 20, learned_bytes: 512 << 20 }
    }

    /// Everything this workload's sources are built from besides the
    /// application itself (see [`AppModel`]).
    pub fn model() -> AppModel {
        AppModel {
            code: CodeProfile::new(1024 * 1024, 0.88, 0.02),
            ilp: IlpModel::new(3.5, 0.14),
            os: OsProfile::network(0.04, 512, 0.010),
            fp_frac: 0.0,
            scratch: DataRegion { bytes: 32 * 1024, frac: 0.36 },
            warm: DataRegion { bytes: 160 * 1024, frac: 0.12 },
        }
    }

    /// Builds the trace source for one hardware thread (one solver
    /// process; SAT Solver runs one independent instance per core),
    /// bumping `meter` (if any) once per request.
    pub fn into_source(self, thread: usize, seed: u64, meter: Option<RequestMeter>) -> impl TraceSource {
        build_source(Dpll::new(self, thread, seed), Self::model(), thread, seed, meter)
    }
}

type Lit = i32; // +v / -v, 1-based

/// A running DPLL solver.
#[derive(Debug)]
pub struct Dpll {
    cfg: SatSolver,
    rng: SmallRng,
    clauses: Vec<[Lit; 3]>,
    /// Occurrence lists indexed by literal code (2v / 2v+1).
    occurs: Vec<Vec<u32>>,
    /// 0 unassigned, +1 true, -1 false.
    assignment: Vec<i8>,
    trail: Vec<Lit>,
    /// Trail length at each decision level.
    levels: Vec<usize>,
    instance_salt: u64,
    clause_region: u64,
    occur_region: u64,
    assign_addr: u64,
    learned_addr: u64,
    learned_pos: u64,
    /// Conflicts encountered (exposed for tests/examples).
    pub conflicts: u64,
    /// Instances completed (SAT or UNSAT).
    pub instances: u64,
}

impl Dpll {
    /// Creates the solver and its first instance.
    pub fn new(cfg: SatSolver, thread: usize, seed: u64) -> Self {
        let mut heap = SimHeap::new();
        let clause_region = heap.alloc_lines(cfg.shard_bytes * 16);
        let occur_region = heap.alloc_lines(cfg.shard_bytes * 16);
        let assign_addr = heap.alloc_lines(4096 * 16) + (thread as u64 % 16) * 4096;
        // Independent solver processes: every region is per-thread.
        let learned_addr =
            heap.alloc_lines(cfg.learned_bytes * 16) + (thread as u64 % 16) * cfg.learned_bytes;
        let mut solver = Self {
            cfg,
            rng: cs_trace::rng::stream_rng(seed ^ 0x5A7, thread as u64),
            clauses: Vec::new(),
            occurs: Vec::new(),
            assignment: Vec::new(),
            trail: Vec::new(),
            levels: Vec::new(),
            instance_salt: 0,
            clause_region: clause_region + thread as u64 % 16 * cfg.shard_bytes,
            occur_region: occur_region + thread as u64 % 16 * cfg.shard_bytes,
            assign_addr,
            learned_addr,
            learned_pos: 0,
            conflicts: 0,
            instances: 0,
        };
        solver.new_instance();
        solver
    }

    fn new_instance(&mut self) {
        let n = self.cfg.n_vars;
        let m = (n as f64 * self.cfg.clause_ratio) as usize;
        self.instance_salt = self.rng.next_u64();
        self.clauses.clear();
        self.occurs = vec![Vec::new(); 2 * (n + 1)];
        for c in 0..m {
            let mut lits = [0i32; 3];
            for slot in &mut lits {
                let v = self.rng.gen_range(1..=n as i32);
                *slot = if self.rng.gen_bool() { v } else { -v };
            }
            self.clauses.push(lits);
            for &l in &lits {
                self.occurs[lit_code(l)].push(c as u32);
            }
        }
        self.assignment = vec![0; n + 1];
        self.trail.clear();
        self.levels.clear();
    }

    fn clause_addr(&self, c: u32) -> u64 {
        let slots = self.cfg.shard_bytes / 16;
        self.clause_region + (splitmix64(c as u64 ^ self.instance_salt) % slots) * 16
    }

    /// Occurrence lists are contiguous vectors (as in real solvers): each
    /// literal's list starts at a scattered base, and its entries are
    /// sequential 8-byte words.
    fn occur_node_addr(&self, lit: usize, i: usize) -> u64 {
        let slots = self.cfg.shard_bytes / 8;
        let base = splitmix64(lit as u64 ^ self.instance_salt) % slots;
        self.occur_region + ((base + i as u64) % slots) * 8
    }

    fn value(&self, l: Lit) -> i8 {
        let v = self.assignment[l.unsigned_abs() as usize];
        if l > 0 {
            v
        } else {
            -v
        }
    }

    fn assign(&mut self, l: Lit, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>) {
        self.assignment[l.unsigned_abs() as usize] = if l > 0 { 1 } else { -1 };
        self.trail.push(l);
        ctx.store(self.assign_addr + l.unsigned_abs() as u64, 1, out);
    }

    /// Propagates to fixpoint from `start` on the trail; returns `false`
    /// on conflict. Emits the traversal's memory behaviour.
    fn propagate(&mut self, mut start: usize, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>) -> bool {
        while start < self.trail.len() {
            let l = self.trail[start];
            start += 1;
            // Clauses watching the falsified literal ¬l.
            let falsified = lit_code(-l);
            let list: Vec<u32> = self.occurs[falsified].clone();
            for (i, &c) in list.iter().enumerate() {
                // Read the next occurrence-vector entry (sequential after
                // the first), then the clause it points at (dependent).
                let dep = if i == 0 { Dep::OnPrevLoad } else { Dep::Free };
                ctx.load(self.occur_node_addr(falsified, i), 8, dep, out);
                ctx.load(self.clause_addr(c), 16, Dep::OnPrevLoad, out);
                // Check the other literals against the assignment array.
                let lits = self.clauses[c as usize];
                let mut unassigned = None;
                let mut satisfied = false;
                for &other in &lits {
                    ctx.load(self.assign_addr + other.unsigned_abs() as u64, 1, Dep::Free, out);
                    match self.value(other) {
                        1 => satisfied = true,
                        0 => unassigned = Some(other),
                        _ => {}
                    }
                }
                // Literal decoding, clause inspection, activity bumping:
                // solvers spend tens of instructions per visited clause.
                ctx.compute(26, out);
                if satisfied {
                    continue;
                }
                match unassigned {
                    None => {
                        // Conflict: record a learned clause and fail.
                        self.conflicts += 1;
                        ctx.compute(120, out);
                        if self.learned_pos + 64 >= self.cfg.learned_bytes {
                            self.learned_pos = 0;
                        }
                        ctx.store_span(self.learned_addr + self.learned_pos, 48, 2, out);
                        self.learned_pos += 64;
                        return false;
                    }
                    Some(u) if self.value(u) == 0 => {
                        // Unit clause: imply.
                        self.assign(u, ctx, out);
                        ctx.compute(12, out);
                    }
                    _ => {}
                }
            }
        }
        true
    }

    fn backtrack(&mut self, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>) -> Option<Lit> {
        // Undo to the last decision and flip it.
        let mark = self.levels.pop()?;
        let mut flipped = None;
        while self.trail.len() > mark {
            let l = self.trail.pop().expect("trail long enough");
            self.assignment[l.unsigned_abs() as usize] = 0;
            ctx.store(self.assign_addr + l.unsigned_abs() as u64, 1, out);
            flipped = Some(l);
        }
        ctx.compute(60, out);
        flipped.map(|l| -l)
    }
}

fn lit_code(l: Lit) -> usize {
    let v = l.unsigned_abs() as usize;
    2 * v + usize::from(l < 0)
}

impl RequestApp for Dpll {
    fn generate(&mut self, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>) {
        // One decision episode: decide, propagate, resolve conflicts.
        let undecided = (1..=self.cfg.n_vars as i32).find(|v| self.assignment[*v as usize] == 0);
        let Some(var) = undecided else {
            // Satisfying assignment found: next instance.
            self.instances += 1;
            ctx.compute(500, out);
            self.new_instance();
            return;
        };

        // Decision heuristic (activity scan over the hot assignment array).
        ctx.compute(70, out);
        let decision = if ctx.rng().gen_bool() { var } else { -var };
        self.levels.push(self.trail.len());
        let start = self.trail.len();
        self.assign(decision, ctx, out);

        if !self.propagate(start, ctx, out) {
            // Conflict: backtrack until a flip propagates or the instance
            // is exhausted.
            loop {
                match self.backtrack(ctx, out) {
                    None => {
                        // UNSAT at root: next instance.
                        self.instances += 1;
                        ctx.compute(500, out);
                        self.new_instance();
                        return;
                    }
                    Some(flip) => {
                        if self.value(flip) != 0 {
                            continue;
                        }
                        let start = self.trail.len();
                        self.assign(flip, ctx, out);
                        if self.propagate(start, ctx, out) {
                            break;
                        }
                    }
                }
            }
        }
    }

    fn label(&self) -> &str {
        "SAT Solver"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::AppSource;
    use cs_trace::profile::IlpModel;

    fn source() -> AppSource<Dpll> {
        let app = Dpll::new(SatSolver::paper_setup(), 0, 17);
        let ctx = EmitCtx::new(
            cs_trace::ifoot::CodeProfile::new(128 * 1024, 0.85, 0.01),
            IlpModel::new(3.2, 0.2),
            0.0,
            0,
            17,
        );
        AppSource::new(app, ctx)
    }

    #[test]
    fn solver_makes_progress_and_finds_conflicts() {
        let mut src = source();
        for _ in 0..400_000 {
            src.next_op();
        }
        assert!(src.app().conflicts > 0, "hard 3-SAT must conflict");
    }

    #[test]
    fn assignment_is_consistent_after_propagation() {
        let mut app = Dpll::new(SatSolver::paper_setup(), 0, 3);
        let mut ctx = EmitCtx::new(
            cs_trace::ifoot::CodeProfile::new(64 * 1024, 0.85, 0.01),
            IlpModel::new(3.0, 0.2),
            0.0,
            0,
            3,
        );
        let mut out = VecDeque::new();
        for _ in 0..200 {
            app.generate(&mut ctx, &mut out);
            out.clear();
            // Invariant: no clause is fully falsified while the solver is
            // in a consistent state (conflicts are repaired in-episode).
            for (c, lits) in app.clauses.iter().enumerate() {
                let all_false = lits.iter().all(|&l| app.value(l) == -1);
                assert!(!all_false, "clause {c} fully falsified between episodes");
            }
        }
    }

    #[test]
    fn traversal_is_pointer_dependent() {
        let mut src = source();
        let mut dependent_loads = 0;
        let mut loads = 0;
        for _ in 0..50_000 {
            let op = src.next_op().expect("endless");
            if op.is_load() {
                loads += 1;
                if op.dep1 > 0 && op.dep1 < 16 {
                    dependent_loads += 1;
                }
            }
        }
        assert!(
            dependent_loads as f64 / loads as f64 > 0.2,
            "watch-list walks must chain loads: {dependent_loads}/{loads}"
        );
    }

    #[test]
    fn instances_eventually_complete() {
        let mut src = source();
        for _ in 0..3_000_000 {
            src.next_op();
            if src.app().instances > 0 {
                return;
            }
        }
        // Hard instances may legitimately take longer; progress suffices.
        assert!(src.app().conflicts > 100, "no instance finished and few conflicts");
    }
}
