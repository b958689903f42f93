//! Property tests of the trace substrate invariants.
//!
//! Each property runs over `CASES` seeded cases: case `c` draws its inputs
//! from `stream_rng(SEED, c)`, so a failure names the case that rebuilds
//! it.

use cs_trace::profile::WorkloadProfile;
use cs_trace::rng::{geometric, stream_rng, GeometricTable};
use cs_trace::source::TraceSource;
use cs_trace::zipf::Zipf;
use cs_trace::{layout, MicroOp};

const CASES: u64 = 64;
const SEED: u64 = 0x7ACE_0001;

/// Zipf samples always land in `1..=n`, for any domain and exponent.
#[test]
fn zipf_stays_in_domain() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let n = g.gen_range(1..1_000_000u64);
        let s = 0.05 + g.gen_f64() * (3.0 - 0.05);
        let zipf = Zipf::new(n, s);
        let mut rng = stream_rng(g.next_u64(), 0);
        for _ in 0..200 {
            let k = zipf.sample(&mut rng);
            assert!((1..=n).contains(&k), "case {case}: {k} outside 1..={n} (s = {s})");
        }
    }
}

/// Geometric samples are always at least 1.
#[test]
fn geometric_is_positive() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let mean = 1.0 + g.gen_f64() * 499.0;
        let mut rng = stream_rng(g.next_u64(), 0);
        for _ in 0..100 {
            assert!(geometric(&mut rng, mean) >= 1, "case {case}: mean {mean}");
        }
    }
}

/// The presampled table draws from the same support.
#[test]
fn geometric_table_is_positive() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let mean = 1.0 + g.gen_f64() * 499.0;
        let mut rng = stream_rng(g.next_u64(), 0);
        let table = GeometricTable::new(&mut rng, mean);
        for _ in 0..100 {
            assert!(table.sample(&mut rng) >= 1, "case {case}: mean {mean}");
        }
    }
}

/// Every synthetic stream, for any seed and thread, satisfies the
/// structural invariants the core model relies on: memory ops carry
/// references, privilege and address spaces agree, and dependencies
/// never reference the future.
#[test]
fn synthetic_streams_are_well_formed() {
    let profile = WorkloadProfile::tpcc();
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let seed = g.next_u64();
        let thread = g.gen_range(0..8usize);
        let mut src = profile.build_source(thread, seed);
        for i in 0..2_000u64 {
            let op: MicroOp = src.next_op().expect("endless");
            assert_eq!(op.is_mem(), op.mem.is_some(), "case {case}, op {i}");
            assert_eq!(layout::is_kernel_addr(op.pc), op.is_kernel(), "case {case}, op {i}");
            if let Some(m) = op.mem {
                assert_eq!(layout::is_kernel_addr(m.addr), op.is_kernel(), "case {case}, op {i}");
            }
            // Dependencies point backwards at most `i` ops.
            assert!(op.dep1 as u64 <= i.max(255), "case {case}, op {i}");
        }
    }
}

/// Identical (seed, thread) pairs give identical streams for every
/// stock profile.
#[test]
fn streams_are_reproducible() {
    for case in 0..CASES {
        let seed = stream_rng(SEED, case).next_u64();
        for profile in [WorkloadProfile::web_backend(), WorkloadProfile::tpcc()] {
            let mut a = profile.build_source(0, seed);
            let mut b = profile.build_source(0, seed);
            for _ in 0..500 {
                assert_eq!(a.next_op(), b.next_op(), "case {case}");
            }
        }
    }
}
