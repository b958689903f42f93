//! Property tests of the metric types.
//!
//! Each property runs over `CASES` seeded cases: case `c` draws its inputs
//! from `stream_rng(SEED, c)`, so a failure names the case that rebuilds
//! it.

use cs_perf::Histogram;
use cs_trace::rng::stream_rng;

const CASES: u64 = 256;
const SEED: u64 = 0x9E7F_0001;

/// Histogram totals equal the number of recorded observations, and the
/// nonzero mean is at least 1 when any nonzero value was recorded.
#[test]
fn histogram_totals() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let n = g.gen_range(1..200usize);
        let values: Vec<u64> = (0..n).map(|_| g.gen_range(0..40u64)).collect();
        let mut h = Histogram::new(16);
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.total(), values.len() as u64, "case {case}");
        if values.iter().any(|&v| v > 0) {
            assert!(h.mean_nonzero() >= 1.0, "case {case}");
        }
        assert!(h.mean() <= h.mean_nonzero() + 1e-9, "case {case}");
    }
}
