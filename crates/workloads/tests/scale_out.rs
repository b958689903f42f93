//! The six scale-out mini applications: the paper's §4 claims about their
//! instruction side, read from the models the sources are built from, and
//! pins of each application's op stream.

use cs_trace::snap::fnv1a64;
use cs_trace::TraceSource;
use cs_workloads::data_serving::DataServing;
use cs_workloads::emit::{AppModel, RequestMeter};
use cs_workloads::mapreduce::MapReduce;
use cs_workloads::media_streaming::MediaStreaming;
use cs_workloads::sat_solver::SatSolver;
use cs_workloads::web_frontend::WebFrontend;
use cs_workloads::web_search::WebSearch;
use std::sync::atomic::Ordering;

fn models() -> [(&'static str, AppModel); 6] {
    [
        ("Data Serving", DataServing::model()),
        ("MapReduce", MapReduce::model()),
        ("Media Streaming", MediaStreaming::model()),
        ("SAT Solver", SatSolver::model()),
        ("Web Frontend", WebFrontend::model()),
        ("Web Search", WebSearch::model()),
    ]
}

/// §4.1: scale-out instruction working sets exceed the 32 KB L1-I by an
/// order of magnitude.
#[test]
fn scale_out_footprints_exceed_l1i_by_an_order_of_magnitude() {
    for (name, m) in models() {
        assert!(m.code.footprint_bytes >= 10 * 32 * 1024, "{name} footprint too small");
    }
}

#[test]
fn scale_out_workloads_involve_the_os() {
    for (name, m) in models() {
        assert!(m.os.fraction > 0.0, "{name} must model OS time");
    }
}

#[test]
fn os_fraction_bands_match_the_paper() {
    // SAT Solver is compute-bound; Media Streaming is network-heavy.
    assert!(SatSolver::model().os.fraction < 0.10);
    assert!(MediaStreaming::model().os.fraction > 0.25);
}

/// FNV-1a of the `Debug` text of the first 20,000 ops.
fn digest(mut src: impl TraceSource) -> u64 {
    let text: String = (0..20_000).map(|_| format!("{:?}", src.next_op())).collect();
    fnv1a64(text.as_bytes())
}

/// Thread 1, seed 42: the stream must hash to `pin` with and without a
/// meter, and the meter must read `requests` after the window.
fn assert_pinned<S: TraceSource>(
    name: &str,
    build: impl Fn(Option<RequestMeter>) -> S,
    pin: u64,
    requests: u64,
) {
    assert_eq!(digest(build(None)), pin, "{name}: unmetered stream moved");
    let meter = RequestMeter::default();
    assert_eq!(digest(build(Some(meter.clone()))), pin, "{name}: metered stream moved");
    assert_eq!(meter.load(Ordering::Relaxed), requests, "{name}: request count moved");
}

#[test]
fn op_streams_are_pinned() {
    assert_pinned(
        "Data Serving",
        |m| DataServing::paper_setup().into_source(1, 42, m),
        0x2532_a9a3_4007_c2e6,
        7,
    );
    assert_pinned(
        "MapReduce",
        |m| MapReduce::paper_setup().into_source(1, 42, m),
        0x2ec7_d516_6023_f21c,
        1,
    );
    assert_pinned(
        "Media Streaming",
        |m| MediaStreaming::paper_setup().into_source(1, 42, m),
        0x9701_416d_e5f7_398e,
        14,
    );
    assert_pinned(
        "SAT Solver",
        |m| SatSolver::paper_setup().into_source(1, 42, m),
        0x1e76_7fa3_e9ae_ff66,
        2,
    );
    assert_pinned(
        "Web Frontend",
        |m| WebFrontend::paper_setup().into_source(1, 42, m),
        0x4c74_1f58_b597_bdb3,
        4,
    );
    assert_pinned(
        "Web Search",
        |m| WebSearch::paper_setup().into_source(1, 42, m),
        0xce1b_51ea_0ec1_2a48,
        4,
    );
}
