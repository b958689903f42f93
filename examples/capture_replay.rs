//! Trace capture and replay: record a workload window to a binary file,
//! reload it, and verify the replay is bit-identical — the suite's
//! analogue of the paper's re-used SAT Solver input traces (§3.1).
//!
//! ```sh
//! cargo run --release --example capture_replay
//! ```

use cloudsuite::Benchmark;
use cs_trace::capture::RecordedTrace;
use cs_trace::TraceSource;

fn main() -> std::io::Result<()> {
    // Record 100k micro-ops of the Data Serving workload.
    let mut live = Benchmark::data_serving().build_source(0, 2024);
    let trace = RecordedTrace::record(&mut live, 100_000);
    println!("recorded {} ops from '{}'", trace.len(), trace.label());

    // Save and reload through a file.
    let path = std::env::temp_dir().join("cloudsuite_demo.cstrace");
    let mut f = std::fs::File::create(&path)?;
    trace.save(&mut f)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!("saved {} bytes to {} ({:.1} B/op)", bytes, path.display(), bytes as f64 / trace.len() as f64);

    let mut f = std::fs::File::open(&path)?;
    let loaded = RecordedTrace::load(&mut f)?;
    assert_eq!(loaded, trace, "roundtrip must be lossless");

    // Replay matches a fresh live source op for op (determinism).
    let mut fresh = Benchmark::data_serving().build_source(0, 2024);
    let mut replay = loaded.into_source();
    let mut n = 0u64;
    while let Some(op) = replay.next_op() {
        assert_eq!(Some(op), fresh.next_op());
        n += 1;
    }
    println!("replayed {n} ops, bit-identical to the live source");
    std::fs::remove_file(&path)?;
    Ok(())
}
