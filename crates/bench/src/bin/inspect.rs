//! Workload inspector: one-line micro-architectural summary per workload.
//!
//! Usage: `inspect [workload-name-substring]` — runs the matching
//! workloads (all by default) under the standard 4-core setup and prints
//! IPC, MLP, stall/memory fractions, instruction miss rates, L2 hit
//! ratio, sharing and bandwidth. The campaign's `CS_*` knobs (`CS_WARMUP`,
//! `CS_MEASURE`, `CS_SEED`, ...) configure the runs; an unknown `CS_*`
//! variable is a usage error (exit 2) before anything is simulated.

use cloudsuite::config::RunConfigBuilder;
use cloudsuite::harness::run;
use cloudsuite::Benchmark;
use std::process::ExitCode;

fn main() -> ExitCode {
    let builder = RunConfigBuilder::campaign("inspect");
    if let Err(e) = builder.check_env() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let cfg = builder.settings_from_env().run;
    let filter = std::env::args().nth(1).unwrap_or_default().to_lowercase();
    println!(
        "{:<16} {:>5} {:>5} {:>5} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7} {:>6}",
        "workload", "ipc", "app", "mlp", "stall", "mem", "l1i/k", "l2i/k", "l2hit", "share%", "bw%"
    );
    for bench in Benchmark::all() {
        if !bench.name().to_lowercase().contains(&filter) {
            continue;
        }
        let r = match run(&bench, &cfg) {
            Ok(r) => r,
            Err(e) => {
                println!("{:<16} {e}", bench.name());
                continue;
            }
        };
        let b = r.breakdown();
        let (l1a, l1o) = r.l1i_mpki();
        let (l2a, l2o) = r.l2i_mpki();
        let (sa, so) = r.rw_shared_pct();
        let (ba, bo) = r.bandwidth_pct();
        println!(
            "{:<16} {:>5.2} {:>5.2} {:>5.2} {:>6.2} {:>6.2} {:>6.1} {:>6.1} {:>6.2} {:>7.2} {:>6.2}",
            r.name,
            r.ipc(),
            r.app_ipc(),
            r.mlp(),
            b.stalled_app + b.stalled_os,
            b.memory,
            l1a + l1o,
            l2a + l2o,
            r.l2_hit_ratio(),
            sa + so,
            ba + bo
        );
    }
    ExitCode::SUCCESS
}
