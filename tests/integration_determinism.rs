//! Determinism: the simulator must be a pure function of (workload, seed,
//! configuration). Same seed ⇒ bit-identical counters; different seed ⇒
//! different execution.

use cloudsuite::harness::{RunConfig, RunResult};
use cloudsuite::Benchmark;
use cs_memsys::dram::DramStats;
use cs_memsys::stats::CoreMemStats;
use cs_uarch::CoreStats;

fn run(bench: &Benchmark, cfg: &RunConfig) -> RunResult {
    cloudsuite::harness::run(bench, cfg).expect("test config is valid")
}

fn cfg(seed: u64) -> RunConfig {
    RunConfig {
        warmup_instr: 120_000,
        measure_instr: 240_000,
        seed,
        ..RunConfig::default()
    }
}

/// Every counter a figure can read from a run.
type Fingerprint =
    (u64, Option<u64>, Vec<CoreStats>, Vec<CoreMemStats>, Vec<CoreMemStats>, DramStats);

fn fingerprint(r: RunResult) -> Fingerprint {
    (r.cycles, r.requests, r.cores, r.mem, r.polluter_mem, r.dram)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn same_seed_gives_bit_identical_counters() {
    for bench in [Benchmark::data_serving(), Benchmark::sat_solver(), Benchmark::mcf()] {
        let a = fingerprint(run(&bench, &cfg(42)));
        let b = fingerprint(run(&bench, &cfg(42)));
        assert_eq!(a, b, "{} is not deterministic", bench.name());
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn different_seeds_give_different_executions() {
    let bench = Benchmark::web_search();
    let a = fingerprint(run(&bench, &cfg(1)));
    let b = fingerprint(run(&bench, &cfg(2)));
    assert_ne!(a, b, "seed must influence the execution");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn configuration_changes_change_the_execution() {
    let bench = Benchmark::web_search();
    let base = fingerprint(run(&bench, &cfg(7)));
    let smt = fingerprint(run(&bench, &RunConfig { smt: true, ..cfg(7) }));
    assert_ne!(base, smt);
}
