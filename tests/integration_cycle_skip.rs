//! Event-driven cycle skipping must be invisible in every figure input:
//! a run with `cycle_skip` on must produce bit-identical counters to the
//! naive cycle-by-cycle loop, across all six CloudSuite workloads and the
//! stall-heaviest configurations the paper's methodology uses (the
//! Figure 4 cache polluters and the Figure 5 no-prefetch leg), with and
//! without deterministic fault injection.

use cloudsuite::harness::{RunConfig, RunResult};
use cloudsuite::{Benchmark, FaultPlan};
use cs_memsys::dram::DramStats;
use cs_memsys::stats::CoreMemStats;
use cs_memsys::PrefetchConfig;
use cs_uarch::CoreStats;

fn run(bench: &Benchmark, cfg: &RunConfig) -> RunResult {
    cloudsuite::harness::run(bench, cfg).expect("test config is valid")
}

fn cfg() -> RunConfig {
    RunConfig {
        warmup_instr: 60_000,
        measure_instr: 120_000,
        seed: 42,
        ..RunConfig::default()
    }
}

/// Every counter a figure can read from a run.
type Fingerprint<'a> =
    (u64, Option<u64>, &'a [CoreStats], &'a [CoreMemStats], &'a [CoreMemStats], DramStats);

fn fingerprint(r: &RunResult) -> Fingerprint<'_> {
    (r.cycles, r.requests, &r.cores, &r.mem, &r.polluter_mem, r.dram)
}

/// Runs `cfg` with skipping on and off and asserts bit-identical
/// counters; returns the skipped fraction of the fast run.
fn assert_equivalent(bench: &Benchmark, cfg: &RunConfig) -> f64 {
    let fast = run(bench, &RunConfig { cycle_skip: true, ..cfg.clone() });
    let slow = run(bench, &RunConfig { cycle_skip: false, ..cfg.clone() });
    assert_eq!(
        fingerprint(&fast),
        fingerprint(&slow),
        "{}: skip-on and skip-off counters diverged",
        bench.name()
    );
    assert_eq!(fast.cycles_total, slow.cycles_total, "{}", bench.name());
    assert_eq!(slow.cycles_skipped, 0, "skip-off must never jump");
    fast.skipped_fraction()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn cycle_skip_is_identical_on_all_scale_out_workloads() {
    for bench in Benchmark::scale_out_suite() {
        let skipped = assert_equivalent(&bench, &cfg());
        assert!(
            (0.0..1.0).contains(&skipped),
            "{}: skipped fraction {skipped} out of range",
            bench.name()
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn cycle_skip_is_identical_with_fig4_polluters() {
    // The Figure 4 methodology: dedicated cache-polluter cores plus a
    // shrunken effective LLC — the stall-dominated, skip-friendliest case.
    let cfg = RunConfig { polluter_bytes: Some(8 << 20), ..cfg() };
    let skipped = assert_equivalent(&Benchmark::web_search(), &cfg);
    assert!(skipped > 0.0, "a polluted run must have skippable stalls");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn cycle_skip_is_identical_with_fig5_no_prefetch() {
    // The Figure 5 all-prefetchers-off leg: every demand miss pays full
    // latency, maximizing dead stall spans.
    let cfg = RunConfig { prefetch: Some(PrefetchConfig::none()), ..cfg() };
    let skipped = assert_equivalent(&Benchmark::data_serving(), &cfg);
    assert!(skipped > 0.0, "a no-prefetch run must have skippable stalls");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn cycle_skip_is_identical_under_fault_injection() {
    // DRAM latency jitter plus prefetch drops, seeded: the perturbation
    // stream is event-indexed, so the same accesses must draw the same
    // rolls whether dead cycles are stepped or jumped.
    let cfg = RunConfig {
        fault: Some(FaultPlan {
            dram_extra_latency: 120,
            dram_perturb_rate: 0.25,
            prefetch_drop_rate: 0.1,
            seed: 0xC10D,
        }),
        ..cfg()
    };
    assert_equivalent(&Benchmark::media_streaming(), &cfg);
}

#[test]
fn skip_telemetry_is_recorded() {
    // Even a quick run must report an inspectable skipped fraction.
    let r = run(&Benchmark::mcf(), &cfg());
    assert!(r.cycles_total >= r.cycles);
    assert!(r.cycles_skipped <= r.cycles_total);
    assert_eq!(
        r.skipped_fraction(),
        r.cycles_skipped as f64 / r.cycles_total as f64
    );
    let off = run(&Benchmark::mcf(), &RunConfig { cycle_skip: false, ..cfg() });
    assert_eq!(off.cycles_skipped, 0);
    assert_eq!(off.skipped_fraction(), 0.0);
}
