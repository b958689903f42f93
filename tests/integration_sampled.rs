//! SMARTS-style sampled simulation, end to end: sampled results must be
//! byte-identical at any `jobs` value, with cycle-skipping on or off, and
//! across a mid-window kill + resume — the fast functional path and the
//! sampling schedule may change wall-clock only, never a counter.

use cloudsuite::checkpoint::{unit_file, unit_key, with_checkpointing, CheckpointCtl};
use cloudsuite::experiments::sampled;
use cloudsuite::harness::{run, RunConfig, RunResult};
use cloudsuite::{Benchmark, HarnessError};
use std::path::{Path, PathBuf};

/// Small sampled schedule: four 30k-instruction windows separated by
/// 120k-instruction functional fast-forwards, 20k detailed re-warm each.
fn sampled_cfg() -> RunConfig {
    RunConfig {
        warmup_instr: 60_000,
        measure_instr: 120_000,
        sample_windows: 4,
        sample_period: 120_000,
        sample_warmup_instr: 20_000,
        max_cycles: 8_000_000,
        ..RunConfig::default()
    }
}

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cs-itest-sampled-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The phase discriminant of the on-disk snapshot (3 = the sampling
/// phase; the envelope header is 36 bytes).
fn snapshot_phase(dir: &Path, scope: &str, bench: &Benchmark, cfg: &RunConfig) -> Option<u8> {
    let key = unit_key(scope, bench.name(), cfg);
    let bytes = std::fs::read(dir.join(unit_file(key))).ok()?;
    bytes.get(36).copied()
}

/// Kills the run each time its chip reaches the next interrupt cycle,
/// resumes from the snapshot, and keeps going until it completes.
fn run_resumable(
    bench: &Benchmark,
    cfg: &RunConfig,
    dir: &Path,
    first_k: u64,
    step: u64,
) -> (RunResult, u32, Vec<u8>) {
    let mut interrupts = 0u32;
    let mut phases = Vec::new();
    let mut k = first_k;
    let result = loop {
        let mut ctl = CheckpointCtl::new(dir.to_path_buf(), "itest");
        ctl.cadence_cycles = 40_000;
        ctl.interrupt_after = Some(k);
        match with_checkpointing(ctl, || run(bench, cfg)) {
            Err(HarnessError::Interrupted) => {
                interrupts += 1;
                if let Some(tag) = snapshot_phase(dir, "itest", bench, cfg) {
                    phases.push(tag);
                }
                k += step;
            }
            Ok(r) => break r,
            Err(other) => panic!("{}: unexpected error: {other:?}", bench.name()),
        }
        assert!(interrupts < 256, "{}: run never completed", bench.name());
    };
    (result, interrupts, phases)
}

fn rows_as_json(rows: &[sampled::SampledRow]) -> String {
    serde_json::to_string(rows).expect("rows serialize")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn sampled_rows_are_byte_identical_across_jobs_and_skip() {
    let base = sampled_cfg();
    let reference = sampled::collect(&base).expect("jobs=1 collect");
    assert_eq!(reference.len(), Benchmark::all().len());
    for r in &reference {
        assert_eq!(r.windows, 4, "{}: all four windows must be measured", r.workload);
    }

    let jobs2 = sampled::collect(&RunConfig { jobs: 2, ..base.clone() }).expect("jobs=2 collect");
    assert_eq!(
        rows_as_json(&reference),
        rows_as_json(&jobs2),
        "sampled rows must not depend on the jobs value"
    );

    let noskip =
        sampled::collect(&RunConfig { cycle_skip: false, ..base }).expect("no-skip collect");
    assert_eq!(
        rows_as_json(&reference),
        rows_as_json(&noskip),
        "sampled rows must not depend on the cycle-skipping fast path"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn sampled_kill_and_resume_matches_uninterrupted() {
    let cfg = sampled_cfg();
    for bench in [Benchmark::data_serving(), Benchmark::web_search()] {
        let baseline = run(&bench, &cfg).expect("uninterrupted sampled run");
        assert_eq!(baseline.samples.len(), 4, "{}: sampling must engage", bench.name());

        // A tight ladder: the functional fast-forwards shrink the run's
        // cycle count, so interrupts must land early and often to hit the
        // sampling phase more than once.
        let dir = ckpt_dir(bench.name());
        let (resumed, interrupts, phases) = run_resumable(&bench, &cfg, &dir, 6_000, 5_000);
        assert!(interrupts >= 2, "{}: want >=2 interrupts, got {interrupts}", bench.name());
        assert!(
            phases.contains(&3),
            "{}: no interrupt landed inside the sampling phase (phases: {phases:?})",
            bench.name()
        );
        assert_eq!(
            format!("{baseline:?}"),
            format!("{resumed:?}"),
            "{}: a mid-window kill + resume must reproduce the uninterrupted sampled run",
            bench.name()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Sampling stays honest at length: a 50M-instruction full-detail Data
/// Serving measurement must fall inside the 95% interval of a SMARTS
/// schedule spanning the same execution region — ten 20k-instruction
/// windows, each after a 4.95M-instruction functional fast-forward and a
/// 30k-instruction detailed re-warm (10 x (4.95M + 30k + 20k) = 50M).
/// Recorded at 0.6329 inside [0.6124, 0.6737].
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn full_detail_ipc_falls_inside_the_sampled_interval_at_50m() {
    let full_cfg = RunConfig {
        warmup_instr: 500_000,
        measure_instr: 50_000_000,
        ..RunConfig::default()
    };
    let sampled_cfg = RunConfig {
        measure_instr: 200_000,
        sample_windows: 10,
        sample_period: 4_950_000,
        sample_warmup_instr: 30_000,
        ..full_cfg.clone()
    };
    let bench = Benchmark::data_serving();
    let full = cloudsuite::harness::run_strict(&bench, &full_cfg).expect("full-detail run");
    let sampled = cloudsuite::harness::run_strict(&bench, &sampled_cfg).expect("sampled run");
    assert_eq!(sampled.samples.len(), 10, "every window must be measured");
    let n = sampled.cores.len();
    let stat: cs_perf::RunningStat = sampled.samples.iter().map(|s| s.ipc(n)).collect();
    let (lo, hi) = stat.ci95();
    let ipc = full.ipc();
    assert!(
        lo <= ipc && ipc <= hi,
        "full-detail IPC {ipc:.4} outside the sampled 95% interval [{lo:.4}, {hi:.4}]"
    );
}
