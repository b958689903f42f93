//! The regeneration binaries and the campaign engine behind them.
//!
//! [`campaign::experiments`] is the one table of experiments: Table 1,
//! Figures 1–7, the ablations, the fleet studies, the sampled estimates
//! and the interference matrix, each a name plus the closure that builds
//! its report. `all_figures` runs the whole table as a resumable campaign.
//! Each single-experiment binary (`table1`, `fig1` … `fig7`, `fleet_slo`,
//! `fleet_resilience`, `interference_matrix`) is one call to
//! [`experiment_main`], which runs that table entry once, prints the rows
//! and writes a JSON copy under `results/`. The per-workload studies
//! (`density`, `trends`, `footnote3`) share [`per_workload_main`]. None of
//! these binaries takes an argument. Window sizes are tunable through
//! environment variables so CI smoke runs and full reproductions share one
//! binary:
//!
//! - `CS_WARMUP` — warmup instructions (default 1,600,000)
//! - `CS_MEASURE` — measured instructions (default 3,200,000)
//! - `CS_WARMUP_INSTR` / `CS_MEASURE_INSTR` — explicit aliases for the two
//!   window budgets; when both an alias and its short form are set, the
//!   alias wins (the `all_figures --warmup-instr`/`--measure-instr` flags
//!   outrank both)
//! - `CS_SAMPLE_WINDOWS` — SMARTS-style sampling: number of detailed
//!   measurement windows (default 0 = sampling disabled, one contiguous
//!   window). When nonzero, the run fast-forwards functionally between
//!   windows, keeping caches/TLBs/predictors warm, and the measured
//!   budget is split evenly across the windows.
//! - `CS_SAMPLE_PERIOD` — instructions fast-forwarded before each window
//!   (required nonzero when sampling is enabled)
//! - `CS_SAMPLE_WARMUP` — detailed warm-up instructions re-run before each
//!   window's measurement starts (`0` drops straight into measurement)
//! - `CS_SEED` — base random seed (default 42)
//! - `CS_MAX_CYCLES` — per-window simulated-cycle safety cap
//! - `CS_WATCHDOG` — forward-progress watchdog grace period in cycles
//!   (`0` disables the watchdog)
//! - `CS_JOBS` — worker threads for the campaign and sweep layers
//!   (default 1; the `all_figures --jobs` flag outranks it). Results are
//!   byte-identical at any value — only the wall-clock changes.
//! - `CS_NO_SKIP` — set to `1` to disable the event-driven cycle-skipping
//!   fast path (`all_figures --no-skip` does the same). Results are
//!   byte-identical with skipping on or off — the switch exists so any
//!   suspected divergence is bisectable with one flag flip.
//! - `CS_MAX_RETRIES` — transient-failure retries per experiment in the
//!   campaign (default 1; the `all_figures --max-retries` flag outranks
//!   it). Retry `i` re-runs with the original cycle budget widened by the
//!   capped exponential schedule `min(4 * 4^i, 256)`; `0` disables
//!   retries entirely.
//! - `CS_MATRIX_WORKLOADS` — comma-separated roster keys restricting the
//!   interference-matrix experiment to a sub-matrix (the `all_figures
//!   --matrix-workloads` flag outranks it); unknown keys are a loud
//!   configuration error.
//! - `CS_FLEET_SCENARIOS` — comma-separated scenario keys (`baseline`,
//!   `gray_fleet`, `rack_outage`, `metastable`) restricting the
//!   fleet-resilience experiment (the `all_figures --fleet-scenarios`
//!   flag outranks it); unknown keys are a loud configuration error.
//!   Unknown `CS_*` variables themselves are rejected (exit 2, before
//!   anything is simulated) by every binary, with a nearest-knob
//!   suggestion, so a typo like `CS_SAMPLE_WINDOW` fails loudly instead
//!   of silently doing nothing.
//! - `CS_LLC_BYTES` — override the LLC capacity in bytes. CI smoke runs
//!   shrink it so short windows still produce real cache pressure.
//!
//! Deterministic fault injection can be switched on from the environment
//! to rehearse the failure paths (watchdog, retries, the campaign
//! manifest) without touching any code:
//!
//! - `CS_FAULT_DRAM_LAT` — extra cycles added to perturbed DRAM reads
//! - `CS_FAULT_DRAM_RATE` — fraction of DRAM reads perturbed (default 1.0
//!   when `CS_FAULT_DRAM_LAT` is set)
//! - `CS_FAULT_PF_DROP` — fraction of prefetch issues dropped
//! - `CS_FAULT_SEED` — seed of the perturbation stream (default 0xC10D)
//!
//! Crash-safety and auditing knobs:
//!
//! - `CS_CKPT_CYCLES` — checkpoint cadence in simulated cycles (default
//!   2,000,000; the `all_figures --ckpt-cycles` flag outranks it; `0`
//!   disables cadence snapshots but stop-triggered snapshots still happen)
//! - `CS_INTERRUPT_AFTER` — deterministic kill switch for tests and CI:
//!   every run saves a checkpoint and stops once its chip reaches this
//!   cycle, exactly as if a signal had arrived. Unset it on the resume leg.
//! - `CS_PARANOID` — enable the end-of-run conservation auditor: a result
//!   violating a cycle-accounting or cache-accounting invariant is
//!   withheld and the run fails with a typed audit error.
//!
//! The multi-experiment campaign engine behind `all_figures` — experiment
//! isolation, transparent retries, graceful shutdown, mid-run
//! checkpointing, and the resumable `manifest.json` — lives in
//! [`campaign`]; the dependency-free SIGINT/SIGTERM trap lives in
//! [`signal`].

#![deny(unsafe_code)] // `forbid` would reject the one vetted FFI call in `signal`.
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::perf)]

use cloudsuite::checkpoint::write_atomic;
use cloudsuite::config::RunConfigBuilder;
use cloudsuite::harness::RunConfig;
use cloudsuite::{Benchmark, HarnessError};
use cs_perf::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub mod campaign;
pub mod signal;

/// A failed attempt to write a result file: the path that could not be
/// written and the underlying I/O error.
#[derive(Debug)]
pub struct EmitError {
    /// The file the write failed on.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to write {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for EmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A successfully emitted result file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Emitted {
    /// Where the file landed.
    pub path: PathBuf,
    /// FNV-1a 64 content checksum (hex), recorded in the campaign manifest
    /// so a resume pass can detect silently corrupted or hand-edited
    /// results instead of trusting file existence.
    pub checksum: String,
}

/// FNV-1a 64 checksum of `bytes`, rendered as 16 hex digits — the
/// fingerprint stored per result file in `manifest.json`.
pub fn content_checksum(bytes: &[u8]) -> String {
    format!("{:016x}", cs_trace::snap::fnv1a64(bytes))
}

/// Prints the report and writes its JSON twin under `results/<name>.json`.
pub fn emit(report: &Report, name: &str) -> Result<Emitted, EmitError> {
    emit_to(Path::new("results"), report, name)
}

/// Prints the report and writes its JSON twin under `<dir>/<name>.json`
/// ([`cloudsuite::checkpoint::write_atomic`]: a crash or a kill signal at
/// any point leaves either the complete old file or the complete new one,
/// never a torn result that a resume pass would trust), returning the
/// written path and content checksum.
pub fn emit_to(dir: &Path, report: &Report, name: &str) -> Result<Emitted, EmitError> {
    println!("{report}");
    let path = dir.join(format!("{name}.json"));
    let bytes = report.to_json().into_bytes();
    write_atomic(&path, &[&bytes]).map_err(|source| EmitError { path: path.clone(), source })?;
    eprintln!("(wrote {})", path.display());
    Ok(Emitted { path, checksum: content_checksum(&bytes) })
}

/// The configuration a single-run binary named `prog` runs under, from
/// the campaign's knob registry. A misspelled `CS_*` variable or any
/// command-line argument is a usage error: it is reported on stderr and
/// comes back as exit code 2, before anything is simulated.
fn config_or_usage(prog: &'static str) -> Result<RunConfig, ExitCode> {
    let builder = RunConfigBuilder::campaign(prog);
    if let Err(e) = builder.check_env() {
        eprintln!("{e}");
        return Err(ExitCode::from(2));
    }
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown argument: {arg}");
        eprintln!("usage: {prog} (takes no arguments; `all_figures --help` lists the CS_* knobs)");
        return Err(ExitCode::from(2));
    }
    Ok(builder.settings_from_env().run)
}

/// Emits `result` under `name`; on a harness or I/O error prints it and
/// returns `false`.
fn emit_result(name: &str, result: Result<Report, HarnessError>) -> bool {
    let written = result.map_err(|e| e.to_string()).and_then(|report| {
        emit(&report, name).map_err(|e| e.to_string())
    });
    if let Err(e) = &written {
        eprintln!("{name}: {e}");
    }
    written.is_ok()
}

/// `main` of a single-experiment binary: runs the
/// [`campaign::experiments`] entry called `name` once under the
/// environment's configuration (no checkpoints, run memo or retries) and
/// writes `results/<name>.json`. Exit codes: `0` written, `1` the
/// experiment or the write failed, `2` usage error.
pub fn experiment_main(name: &'static str) -> ExitCode {
    let cfg = match config_or_usage(name) {
        Ok(cfg) => cfg,
        Err(code) => return code,
    };
    let Some(e) = campaign::experiments().into_iter().find(|e| e.name == name) else {
        eprintln!("{name}: not an experiment of the campaign");
        return ExitCode::FAILURE;
    };
    if emit_result(name, (e.build)(&cfg)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `main` of a per-workload study binary (`density`, `trends`,
/// `footnote3`): runs `build` for each of `benches` in turn and writes
/// `results/<prog>_<workload>.json`, stopping at the first failure. Exit
/// codes as for [`experiment_main`].
pub fn per_workload_main(
    prog: &'static str,
    benches: &[Benchmark],
    build: fn(&Benchmark, &RunConfig) -> Result<Report, HarnessError>,
) -> ExitCode {
    let cfg = match config_or_usage(prog) {
        Ok(cfg) => cfg,
        Err(code) => return code,
    };
    for bench in benches {
        let name = format!("{prog}_{}", bench.name().to_lowercase().replace(' ', "_"));
        if !emit_result(&name, build(bench, &cfg)) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_error_names_the_path() {
        let report = Report::new("x");
        let err = emit_to(Path::new("/dev/null/not-a-dir"), &report, "x")
            .expect_err("writing under /dev/null must fail");
        assert!(err.to_string().contains("/dev/null/not-a-dir"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
