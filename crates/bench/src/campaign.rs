//! Resumable, fault-tolerant figure campaigns — the `all_figures` engine.
//!
//! A campaign is an ordered list of [`Experiment`]s, each of which renders
//! one `<results>/<name>.json`. The runner keeps experiments isolated from
//! each other: a panic or a typed [`HarnessError`] in one experiment is
//! caught, recorded, and the rest of the campaign continues. Transient
//! failures — a tripped watchdog or a truncated window — are retried on a
//! configurable capped exponential-backoff schedule
//! ([`CampaignOptions::retry`], the same [`cs_fleet::RetryPolicy`] the
//! fleet simulator's clients use): each attempt widens the cycle budget by
//! the schedule's next multiplier, applied to the *original* budget so the
//! schedule — not attempt compounding — bounds the worst case. The default
//! is one retry at 4x, the historical behavior.
//!
//! Every outcome is recorded in `<results>/manifest.json`, rewritten after
//! each experiment so an interrupted campaign loses at most the experiment
//! it was running. With `resume = true` the runner skips experiments whose
//! manifest entry says `ok`, whose fingerprint matches the current
//! configuration, and whose result file still exists — so a second pass
//! after a partial failure re-runs only what actually failed.
//!
//! The manifest is deterministic: object keys are sorted and no timestamps
//! or durations are recorded, so two runs of the same campaign over the
//! same configuration produce byte-identical manifests.
//!
//! Experiments are mutually independent, so the runner fans them over
//! [`RunConfig::jobs`] lanes ([`cloudsuite::par::par_map`]); sweep
//! experiments fan their own config points out on the same lane budget,
//! so the whole pass keeps at most `jobs` lanes working. Every unit stays
//! isolated — a worker-thread panic is caught and recorded as that
//! experiment's `failed` entry, never aborting its siblings — and because
//! outcomes are collected in campaign order and the manifest map is
//! key-sorted, the final `manifest.json` and every result file are
//! byte-identical at any `jobs` value. Each finished experiment's
//! wall-clock goes to stderr only.
//!
//! Experiments share runs, too: the base run of each workload feeds
//! Figures 1, 2, 3, 5 and 7. One pass simulates each distinct run once
//! ([`cloudsuite::checkpoint::RunMemo`], keyed by the run's canonical
//! string) and answers every later request for it from memory; the
//! [`CampaignSummary`] counts both.
//!
//! # Mid-run checkpointing and graceful shutdown
//!
//! Every experiment runs under a [`cloudsuite::checkpoint::CheckpointCtl`]
//! rooted at the sibling directory `<results>.ckpt` (kept outside the
//! results directory so `diff -r` between two result trees never sees
//! transient snapshot files). The harness snapshots its complete
//! simulation state there every [`CampaignOptions::ckpt_cycles`] simulated
//! cycles and — when the [`CampaignOptions::stop`] flag is raised by the
//! SIGINT/SIGTERM handler ([`crate::signal::install`]) — saves one final
//! snapshot and stops. An interrupted experiment is reported as
//! [`ExperimentStatus::Interrupted`]: its manifest entry is left untouched
//! (it is neither ok nor failed), the campaign's exit code becomes 3, and
//! the next `--resume` pass restores the snapshot and continues, producing
//! results byte-identical to a never-interrupted campaign. Checkpoints of
//! an experiment are deleted once its result file is durably emitted.

use cloudsuite::checkpoint::{with_checkpointing, CheckpointCtl, RunMemo, DEFAULT_CADENCE_CYCLES};
use cloudsuite::experiments as exp;
use cloudsuite::harness::RunConfig;
use cloudsuite::sampling::PhaseTelemetry;
use cloudsuite::{Benchmark, HarnessError, MachineConfig};
use cs_fleet::RetryPolicy;
use cs_perf::Report;
use serde_json::{Map, Value};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A shareable experiment builder: runs the experiment and renders its
/// report.
pub type ExperimentFn = Arc<dyn Fn(&RunConfig) -> Result<Report, HarnessError> + Send + Sync>;

/// One independently-run, independently-resumable unit of a campaign.
#[derive(Clone)]
pub struct Experiment {
    /// Manifest key and result-file stem (`<results>/<name>.json`).
    pub name: &'static str,
    /// Runs the experiment and renders its report.
    pub build: ExperimentFn,
}

impl Experiment {
    /// Wraps a plain builder function (or closure) under a manifest name.
    pub fn new(
        name: &'static str,
        build: impl Fn(&RunConfig) -> Result<Report, HarnessError> + Send + Sync + 'static,
    ) -> Self {
        Self { name, build: Arc::new(build) }
    }
}

/// The full campaign behind `all_figures`: Table 1, Figures 1–7, the
/// ablation studies, the fleet serving layer, the sampled-simulation
/// estimates, and the co-location interference matrix. The names are the
/// manifest keys and result-file stems.
pub fn experiments() -> Vec<Experiment> {
    fn table1(_cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::table1::report(&MachineConfig::default()))
    }
    fn fig1(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::fig1::report(&exp::fig1::collect(cfg)?))
    }
    fn fig2(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::fig2::report(&exp::fig2::collect(cfg)?))
    }
    fn fig3(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::fig3::report(&exp::fig3::collect(cfg)?))
    }
    fn fig4(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::fig4::report(&exp::fig4::collect(cfg)?))
    }
    fn fig5(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::fig5::report(&exp::fig5::collect(cfg)?))
    }
    fn fig6(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::fig6::report(&exp::fig6::collect(cfg)?))
    }
    fn fig7(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::fig7::report(&exp::fig7::collect(cfg)?))
    }
    fn a1(cfg: &RunConfig) -> Result<Report, HarnessError> {
        let scale_out = Benchmark::scale_out_suite();
        Ok(exp::ablations::report_a1(&exp::ablations::a1_mediocre_cores(
            &scale_out[..2],
            cfg,
        )?))
    }
    fn a2(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::ablations::report_variant(
            "Ablation A2: modest 4 MB LLC (§4.3 implication)",
            "Scale-out performance is nearly unchanged when the LLC shrinks to 4 MB.",
            &exp::ablations::a2_small_llc(&Benchmark::scale_out_suite(), cfg)?,
        ))
    }
    fn a3(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::ablations::report_variant(
            "Ablation A3: DCU streamer disabled (§4.3)",
            "The L1-D streamer provides no benefit to scale-out workloads.",
            &exp::ablations::a3_no_dcu(&Benchmark::scale_out_suite(), cfg)?,
        ))
    }
    fn a4(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::ablations::report_variant(
            "Ablation A4: one DDR3 channel (§4.4 implication)",
            "Scaling off-chip bandwidth back leaves scale-out performance essentially unchanged.",
            &exp::ablations::a4_one_channel(&Benchmark::scale_out_suite(), cfg)?,
        ))
    }
    fn a5(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::ablations::report_variant(
            "Ablation A5: 128 KB L1-I opportunity study (§4.1 implication)",
            "What bringing instructions closer to the cores would buy.",
            &exp::ablations::a5_big_l1i(&Benchmark::scale_out_suite(), cfg)?,
        ))
    }
    fn a6(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::ablations::report_variant(
            "Ablation A6: L1-I next-line prefetcher disabled (§4.1)",
            "The next-line prefetcher is inadequate for scale-out control flow.",
            &exp::ablations::a6_no_instr_prefetch(&Benchmark::scale_out_suite(), cfg)?,
        ))
    }
    fn a8(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::ablations::report_variant(
            "Ablation A8: narrower on-chip interconnect (§4.4 implication)",
            "Slower LLC and cross-socket paths barely move scale-out performance.",
            &exp::ablations::a8_narrow_interconnect(&Benchmark::scale_out_suite(), cfg)?,
        ))
    }
    fn fleet_slo(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::fleet_slo::report(&exp::fleet_slo::collect(cfg)?))
    }
    fn sampled_ipc(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::sampled::report(&exp::sampled::collect(cfg)?))
    }
    fn interference_matrix(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::interference_matrix::report(&exp::interference_matrix::collect(cfg)?))
    }
    fn fleet_resilience(cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(exp::fleet_resilience::report(&exp::fleet_resilience::collect(cfg)?))
    }
    vec![
        Experiment::new("table1", table1),
        Experiment::new("fig1", fig1),
        Experiment::new("fig2", fig2),
        Experiment::new("fig3", fig3),
        Experiment::new("fig4", fig4),
        Experiment::new("fig5", fig5),
        Experiment::new("fig6", fig6),
        Experiment::new("fig7", fig7),
        Experiment::new("ablation_a1", a1),
        Experiment::new("ablation_a2", a2),
        Experiment::new("ablation_a3", a3),
        Experiment::new("ablation_a4", a4),
        Experiment::new("ablation_a5", a5),
        Experiment::new("ablation_a6", a6),
        Experiment::new("ablation_a8", a8),
        Experiment::new("fleet_slo", fleet_slo),
        Experiment::new("sampled_ipc", sampled_ipc),
        Experiment::new("interference_matrix", interference_matrix),
        Experiment::new("fleet_resilience", fleet_resilience),
    ]
}

/// How one experiment of a campaign ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentStatus {
    /// The result file was written.
    Ok {
        /// Attempts used (2 means the transient-failure retry fired).
        attempts: u32,
        /// FNV-1a 64 content checksum (hex) of the emitted result file,
        /// recorded in the manifest for resume-time verification.
        checksum: String,
        /// Checkpoint file names this experiment's simulation units used
        /// (deleted on success; recorded for observability).
        units: Vec<String>,
    },
    /// An up-to-date result already existed (`resume`).
    Skipped,
    /// A stop request (signal or deterministic test trigger) cut the
    /// experiment short after a checkpoint was saved, or arrived before it
    /// started. Not a failure: its manifest entry is left untouched and the
    /// next `--resume` pass continues from the snapshot.
    Interrupted,
    /// The experiment failed after all attempts.
    Failed {
        /// Attempts used.
        attempts: u32,
        /// Rendered error (typed harness error, panic message, or I/O).
        error: String,
    },
}

/// One experiment's name and final status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The experiment's manifest key.
    pub name: String,
    /// Its final status.
    pub status: ExperimentStatus,
}

/// Every outcome of a campaign run, in campaign order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Per-experiment outcomes.
    pub outcomes: Vec<Outcome>,
    /// Harness runs this pass simulated to a result.
    pub simulated: u64,
    /// Harness runs this pass answered from its run memo instead.
    pub reused: u64,
}

impl CampaignSummary {
    /// Experiments that ultimately failed.
    pub fn failed(&self) -> Vec<&Outcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, ExperimentStatus::Failed { .. }))
            .collect()
    }

    /// Experiments cut short by a stop request (resumable, not failed).
    pub fn interrupted(&self) -> Vec<&Outcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, ExperimentStatus::Interrupted))
            .collect()
    }

    /// Process exit code: `1` if an experiment ultimately failed, `3` if
    /// the campaign was interrupted (checkpoints saved, `--resume`
    /// continues it), `0` otherwise.
    pub fn exit_code(&self) -> u8 {
        if !self.failed().is_empty() {
            1
        } else if !self.interrupted().is_empty() {
            3
        } else {
            0
        }
    }
}

/// Knobs of one campaign pass beyond the [`RunConfig`] itself.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Skip experiments whose manifest entry is ok, fingerprint-matched,
    /// and whose result file exists with a matching content checksum.
    pub resume: bool,
    /// Checkpoint cadence in simulated cycles (`0` disables cadence
    /// snapshots; stop-triggered snapshots still happen).
    pub ckpt_cycles: u64,
    /// Cooperative stop flag, usually the one [`crate::signal::install`]
    /// returns. Raised mid-campaign, it makes every in-flight experiment
    /// save a snapshot and stop, and keeps pending ones from starting.
    pub stop: Arc<AtomicBool>,
    /// Deterministic interruption for tests and CI (`CS_INTERRUPT_AFTER`):
    /// each simulation unit stops once its chip reaches this cycle, as if
    /// a signal had arrived.
    pub interrupt_after: Option<u64>,
    /// Transient-failure retry schedule. `backoff(i)` is the budget
    /// *multiplier* of retry `i` (applied to the original `max_cycles` and
    /// `watchdog_grace`, not compounded across attempts); `max_retries`
    /// bounds the attempts at `1 + max_retries`.
    pub retry: RetryPolicy,
}

/// The historical transient-retry behavior: one retry with a 4x budget
/// (schedule 4, 16, 64, capped at 256x, of which only the first fires).
pub const DEFAULT_RETRY: RetryPolicy =
    RetryPolicy { max_retries: 1, base: 4, factor: 4, cap: 256 };

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            resume: false,
            ckpt_cycles: DEFAULT_CADENCE_CYCLES,
            stop: Arc::new(AtomicBool::new(false)),
            interrupt_after: None,
            retry: DEFAULT_RETRY,
        }
    }
}

/// The configuration fingerprint stored per manifest entry; a resume pass
/// only trusts results produced under the same fingerprint.
///
/// Sampling-disabled configs keep the historical `w-m-s` shape so manifests
/// written before sampling existed still resume; a sampled schedule appends
/// its three knobs, so flipping sampling on or off invalidates prior
/// results.
pub fn fingerprint(cfg: &RunConfig) -> String {
    let mut fp = format!("w{}-m{}-s{}", cfg.warmup_instr, cfg.measure_instr, cfg.seed);
    if cfg.sample_windows > 0 {
        fp = format!(
            "{fp}-k{}-p{}-sw{}",
            cfg.sample_windows, cfg.sample_period, cfg.sample_warmup_instr
        );
    }
    // A restricted interference matrix produces a different result file
    // under the same name; widening it back must invalidate the entry.
    if let Some(w) = &cfg.matrix_workloads {
        fp = format!("{fp}-x{}", w.join("+"));
    }
    // Same contract for a restricted fleet_resilience scenario sweep.
    if let Some(sc) = &cfg.fleet_scenarios {
        fp = format!("{fp}-fr{}", sc.join("+"));
    }
    // An LLC override or a fault plan changes every simulated result.
    if let Some(bytes) = cfg.llc_bytes {
        fp = format!("{fp}-llc{bytes}");
    }
    if let Some(f) = &cfg.fault {
        fp = format!(
            "{fp}-f{}:{}:{}:{}",
            f.dram_extra_latency, f.dram_perturb_rate, f.prefetch_drop_rate, f.seed
        );
    }
    fp
}

/// Runs the campaign, emitting result files into `results_dir` and
/// maintaining `results_dir/manifest.json`.
///
/// Experiments run concurrently on up to [`RunConfig::jobs`] threads; the
/// skip set of a resume pass is decided up front from the loaded manifest,
/// and outcomes are reported in campaign order regardless of which thread
/// finished first. A panic escaping an experiment's worker thread is
/// recorded as that experiment's [`ExperimentStatus::Failed`] — one
/// poisoned unit never aborts the campaign.
pub fn run(
    experiments: &[Experiment],
    cfg: &RunConfig,
    results_dir: &Path,
    resume: bool,
) -> CampaignSummary {
    run_with(experiments, cfg, results_dir, &CampaignOptions { resume, ..Default::default() })
}

/// [`run`] with explicit [`CampaignOptions`]: checkpoint cadence, the
/// graceful-shutdown stop flag, and the deterministic interrupt trigger.
///
/// Every experiment of the pass shares one [`RunMemo`], which lives for
/// this call only.
pub fn run_with(
    experiments: &[Experiment],
    cfg: &RunConfig,
    results_dir: &Path,
    opts: &CampaignOptions,
) -> CampaignSummary {
    let manifest_path = results_dir.join("manifest.json");
    let loaded = if opts.resume { load_manifest(&manifest_path) } else { Map::new() };
    let fp = fingerprint(cfg);
    // The skip set is decided before any worker starts: entries written
    // mid-campaign must not change which experiments this pass runs.
    let skip: Vec<bool> = experiments
        .iter()
        .map(|e| opts.resume && up_to_date(&loaded, e.name, &fp, results_dir))
        .collect();
    let manifest = Mutex::new(loaded);
    let telemetry = Mutex::new(Vec::new());
    let memo = Arc::new(RunMemo::default());
    // Snapshots live in a sibling of the results directory, never inside
    // it: `diff -r` between two result trees must not see them.
    let ckpt_root = PathBuf::from(format!("{}.ckpt", results_dir.display()));

    let statuses = cloudsuite::par::par_map(cfg.jobs, experiments, |i, e| {
        if skip[i] {
            eprintln!("[campaign] {}: up to date, skipping", e.name);
            return ExperimentStatus::Skipped;
        }
        // A stop raised before this experiment was dispatched: do not start
        // new work, just mark it resumable.
        if opts.stop.load(Ordering::SeqCst) {
            eprintln!("[campaign] {}: stop requested, not starting", e.name);
            return ExperimentStatus::Interrupted;
        }
        let ctl = CheckpointCtl {
            cadence_cycles: opts.ckpt_cycles,
            stop: Arc::clone(&opts.stop),
            interrupt_after: opts.interrupt_after,
            memo: Arc::clone(&memo),
            ..CheckpointCtl::new(ckpt_root.clone(), e.name)
        };
        let start = Instant::now();
        // `run_one` already catches panics inside the experiment body; this
        // outer guard is the campaign-level backstop that converts a panic
        // escaping anywhere on the worker (result emission included) into
        // this experiment's failure outcome instead of sinking siblings.
        let status = panic::catch_unwind(AssertUnwindSafe(|| {
            with_checkpointing(ctl.clone(), || {
                run_one(e, cfg, results_dir, &ctl, &opts.retry)
            })
        }))
        .unwrap_or_else(|payload| ExperimentStatus::Failed {
            attempts: 1,
            error: panic_message(&*payload),
        });
        telemetry.lock().unwrap_or_else(PoisonError::into_inner).extend(ctl.take_telemetry());
        // An interrupted experiment leaves its manifest entry untouched:
        // it is neither ok (the result was not produced) nor failed (the
        // checkpoint makes it resumable).
        if status == ExperimentStatus::Interrupted {
            eprintln!(
                "[campaign] {}: interrupted; snapshot saved, `--resume` continues it",
                e.name
            );
            return status;
        }
        // Wall-clock is host-dependent, so it goes to stderr only: never
        // into the results tree or the manifest.
        if matches!(status, ExperimentStatus::Ok { .. }) {
            eprintln!("[campaign] {}: ok in {:.2} s", e.name, start.elapsed().as_secs_f64());
        }
        let mut entries = manifest.lock().unwrap_or_else(PoisonError::into_inner);
        entries.insert(e.name.to_string(), manifest_entry(&fp, &status));
        // Rewritten after every experiment: an interrupted campaign loses
        // at most the experiments that were in flight.
        if let Err(err) = write_manifest(&manifest_path, &entries) {
            eprintln!("[campaign] warning: could not write manifest: {err}");
        }
        status
    });

    let outcomes = experiments
        .iter()
        .zip(statuses)
        .map(|(e, status)| Outcome { name: e.name.into(), status })
        .collect();
    let telemetry = telemetry.into_inner().unwrap_or_else(PoisonError::into_inner);
    write_telemetry(&ckpt_root, &telemetry);
    let (simulated, reused) = memo.counts();
    eprintln!("[campaign] runs: {simulated} simulated, {reused} reused");
    CampaignSummary { outcomes, simulated, reused }
}

/// Writes the per-phase wall-clock telemetry that this pass's sampled
/// units left on their experiments' checkpoint controls to
/// `<results>.ckpt/telemetry.json` — deliberately *outside* the results
/// directory, because wall-clock timings are host-dependent and must never
/// show up in a `diff -r` between two result trees. Best-effort: an
/// unwritable directory only loses the timings, never the campaign.
///
/// Rows are keyed by experiment plus the unit's checkpoint key (in hex),
/// since one benchmark name runs as many units — the base and SMT legs of
/// fig3, and the same benchmark in fig1, fig2, fig5 and fig7. A resumed
/// pass only re-runs stale units, so this pass's rows merge into whatever
/// the previous pass left: same-key rows are replaced, other rows
/// survive. A corrupt or torn existing file (a previous process was
/// killed mid-write before this writer became atomic, or the disk filled)
/// degrades to an empty history instead of aborting — and the write itself
/// goes through a temp file + rename so this writer can never produce such
/// a torn file again.
fn write_telemetry(ckpt_root: &Path, units: &[PhaseTelemetry]) {
    if units.is_empty() {
        return;
    }
    let path = ckpt_root.join("telemetry.json");
    let mut rows = load_telemetry_rows(&path);
    for t in units {
        let key = format!("{:016x}", t.key);
        let same_unit = |r: &&mut Value| {
            let field = |name| r.get(name).and_then(Value::as_str);
            field("experiment") == Some(&t.experiment) && field("key") == Some(&key)
        };
        let mut m = Map::new();
        m.insert("experiment".into(), Value::String(t.experiment.clone()));
        m.insert("key".into(), Value::String(key.clone()));
        m.insert("unit".into(), Value::String(t.unit.clone()));
        m.insert("windows".into(), Value::from(t.windows as u64));
        m.insert("forward_secs".into(), Value::from(t.forward_secs));
        m.insert("warm_secs".into(), Value::from(t.warm_secs));
        m.insert("measure_secs".into(), Value::from(t.measure_secs));
        let row = Value::Object(m);
        match rows.iter_mut().find(same_unit) {
            Some(existing) => *existing = row,
            None => rows.push(row),
        }
    }
    let mut root = Map::new();
    root.insert("units".into(), Value::Array(rows));
    if let Err(e) = write_json(&path, root) {
        eprintln!("[campaign] warning: could not write telemetry: {e}");
    }
}

/// The unit rows of an existing telemetry file; anything unreadable —
/// missing, truncated mid-JSON, or the wrong shape — is an empty history.
fn load_telemetry_rows(path: &Path) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    match serde_json::from_str::<Value>(&text) {
        Ok(v) => match v.get("units").and_then(Value::as_array) {
            Some(rows) => rows.iter().filter(|r| r.as_object().is_some()).cloned().collect(),
            None => Vec::new(),
        },
        Err(_) => Vec::new(),
    }
}

struct Failure {
    message: String,
    transient: bool,
    interrupted: bool,
}

/// One guarded attempt: typed errors and panics both become [`Failure`]s.
fn attempt(e: &Experiment, cfg: &RunConfig) -> Result<Report, Failure> {
    match panic::catch_unwind(AssertUnwindSafe(|| (e.build)(cfg))) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(err)) => Err(Failure {
            transient: matches!(
                err,
                HarnessError::Stalled { .. } | HarnessError::Truncated { .. }
            ),
            interrupted: matches!(err, HarnessError::Interrupted),
            message: err.to_string(),
        }),
        // `&*payload`, not `&payload`: coercing the Box itself to
        // `dyn Any` would make both downcasts miss.
        Err(payload) => Err(Failure {
            message: panic_message(&*payload),
            transient: false,
            interrupted: false,
        }),
    }
}

fn run_one(
    e: &Experiment,
    cfg: &RunConfig,
    results_dir: &Path,
    ctl: &CheckpointCtl,
    retry: &RetryPolicy,
) -> ExperimentStatus {
    let mut attempts: u32 = 1;
    let mut result = attempt(e, cfg);
    while let Err(f) = &result {
        // A stop request is not a failure — never retried, never recorded:
        // the checkpoint the harness just saved makes the unit resumable.
        if f.interrupted {
            return ExperimentStatus::Interrupted;
        }
        if !f.transient || attempts > retry.max_retries {
            break;
        }
        // Retry i widens the *original* budget by `backoff(i)`: the
        // schedule, not attempt compounding, bounds the worst case.
        let widen = retry.backoff(attempts - 1);
        eprintln!(
            "[campaign] {}: transient failure ({}); retry {}/{} with a {}x cycle budget",
            e.name, f.message, attempts, retry.max_retries, widen
        );
        let widened = RunConfig {
            max_cycles: cfg.max_cycles.saturating_mul(widen),
            watchdog_grace: cfg.watchdog_grace.saturating_mul(widen),
            ..cfg.clone()
        };
        attempts += 1;
        result = attempt(e, &widened);
    }
    match result {
        Ok(report) => match crate::emit_to(results_dir, &report, e.name) {
            Ok(emitted) => {
                // The result is durable; this experiment's snapshots have
                // served their purpose.
                let units = ctl.used_files();
                for f in &units {
                    let _ = std::fs::remove_file(ctl.dir.join(f));
                }
                ExperimentStatus::Ok { attempts, checksum: emitted.checksum, units }
            }
            Err(err) => ExperimentStatus::Failed { attempts, error: err.to_string() },
        },
        Err(f) if f.interrupted => ExperimentStatus::Interrupted,
        Err(f) => {
            eprintln!("[campaign] {}: FAILED: {}", e.name, f.message);
            ExperimentStatus::Failed { attempts, error: f.message }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".into()
    }
}

fn manifest_entry(fp: &str, status: &ExperimentStatus) -> Value {
    let mut m = Map::new();
    m.insert("fingerprint".into(), Value::String(fp.into()));
    match status {
        ExperimentStatus::Ok { attempts, checksum, units } => {
            m.insert("attempts".into(), Value::from(u64::from(*attempts)));
            m.insert("checksum".into(), Value::String(checksum.clone()));
            m.insert("status".into(), Value::String("ok".into()));
            m.insert(
                "units".into(),
                Value::Array(units.iter().map(|u| Value::String(u.clone())).collect()),
            );
        }
        ExperimentStatus::Failed { attempts, error } => {
            m.insert("attempts".into(), Value::from(u64::from(*attempts)));
            m.insert("error".into(), Value::String(error.clone()));
            m.insert("status".into(), Value::String("failed".into()));
        }
        // Skips and interruptions never reach the manifest: the existing
        // entry (if any) stands.
        ExperimentStatus::Skipped | ExperimentStatus::Interrupted => {}
    }
    Value::Object(m)
}

fn load_manifest(path: &Path) -> Map<String, Value> {
    let Ok(text) = std::fs::read_to_string(path) else { return Map::new() };
    match serde_json::from_str::<Value>(&text) {
        Ok(v) => match v.get("experiments").and_then(Value::as_object) {
            Some(entries) => entries.clone(),
            None => Map::new(),
        },
        Err(_) => Map::new(),
    }
}

fn write_manifest(path: &Path, entries: &Map<String, Value>) -> std::io::Result<()> {
    let mut root = Map::new();
    root.insert("experiments".into(), Value::Object(entries.clone()));
    root.insert("version".into(), Value::from(1u64));
    write_json(path, root)
}

/// Writes `root` as pretty JSON to `path`, creating its directory.
/// Atomic, like every other artifact: a kill mid-rewrite must leave the
/// previous file intact, not a torn one a resume pass would misread.
fn write_json(path: &Path, root: Map<String, Value>) -> std::io::Result<()> {
    use std::io::Write;
    let text = serde_json::to_string_pretty(&Value::Object(root))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("json.tmp.{}", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.write_all(b"\n")?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

fn up_to_date(manifest: &Map<String, Value>, name: &str, fp: &str, results_dir: &Path) -> bool {
    let Some(entry) = manifest.get(name) else { return false };
    if entry.get("status").and_then(Value::as_str) != Some("ok")
        || entry.get("fingerprint").and_then(Value::as_str) != Some(fp)
    {
        return false;
    }
    // Trust content, not existence: the recorded checksum must match the
    // bytes on disk, so a torn, corrupted, or hand-edited result is re-run
    // rather than silently kept. Entries without a checksum are re-run too.
    let Some(recorded) = entry.get("checksum").and_then(Value::as_str) else { return false };
    match std::fs::read(results_dir.join(format!("{name}.json"))) {
        Ok(bytes) => crate::content_checksum(&bytes) == recorded,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("cs-campaign-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ok_report(_cfg: &RunConfig) -> Result<Report, HarnessError> {
        Ok(Report::new("healthy"))
    }

    fn stalling(_cfg: &RunConfig) -> Result<Report, HarnessError> {
        Err(HarnessError::Stalled { core: 3, cycles_without_commit: 99, window: "measure" })
    }

    fn panicking(_cfg: &RunConfig) -> Result<Report, HarnessError> {
        panic!("exploded mid-experiment")
    }

    fn read_manifest(dir: &Path) -> Value {
        let text = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
        serde_json::from_str(&text).expect("manifest parses")
    }

    #[test]
    fn campaign_lists_every_experiment_once_in_order() {
        let names: Vec<&str> = experiments().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "table1",
                "fig1",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "ablation_a1",
                "ablation_a2",
                "ablation_a3",
                "ablation_a4",
                "ablation_a5",
                "ablation_a6",
                "ablation_a8",
                "fleet_slo",
                "sampled_ipc",
                "interference_matrix",
                "fleet_resilience",
            ]
        );
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "manifest keys must be unique");
    }

    #[test]
    fn one_failure_does_not_sink_the_campaign() {
        let dir = scratch_dir("isolation");
        let exps = [
            Experiment::new("good_a", ok_report),
            Experiment::new("sick", stalling),
            Experiment::new("explosive", panicking),
            Experiment::new("good_b", ok_report),
        ];
        let summary = run(&exps, &RunConfig::default(), &dir, false);
        assert_eq!(summary.exit_code(), 1);
        assert_eq!(summary.failed().len(), 2);
        assert!(dir.join("good_a.json").exists());
        assert!(dir.join("good_b.json").exists());
        assert!(!dir.join("sick.json").exists());

        let manifest = read_manifest(&dir);
        let sick = manifest.get("experiments").and_then(|e| e.get("sick")).expect("entry");
        assert_eq!(sick.get("status").and_then(Value::as_str), Some("failed"));
        // A stall is transient: the widened-budget retry must have fired.
        assert_eq!(sick.get("attempts").and_then(Value::as_u64), Some(2));
        assert!(sick
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("core 3")));
        let boom =
            manifest.get("experiments").and_then(|e| e.get("explosive")).expect("entry");
        // Panics are not transient: exactly one attempt.
        assert_eq!(boom.get("attempts").and_then(Value::as_u64), Some(1));
        assert!(boom
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("exploded")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    static RESUME_RUNS: AtomicUsize = AtomicUsize::new(0);

    fn counted_ok(_cfg: &RunConfig) -> Result<Report, HarnessError> {
        RESUME_RUNS.fetch_add(1, Ordering::SeqCst);
        Ok(Report::new("counted"))
    }

    #[test]
    fn resume_reruns_only_the_failure() {
        let dir = scratch_dir("resume");
        let broken = [
            Experiment::new("steady", counted_ok),
            Experiment::new("flaky", stalling),
        ];
        let first = run(&broken, &RunConfig::default(), &dir, false);
        assert_eq!(first.exit_code(), 1);
        assert_eq!(RESUME_RUNS.load(Ordering::SeqCst), 1);

        // The flaw is fixed; a resume pass must re-run only "flaky".
        let fixed = [
            Experiment::new("steady", counted_ok),
            Experiment::new("flaky", ok_report),
        ];
        let second = run(&fixed, &RunConfig::default(), &dir, true);
        assert_eq!(second.exit_code(), 0);
        assert_eq!(RESUME_RUNS.load(Ordering::SeqCst), 1, "steady must be skipped");
        assert_eq!(second.outcomes[0].status, ExperimentStatus::Skipped);
        assert!(matches!(second.outcomes[1].status, ExperimentStatus::Ok { attempts: 1, .. }));
        assert!(dir.join("flaky.json").exists());

        // A config change invalidates the fingerprint: nothing is skipped.
        let wider = RunConfig { measure_instr: 123_456, ..RunConfig::default() };
        let third = run(&fixed, &wider, &dir, true);
        assert!(matches!(third.outcomes[0].status, ExperimentStatus::Ok { attempts: 1, .. }));
        assert_eq!(RESUME_RUNS.load(Ordering::SeqCst), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_distrusts_corrupted_results() {
        let dir = scratch_dir("checksum");
        let exps = [Experiment::new("good", ok_report)];
        let first = run(&exps, &RunConfig::default(), &dir, false);
        assert_eq!(first.exit_code(), 0);
        // The manifest records the content checksum of the emitted file.
        let manifest = read_manifest(&dir);
        let entry = manifest.get("experiments").and_then(|e| e.get("good")).expect("entry");
        let recorded = entry.get("checksum").and_then(Value::as_str).expect("checksum");
        let bytes = std::fs::read(dir.join("good.json")).expect("result");
        assert_eq!(crate::content_checksum(&bytes), recorded);

        // Untouched: a resume pass skips.
        let second = run(&exps, &RunConfig::default(), &dir, true);
        assert_eq!(second.outcomes[0].status, ExperimentStatus::Skipped);

        // Corrupted on disk: the checksum mismatch forces a re-run.
        std::fs::write(dir.join("good.json"), b"{\"tampered\": true}").expect("tamper");
        let third = run(&exps, &RunConfig::default(), &dir, true);
        assert!(
            matches!(third.outcomes[0].status, ExperimentStatus::Ok { .. }),
            "a corrupted result must be re-run, got {:?}",
            third.outcomes[0].status
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn interrupting(_cfg: &RunConfig) -> Result<Report, HarnessError> {
        Err(HarnessError::Interrupted)
    }

    #[test]
    fn interruption_is_resumable_not_failed() {
        let dir = scratch_dir("interrupt");
        // Establish a manifest entry for "good", then interrupt a pass
        // containing both experiments.
        let warm = [Experiment::new("good", ok_report)];
        run(&warm, &RunConfig::default(), &dir, false);
        let manifest_before = read_manifest(&dir);

        let exps = [
            Experiment::new("good", interrupting),
            Experiment::new("late", interrupting),
        ];
        let summary = run(&exps, &RunConfig::default(), &dir, false);
        assert_eq!(summary.exit_code(), 3, "interrupted campaigns exit 3");
        assert_eq!(summary.interrupted().len(), 2);
        assert!(summary.failed().is_empty(), "interruption is not failure");
        // No retry for interruptions, and the manifest is untouched: the
        // prior ok entry stands and "late" never appears.
        let manifest_after = read_manifest(&dir);
        assert_eq!(manifest_before, manifest_after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn raised_stop_flag_prevents_new_experiments() {
        let dir = scratch_dir("stopflag");
        let exps = [
            Experiment::new("one", counted_ok),
            Experiment::new("two", counted_ok),
        ];
        let before = RESUME_RUNS.load(Ordering::SeqCst);
        let opts = CampaignOptions::default();
        opts.stop.store(true, Ordering::SeqCst);
        let summary = run_with(&exps, &RunConfig::default(), &dir, &opts);
        assert_eq!(summary.exit_code(), 3);
        assert_eq!(summary.interrupted().len(), 2);
        assert_eq!(
            RESUME_RUNS.load(Ordering::SeqCst),
            before,
            "no experiment body may run once the stop flag is raised"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    static FLAKY_CALLS: AtomicUsize = AtomicUsize::new(0);
    static FLAKY_BUDGETS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    fn flaky_twice(cfg: &RunConfig) -> Result<Report, HarnessError> {
        FLAKY_BUDGETS.lock().unwrap_or_else(PoisonError::into_inner).push(cfg.max_cycles);
        if FLAKY_CALLS.fetch_add(1, Ordering::SeqCst) < 2 {
            Err(HarnessError::Truncated { committed: 1, target: 2 })
        } else {
            Ok(Report::new("finally"))
        }
    }

    #[test]
    fn retry_schedule_widens_the_original_budget_until_success() {
        let dir = scratch_dir("retry-schedule");
        let exps = [Experiment::new("flaky_twice", flaky_twice)];
        let opts = CampaignOptions {
            retry: RetryPolicy { max_retries: 3, base: 2, factor: 3, cap: 7 },
            ..Default::default()
        };
        let cfg = RunConfig::default();
        let summary = run_with(&exps, &cfg, &dir, &opts);
        assert_eq!(summary.exit_code(), 0);
        assert!(
            matches!(summary.outcomes[0].status, ExperimentStatus::Ok { attempts: 3, .. }),
            "two transient failures then success must use 3 attempts, got {:?}",
            summary.outcomes[0].status
        );
        // Multipliers come from the schedule (2, 6, capped 7) and apply to
        // the ORIGINAL budget — never compounded across attempts.
        let budgets =
            FLAKY_BUDGETS.lock().unwrap_or_else(PoisonError::into_inner).clone();
        assert_eq!(
            budgets,
            vec![cfg.max_cycles, cfg.max_cycles * 2, cfg.max_cycles * 6],
            "budgets must follow the capped exponential schedule"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_budget_exhaustion_is_a_failure_with_counted_attempts() {
        let dir = scratch_dir("retry-exhaust");
        let exps = [Experiment::new("always_sick", stalling)];
        let opts = CampaignOptions {
            retry: RetryPolicy { max_retries: 2, base: 4, factor: 4, cap: 256 },
            ..Default::default()
        };
        let summary = run_with(&exps, &RunConfig::default(), &dir, &opts);
        assert_eq!(summary.exit_code(), 1);
        assert!(
            matches!(
                summary.outcomes[0].status,
                ExperimentStatus::Failed { attempts: 3, .. }
            ),
            "1 initial + 2 retries, got {:?}",
            summary.outcomes[0].status
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_retries_means_exactly_one_attempt() {
        let dir = scratch_dir("retry-none");
        let exps = [Experiment::new("sick_once", stalling)];
        let opts =
            CampaignOptions { retry: RetryPolicy::none(), ..Default::default() };
        let summary = run_with(&exps, &RunConfig::default(), &dir, &opts);
        assert!(matches!(
            summary.outcomes[0].status,
            ExperimentStatus::Failed { attempts: 1, .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_bytes_are_deterministic() {
        let dir_a = scratch_dir("det-a");
        let dir_b = scratch_dir("det-b");
        let exps = [
            Experiment::new("one", ok_report),
            Experiment::new("two", stalling),
        ];
        run(&exps, &RunConfig::default(), &dir_a, false);
        run(&exps, &RunConfig::default(), &dir_b, false);
        let a = std::fs::read(dir_a.join("manifest.json")).expect("manifest a");
        let b = std::fs::read(dir_b.join("manifest.json")).expect("manifest b");
        assert_eq!(a, b, "same campaign, same config, same bytes");
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn fingerprint_encodes_the_windows_and_seed() {
        let cfg = RunConfig {
            warmup_instr: 10,
            measure_instr: 20,
            seed: 7,
            ..RunConfig::default()
        };
        assert_eq!(fingerprint(&cfg), "w10-m20-s7");
        // A sampled schedule appends its knobs; disabled stays bare so
        // pre-sampling manifests still match.
        let sampled = RunConfig {
            sample_windows: 4,
            sample_period: 500,
            sample_warmup_instr: 50,
            ..cfg.clone()
        };
        assert_eq!(fingerprint(&sampled), "w10-m20-s7-k4-p500-sw50");
        // Restricted sweeps produce different result files under the same
        // names; their markers must invalidate unrestricted entries (and
        // vice versa). Unset, they stay out so old manifests still match.
        let matrix = RunConfig {
            matrix_workloads: Some(vec!["web_search".into(), "polluter".into()]),
            ..cfg.clone()
        };
        assert_eq!(fingerprint(&matrix), "w10-m20-s7-xweb_search+polluter");
        let fleet = RunConfig {
            fleet_scenarios: Some(vec!["metastable".into(), "gray_fleet".into()]),
            ..cfg.clone()
        };
        assert_eq!(fingerprint(&fleet), "w10-m20-s7-frmetastable+gray_fleet");
        // An LLC override and a fault plan change every simulated result;
        // unset, they stay out too.
        let llc = RunConfig { llc_bytes: Some(1 << 20), ..cfg.clone() };
        assert_eq!(fingerprint(&llc), "w10-m20-s7-llc1048576");
        let faulty = RunConfig {
            fault: Some(cloudsuite::FaultPlan::dram_jitter(300, 0.25, 9)),
            ..llc.clone()
        };
        assert_eq!(fingerprint(&faulty), "w10-m20-s7-llc1048576-f300:0.25:0:9");
    }

    static LLC_RUNS: AtomicUsize = AtomicUsize::new(0);

    fn llc_report(cfg: &RunConfig) -> Result<Report, HarnessError> {
        LLC_RUNS.fetch_add(1, Ordering::SeqCst);
        let mut rep = Report::new("llc");
        rep.note(format!("llc {:?}", cfg.llc_bytes));
        Ok(rep)
    }

    #[test]
    fn resume_reruns_an_experiment_whose_llc_changed() {
        let dir = scratch_dir("resume-llc");
        let exps = [Experiment::new("sized", llc_report)];
        let default_llc = RunConfig::default();
        assert_eq!(run(&exps, &default_llc, &dir, false).exit_code(), 0);
        assert_eq!(run(&exps, &default_llc, &dir, true).outcomes[0].status, ExperimentStatus::Skipped);
        assert_eq!(LLC_RUNS.load(Ordering::SeqCst), 1);

        let small_llc = RunConfig { llc_bytes: Some(1 << 20), ..RunConfig::default() };
        let resumed = run(&exps, &small_llc, &dir, true);
        assert!(
            matches!(resumed.outcomes[0].status, ExperimentStatus::Ok { .. }),
            "a result from another LLC must be re-run, got {:?}",
            resumed.outcomes[0].status
        );
        assert_eq!(LLC_RUNS.load(Ordering::SeqCst), 2);
        let text = std::fs::read_to_string(dir.join("sized.json")).expect("result");
        assert!(text.contains("llc Some(1048576)"), "the result must come from the new LLC");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn unit(name: &str, key: u64, windows: usize) -> PhaseTelemetry {
        PhaseTelemetry {
            experiment: "fig3".to_owned(),
            key,
            unit: name.to_owned(),
            windows,
            forward_secs: 1.0,
            warm_secs: 2.0,
            measure_secs: 3.0,
        }
    }

    fn telemetry_units(dir: &Path) -> Vec<Value> {
        let text =
            std::fs::read_to_string(dir.join("telemetry.json")).expect("telemetry file");
        let v: Value = serde_json::from_str(&text).expect("telemetry parses");
        v.get("units").and_then(Value::as_array).expect("units array").clone()
    }

    #[test]
    fn telemetry_merges_across_passes_and_survives_corruption() {
        let dir = scratch_dir("telemetry");

        // First pass: two units land.
        write_telemetry(&dir, &[unit("alpha", 1, 2), unit("beta", 2, 3)]);
        assert_eq!(telemetry_units(&dir).len(), 2);
        assert!(
            !dir.join(format!("telemetry.json.tmp.{}", std::process::id())).exists(),
            "the temp file must not outlive the rename"
        );

        // Resumed pass re-ran only beta (new numbers) plus a new unit:
        // alpha survives, beta is replaced, gamma appends.
        write_telemetry(&dir, &[unit("beta", 2, 9), unit("gamma", 3, 1)]);
        let rows = telemetry_units(&dir);
        let windows_of = |key: &str| {
            rows.iter()
                .find(|r| r.get("key").and_then(Value::as_str) == Some(key))
                .and_then(|r| r.get("windows"))
                .and_then(Value::as_u64)
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(windows_of("0000000000000001"), Some(2));
        assert_eq!(windows_of("0000000000000002"), Some(9), "re-run units replace their row");
        assert_eq!(windows_of("0000000000000003"), Some(1));
        assert!(rows.iter().all(|r| r.get("experiment").and_then(Value::as_str) == Some("fig3")));

        // One benchmark name run as two units (fig3's base and SMT legs):
        // different keys, so both rows survive.
        write_telemetry(&dir, &[unit("Data Serving", 0xA, 4), unit("Data Serving", 0xB, 5)]);
        let rows = telemetry_units(&dir);
        assert_eq!(rows.len(), 5);
        let named: Vec<_> = (rows.iter())
            .filter(|r| r.get("unit").and_then(Value::as_str) == Some("Data Serving"))
            .filter_map(|r| r.get("windows").and_then(Value::as_u64))
            .collect();
        assert_eq!(named, [4, 5]);

        // A torn file from a killed previous process degrades to an empty
        // history instead of wedging every later pass.
        std::fs::write(dir.join("telemetry.json"), "{\"units\": [{\"unit\": \"al")
            .expect("plant torn file");
        write_telemetry(&dir, &[unit("delta", 4, 4)]);
        let rows = telemetry_units(&dir);
        assert_eq!(rows.len(), 1, "corrupt history is dropped, not merged");
        assert_eq!(
            rows[0].get("unit").and_then(Value::as_str),
            Some("delta"),
            "the fresh pass still records"
        );

        // The wrong shape (valid JSON, no units array) is equally ignored.
        std::fs::write(dir.join("telemetry.json"), "[1, 2, 3]\n").expect("plant wrong shape");
        write_telemetry(&dir, &[unit("epsilon", 5, 5)]);
        assert_eq!(telemetry_units(&dir).len(), 1);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
