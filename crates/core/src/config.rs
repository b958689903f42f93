//! Declarative knob registry for the campaign binaries.
//!
//! Historically every binary hand-rolled its own `--flag`/`CS_ENV` parsing
//! and the three copies drifted. This module replaces that with a single
//! registry: each knob declares its flag name, metavariable, environment
//! variable(s), help line, and setter **once** in
//! [`RunConfigBuilder::campaign`], and the builder derives everything
//! else — environment resolution, argument parsing, the usage line, and
//! `--help` output.
//!
//! Precedence is the historical contract, unchanged:
//!
//! 1. defaults ([`CampaignSettings::default`]),
//! 2. environment variables, in a knob's declared order (so an alias like
//!    `CS_WARMUP_INSTR` listed after `CS_WARMUP` outranks it). Unparsable
//!    environment values are silently ignored — the environment degrades
//!    to defaults, it never aborts a run;
//! 3. command-line flags, left to right. Flags are strict: a missing or
//!    invalid value is a usage error (exit 2), never ignored.

use crate::errors::ConfigError;
use crate::harness::RunConfig;
use std::path::PathBuf;

/// Knobs read outside the registry: `CS_PARANOID` is consulted at audit
/// sites ([`crate::harness::paranoid_enabled`]) and the `CS_FAULT_*`
/// family resolves as one unit in [`apply_fault_env`]. They are still
/// valid spellings for [`RunConfigBuilder::check_env_names`].
const EXTRA_KNOWN_ENVS: &[&str] = &[
    "CS_PARANOID",
    "CS_FAULT_DRAM_LAT",
    "CS_FAULT_DRAM_RATE",
    "CS_FAULT_PF_DROP",
    "CS_FAULT_SEED",
];

/// Everything a campaign binary needs from flags and environment: the
/// simulation [`RunConfig`] plus the campaign-level knobs that live
/// outside it.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSettings {
    /// The simulation configuration every experiment runs under.
    pub run: RunConfig,
    /// `--resume`: skip experiments whose result is already up to date.
    pub resume: bool,
    /// `--results-dir`: where result files and the manifest land.
    pub results_dir: PathBuf,
    /// `--ckpt-cycles`/`CS_CKPT_CYCLES`: checkpoint cadence override
    /// (`None` keeps the engine default).
    pub ckpt_cycles: Option<u64>,
    /// `CS_INTERRUPT_AFTER`: deterministic kill switch for tests and CI.
    pub interrupt_after: Option<u64>,
    /// `--max-retries`/`CS_MAX_RETRIES`: transient-failure retry cap
    /// override (`None` keeps the engine default).
    pub max_retries: Option<u32>,
}

impl Default for CampaignSettings {
    fn default() -> Self {
        Self {
            run: RunConfig::default(),
            resume: false,
            results_dir: PathBuf::from("results"),
            ckpt_cycles: None,
            interrupt_after: None,
            max_retries: None,
        }
    }
}

/// How a [`RunConfigBuilder::parse`] call ended.
#[derive(Debug)]
pub enum ParseOutcome {
    /// Every argument was understood; run with these settings.
    Ready(Box<CampaignSettings>),
    /// `--help`/`-h` was given: print this text and exit 0.
    Help(String),
    /// A usage error: print and exit 2.
    Error {
        /// What was wrong, e.g. `--jobs requires a positive integer`.
        message: String,
        /// Whether the one-line usage string should follow the message
        /// (historically only unknown arguments print it).
        show_usage: bool,
    },
}

type Apply = Box<dyn Fn(&mut CampaignSettings, &str) -> bool>;

/// One knob, declared once: flag, environment variable(s), help, and the
/// setter. Everything the binaries print or parse derives from these.
struct Knob {
    flag: Option<&'static str>,
    metavar: Option<&'static str>,
    envs: &'static [&'static str],
    help: &'static str,
    invalid: &'static str,
    /// Strict setter used for flag values: `false` means invalid.
    apply: Apply,
    /// Lenient setter used for environment values; defaults to `apply`
    /// with failures ignored. Separate because a few knobs historically
    /// sanitize the environment instead of rejecting it (`CS_JOBS=0`
    /// clamps to 1 where `--jobs 0` errors).
    env_apply: Option<Apply>,
}

impl Knob {
    /// A boolean flag (no value), e.g. `--resume`.
    fn switch(
        flag: &'static str,
        envs: &'static [&'static str],
        help: &'static str,
        apply: impl Fn(&mut CampaignSettings, &str) -> bool + 'static,
    ) -> Self {
        Self { flag: Some(flag), metavar: None, envs, help, invalid: "", apply: Box::new(apply), env_apply: None }
    }

    /// A flag taking a value, e.g. `--jobs N`.
    fn valued(
        flag: &'static str,
        metavar: &'static str,
        envs: &'static [&'static str],
        invalid: &'static str,
        help: &'static str,
        apply: impl Fn(&mut CampaignSettings, &str) -> bool + 'static,
    ) -> Self {
        Self {
            flag: Some(flag),
            metavar: Some(metavar),
            envs,
            help,
            invalid,
            apply: Box::new(apply),
            env_apply: None,
        }
    }

    /// A knob with no flag form, e.g. `CS_SEED`.
    fn env_only(
        envs: &'static [&'static str],
        help: &'static str,
        apply: impl Fn(&mut CampaignSettings, &str) -> bool + 'static,
    ) -> Self {
        Self { flag: None, metavar: None, envs, help, invalid: "", apply: Box::new(apply), env_apply: None }
    }

    /// Overrides the environment-side setter (see `env_apply`).
    #[must_use]
    fn with_env_apply(
        mut self,
        env_apply: impl Fn(&mut CampaignSettings, &str) -> bool + 'static,
    ) -> Self {
        self.env_apply = Some(Box::new(env_apply));
        self
    }
}

/// The declarative registry: knobs in, parsing/help/env resolution out.
pub struct RunConfigBuilder {
    prog: &'static str,
    knobs: Vec<Knob>,
}

impl RunConfigBuilder {
    /// An empty registry for `prog` (the binary name in usage output).
    fn new(prog: &'static str) -> Self {
        Self { prog, knobs: Vec::new() }
    }

    /// Registers a knob.
    #[must_use]
    fn knob(mut self, k: Knob) -> Self {
        self.knobs.push(k);
        self
    }

    /// The campaign registry: every knob `all_figures` (and the
    /// single-experiment binaries via [`RunConfigBuilder::check_env`] and
    /// [`RunConfigBuilder::settings_from_env`]) understands, declared
    /// exactly once. It is the only registry there is.
    pub fn campaign(prog: &'static str) -> Self {
        Self::new(prog)
            .knob(Knob::switch("--resume", &[], "skip experiments whose result is up to date", |s, _| {
                s.resume = true;
                true
            }))
            .knob(
                Knob::switch(
                    "--no-skip",
                    &["CS_NO_SKIP"],
                    "disable the event-driven cycle-skipping fast path",
                    |s, _| {
                        s.run.cycle_skip = false;
                        true
                    },
                )
                .with_env_apply(|s, v| {
                    // Historical env_u64 semantics: unparsable means unset.
                    if let Ok(n) = v.parse::<u64>() {
                        s.run.cycle_skip = n == 0;
                    }
                    true
                }),
            )
            .knob(Knob::valued(
                "--results-dir",
                "DIR",
                &[],
                "--results-dir requires a path",
                "directory for result files and the manifest",
                |s, v| {
                    s.results_dir = PathBuf::from(v);
                    true
                },
            ))
            .knob(
                Knob::valued(
                    "--jobs",
                    "N",
                    &["CS_JOBS"],
                    "--jobs requires a positive integer",
                    "worker threads for the campaign and sweep layers",
                    |s, v| match v.parse::<usize>() {
                        Ok(n) if n > 0 => {
                            s.run.jobs = n;
                            true
                        }
                        _ => false,
                    },
                )
                .with_env_apply(|s, v| {
                    if let Ok(n) = v.parse::<u64>() {
                        #[allow(clippy::cast_possible_truncation)]
                        {
                            s.run.jobs = (n as usize).max(1);
                        }
                    }
                    true
                }),
            )
            .knob(Knob::valued(
                "--ckpt-cycles",
                "N",
                &["CS_CKPT_CYCLES"],
                "--ckpt-cycles requires a cycle count (0 disables cadence)",
                "checkpoint cadence in simulated cycles",
                |s, v| {
                    v.parse::<u64>().map(|n| s.ckpt_cycles = Some(n)).is_ok()
                },
            ))
            .knob(Knob::valued(
                "--max-retries",
                "N",
                &["CS_MAX_RETRIES"],
                "--max-retries requires a retry count (0 disables retries)",
                "transient-failure retries per experiment",
                |s, v| v.parse::<u32>().map(|n| s.max_retries = Some(n)).is_ok(),
            ))
            .knob(Knob::valued(
                "--warmup-instr",
                "N",
                &["CS_WARMUP", "CS_WARMUP_INSTR"],
                "--warmup-instr requires an instruction count",
                "warmup window budget in instructions",
                |s, v| v.parse::<u64>().map(|n| s.run.warmup_instr = n).is_ok(),
            ))
            .knob(
                Knob::valued(
                    "--measure-instr",
                    "N",
                    &["CS_MEASURE", "CS_MEASURE_INSTR"],
                    "--measure-instr requires a positive instruction count",
                    "measured window budget in instructions",
                    |s, v| match v.parse::<u64>() {
                        Ok(n) if n > 0 => {
                            s.run.measure_instr = n;
                            true
                        }
                        _ => false,
                    },
                )
                .with_env_apply(|s, v| {
                    // The environment is lenient: a zero here is caught by
                    // `RunConfig::validate`, not by the parser.
                    if let Ok(n) = v.parse::<u64>() {
                        s.run.measure_instr = n;
                    }
                    true
                }),
            )
            .knob(Knob::valued(
                "--sample-windows",
                "K",
                &["CS_SAMPLE_WINDOWS"],
                "--sample-windows requires a window count (0 disables sampling)",
                "SMARTS-style sampling: detailed measurement windows",
                |s, v| v.parse::<usize>().map(|k| s.run.sample_windows = k).is_ok(),
            ))
            .knob(Knob::valued(
                "--sample-period",
                "N",
                &["CS_SAMPLE_PERIOD"],
                "--sample-period requires an instruction count",
                "functional fast-forward span between sample windows",
                |s, v| v.parse::<u64>().map(|n| s.run.sample_period = n).is_ok(),
            ))
            .knob(Knob::valued(
                "--sample-warmup",
                "N",
                &["CS_SAMPLE_WARMUP"],
                "--sample-warmup requires an instruction count",
                "detailed warm-up instructions before each sample window",
                |s, v| v.parse::<u64>().map(|n| s.run.sample_warmup_instr = n).is_ok(),
            ))
            .knob(Knob::valued(
                "--matrix-workloads",
                "LIST",
                &["CS_MATRIX_WORKLOADS"],
                "--matrix-workloads requires a comma-separated list of roster keys",
                "restrict the interference matrix to these roster keys",
                |s, v| {
                    let keys: Vec<String> =
                        v.split(',').map(str::trim).filter(|k| !k.is_empty()).map(String::from).collect();
                    if keys.is_empty() {
                        return false;
                    }
                    s.run.matrix_workloads = Some(keys);
                    true
                },
            ))
            .knob(Knob::valued(
                "--fleet-scenarios",
                "LIST",
                &["CS_FLEET_SCENARIOS"],
                "--fleet-scenarios requires a comma-separated list of scenario keys",
                "restrict fleet_resilience to these scenario keys",
                |s, v| {
                    let keys: Vec<String> =
                        v.split(',').map(str::trim).filter(|k| !k.is_empty()).map(String::from).collect();
                    if keys.is_empty() {
                        return false;
                    }
                    s.run.fleet_scenarios = Some(keys);
                    true
                },
            ))
            .knob(Knob::env_only(&["CS_SEED"], "base random seed", |s, v| {
                v.parse().map(|n| s.run.seed = n).is_ok()
            }))
            .knob(Knob::env_only(&["CS_MAX_CYCLES"], "per-window simulated-cycle safety cap", |s, v| {
                v.parse().map(|n| s.run.max_cycles = n).is_ok()
            }))
            .knob(Knob::env_only(
                &["CS_WATCHDOG"],
                "forward-progress watchdog grace period in cycles (0 disables)",
                |s, v| v.parse().map(|n| s.run.watchdog_grace = n).is_ok(),
            ))
            .knob(Knob::env_only(
                &["CS_INTERRUPT_AFTER"],
                "deterministic kill switch: checkpoint and stop at this cycle",
                |s, v| v.parse().map(|n| s.interrupt_after = Some(n)).is_ok(),
            ))
            .knob(Knob::env_only(
                &["CS_LLC_BYTES"],
                "override the LLC capacity in bytes (CI shrinks it to force \
                 cache pressure inside short smoke windows)",
                |s, v| v.parse().map(|n| s.run.llc_bytes = Some(n)).is_ok(),
            ))
    }

    /// Settings with defaults and the environment applied — what a binary
    /// that takes no arguments uses directly.
    pub fn settings_from_env(&self) -> CampaignSettings {
        let mut s = CampaignSettings::default();
        for k in &self.knobs {
            for env in k.envs {
                if let Ok(v) = std::env::var(env) {
                    match &k.env_apply {
                        Some(apply) => {
                            apply(&mut s, &v);
                        }
                        // Environment values are lenient by contract: an
                        // unparsable value leaves the previous setting.
                        None => {
                            (k.apply)(&mut s, &v);
                        }
                    }
                }
            }
        }
        apply_fault_env(&mut s.run);
        s
    }

    /// Every environment variable this registry understands: the knobs'
    /// declared names plus the out-of-registry family
    /// ([`EXTRA_KNOWN_ENVS`]).
    pub fn known_envs(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> =
            self.knobs.iter().flat_map(|k| k.envs.iter().copied()).collect();
        names.extend_from_slice(EXTRA_KNOWN_ENVS);
        names
    }

    /// Rejects `CS_*`-prefixed names the registry does not know — the
    /// typo (`CS_SAMPLE_WINDOW`) that the lenient environment contract
    /// would otherwise silently ignore, leaving the user convinced a knob
    /// is on when it never applied. The error names the nearest valid
    /// knob when one is plausibly close.
    ///
    /// Takes the names as an iterator so tests can probe spellings
    /// without mutating shared process state.
    pub fn check_env_names<I>(&self, names: I) -> Result<(), ConfigError>
    where
        I: IntoIterator<Item = String>,
    {
        let known = self.known_envs();
        for name in names {
            if !name.starts_with("CS_") || known.iter().any(|k| *k == name) {
                continue;
            }
            let nearest = known
                .iter()
                .map(|k| (levenshtein(&name, k), *k))
                .min()
                .filter(|&(d, _)| d <= 3)
                .map(|(_, k)| k.to_owned());
            return Err(ConfigError::UnknownEnvKnob { name, nearest });
        }
        Ok(())
    }

    /// [`RunConfigBuilder::check_env_names`] over the live process
    /// environment.
    pub fn check_env(&self) -> Result<(), ConfigError> {
        self.check_env_names(std::env::vars().map(|(name, _)| name))
    }

    /// Parses `args` (no program name) on top of the environment.
    ///
    /// Flags are strict, and so is the environment's *shape*: an unknown
    /// `CS_*` variable is a usage error here even though unparsable
    /// values of known knobs stay lenient.
    pub fn parse<I>(&self, args: I) -> ParseOutcome
    where
        I: IntoIterator<Item = String>,
    {
        if let Err(e) = self.check_env() {
            return ParseOutcome::Error { message: e.to_string(), show_usage: false };
        }
        let mut s = self.settings_from_env();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return ParseOutcome::Help(self.help());
            }
            let Some(k) = self.knobs.iter().find(|k| k.flag == Some(arg.as_str())) else {
                return ParseOutcome::Error {
                    message: format!("unknown argument: {arg}"),
                    show_usage: true,
                };
            };
            if k.metavar.is_none() {
                (k.apply)(&mut s, "");
                continue;
            }
            let ok = args.next().is_some_and(|v| (k.apply)(&mut s, &v));
            if !ok {
                return ParseOutcome::Error { message: k.invalid.to_owned(), show_usage: false };
            }
        }
        ParseOutcome::Ready(Box::new(s))
    }

    /// The one-line usage string, derived from the registered flags.
    pub fn usage(&self) -> String {
        let mut line = format!("usage: {}", self.prog);
        for k in &self.knobs {
            let Some(flag) = k.flag else { continue };
            match k.metavar {
                Some(m) => line.push_str(&format!(" [{flag} {m}]")),
                None => line.push_str(&format!(" [{flag}]")),
            }
        }
        line
    }

    /// Full `--help` text: usage, one line per flag, then the env-only
    /// knobs — all generated from the registry.
    pub fn help(&self) -> String {
        let mut text = self.usage();
        text.push_str("\n\noptions:\n");
        for k in &self.knobs {
            let Some(flag) = k.flag else { continue };
            let head = match k.metavar {
                Some(m) => format!("{flag} {m}"),
                None => flag.to_owned(),
            };
            text.push_str(&format!("  {head:<24} {}", k.help));
            if !k.envs.is_empty() {
                text.push_str(&format!(" [env: {}]", k.envs.join(", ")));
            }
            text.push('\n');
        }
        let env_only: Vec<&Knob> = self.knobs.iter().filter(|k| k.flag.is_none()).collect();
        if !env_only.is_empty() {
            text.push_str("\nenvironment-only knobs:\n");
            for k in env_only {
                text.push_str(&format!("  {:<24} {}\n", k.envs.join(", "), k.help));
            }
        }
        text
    }
}

/// Edit distance between two knob names, for "did you mean" suggestions.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Builds the deterministic fault-injection plan from `CS_FAULT_*`. The
/// four variables are interdependent (rates default differently when a
/// latency is present), so they resolve as one unit rather than as
/// individual knobs.
fn apply_fault_env(cfg: &mut RunConfig) {
    fn env_u64(name: &str, default: u64) -> u64 {
        std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    }
    fn env_f64(name: &str, default: f64) -> f64 {
        std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    }
    #[allow(clippy::cast_possible_truncation)]
    let dram_lat = env_u64("CS_FAULT_DRAM_LAT", 0) as u32;
    let pf_drop = env_f64("CS_FAULT_PF_DROP", 0.0);
    if dram_lat > 0 || pf_drop > 0.0 {
        cfg.fault = Some(cs_memsys::FaultPlan {
            dram_extra_latency: dram_lat,
            dram_perturb_rate: env_f64("CS_FAULT_DRAM_RATE", 1.0),
            prefetch_drop_rate: pf_drop,
            seed: env_u64("CS_FAULT_SEED", 0xC10D),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    fn ready(outcome: ParseOutcome) -> CampaignSettings {
        match outcome {
            ParseOutcome::Ready(s) => *s,
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn flags_apply_and_compose() {
        let b = RunConfigBuilder::campaign("all_figures");
        let s = ready(b.parse(argv(&[
            "--resume",
            "--no-skip",
            "--jobs",
            "3",
            "--results-dir",
            "out",
            "--warmup-instr",
            "1000",
            "--measure-instr",
            "2000",
            "--sample-windows",
            "4",
            "--sample-period",
            "500",
            "--sample-warmup",
            "50",
            "--ckpt-cycles",
            "0",
            "--max-retries",
            "2",
            "--matrix-workloads",
            "web_search,polluter",
            "--fleet-scenarios",
            "metastable,gray_fleet",
        ])));
        assert!(s.resume);
        assert!(!s.run.cycle_skip);
        assert_eq!(s.run.jobs, 3);
        assert_eq!(s.results_dir, PathBuf::from("out"));
        assert_eq!(s.run.warmup_instr, 1000);
        assert_eq!(s.run.measure_instr, 2000);
        assert_eq!(s.run.sample_windows, 4);
        assert_eq!(s.run.sample_period, 500);
        assert_eq!(s.run.sample_warmup_instr, 50);
        assert_eq!(s.ckpt_cycles, Some(0));
        assert_eq!(s.max_retries, Some(2));
        assert_eq!(
            s.run.matrix_workloads,
            Some(vec!["web_search".to_owned(), "polluter".to_owned()])
        );
        assert_eq!(
            s.run.fleet_scenarios,
            Some(vec!["metastable".to_owned(), "gray_fleet".to_owned()])
        );
    }

    #[test]
    fn invalid_flag_values_keep_their_historical_messages() {
        let b = RunConfigBuilder::campaign("all_figures");
        for (args, want) in [
            (vec!["--jobs", "0"], "--jobs requires a positive integer"),
            (vec!["--jobs"], "--jobs requires a positive integer"),
            (vec!["--measure-instr", "0"], "--measure-instr requires a positive instruction count"),
            (vec!["--results-dir"], "--results-dir requires a path"),
            (
                vec!["--matrix-workloads", ","],
                "--matrix-workloads requires a comma-separated list of roster keys",
            ),
            (
                vec!["--fleet-scenarios", ","],
                "--fleet-scenarios requires a comma-separated list of scenario keys",
            ),
        ] {
            match b.parse(argv(&args)) {
                ParseOutcome::Error { message, show_usage } => {
                    assert_eq!(message, want);
                    assert!(!show_usage, "flag value errors never print usage");
                }
                other => panic!("{args:?}: expected Error, got {other:?}"),
            }
        }
        match b.parse(argv(&["--frobnicate"])) {
            ParseOutcome::Error { message, show_usage } => {
                assert_eq!(message, "unknown argument: --frobnicate");
                assert!(show_usage, "unknown arguments print usage");
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn help_is_generated_from_the_registry() {
        let b = RunConfigBuilder::campaign("all_figures");
        let usage = b.usage();
        for flag in [
            "--resume",
            "--no-skip",
            "--results-dir DIR",
            "--jobs N",
            "--ckpt-cycles N",
            "--max-retries N",
            "--warmup-instr N",
            "--measure-instr N",
            "--sample-windows K",
            "--sample-period N",
            "--sample-warmup N",
            "--matrix-workloads LIST",
            "--fleet-scenarios LIST",
        ] {
            assert!(usage.contains(&format!("[{flag}]")), "usage must list {flag}: {usage}");
        }
        let help = match b.parse(argv(&["--help"])) {
            ParseOutcome::Help(h) => h,
            other => panic!("expected Help, got {other:?}"),
        };
        assert!(help.contains("CS_JOBS"), "help must name env vars");
        assert!(help.contains("CS_SEED"), "help must list env-only knobs");
        assert!(help.contains("CS_MATRIX_WORKLOADS"));
        assert!(help.contains("CS_FLEET_SCENARIOS"));
    }

    #[test]
    fn unknown_cs_env_knobs_are_caught_with_a_suggestion() {
        let b = RunConfigBuilder::campaign("all_figures");
        let names = |list: &[&str]| list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();

        // Every registered spelling, the out-of-registry family, and
        // non-CS variables pass untouched.
        let mut fine = b.known_envs().iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        fine.extend(names(&["PATH", "HOME", "CARGO_TARGET_DIR", "CSV_SEPARATOR"]));
        b.check_env_names(fine).expect("known and non-CS names must pass");

        // The motivating typo: a dropped letter suggests the real knob.
        let err = b
            .check_env_names(names(&["CS_SAMPLE_WINDOW"]))
            .expect_err("typos must be rejected");
        match err {
            ConfigError::UnknownEnvKnob { ref name, ref nearest } => {
                assert_eq!(name, "CS_SAMPLE_WINDOW");
                assert_eq!(nearest.as_deref(), Some("CS_SAMPLE_WINDOWS"));
            }
            other => panic!("expected UnknownEnvKnob, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("CS_SAMPLE_WINDOW") && msg.contains("CS_SAMPLE_WINDOWS"), "{msg}");

        // Knobs that no longer exist fail as loudly as typos do.
        for removed in ["CS_WINDOW_PAR", "CS_SAMPLE_INFLIGHT"] {
            match b.check_env_names(names(&[removed])) {
                Err(ConfigError::UnknownEnvKnob { name, .. }) => assert_eq!(name, removed),
                other => panic!("{removed}: expected UnknownEnvKnob, got {other:?}"),
            }
        }

        // A CS_ name near nothing gets no suggestion but still fails.
        match b.check_env_names(names(&["CS_TURBO_ENCABULATOR"])) {
            Err(ConfigError::UnknownEnvKnob { nearest: None, .. }) => {}
            other => panic!("expected a suggestion-free rejection, got {other:?}"),
        }

        for (typo, want) in [
            ("CS_FLEET_SCENARIO", "CS_FLEET_SCENARIOS"),
            ("CS_PARANOID1", "CS_PARANOID"),
            ("CS_JOBZ", "CS_JOBS"),
        ] {
            match b.check_env_names(names(&[typo])) {
                Err(ConfigError::UnknownEnvKnob { nearest: Some(n), .. }) => {
                    assert_eq!(n, want, "for {typo}");
                }
                other => panic!("{typo}: expected a suggestion, got {other:?}"),
            }
        }
    }

    #[test]
    fn later_flags_win_and_flags_outrank_env() {
        // Env precedence itself is covered by the cs-bench round-trip test
        // (process env is shared state; mutating it here would race).
        let b = RunConfigBuilder::campaign("all_figures");
        let s = ready(b.parse(argv(&["--jobs", "2", "--jobs", "5"])));
        assert_eq!(s.run.jobs, 5);
    }
}
