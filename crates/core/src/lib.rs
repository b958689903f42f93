//! CloudSuite-RS — a reproduction of *Clearing the Clouds: A Study of
//! Emerging Scale-out Workloads on Modern Hardware* (Ferdman et al.,
//! ASPLOS 2012).
//!
//! This crate is the top of the stack: it assembles the substrates
//! (`cs-trace`, `cs-memsys`, `cs-uarch`, `cs-workloads`) into the paper's
//! experimental apparatus and exposes one module per figure/table of the
//! evaluation:
//!
//! - [`machine`] — the Table 1 machine description (Xeon X5670-like) and
//!   its assembly into a simulated chip;
//! - [`registry`] — the benchmark registry: the six CloudSuite scale-out
//!   workloads plus the traditional comparison points of §3.3;
//! - [`harness`] — the measurement methodology of §3.1: warmup and
//!   steady-state windows, worker placement (including the cross-socket
//!   placement used for the sharing study and the cache-polluter threads
//!   used for the LLC study), and the derived metrics;
//! - [`experiments`] — one entry point per table and figure (Table 1,
//!   Figures 1–7) plus the ablations suggested by the paper's
//!   "Implications" paragraphs and the `fleet_slo` cluster-serving study
//!   (harness-measured service times driving the `cs-fleet` fault-tolerant
//!   fleet simulator);
//! - [`errors`] — the typed error surface: configuration validation
//!   ([`errors::ConfigError`]), stall/truncation diagnoses
//!   ([`errors::HarnessError`]), and registry capability errors;
//! - [`config`] — the declarative knob registry behind the campaign
//!   binaries: every `--flag`/`CS_*` pair is declared once and parsing,
//!   precedence, and `--help` are derived from the registry;
//! - [`par`] — the deterministic fan-out ([`par::par_map`]) that the
//!   sweep experiments and the campaign layer spread independent, seeded
//!   runs over, nested calls sharing one lane budget
//!   ([`harness::RunConfig::jobs`] sets its size);
//! - [`sampling`] — the SMARTS sampling machine shared by the harness:
//!   window phases, the per-window statistics accumulator, and their
//!   checkpoint codecs;
//! - [`checkpoint`] — crash-safe mid-run snapshots: a versioned,
//!   checksummed envelope written atomically on a cycle cadence and on
//!   stop requests, so a killed campaign resumes from its last snapshot
//!   with byte-identical results.
//!
//! # Quickstart
//!
//! ```no_run
//! use cloudsuite::harness::{run, RunConfig};
//! use cloudsuite::registry::Benchmark;
//!
//! let bench = Benchmark::data_serving();
//! let result = run(&bench, &RunConfig::default()).expect("default config is valid");
//! println!("{}: IPC {:.2}, MLP {:.2}", result.name, result.app_ipc(), result.mlp());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::perf)]

pub mod checkpoint;
pub mod config;
pub mod errors;
pub mod experiments;
pub mod harness;
pub mod machine;
pub mod par;
pub mod registry;
pub mod sampling;

#[cfg(test)]
mod run_pin;

pub use errors::{AuditError, ConfigError, HarnessError};
pub use harness::{run, run_strict, RunConfig, RunResult, RunStatus};
pub use machine::MachineConfig;
pub use registry::{Benchmark, Category, RegistryError};

// Re-exported so harness users can describe fault plans without naming
// cs-memsys directly.
pub use cs_memsys::FaultPlan;
