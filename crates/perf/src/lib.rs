//! Derived metrics and reports for CloudSuite-RS.
//!
//! The paper's entire methodology (§3.1) is built on hardware performance
//! counters read through VTune. The simulator's counters are typed structs
//! (`cs_uarch::CoreStats`, `cs_memsys::MemStats`); this crate turns them
//! into what the figures show:
//!
//! - [`metrics`] — the derived-metric formulas used throughout the figures
//!   (IPC, misses-per-kilo-instruction, hit ratios, utilization) plus
//!   running statistics and histograms;
//! - [`report`] — fixed-width table rendering and JSON export for the
//!   experiment binaries, so every figure can be regenerated as text rows
//!   or consumed by plotting tools.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::perf)]

pub mod metrics;
pub mod report;

pub use metrics::{mpki, percent, ratio, Histogram, RunningStat};
pub use report::{Report, Table};
