//! Micro-op trace substrate for the CloudSuite-RS simulator.
//!
//! This crate is the lowest layer of the reproduction of *Clearing the
//! Clouds: A Study of Emerging Scale-out Workloads on Modern Hardware*
//! (Ferdman et al., ASPLOS 2012). It defines:
//!
//! - the [`MicroOp`] model that every workload produces and that the core
//!   model in `cs-uarch` consumes ([`op`]);
//! - the pull-based [`TraceSource`] abstraction connecting workloads to
//!   cores, and the generator pool that synthesizes a stream ahead of
//!   its core ([`source`]);
//! - deterministic random samplers used throughout the suite, notably the
//!   rejection-inversion Zipf sampler ([`zipf`]) that drives both
//!   instruction-footprint reuse and the YCSB-style data popularity
//!   distributions ([`rng`]);
//! - the instruction-footprint model ([`ifoot`]) that synthesizes
//!   instruction-fetch streams over multi-megabyte code working sets, the
//!   defining frontend property of scale-out workloads (paper §4.1);
//! - data-access pattern generators ([`datagen`]): Zipfian object access,
//!   sequential streaming, dependent pointer chasing, hot stack regions and
//!   shared read-write pools;
//! - the simulated virtual address-space layout ([`layout`]);
//! - statistical workload profiles ([`profile`]) for the traditional
//!   comparison benchmarks (SPECint, PARSEC, SPECweb09, TPC-C, TPC-E, Web
//!   Backend) of the paper's §3.3 only — the six scale-out workloads are
//!   the mini applications of `cs-workloads`, which borrow just the
//!   [`profile::IlpModel`] and [`profile::OsProfile`] types from here;
//! - the synthetic trace source ([`synth`]) that combines all of the above,
//!   plus the operating-system overlay that interleaves kernel-mode
//!   execution bursts into any application-level source;
//! - the byte-stable binary snapshot codec ([`snap`]) that the
//!   checkpoint/restore subsystem serializes all simulator state through;
//! - trace capture and binary replay ([`capture`]), the suite's analogue
//!   of the paper's re-used SAT Solver input traces (§3.1).
//!
//! # Example
//!
//! ```
//! use cs_trace::profile::WorkloadProfile;
//! use cs_trace::source::TraceSource;
//!
//! // Build the SPECint (cpu-bound group) synthetic workload and pull the
//! // first million micro-ops from the stream of hardware thread 0.
//! let profile = WorkloadProfile::specint_cpu();
//! let mut src = profile.build_source(/*thread=*/ 0, /*seed=*/ 42);
//! let mut loads = 0u64;
//! for _ in 0..1_000_000 {
//!     let op = src.next_op().expect("synthetic sources are endless");
//!     if op.is_load() {
//!         loads += 1;
//!     }
//! }
//! assert!(loads > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::perf)]

pub mod capture;
pub mod datagen;
pub mod ifoot;
pub mod layout;
pub mod op;
pub mod profile;
pub mod rng;
pub mod snap;
pub mod source;
pub mod synth;
pub mod zipf;

pub use op::{MemRef, MicroOp, OpKind, Privilege};
pub use profile::WorkloadProfile;
pub use source::TraceSource;
