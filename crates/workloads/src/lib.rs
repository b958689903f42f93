//! Mini scale-out applications for CloudSuite-RS.
//!
//! The paper's six scale-out workloads (§3.2) run real server software
//! (Cassandra, Hadoop, Darwin Streaming Server, Klee, Nginx+PHP,
//! Nutch/Lucene). This crate implements a miniature of each application
//! class in Rust, executing the same algorithm shapes over data structures
//! laid out in the *simulated* address space:
//!
//! - [`data_serving`] — an in-memory key-value store with an
//!   open-addressing index, Zipfian YCSB-style clients and a 95:5
//!   read:write mix;
//! - [`mapreduce`] — a naive-Bayes classification map task scanning input
//!   splits and updating feature tables;
//! - [`media_streaming`] — a packetizer serving many concurrent clients,
//!   each at its own offset of a large pre-encoded media catalog;
//! - [`sat_solver`] — a real DPLL solver with watched literals on random
//!   3-SAT instances;
//! - [`web_frontend`] — a bytecode-interpreter web server with an opcode
//!   cache, session store and backend query stub;
//! - [`web_search`] — an inverted-index serving node intersecting posting
//!   lists and scoring hits.
//!
//! The data-access streams are genuine — every load and store address is
//! produced by the application's own data structures (hash probes, watch
//! lists, posting merges). The instruction stream is synthesized from a
//! calibrated instruction-footprint model ([`emit::EmitCtx`]), and
//! operating-system time is interleaved by
//! [`cs_trace::synth::OsInterleaver`] — both substitutions documented in
//! DESIGN.md. Each application's `model()` ([`emit::AppModel`]) is the one
//! place its code footprint, ILP structure, compute mix, per-thread data
//! regions and OS time are declared, and [`emit::build_source`] builds
//! every application's trace source from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::perf)]

pub mod data_serving;
pub mod emit;
pub mod heap;
pub mod mapreduce;
pub mod media_streaming;
pub mod sat_solver;
pub mod web_frontend;
pub mod web_search;
