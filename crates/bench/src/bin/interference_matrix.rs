//! Regenerates the N×N co-location interference matrix: per-tenant IPC
//! loss, LLC occupancy, and DRAM shares for every workload pairing under
//! no mitigation, LLC way-partitioning, and DRAM bandwidth throttling.
//!
//! `CS_MATRIX_WORKLOADS` (comma-separated roster keys) restricts the
//! matrix for smoke runs; see EXPERIMENTS.md.

fn main() -> std::process::ExitCode {
    cs_bench::experiment_main("interference_matrix")
}
