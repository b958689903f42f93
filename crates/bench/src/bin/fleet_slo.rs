//! Regenerates the `fleet_slo` experiment: harness-measured service times
//! driving the `cs-fleet` cluster simulator across fleet sizes and fault
//! intensities, reporting p50/p99/p999 latency, goodput, SLO attainment,
//! and the retry/hedge/shed/failure counters.
//!
//! Window sizes, seed, and jobs come from the usual environment knobs
//! (`CS_WARMUP`, `CS_MEASURE`, `CS_SEED`, `CS_JOBS`, ...); set
//! `CS_PARANOID=1` to run the fleet conservation auditor after every
//! simulated point. Results are byte-identical across reruns and `CS_JOBS`
//! values.

fn main() -> std::process::ExitCode {
    cs_bench::experiment_main("fleet_slo")
}
