//! Regenerates the `fleet_resilience` experiment: gray failures that
//! evade health checks, correlated fault-domain outages, and a metastable
//! retry storm — each crossed with the client-side mitigation stack
//! (retry budget, circuit breakers, AIMD concurrency limit) over
//! harness-measured service profiles.
//!
//! Window sizes, seed, and jobs come from the usual environment knobs
//! (`CS_WARMUP`, `CS_MEASURE`, `CS_SEED`, `CS_JOBS`, ...); restrict the
//! sweep with `CS_FLEET_SCENARIOS` (comma-separated keys: `baseline`,
//! `gray_fleet`, `rack_outage`, `metastable`); set `CS_PARANOID=1` to run
//! the fleet conservation auditor — retry-budget token books and breaker
//! transition ledger included — after every simulated point. Results are
//! byte-identical across reruns and `CS_JOBS` values.

fn main() -> std::process::ExitCode {
    cs_bench::experiment_main("fleet_resilience")
}
