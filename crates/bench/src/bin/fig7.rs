//! Regenerates Figure 7: off-chip memory bandwidth utilization.

fn main() -> std::process::ExitCode {
    cs_bench::experiment_main("fig7")
}
