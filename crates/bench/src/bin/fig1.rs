//! Regenerates Figure 1: execution-time breakdown and memory cycles.

fn main() -> std::process::ExitCode {
    cs_bench::experiment_main("fig1")
}
