//! Regenerates Figure 2: L1-I and L2 instruction miss rates.

fn main() -> std::process::ExitCode {
    cs_bench::experiment_main("fig2")
}
