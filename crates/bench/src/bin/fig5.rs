//! Regenerates Figure 5: L2 hit ratios vs prefetcher configuration.

fn main() -> std::process::ExitCode {
    cs_bench::experiment_main("fig5")
}
