//! Regenerates Figure 4: performance sensitivity to LLC capacity
//! (cache-polluter methodology).

fn main() -> std::process::ExitCode {
    cs_bench::experiment_main("fig4")
}
