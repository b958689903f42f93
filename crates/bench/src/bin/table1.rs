//! Regenerates Table 1 (architectural parameters).

fn main() -> std::process::ExitCode {
    cs_bench::experiment_main("table1")
}
