//! Regenerates Figure 3: IPC and MLP, baseline vs SMT.

fn main() -> std::process::ExitCode {
    cs_bench::experiment_main("fig3")
}
