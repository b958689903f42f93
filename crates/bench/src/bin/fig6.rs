//! Regenerates Figure 6: read-write sharing (threads split across sockets).

fn main() -> std::process::ExitCode {
    cs_bench::experiment_main("fig6")
}
