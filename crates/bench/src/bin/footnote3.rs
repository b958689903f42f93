//! Regenerates the footnote-3 verification: user-IPC is proportional to
//! application throughput across machine configurations.

use cloudsuite::experiments::footnote3;
use cloudsuite::Benchmark;

fn main() -> std::process::ExitCode {
    cs_bench::per_workload_main("footnote3", &Benchmark::scale_out_suite(), |bench, cfg| {
        Ok(footnote3::report(&footnote3::collect(bench, cfg)?))
    })
}
