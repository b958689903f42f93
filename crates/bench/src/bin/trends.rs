//! Regenerates the "continuing the trends" study (§1/§6).

use cloudsuite::experiments::trends;
use cloudsuite::Benchmark;

fn main() -> std::process::ExitCode {
    cs_bench::per_workload_main(
        "trends",
        &[Benchmark::data_serving(), Benchmark::web_search()],
        |bench, cfg| Ok(trends::report(bench.name(), &trends::collect(bench, cfg)?)),
    )
}
