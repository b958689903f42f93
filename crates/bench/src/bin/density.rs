//! Regenerates the compute-density study (the paper's §6 conclusion,
//! quantified with the first-order area/power model).

use cloudsuite::experiments::density;
use cloudsuite::Benchmark;

fn main() -> std::process::ExitCode {
    cs_bench::per_workload_main(
        "density",
        &[Benchmark::web_search(), Benchmark::data_serving()],
        |bench, cfg| Ok(density::report(bench.name(), &density::collect(bench, cfg)?)),
    )
}
