//! Figure 4: performance sensitivity to LLC capacity.
//!
//! Reproduced with the paper's own methodology (§3.1): two dedicated cores
//! run cache-polluter threads whose arrays steal a chosen amount of LLC
//! capacity, and the workload's user-IPC at each effective capacity is
//! normalized to the unpolluted 12 MB baseline. Scale-out and traditional
//! server workloads flatten above 4–6 MB; an `mcf`-like working set keeps
//! paying for every megabyte.

use crate::errors::HarnessError;
use crate::harness::{run_strict, RunConfig};
use crate::registry::Benchmark;
use cs_perf::{Report, Table};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Normalized user-IPC of the three series at one effective capacity.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig4Row {
    /// Effective LLC capacity available to the workload, in MB.
    pub cache_mb: u64,
    /// Scale-out workload average, normalized to the 12 MB baseline.
    pub scale_out: f64,
    /// Traditional server (TPC-C/TPC-E/Web Backend) average, normalized.
    pub server: f64,
    /// SPECint mcf, normalized.
    pub mcf: f64,
}

/// The workload groups plotted in the figure.
pub fn groups() -> (Vec<Benchmark>, Vec<Benchmark>, Benchmark) {
    let scale_out = Benchmark::scale_out_suite();
    let server: Vec<Benchmark> = Benchmark::traditional_suite()
        .into_iter()
        .filter(|b| ["TPC-C", "TPC-E", "Web Backend"].contains(&b.name()))
        .collect();
    (scale_out, server, Benchmark::mcf())
}

/// The mean of `ipcs`, summed in order (as the serial sweep summed them).
fn mean(ipcs: &[f64]) -> f64 {
    ipcs.iter().fold(0.0, |sum, ipc| sum + ipc) / ipcs.len() as f64
}

/// Raw (unnormalized) group IPCs measured at one LLC configuration.
struct CapacityPoint {
    scale_out: f64,
    server: f64,
    mcf: f64,
}

/// Sweeps effective LLC capacities `4..=11` MB (plus the 12 MB baseline)
/// and returns normalized user-IPC per group.
///
/// Each run — one benchmark at one capacity point, the unpolluted
/// baseline included — is one independent unit, fanned over
/// [`RunConfig::jobs`] lanes ([`crate::par::par_map`]). Units this short
/// let a lane that frees up late join the sweep at the next run rather
/// than the next capacity point. Raw group IPCs are averaged per point
/// and normalized to the baseline afterwards, so the summation and
/// division order (and every result byte) matches the serial sweep.
pub fn collect(cfg: &RunConfig) -> Result<Vec<Fig4Row>, HarnessError> {
    let (scale_out, server, mcf) = groups();
    // The polluters walk their arrays at LLC speed; every run — including
    // the unpolluted baseline, for comparability — gets the same extended
    // warmup so the polluters claim their capacity before measurement.
    let warmup = cfg.warmup_instr.max(3_000_000);
    // Unit 0 is the 12 MB baseline; units 1.. are the polluted capacities.
    let configs: Vec<(u64, RunConfig)> = std::iter::once((12u64, None))
        .chain((4..=11u64).map(|mb| (mb, Some((12 - mb) << 20))))
        .map(|(mb, polluter_bytes)| {
            (mb, RunConfig { polluter_bytes, warmup_instr: warmup, ..cfg.clone() })
        })
        .collect();
    // Per point: the scale-out group, then the server group, then mcf.
    let per_point: Vec<&Benchmark> =
        scale_out.iter().chain(&server).chain(std::iter::once(&mcf)).collect();
    let units: Vec<(&RunConfig, &Benchmark)> =
        configs.iter().flat_map(|(_, c)| per_point.iter().map(move |&b| (c, b))).collect();
    // Once a run has failed, later runs are skipped (`None`): the sweep
    // reports the lowest-indexed failure, which always runs, as the
    // serial sweep did.
    let failed = AtomicUsize::new(usize::MAX);
    let ipcs = crate::par::par_map(cfg.jobs, &units, |i, &(point_cfg, b)| {
        if failed.load(Ordering::Relaxed) < i {
            return None;
        }
        let ipc = run_strict(b, point_cfg).map(|r| r.app_ipc());
        if ipc.is_err() {
            failed.fetch_min(i, Ordering::Relaxed);
        }
        Some(ipc)
    })
    .into_iter()
    .map_while(|ipc| ipc)
    .collect::<Result<Vec<f64>, HarnessError>>()?;
    let points: Vec<CapacityPoint> = ipcs
        .chunks(per_point.len())
        .map(|point| {
            let (so, rest) = point.split_at(scale_out.len());
            let (srv, mcf) = rest.split_at(server.len());
            CapacityPoint { scale_out: mean(so), server: mean(srv), mcf: mcf[0] }
        })
        .collect();

    let base = &points[0];
    Ok(points[1..]
        .iter()
        .zip(configs[1..].iter())
        .map(|(p, (mb, _))| Fig4Row {
            cache_mb: *mb,
            scale_out: p.scale_out / base.scale_out,
            server: p.server / base.server,
            mcf: p.mcf / base.mcf,
        })
        .collect())
}

/// Renders the sweep as the Figure 4 table.
pub fn report(rows: &[Fig4Row]) -> Report {
    let mut t = Table::new(
        "User-IPC normalized to the 12 MB baseline",
        &["cache (MB)", "Scale-out", "Server", "SPECint (mcf)"],
    );
    for r in rows {
        t.row([r.cache_mb.into(), r.scale_out.into(), r.server.into(), r.mcf.into()]);
    }
    let mut rep = Report::new("Figure 4: Performance sensitivity to LLC capacity");
    rep.note("Capacity reduced with cache-polluter threads on two dedicated cores (§3.1).");
    rep.push(t);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_have_expected_members() {
        let (so, srv, mcf) = groups();
        assert_eq!(so.len(), 6);
        assert_eq!(srv.len(), 3);
        assert_eq!(mcf.name(), "SPECint (mcf)");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
    fn polluters_cost_mcf_more_than_scale_out() {
        let cfg = RunConfig {
            warmup_instr: 800_000,
            measure_instr: 1_200_000,
            ..RunConfig::default()
        };
        let polluted = RunConfig {
            polluter_bytes: Some(8 << 20),
            warmup_instr: 3_000_000,
            ..cfg.clone()
        };
        let so = Benchmark::web_search();
        let so_drop = run_strict(&so, &polluted).expect("run").app_ipc()
            / run_strict(&so, &cfg).expect("run").app_ipc();
        let mcf = Benchmark::mcf();
        let mcf_drop = run_strict(&mcf, &polluted).expect("run").app_ipc()
            / run_strict(&mcf, &cfg).expect("run").app_ipc();
        assert!(
            mcf_drop < so_drop,
            "mcf must lose more at 4MB: mcf {mcf_drop:.2} vs scale-out {so_drop:.2}"
        );
        assert!(so_drop > 0.7, "scale-out should be mostly insensitive, got {so_drop:.2}");
    }
}
