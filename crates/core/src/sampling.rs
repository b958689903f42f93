//! The SMARTS sampling machine: window state, the statistics accumulator,
//! and their checkpoint codecs.
//!
//! A sampled run ([`Phase::Sample`]) interleaves functional fast-forward
//! spans with detailed `Warm→Measure` windows on one chip. Each completed
//! measurement window is harvested straight off the live chip into the
//! running [`SampleAcc`], so the windows fold in index order by
//! construction and a checkpoint taken anywhere in the schedule carries
//! everything a resumed run needs.

use crate::harness::{RunConfig, WindowSample};
use cs_memsys::stats::CoreMemStats;
use cs_trace::snap::{Codec, Dec, Enc, Merge, SnapError};
use cs_uarch::{Chip, CoreStats, WatchedWindow, WindowOutcome};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which leg of one sampling window is in flight.
pub(crate) enum SampleSub {
    /// Functional fast-forward: the cores retire at fidelity
    /// [`cs_uarch::Fidelity::Functional`] while the memory hierarchy and
    /// branch predictor keep warming.
    Forward {
        /// Cursor of the in-flight fast-forward span.
        window: WatchedWindow,
    },
    /// Detailed re-warm: full out-of-order modeling, statistics discarded.
    Warm {
        /// Cursor of the in-flight re-warm span.
        window: WatchedWindow,
    },
    /// Detailed measurement: statistics were reset at entry and are
    /// harvested into the accumulator at completion.
    Measure {
        /// Cursor of the in-flight measurement window.
        window: WatchedWindow,
        /// Request-meter total at window entry.
        requests_at_start: u64,
    },
}

cs_trace::snap_struct! {
    merge;
    /// The statistics a run result reports: pipeline and memory counters of
    /// the worker cores, memory counters of the polluter cores, and the DRAM
    /// totals. An unsampled run reads one group off the chip at the end; a
    /// sampled run folds one group per measurement window.
    #[derive(Default)]
    pub(crate) struct StatsGroup {
        /// Worker-core pipeline statistics.
        pub(crate) cores: Vec<CoreStats>,
        /// Worker-core memory statistics.
        pub(crate) mem: Vec<CoreMemStats>,
        /// Polluter-core memory statistics.
        pub(crate) polluter_mem: Vec<CoreMemStats>,
        /// DRAM totals.
        pub(crate) dram: cs_memsys::dram::DramStats,
    }
}

impl StatsGroup {
    /// The group as `chip` counts it now, i.e. since its last stats reset.
    pub(crate) fn read(chip: &Chip, worker_cores: &[usize], polluter_cores: &[usize]) -> Self {
        let per_core = &chip.mem().stats().per_core;
        Self {
            cores: worker_cores.iter().map(|&c| chip.cores()[c].stats().clone()).collect(),
            mem: worker_cores.iter().map(|&c| per_core[c].clone()).collect(),
            polluter_mem: polluter_cores.iter().map(|&c| per_core[c].clone()).collect(),
            dram: chip.mem().dram_stats(),
        }
    }
}

cs_trace::snap_struct! {
    /// Running aggregate of a sampled run, carried (and checkpointed) across
    /// windows: merged worker/polluter statistics over the measurement windows
    /// completed so far, the per-window samples, and the main-warmup outcome
    /// needed for the final status.
    pub(crate) struct SampleAcc {
        /// Outcome of the completed main warmup window.
        pub(crate) warmup: WindowOutcome,
        /// Request-meter total at statistics reset after main warmup.
        pub(crate) requests_at_warmup: u64,
        /// A fast-forward or re-warm span hit the cycle cap.
        pub(crate) forward_truncated: bool,
        /// A measurement window hit the cycle cap.
        pub(crate) measure_truncated: bool,
        /// Statistics merged over completed windows (no cores until the first
        /// window completes).
        pub(crate) stats: StatsGroup,
        /// One entry per completed measurement window.
        pub(crate) samples: Vec<WindowSample>,
    }
}

impl SampleAcc {
    pub(crate) fn new(warmup: WindowOutcome, requests_at_warmup: u64) -> Self {
        Self {
            warmup,
            requests_at_warmup,
            forward_truncated: false,
            measure_truncated: false,
            stats: StatsGroup::default(),
            samples: Vec::new(),
        }
    }

    /// Folds one completed measurement window's statistics off `chip`,
    /// whose stats were reset at window entry, so everything read here is
    /// a window delta.
    pub(crate) fn harvest(
        &mut self,
        chip: &Chip,
        worker_cores: &[usize],
        polluter_cores: &[usize],
        out: &WindowOutcome,
        window_requests: u64,
    ) {
        let window = StatsGroup::read(chip, worker_cores, polluter_cores);
        let sum = |f: &dyn Fn(&CoreStats) -> u64| window.cores.iter().map(f).sum::<u64>();
        self.samples.push(WindowSample {
            cycles: out.cycles,
            instructions: out.committed,
            committing: [sum(&|c| c.committing_cycles[0]), sum(&|c| c.committing_cycles[1])],
            stalled: [sum(&|c| c.stalled_cycles[0]), sum(&|c| c.stalled_cycles[1])],
            memory_cycles: sum(&|c| c.memory_cycles),
            requests: window_requests,
        });
        if self.stats.cores.is_empty() {
            self.stats = window;
        } else {
            self.stats.merge_from(&window);
        }
    }
}

/// Resumable execution position of the harness's §3.1 pipeline.
///
/// A checkpoint is this phase marker plus the full chip snapshot; restoring
/// re-enters the phase loop exactly where the interrupted process left it.
/// The phase records which threads exist (workers are only attached when
/// leaving `PreWarm`), so the restore path can rebuild the chip's thread
/// population before handing the snapshot to `Chip::restore_snap`.
pub(crate) enum Phase {
    /// Polluters (if any) are warming the LLC alone; workers do not exist
    /// yet. `cycles_done` counts pre-warm cycles already simulated.
    PreWarm {
        /// Pre-warm cycles already simulated.
        cycles_done: u64,
    },
    /// The warmup window is in flight.
    Warmup {
        /// Cursor of the in-flight warmup window.
        window: WatchedWindow,
    },
    /// The measurement window is in flight; the warmup outcome and the
    /// request-meter baseline are carried so the final result can be
    /// assembled without re-running warmup.
    Measure {
        /// Cursor of the in-flight measurement window.
        window: WatchedWindow,
        /// Outcome of the completed warmup window.
        warmup: WindowOutcome,
        /// Request-meter total at statistics reset, the throughput baseline.
        requests_at_warmup: u64,
    },
    /// SMARTS sampling is in flight: window `k` of
    /// [`RunConfig::sample_windows`] is in sub-phase `sub`, with the
    /// merged statistics of completed windows in `acc`. The fidelity each
    /// core is running at is part of the chip snapshot, so a restore
    /// mid-`Forward` resumes functional and mid-`Warm`/`Measure` resumes
    /// detailed without any re-switching here.
    Sample {
        /// Zero-based index of the in-flight window.
        k: usize,
        /// Which leg of the window is running.
        sub: SampleSub,
        /// Aggregate over completed windows.
        acc: Box<SampleAcc>,
    },
}

impl Phase {
    /// The in-flight window and the label a stall inside it reports;
    /// `None` during pre-warm, which steps plain cycles.
    pub(crate) fn window_mut(&mut self) -> Option<(&mut WatchedWindow, &'static str)> {
        match self {
            Phase::PreWarm { .. } => None,
            Phase::Warmup { window } => Some((window, "warmup")),
            Phase::Measure { window, .. } => Some((window, "measure")),
            Phase::Sample { sub: SampleSub::Forward { window }, .. } => {
                Some((window, "sample-forward"))
            }
            Phase::Sample { sub: SampleSub::Warm { window }, .. } => {
                Some((window, "sample-warmup"))
            }
            Phase::Sample { sub: SampleSub::Measure { window, .. }, .. } => {
                Some((window, "sample-measure"))
            }
        }
    }

    pub(crate) fn encode_snap(&self, e: &mut Enc) {
        match self {
            Phase::PreWarm { cycles_done } => {
                e.u8(0);
                e.u64(*cycles_done);
            }
            Phase::Warmup { window } => {
                e.u8(1);
                window.encode_snap(e);
            }
            Phase::Measure { window, warmup, requests_at_warmup } => {
                e.u8(2);
                window.encode_snap(e);
                warmup.encode_snap(e);
                e.u64(*requests_at_warmup);
            }
            Phase::Sample { k, sub, acc } => {
                e.u8(3);
                e.len(*k);
                match sub {
                    SampleSub::Forward { window } => {
                        e.u8(0);
                        window.encode_snap(e);
                    }
                    SampleSub::Warm { window } => {
                        e.u8(1);
                        window.encode_snap(e);
                    }
                    SampleSub::Measure { window, requests_at_start } => {
                        e.u8(2);
                        window.encode_snap(e);
                        e.u64(*requests_at_start);
                    }
                }
                acc.encode_snap(e);
            }
        }
    }

    pub(crate) fn decode_snap(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        match d.u8()? {
            0 => Ok(Phase::PreWarm { cycles_done: d.u64()? }),
            1 => Ok(Phase::Warmup { window: WatchedWindow::decode_snap(d)? }),
            2 => {
                let window = WatchedWindow::decode_snap(d)?;
                let warmup = WindowOutcome::decode_snap(d)?;
                Ok(Phase::Measure { window, warmup, requests_at_warmup: d.u64()? })
            }
            3 => {
                let k = d.len()?;
                let sub = match d.u8()? {
                    0 => SampleSub::Forward { window: WatchedWindow::decode_snap(d)? },
                    1 => SampleSub::Warm { window: WatchedWindow::decode_snap(d)? },
                    2 => SampleSub::Measure {
                        window: WatchedWindow::decode_snap(d)?,
                        requests_at_start: d.u64()?,
                    },
                    t => return Err(SnapError::BadTag(t)),
                };
                let acc = Box::new(SampleAcc::decode_snap(d)?);
                Ok(Phase::Sample { k, sub, acc })
            }
            t => Err(SnapError::BadTag(t)),
        }
    }
}

/// Instruction target of sampling window `k`: the measurement budget is
/// split evenly, with the remainder folded into the last window so the
/// targets always sum to exactly `measure_instr`.
pub(crate) fn window_target(cfg: &RunConfig, k: usize) -> u64 {
    let n = cfg.sample_windows as u64;
    let base = cfg.measure_instr / n;
    if k as u64 + 1 == n {
        cfg.measure_instr - base * (n - 1)
    } else {
        base
    }
}

/// Sums the request meters.
pub(crate) fn meter_total(meters: &[Arc<AtomicU64>]) -> u64 {
    meters.iter().map(|m| m.load(Ordering::Relaxed)).sum()
}

/// Per-unit wall-clock telemetry of a sampled run: where the time went,
/// split into functional fast-forward, detailed re-warm and detailed
/// measurement. The harness hands each finished unit's record to the
/// installed [`crate::checkpoint::CheckpointCtl`], and the campaign layer
/// writes the records next to its checkpoints — deliberately *outside* the
/// results tree, which must stay byte-identical across `jobs` values and
/// re-runs. Purely diagnostic: nothing here feeds back into simulated
/// state or emitted results.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PhaseTelemetry {
    /// The experiment the unit ran in (the checkpoint control's scope).
    pub experiment: String,
    /// The unit's checkpoint key ([`crate::checkpoint::unit_key`]).
    pub key: u64,
    /// The run's unit name (the `+`-joined benchmark names).
    pub unit: String,
    /// Measurement windows the run completed.
    pub windows: usize,
    /// Seconds spent fast-forwarding functionally.
    pub forward_secs: f64,
    /// Seconds spent in detailed re-warm spans.
    pub warm_secs: f64,
    /// Seconds spent in detailed measurement windows.
    pub measure_secs: f64,
}

impl PhaseTelemetry {
    /// Charges `secs` of host time spent stepping `phase` to its timer;
    /// time outside the sampling phase is not split.
    pub(crate) fn charge(&mut self, phase: &Phase, secs: f64) {
        if let Phase::Sample { sub, .. } = phase {
            *match sub {
                SampleSub::Forward { .. } => &mut self.forward_secs,
                SampleSub::Warm { .. } => &mut self.warm_secs,
                SampleSub::Measure { .. } => &mut self.measure_secs,
            } += secs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_targets_sum_to_the_measurement_budget() {
        let cfg = RunConfig {
            sample_windows: 7,
            sample_period: 1_000,
            measure_instr: 100_003,
            ..RunConfig::default()
        };
        let total: u64 = (0..7).map(|k| window_target(&cfg, k)).sum();
        assert_eq!(total, 100_003);
        assert!(window_target(&cfg, 6) >= window_target(&cfg, 0));
    }

    #[test]
    fn retired_phase_tag_4_is_rejected() {
        // Tag 4 was the overlapped window-parallel phase; snapshots that
        // carry it belong to an older envelope version and must not decode.
        let mut d = Dec::new(&[4u8]);
        assert!(matches!(Phase::decode_snap(&mut d), Err(SnapError::BadTag(4))));
    }
}
