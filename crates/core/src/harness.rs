//! The measurement harness: the paper's §3.1 methodology, made
//! fault-tolerant.
//!
//! A [`RunConfig`] describes one experiment: which machine variant to
//! build, how many worker threads to pin where, whether cache-polluter
//! threads steal LLC capacity (Figure 4), whether workers are split across
//! sockets (Figure 6), and how long the warmup and measurement windows
//! are. [`run`] executes the experiment — warmup, statistics reset at
//! steady state (the simulator's analogue of starting the 180-second
//! VTune window after ramp-up), measurement — and returns a [`RunResult`]
//! with every derived metric the figures need.
//!
//! # Error surface
//!
//! Nothing in this module panics on bad input. Structural mistakes are
//! caught by [`RunConfig::validate`] before a single cycle is simulated
//! and reported as a typed [`ConfigError`]; [`run`] calls it for you and
//! returns `Err(HarnessError::Config(..))`. At simulation time two
//! further failure modes are surfaced:
//!
//! - **Stalls.** A forward-progress watchdog (grace period:
//!   [`RunConfig::watchdog_grace`] cycles, `0` disables) observes each
//!   measured core's committed-instruction count. A core with an attached,
//!   unfinished workload that commits nothing for a full grace period
//!   aborts the run with [`HarnessError::Stalled`] instead of burning the
//!   rest of the `max_cycles` budget on a livelock.
//! - **Truncation.** A window that hits the `max_cycles` safety cap before
//!   reaching its instruction target is *not* an error — the metrics are
//!   still internally consistent over the shorter window — but it is never
//!   silent either: the returned [`RunResult::status`] is
//!   [`RunStatus::Truncated`] with the committed/target counts (the
//!   measurement window takes precedence over warmup if both fall short).
//!   Callers that need a complete window as a hard invariant (figure
//!   campaigns) use [`run_strict`], which converts a truncated status into
//!   [`HarnessError::Truncated`] so the campaign layer can retry with a
//!   widened cycle budget.
//!
//! Deterministic fault injection for exercising these paths lives in
//! [`RunConfig::fault`]: a seeded [`FaultPlan`] perturbs DRAM latency or
//! drops prefetch issues at configurable rates, reproducibly.

use crate::checkpoint::{self, CheckpointCtl};
use crate::errors::{AuditError, ConfigError, HarnessError};
use crate::machine::{MachineConfig, MACHINE_CORES};
use crate::registry::Benchmark;
use crate::sampling::{self, meter_total, Phase, PhaseTelemetry, SampleAcc, SampleSub, StatsGroup};
use cs_memsys::stats::CoreMemStats;
use cs_memsys::{AccessClass, FaultPlan, PrefetchConfig};
use cs_trace::snap::{Dec, Enc, SnapError};
use cs_trace::WorkloadProfile;
use cs_uarch::{Chip, CoreConfig, CoreStats, Fidelity, WatchedWindow, WindowOutcome};
use serde::Serialize;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Cores per socket of the modeled machine.
const MACHINE_CPS: usize = 6;

/// Fraction-of-cycles execution breakdown (Figure 1 bar).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Breakdown {
    /// Committing cycles attributed to the application.
    pub committing_app: f64,
    /// Committing cycles attributed to the OS.
    pub committing_os: f64,
    /// Stalled cycles attributed to the application.
    pub stalled_app: f64,
    /// Stalled cycles attributed to the OS.
    pub stalled_os: f64,
    /// The overlapped memory-cycles bar.
    pub memory: f64,
}

/// Experiment description.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunConfig {
    /// Worker threads running the workload (the paper limits workloads to
    /// four cores).
    pub workers: usize,
    /// Enable SMT: two workload threads per core (Figure 3).
    pub smt: bool,
    /// Place workers alternately on the two sockets (the Figure 6
    /// read-write sharing methodology).
    pub split_sockets: bool,
    /// Dedicate two cores to cache-polluter threads walking arrays of this
    /// total size (the Figure 4 methodology; §3.1).
    pub polluter_bytes: Option<u64>,
    /// Override the LLC capacity directly.
    pub llc_bytes: Option<u64>,
    /// Override the prefetcher configuration (Figure 5).
    pub prefetch: Option<PrefetchConfig>,
    /// Override the core configuration (§4.2 ablations).
    pub core: Option<CoreConfig>,
    /// Override the L1 instruction cache capacity (the §4.1 frontend
    /// opportunity study).
    pub l1i_bytes: Option<u64>,
    /// Override the private L2 capacity (the §4.3 two-level-hierarchy
    /// ablation).
    pub l2_bytes: Option<u64>,
    /// Override the number of DRAM channels (the §4.4 bandwidth
    /// scale-back ablation).
    pub dram_channels: Option<usize>,
    /// Override the LLC hit latency and the remote-snoop extra latency,
    /// `(llc, snoop_extra)` — a proxy for a narrower, slower on-chip
    /// interconnect (the §4.4 interconnect scale-back ablation).
    pub interconnect_latency: Option<(u32, u32)>,
    /// Warmup instructions (total across workers) before statistics reset.
    pub warmup_instr: u64,
    /// Measured instructions (total across workers).
    pub measure_instr: u64,
    /// Safety cap on simulated cycles per window.
    pub max_cycles: u64,
    /// Base random seed.
    pub seed: u64,
    /// Forward-progress watchdog grace period in cycles: a measured core
    /// that commits nothing for this long aborts the run with
    /// [`HarnessError::Stalled`]. `0` disables the watchdog.
    pub watchdog_grace: u64,
    /// Lanes the campaign and sweep layers may fan independent runs over
    /// ([`crate::par::par_map`]). The outermost fan-out owns a budget of
    /// `jobs` lanes and nested fan-outs draw from it, so at most `jobs`
    /// runs work at once at any nesting depth. `1` (the default) runs
    /// everything serially on the calling thread. This knob never touches
    /// a single simulated run — every run is seeded and single-threaded —
    /// so results are byte-identical at any value, and it is deliberately
    /// excluded from the campaign resume fingerprint.
    pub jobs: usize,
    /// Optional deterministic fault-injection plan (tests and robustness
    /// studies; `None` for every real measurement).
    pub fault: Option<FaultPlan>,
    /// Event-driven cycle skipping: jump the simulator over certified-dead
    /// stall spans instead of ticking them (default on). Results are
    /// byte-identical either way — the switch (`--no-skip` /
    /// `CS_NO_SKIP=1`) exists so any suspected divergence is bisectable
    /// with one flag flip. Like `jobs`, it never changes what is
    /// simulated, so it is excluded from the campaign resume fingerprint.
    pub cycle_skip: bool,
    /// SMARTS-style statistical sampling: number of detailed measurement
    /// windows. `0` (the default) disables sampling entirely — the
    /// measurement window runs in full detail exactly as before, and the
    /// simulated bytes are untouched by this PR. With `K > 0`, the
    /// measurement budget `measure_instr` is split over `K` short detailed
    /// windows separated by functional fast-forward spans that keep the
    /// caches, TLBs, prefetcher tables and branch predictor warming
    /// ([`cs_uarch::Fidelity::Functional`]).
    pub sample_windows: usize,
    /// Instructions (total across workers) fast-forwarded functionally
    /// before each measurement window. Must be nonzero when
    /// `sample_windows > 0`.
    pub sample_period: u64,
    /// Detailed-mode warmup instructions re-warming the ROB/LSQ and other
    /// un-warmed pipeline state after each functional span, excluded from
    /// measurement (the SMARTS "detailed warming" knob). `0` drops
    /// straight from functional into measurement.
    pub sample_warmup_instr: u64,
    /// Way-partition the shared LLC between co-located tenants (the CAT
    /// mitigation of the interference study): tenant `t` may only
    /// *allocate* lines in the ways of `llc_way_masks[t]`. Hits are served
    /// from any way, so partitioning changes victim choice, never
    /// correctness. `None` (the default) leaves allocation unrestricted; a
    /// tenant beyond the list is likewise unrestricted.
    pub llc_way_masks: Option<Vec<u64>>,
    /// Throttle each tenant's DRAM bandwidth to `dram_budgets[t]` bytes
    /// per [`RunConfig::dram_budget_window`] cycles (the token-bucket
    /// mitigation of the interference study). Over-budget demand misses
    /// are deferred to the next window boundary — the delay folds into
    /// the miss latency, so cycle skipping stays sound. `None` disables
    /// throttling; a tenant beyond the list is unthrottled.
    pub dram_budgets: Option<Vec<u64>>,
    /// Cycle length of one bandwidth-accounting window (only meaningful
    /// with `dram_budgets` set).
    pub dram_budget_window: u64,
    /// Restrict the interference-matrix experiment to these roster keys
    /// (e.g. `["web_search", "polluter"]`), for smoke runs and CI. `None`
    /// runs the full roster. Ignored by every other experiment.
    pub matrix_workloads: Option<Vec<String>>,
    /// Restrict the fleet-resilience experiment to these scenario keys
    /// (e.g. `["metastable"]`), for smoke runs and CI. `None` runs every
    /// scenario. Ignored by every other experiment.
    pub fleet_scenarios: Option<Vec<String>>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            smt: false,
            split_sockets: false,
            polluter_bytes: None,
            llc_bytes: None,
            prefetch: None,
            core: None,
            l1i_bytes: None,
            l2_bytes: None,
            dram_channels: None,
            interconnect_latency: None,
            warmup_instr: 1_600_000,
            measure_instr: 3_200_000,
            max_cycles: 60_000_000,
            seed: 42,
            watchdog_grace: 1_500_000,
            jobs: 1,
            fault: None,
            cycle_skip: true,
            sample_windows: 0,
            sample_period: 0,
            sample_warmup_instr: 0,
            llc_way_masks: None,
            dram_budgets: None,
            dram_budget_window: cs_memsys::QosConfig::default_window(),
            matrix_workloads: None,
            fleet_scenarios: None,
        }
    }
}

impl RunConfig {
    /// A faster configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Self { warmup_instr: 400_000, measure_instr: 800_000, ..Self::default() }
    }

    /// Chooses the global core ids the workers run on.
    pub fn worker_cores(&self, cores_per_socket: usize) -> Vec<usize> {
        if self.split_sockets {
            // Alternate sockets: 0, 6, 1, 7, ... for cps = 6.
            (0..self.workers).map(|i| (i % 2) * cores_per_socket + i / 2).collect()
        } else {
            (0..self.workers).collect()
        }
    }

    /// Global core ids of the polluter cores, if enabled.
    pub fn polluter_cores(&self, cores_per_socket: usize) -> Vec<usize> {
        if self.polluter_bytes.is_none() {
            return Vec::new();
        }
        // Two dedicated cores on socket 0, after the workers (§3.1).
        let base = if self.split_sockets { self.workers.div_ceil(2) } else { self.workers };
        vec![base.min(cores_per_socket - 2), (base + 1).min(cores_per_socket - 1)]
    }

    /// Checks the configuration against the modeled machine's geometry
    /// (two sockets of six cores; Table 1 cache associativities) before
    /// any simulation work.
    ///
    /// Rejected configurations: zero workers, thread placements that fall
    /// off the chip or land workers and polluters on the same core, zero
    /// DRAM channels, cache-capacity overrides that do not fit the level's
    /// geometry, degenerate windows (`measure_instr == 0` or
    /// `max_cycles == 0`), and sampling that could never run
    /// (`sample_windows > 0` with a zero `sample_period`, or more windows
    /// than measured instructions).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::NoWorkers);
        }
        if self.measure_instr == 0 {
            return Err(ConfigError::ZeroWindow { which: "measure_instr" });
        }
        if self.max_cycles == 0 {
            return Err(ConfigError::ZeroWindow { which: "max_cycles" });
        }
        if self.jobs == 0 {
            return Err(ConfigError::ZeroJobs);
        }
        if self.sample_windows > 0 {
            if self.sample_period == 0 {
                return Err(ConfigError::ZeroWindow { which: "sample_period" });
            }
            if (self.sample_windows as u64) > self.measure_instr {
                return Err(ConfigError::SampleWindowsExceedMeasure {
                    windows: self.sample_windows,
                    measure_instr: self.measure_instr,
                });
            }
        }
        if self.dram_channels == Some(0) {
            return Err(ConfigError::ZeroDramChannels);
        }
        if let Some(masks) = &self.llc_way_masks {
            let assoc = cs_memsys::CacheConfig::llc().assoc;
            let legal = (1u64 << assoc) - 1;
            for (tenant, &mask) in masks.iter().enumerate() {
                if mask == 0 || mask & !legal != 0 {
                    return Err(ConfigError::InvalidWayMask { tenant, mask, assoc });
                }
            }
        }
        if let Some(budgets) = &self.dram_budgets {
            if self.dram_budget_window == 0 {
                return Err(ConfigError::ZeroWindow { which: "dram_budget_window" });
            }
            for (tenant, &bytes) in budgets.iter().enumerate() {
                if bytes < 64 {
                    return Err(ConfigError::BudgetBelowLineSize { tenant, bytes });
                }
            }
        }
        if let Some(wanted) = &self.matrix_workloads {
            // Catch a roster typo at campaign startup, not after every
            // earlier experiment has already run.
            for name in wanted {
                let known = crate::experiments::interference_matrix::ROSTER_KEYS
                    .contains(&name.as_str());
                if !known {
                    return Err(ConfigError::UnknownMatrixWorkload { name: name.clone() });
                }
            }
        }
        if let Some(wanted) = &self.fleet_scenarios {
            for name in wanted {
                if crate::experiments::fleet_resilience::Scenario::from_key(name).is_none() {
                    return Err(ConfigError::UnknownFleetScenario { name: name.clone() });
                }
            }
        }
        // Capacity overrides must respect the level's fixed geometry: a
        // whole number of sets, i.e. a positive multiple of assoc * 64
        // (Table 1: 16-way LLC, 8-way L1-I and L2). Non-power-of-two
        // capacities are fine — the modulo-indexed 12 MB LLC is one.
        let checks = [
            ("llc_bytes", self.llc_bytes, cs_memsys::CacheConfig::llc().assoc),
            ("l1i_bytes", self.l1i_bytes, cs_memsys::CacheConfig::l1().assoc),
            ("l2_bytes", self.l2_bytes, cs_memsys::CacheConfig::l2().assoc),
        ];
        for (which, bytes, assoc) in checks {
            if let Some(bytes) = bytes {
                let lines = bytes / 64;
                if bytes == 0 || bytes % 64 != 0 || lines % assoc as u64 != 0 {
                    return Err(ConfigError::InvalidCacheSize { which, bytes });
                }
            }
        }
        let workers = self.worker_cores(MACHINE_CPS);
        let polluters = self.polluter_cores(MACHINE_CPS);
        for &core in workers.iter().chain(&polluters) {
            if core >= MACHINE_CORES {
                return Err(ConfigError::PlacementExceedsCores {
                    core,
                    available: MACHINE_CORES,
                });
            }
        }
        if let Some(&core) = workers.iter().find(|c| polluters.contains(c)) {
            return Err(ConfigError::PlacementOverlap { core });
        }
        Ok(())
    }
}

/// How a run's measurement discipline held up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RunStatus {
    /// Both windows committed their full instruction targets.
    Completed,
    /// A window hit the `max_cycles` safety cap first. The metrics cover
    /// the shorter window and are internally consistent, but the run does
    /// not satisfy the §3.1 fixed-window discipline. If both windows fell
    /// short, the counts describe the measurement window.
    Truncated {
        /// Instructions committed before the cap.
        committed: u64,
        /// The instruction target the window was supposed to reach.
        target: u64,
    },
}

impl RunStatus {
    /// Whether the run completed its full windows.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunStatus::Completed)
    }
}

/// Per-window measurements of one sampled run (empty when sampling is
/// disabled). Cycle buckets are summed across the worker cores, so the
/// breakdown partition invariant is
/// `committing[0] + committing[1] + stalled[0] + stalled[1] ==
/// cycles * n_workers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WindowSample {
    /// Cycles the detailed measurement window spanned.
    pub cycles: u64,
    /// Instructions the workers committed in the window.
    pub instructions: u64,
    /// Committing cycles summed over worker cores, `[app, os]`.
    pub committing: [u64; 2],
    /// Stalled cycles summed over worker cores, `[app, os]`.
    pub stalled: [u64; 2],
    /// Overlapped memory cycles summed over worker cores.
    pub memory_cycles: u64,
    /// Application requests completed during the window (0 when the
    /// workload has no request meter).
    pub requests: u64,
}

impl WindowSample {
    /// Per-core IPC of this window, over `n_workers` cores.
    pub fn ipc(&self, n_workers: usize) -> f64 {
        cs_perf::ratio(self.instructions, self.cycles * n_workers as u64)
    }
}

/// Per-tenant accounting of one (possibly co-located) run. A solo run has
/// exactly one entry covering all worker cores; a co-located run
/// ([`run_colocated`]) has one entry per benchmark, each owning a disjoint
/// chunk of the worker cores.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantUsage {
    /// The tenant's benchmark name.
    pub name: String,
    /// Global core ids this tenant's threads are pinned to.
    pub cores: Vec<usize>,
    /// Instructions the tenant committed over the measurement window.
    pub instructions: u64,
    /// LLC lines the tenant owned at the end of the run — an end-state
    /// occupancy snapshot, not a window average.
    pub llc_lines: u64,
    /// DRAM bytes the tenant's cores moved over the measurement window.
    pub dram_bytes: u64,
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub name: String,
    /// Cycles in the measurement window.
    pub cycles: u64,
    /// Core statistics of the measured (worker) cores.
    pub cores: Vec<CoreStats>,
    /// Memory statistics of the measured (worker) cores.
    pub mem: Vec<CoreMemStats>,
    /// Memory statistics of the polluter cores (for capacity verification).
    pub polluter_mem: Vec<CoreMemStats>,
    /// DRAM subsystem totals over the window.
    pub dram: cs_memsys::dram::DramStats,
    /// Peak off-chip bytes per cycle (whole machine).
    pub peak_bytes_per_cycle: f64,
    /// Number of worker cores measured.
    pub n_workers: usize,
    /// Application requests completed in the measurement window, when the
    /// workload meters them (the mini applications do; statistical
    /// profiles do not).
    pub requests: Option<u64>,
    /// Whether the warmup and measurement windows committed their full
    /// instruction targets, or were truncated by the cycle cap.
    pub status: RunStatus,
    /// Total cycles simulated over the whole run (polluter pre-warm,
    /// warmup and measurement), for the skipped-fraction denominator.
    pub cycles_total: u64,
    /// Of [`RunResult::cycles_total`], cycles covered by event-driven
    /// jumps rather than stepped individually (`0` with `cycle_skip`
    /// off). Inspectability only: no figure metric is derived from it.
    pub cycles_skipped: u64,
    /// Per-window measurements when SMARTS sampling is enabled
    /// ([`RunConfig::sample_windows`] > 0); empty otherwise. The
    /// aggregate fields above ([`RunResult::cycles`],
    /// [`RunResult::cores`], [`RunResult::mem`], ...) then cover the
    /// union of the measurement windows only — functional fast-forward
    /// and detailed re-warm spans are excluded, exactly as warmup is.
    pub samples: Vec<WindowSample>,
    /// Per-tenant accounting: one entry per co-located benchmark (a solo
    /// run has one entry spanning every worker core). Entry `t` covers the
    /// contiguous chunk `cores[t*w .. (t+1)*w]` of the per-core vectors,
    /// where `w` is [`RunConfig::workers`].
    pub tenants: Vec<TenantUsage>,
}

impl RunResult {
    fn core_sum<F: Fn(&CoreStats) -> u64>(&self, f: F) -> u64 {
        self.cores.iter().map(f).sum()
    }

    fn mem_sum<F: Fn(&CoreMemStats) -> u64>(&self, f: F) -> u64 {
        self.mem.iter().map(f).sum()
    }

    /// Total instructions committed by the workers.
    pub fn instructions(&self) -> u64 {
        self.core_sum(|c| c.instructions())
    }

    /// Per-core IPC (all privileges).
    pub fn ipc(&self) -> f64 {
        cs_perf::ratio(self.instructions(), self.cycles * self.cores.len() as u64)
    }

    /// Per-core application IPC (the Figure 3 / Figure 4 metric).
    pub fn app_ipc(&self) -> f64 {
        cs_perf::ratio(self.core_sum(|c| c.committed[0]), self.cycles * self.cores.len() as u64)
    }

    /// MLP averaged over the measured cores (§3.1 methodology).
    pub fn mlp(&self) -> f64 {
        let sum: f64 = self.cores.iter().map(|c| c.mlp()).sum();
        sum / self.cores.len().max(1) as f64
    }

    /// The Figure 1 execution-time breakdown, averaged over worker cores.
    pub fn breakdown(&self) -> Breakdown {
        let total = self.cycles as f64 * self.cores.len() as f64;
        Breakdown {
            committing_app: self.core_sum(|c| c.committing_cycles[0]) as f64 / total,
            committing_os: self.core_sum(|c| c.committing_cycles[1]) as f64 / total,
            stalled_app: self.core_sum(|c| c.stalled_cycles[0]) as f64 / total,
            stalled_os: self.core_sum(|c| c.stalled_cycles[1]) as f64 / total,
            memory: self.core_sum(|c| c.memory_cycles) as f64 / total,
        }
    }

    /// L1-I misses per kilo-instruction, `(application, os)` (Figure 2).
    pub fn l1i_mpki(&self) -> (f64, f64) {
        let k = self.instructions();
        (
            cs_perf::mpki(self.mem_sum(|m| m.l1i.misses(AccessClass::InstrUser)), k),
            cs_perf::mpki(self.mem_sum(|m| m.l1i.misses(AccessClass::InstrKernel)), k),
        )
    }

    /// L2 instruction misses per kilo-instruction, `(application, os)`
    /// (Figure 2).
    pub fn l2i_mpki(&self) -> (f64, f64) {
        let k = self.instructions();
        (
            cs_perf::mpki(self.mem_sum(|m| m.l2.misses(AccessClass::InstrUser)), k),
            cs_perf::mpki(self.mem_sum(|m| m.l2.misses(AccessClass::InstrKernel)), k),
        )
    }

    /// Overall L2 demand hit ratio (Figure 5 metric).
    pub fn l2_hit_ratio(&self) -> f64 {
        cs_perf::ratio(
            self.mem_sum(|m| m.l2.total_hits()),
            self.mem_sum(|m| m.l2.total_accesses()),
        )
    }

    /// Read-write shared LLC data references as a percentage of LLC data
    /// references, `(application, os)` (Figure 6).
    pub fn rw_shared_pct(&self) -> (f64, f64) {
        let refs = self.mem_sum(|m| m.llc_data_refs());
        (
            cs_perf::percent(self.mem_sum(|m| m.rw_shared[0]), refs),
            cs_perf::percent(self.mem_sum(|m| m.rw_shared[1]), refs),
        )
    }

    /// Off-chip bandwidth utilization as a percentage of the available
    /// per-core bandwidth, `(application, os)` (Figure 7).
    pub fn bandwidth_pct(&self) -> (f64, f64) {
        // Available per-core bandwidth: the machine peak divided evenly
        // over the active worker cores, as in the paper's per-core figure.
        let per_core = self.peak_bytes_per_cycle / self.n_workers as f64;
        let denom = per_core * self.cycles as f64 * self.cores.len() as f64;
        (
            100.0 * self.mem_sum(|m| m.dram_bytes[0]) as f64 / denom,
            100.0 * self.mem_sum(|m| m.dram_bytes[1]) as f64 / denom,
        )
    }

    /// Service throughput in requests per kilo-cycle, when metered.
    pub fn requests_per_kcycle(&self) -> Option<f64> {
        self.requests.map(|r| 1000.0 * r as f64 / self.cycles as f64)
    }

    /// Fraction of all simulated cycles the event-driven fast path jumped
    /// over instead of stepping — the inspectable basis of the speedup
    /// claim (`0.0` when `cycle_skip` is off).
    pub fn skipped_fraction(&self) -> f64 {
        cs_perf::ratio(self.cycles_skipped, self.cycles_total)
    }

    /// Per-core IPC of tenant `t` (all privileges), over the cores the
    /// tenant owns. Panics if `t` is out of range.
    pub fn tenant_ipc(&self, t: usize) -> f64 {
        let u = &self.tenants[t];
        cs_perf::ratio(u.instructions, self.cycles * u.cores.len() as u64)
    }

    /// Tenant `t`'s share of the occupied LLC lines at end of run, as a
    /// percentage of all tenants' lines (not of total capacity).
    pub fn tenant_llc_share_pct(&self, t: usize) -> f64 {
        let total: u64 = self.tenants.iter().map(|u| u.llc_lines).sum();
        cs_perf::percent(self.tenants[t].llc_lines, total)
    }

    /// Tenant `t`'s share of the DRAM bytes the workers moved over the
    /// measurement window, as a percentage.
    pub fn tenant_dram_share_pct(&self, t: usize) -> f64 {
        let total: u64 = self.tenants.iter().map(|u| u.dram_bytes).sum();
        cs_perf::percent(self.tenants[t].dram_bytes, total)
    }

    /// LLC hit ratio achieved by the polluter threads (the §3.1 check that
    /// the polluters "achieve nearly 100% hit ratio in the LLC").
    pub fn polluter_llc_hit_ratio(&self) -> f64 {
        cs_perf::ratio(
            self.polluter_mem.iter().map(|m| m.llc.total_hits()).sum(),
            self.polluter_mem.iter().map(|m| m.llc.total_accesses()).sum(),
        )
    }
}

/// Cycles the polluter threads run alone before any workload thread is
/// attached (§3.1: the polluter processes start with the system, so their
/// arrays are LLC-resident before the workload arrives).
const PREWARM_CYCLES: u64 = 800_000;

/// Cycle-budget granularity at which a checkpointed run returns control to
/// the harness between simulation slices. This value never affects results:
/// [`cs_uarch::Chip::step_watched`] sizes its internal strides independently
/// of the budget, and [`cs_uarch::Chip::run_cycles`] distributes over any
/// partition of a span — the constant only bounds how stale a snapshot or a
/// stop response can be.
const CKPT_SLICE: u64 = 65_536;

/// Whether the optional end-of-run conservation auditor is enabled:
/// `CS_PARANOID` set to anything but empty or `0`.
pub(crate) fn paranoid_enabled() -> bool {
    std::env::var("CS_PARANOID").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// Conservation checks over a finished result: the cycle breakdown must
/// partition each measured core's window exactly, the cycle skipper cannot
/// have jumped more cycles than elapsed, and no cache level may report more
/// hits than accesses. A sampled result must additionally satisfy the same
/// partition law inside every measurement window, and its windows'
/// instruction counts must sum to the configured measurement budget when
/// the run completed. These hold by construction; a violation means a
/// counter bug or a checkpoint/restore gap, and the result is withheld.
pub fn audit(r: &RunResult) -> Result<(), AuditError> {
    for (i, s) in r.samples.iter().enumerate() {
        let classified = s.committing[0] + s.committing[1] + s.stalled[0] + s.stalled[1];
        let span = s.cycles * r.cores.len() as u64;
        if classified != span {
            return Err(AuditError::WindowBreakdown { window: i, classified, cycles: span });
        }
    }
    if !r.samples.is_empty() && r.status.is_complete() {
        let summed: u64 = r.samples.iter().map(|s| s.instructions).sum();
        if summed != r.instructions() {
            return Err(AuditError::WindowInstructionSum {
                summed,
                total: r.instructions(),
            });
        }
    }
    if r.cycles_skipped > r.cycles_total {
        return Err(AuditError::SkipExceedsTotal {
            skipped: r.cycles_skipped,
            total: r.cycles_total,
        });
    }
    for (i, c) in r.cores.iter().enumerate() {
        let classified = c.committing_cycles[0]
            + c.committing_cycles[1]
            + c.stalled_cycles[0]
            + c.stalled_cycles[1];
        if classified != r.cycles {
            return Err(AuditError::CycleBreakdown { core: i, classified, cycles: r.cycles });
        }
    }
    for (i, m) in r.mem.iter().enumerate() {
        let levels =
            [("l1i", &m.l1i), ("l1d", &m.l1d), ("l2", &m.l2), ("llc", &m.llc)];
        for (level, stats) in levels {
            for k in 0..stats.hits.len() {
                if stats.hits[k] > stats.accesses[k] {
                    return Err(AuditError::HitsExceedAccesses {
                        core: i,
                        level,
                        hits: stats.hits[k],
                        accesses: stats.accesses[k],
                    });
                }
            }
        }
    }
    Ok(())
}

/// Runs `bench` under `cfg` and returns the measured result.
///
/// The configuration is validated first ([`RunConfig::validate`]); a run
/// that stops committing trips the forward-progress watchdog
/// ([`HarnessError::Stalled`]). A window truncated by the cycle cap is
/// reported in [`RunResult::status`], never silently — use [`run_strict`]
/// if truncation should be an error.
///
/// # Checkpointing
///
/// When a [`crate::checkpoint::CheckpointCtl`] is installed on the calling
/// thread (via [`crate::checkpoint::with_checkpointing`]), the run becomes
/// resumable: a snapshot of the complete simulation state is written
/// atomically every [`crate::checkpoint::CheckpointCtl::cadence_cycles`]
/// simulated cycles, and on a stop request the run saves a final snapshot
/// and returns [`HarnessError::Interrupted`]; a run that starts after a
/// stop request returns it before building a chip. A later call with the
/// same benchmark and configuration (under the same checkpoint directory)
/// restores the snapshot and continues; results are byte-identical to an
/// uninterrupted run. When the control carries a
/// [`crate::checkpoint::RunMemo`], a run whose canonical string
/// ([`crate::checkpoint::run_canon`]) already has a result is answered
/// from the memo without simulating; its checkpoint file is still recorded
/// in the control's used-file ledger. Without an installed control,
/// nothing here changes.
pub fn run(bench: &Benchmark, cfg: &RunConfig) -> Result<RunResult, HarnessError> {
    run_colocated(std::slice::from_ref(bench), cfg)
}

/// Runs several benchmarks co-located as tenants on one chip, sharing the
/// LLC and the DRAM channels (the interference-matrix methodology).
///
/// Tenant `t` gets its own `cfg.workers`-core chunk of the worker
/// placement — `worker_cores[t*w .. (t+1)*w]` — so validation and
/// placement see `cfg.workers * benches.len()` total workers. The warmup
/// and measurement instruction targets remain totals across *all*
/// workers, exactly as in a solo run. Per-tenant accounting lands in
/// [`RunResult::tenants`]; the QoS mitigations
/// ([`RunConfig::llc_way_masks`], [`RunConfig::dram_budgets`]) partition
/// the LLC ways and throttle per-tenant DRAM bandwidth respectively.
///
/// A one-element slice is *byte-identical* to [`run`] with QoS off: the
/// single tenant's id is 0 everywhere, the full way mask degenerates to
/// the unmasked victim scan, and no regulator is built. Everything [`run`]
/// documents — validation, watchdog, truncation, checkpoint/resume —
/// applies unchanged; the checkpoint unit is keyed by the `+`-joined
/// benchmark names, so co-located and solo runs never share a snapshot.
pub fn run_colocated(benches: &[Benchmark], cfg: &RunConfig) -> Result<RunResult, HarnessError> {
    if benches.is_empty() {
        return Err(ConfigError::NoWorkers.into());
    }
    // Placement, validation and instruction targets all see the total
    // worker count; the per-tenant chunk size is what the caller set.
    let per_tenant = cfg.workers;
    let eff = RunConfig { workers: cfg.workers * benches.len(), ..cfg.clone() };
    eff.validate()?;
    let cfg = &eff;
    let name = unit_name(benches);
    let unit = Unit::open(&name, cfg);
    match unit.ckpt.as_ref().map(|(ctl, _)| Arc::clone(&ctl.memo)) {
        Some(memo) => {
            memo.run(checkpoint::run_canon(&name, cfg), || simulate(benches, per_tenant, cfg, unit))
        }
        None => simulate(benches, per_tenant, cfg, unit),
    }
}

/// Simulates one run from a fresh chip or the unit's snapshot, with `cfg`
/// already validated and its `workers` the total over all `benches`.
fn simulate(
    benches: &[Benchmark],
    per_tenant: usize,
    cfg: &RunConfig,
    mut unit: Unit,
) -> Result<RunResult, HarnessError> {
    unit.refuse_if_stopped()?;
    let mut rig = Rig::new(benches, per_tenant, cfg);
    let mut phase = unit.restore(&mut rig);

    // The phase loop: §3.1 pre-warm, warmup to steady state, statistics
    // reset, measurement — or, sampled, functional fast-forward, detailed
    // re-warm and short measurement windows in turn. Every slice but the
    // one that ends the run is followed by a checkpoint boundary. Resume
    // from any boundary is byte-identical, so where boundaries fall never
    // changes results, and slice budgets only bound snapshot staleness
    // (`run_cycles` distributes over any partition of a span, and
    // `step_watched` strides independently of its budget).
    let budget = if unit.ckpt.is_some() { CKPT_SLICE } else { u64::MAX };
    let mut telemetry = PhaseTelemetry::default();
    let finished = loop {
        let slice_start = std::time::Instant::now();
        let stepped = rig.step(&mut phase, budget)?;
        telemetry.charge(&phase, slice_start.elapsed().as_secs_f64());
        if let Some(out) = stepped {
            match rig.advance(phase, out) {
                ControlFlow::Continue(next) => phase = next,
                ControlFlow::Break(finished) => break finished,
            }
        }
        unit.boundary(&rig.chip, &phase)?;
    };

    let result = rig.assemble(finished);
    if paranoid_enabled() {
        audit(&result)?;
        // With the budget split over windows whose targets sum to exactly
        // `measure_instr`, a completed sampled run must have measured at
        // least that many instructions (commit-width overshoot only adds).
        if !result.samples.is_empty() && result.status.is_complete() {
            let summed: u64 = result.samples.iter().map(|s| s.instructions).sum();
            if summed < cfg.measure_instr {
                return Err(AuditError::WindowInstructionSum {
                    summed,
                    total: cfg.measure_instr,
                }
                .into());
            }
        }
    }
    match &unit.ckpt {
        Some((ctl, _)) if cfg.sample_windows > 0 => ctl.note_telemetry(PhaseTelemetry {
            experiment: ctl.scope.clone(),
            key: unit.key,
            unit: result.name.clone(),
            windows: result.samples.len(),
            ..telemetry
        }),
        _ => {}
    }
    Ok(result)
}

/// The unit name of a run: the `+`-joined benchmark names.
fn unit_name(benches: &[Benchmark]) -> String {
    benches.iter().map(|b| b.name()).collect::<Vec<_>>().join("+")
}

/// One run's simulated machine: the chip built from the effective
/// configuration, the thread placement, and the request meters of the
/// attached workload threads.
struct Rig<'a> {
    benches: &'a [Benchmark],
    /// Worker cores per tenant: tenant `t` owns worker chunk `t`.
    per_tenant: usize,
    cfg: &'a RunConfig,
    machine: MachineConfig,
    worker_cores: Vec<usize>,
    polluter_cores: Vec<usize>,
    chip: Chip,
    meters: Vec<Arc<AtomicU64>>,
}

/// A run whose last window completed: the measurement outcome (for a
/// sampled run, the union of its measurement windows), the warmup outcome,
/// the request-meter baseline, and the sampled aggregate if any.
struct Finished {
    measure: WindowOutcome,
    warmup: WindowOutcome,
    requests_at_warmup: u64,
    sampled: Option<Box<SampleAcc>>,
}

impl<'a> Rig<'a> {
    /// Builds the machine and a fresh chip for `cfg`, whose `workers` is
    /// the total over all co-located `benches`.
    fn new(benches: &'a [Benchmark], per_tenant: usize, cfg: &'a RunConfig) -> Self {
        let machine = MachineConfig::for_run(cfg);
        let cps = machine.mem.cores_per_socket;
        let chip = machine.build();
        let mut rig = Self {
            benches,
            per_tenant,
            cfg,
            worker_cores: cfg.worker_cores(cps),
            polluter_cores: cfg.polluter_cores(cps),
            machine,
            chip,
            meters: Vec::new(),
        };
        rig.configure_chip();
        rig
    }

    /// Replaces the chip with a fresh one, no thread attached.
    fn rebuild(&mut self) {
        self.chip = self.machine.build();
        self.configure_chip();
        self.meters.clear();
    }

    /// Applies cycle skipping and the tenant map. The tenant map is
    /// configuration, not simulated state: it is applied to every chip
    /// this run builds (fresh, or rebuilt after a quarantined snapshot)
    /// and never serialized, so the restore path sees the same tags as
    /// the fresh path. Polluter cores stay tenant 0.
    fn configure_chip(&mut self) {
        self.chip.set_cycle_skip(self.cfg.cycle_skip);
        for (i, &core) in self.worker_cores.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            self.chip.set_tenant(core, (i / self.per_tenant) as u8);
        }
    }

    /// Restores a snapshot payload written by [`Unit::boundary`] into this
    /// freshly built rig, attaching the threads the snapshot's phase had,
    /// and returns that phase. A payload that does not decode is an error,
    /// never a panic; the rig must then be rebuilt before further use.
    fn restore_payload(&mut self, payload: &[u8]) -> Result<Phase, SnapError> {
        let mut d = Dec::new(payload);
        let phase = Phase::decode_snap(&mut d)?;
        self.attach_polluters();
        if !matches!(phase, Phase::PreWarm { .. }) {
            self.attach_workers();
        }
        self.chip.restore_snap(&mut d)?;
        d.finish()?;
        Ok(phase)
    }

    /// Polluters walk half the stolen capacity each (§3.1); they exist
    /// from cycle zero, before any workload thread.
    fn attach_polluters(&mut self) {
        let Some(bytes) = self.cfg.polluter_bytes else { return };
        let per = (bytes / self.polluter_cores.len() as u64).max(64 * 1024);
        for (i, &core) in self.polluter_cores.iter().enumerate() {
            let profile = WorkloadProfile::polluter(per);
            self.chip.attach(core, Box::new(profile.build_source(100 + i, self.cfg.seed)));
            if self.cfg.smt {
                let profile = WorkloadProfile::polluter(per);
                self.chip.attach(core, Box::new(profile.build_source(110 + i, self.cfg.seed)));
            }
        }
    }

    /// Workload threads: one per hardware context, with request meters
    /// where the workload provides them. Attached only when pre-warm ends,
    /// so the attach order (polluters, then workers) is identical on the
    /// fresh and the restore path.
    fn attach_workers(&mut self) {
        let threads_per_core = if self.cfg.smt { 2 } else { 1 };
        for (i, &core) in self.worker_cores.iter().enumerate() {
            let bench = &self.benches[i / self.per_tenant];
            for t in 0..threads_per_core {
                let thread_id = i * threads_per_core + t;
                let (source, meter) = bench.build_source_metered(thread_id, self.cfg.seed);
                self.chip.attach(core, source);
                self.meters.extend(meter);
            }
        }
    }

    /// Opens a watched window of `instructions` over the worker cores.
    fn begin(&self, instructions: u64) -> WatchedWindow {
        let (max_cycles, grace) = (self.cfg.max_cycles, self.cfg.watchdog_grace);
        self.chip.begin_watched(&self.worker_cores, instructions, max_cycles, grace)
    }

    /// Simulates one slice of at most `budget` cycles of `phase`, returning
    /// the outcome once the phase's window completes. Pre-warm steps plain
    /// cycles, and its outcome carries only those.
    fn step(
        &mut self,
        phase: &mut Phase,
        budget: u64,
    ) -> Result<Option<WindowOutcome>, HarnessError> {
        if let Phase::PreWarm { cycles_done } = phase {
            let target = if self.cfg.polluter_bytes.is_some() { PREWARM_CYCLES } else { 0 };
            if *cycles_done < target {
                let step = budget.min(target - *cycles_done);
                self.chip.run_cycles(step);
                *cycles_done += step;
            }
            let done = *cycles_done >= target;
            return Ok(done.then_some(WindowOutcome {
                cycles: *cycles_done,
                committed: 0,
                reached_target: true,
            }));
        }
        let (window, label) = phase.window_mut().expect("every phase after pre-warm has a window");
        self.chip.step_watched(window, budget).map_err(|d| HarnessError::Stalled {
            core: d.core,
            cycles_without_commit: d.cycles_without_commit,
            window: label,
        })
    }

    /// Leaves `phase`, whose window completed with `out`: the next phase,
    /// or the finished run.
    fn advance(&mut self, phase: Phase, out: WindowOutcome) -> ControlFlow<Finished, Phase> {
        let cfg = self.cfg;
        ControlFlow::Continue(match phase {
            Phase::PreWarm { .. } => {
                self.attach_workers();
                Phase::Warmup { window: self.begin(cfg.warmup_instr) }
            }
            Phase::Warmup { .. } => {
                self.chip.reset_stats();
                let requests_at_warmup = meter_total(&self.meters);
                if cfg.sample_windows == 0 {
                    let window = self.begin(cfg.measure_instr);
                    Phase::Measure { window, warmup: out, requests_at_warmup }
                } else {
                    // Sampled run: fast-forward functionally to the first
                    // deterministically spaced window.
                    self.chip.set_fidelity(Fidelity::Functional);
                    let sub = SampleSub::Forward { window: self.begin(cfg.sample_period) };
                    let acc = Box::new(SampleAcc::new(out, requests_at_warmup));
                    Phase::Sample { k: 0, sub, acc }
                }
            }
            Phase::Measure { warmup, requests_at_warmup, .. } => {
                return ControlFlow::Break(Finished {
                    measure: out,
                    warmup,
                    requests_at_warmup,
                    sampled: None,
                });
            }
            Phase::Sample { k, sub: SampleSub::Forward { .. }, mut acc } => {
                acc.forward_truncated |= !out.reached_target;
                self.chip.set_fidelity(Fidelity::Detailed);
                if cfg.sample_warmup_instr > 0 {
                    let sub = SampleSub::Warm { window: self.begin(cfg.sample_warmup_instr) };
                    Phase::Sample { k, sub, acc }
                } else {
                    self.begin_sample_measure(k, acc)
                }
            }
            Phase::Sample { k, sub: SampleSub::Warm { .. }, mut acc } => {
                acc.forward_truncated |= !out.reached_target;
                self.begin_sample_measure(k, acc)
            }
            Phase::Sample { k, sub: SampleSub::Measure { requests_at_start, .. }, mut acc } => {
                acc.measure_truncated |= !out.reached_target;
                let requests = meter_total(&self.meters) - requests_at_start;
                acc.harvest(&self.chip, &self.worker_cores, &self.polluter_cores, &out, requests);
                if k + 1 == cfg.sample_windows {
                    // All windows done: the combined outcome spans the
                    // union of the measurement windows, and the status
                    // sees any truncation anywhere in the schedule.
                    return ControlFlow::Break(Finished {
                        measure: WindowOutcome {
                            cycles: acc.samples.iter().map(|s| s.cycles).sum(),
                            committed: acc.samples.iter().map(|s| s.instructions).sum(),
                            reached_target: !acc.measure_truncated && !acc.forward_truncated,
                        },
                        warmup: acc.warmup,
                        requests_at_warmup: acc.requests_at_warmup,
                        sampled: Some(acc),
                    });
                }
                self.chip.set_fidelity(Fidelity::Functional);
                let sub = SampleSub::Forward { window: self.begin(cfg.sample_period) };
                Phase::Sample { k: k + 1, sub, acc }
            }
        })
    }

    /// Resets statistics and opens measurement window `k`, so everything
    /// harvested when it completes is a window delta.
    fn begin_sample_measure(&mut self, k: usize, acc: Box<SampleAcc>) -> Phase {
        self.chip.reset_stats();
        let window = self.begin(sampling::window_target(self.cfg, k));
        let sub = SampleSub::Measure { window, requests_at_start: meter_total(&self.meters) };
        Phase::Sample { k, sub, acc }
    }

    /// Builds the run's result from one statistics group: the sampled
    /// aggregate, or the group read off the chip.
    fn assemble(self, finished: Finished) -> RunResult {
        let Finished { measure, warmup, requests_at_warmup, sampled } = finished;
        let (stats, samples, requests) = match sampled {
            // Sampled runs meter requests per measurement window so
            // throughput covers exactly the cycles the IPC covers.
            Some(acc) => {
                let requests = acc.samples.iter().map(|s| s.requests).sum();
                (acc.stats, acc.samples, requests)
            }
            None => {
                let stats = StatsGroup::read(&self.chip, &self.worker_cores, &self.polluter_cores);
                (stats, Vec::new(), meter_total(&self.meters) - requests_at_warmup)
            }
        };
        // Truncation is surfaced, never silent: the measurement window
        // takes precedence over warmup when both fell short.
        let status = if !measure.reached_target {
            RunStatus::Truncated { committed: measure.committed, target: self.cfg.measure_instr }
        } else if !warmup.reached_target {
            RunStatus::Truncated { committed: warmup.committed, target: self.cfg.warmup_instr }
        } else {
            RunStatus::Completed
        };
        let tenants = (self.benches.iter().enumerate())
            .map(|(t, b)| {
                let chunk = t * self.per_tenant..(t + 1) * self.per_tenant;
                #[allow(clippy::cast_possible_truncation)]
                let llc_lines = self.chip.mem().llc_tenant_lines(t as u8);
                TenantUsage {
                    name: b.name().to_owned(),
                    cores: self.worker_cores[chunk.clone()].to_vec(),
                    instructions: (stats.cores[chunk.clone()].iter())
                        .map(CoreStats::instructions)
                        .sum(),
                    llc_lines,
                    dram_bytes: (stats.mem[chunk].iter())
                        .map(|m| m.dram_bytes[0] + m.dram_bytes[1])
                        .sum(),
                }
            })
            .collect();
        RunResult {
            name: unit_name(self.benches),
            cycles: measure.cycles,
            cores: stats.cores,
            mem: stats.mem,
            polluter_mem: stats.polluter_mem,
            dram: stats.dram,
            peak_bytes_per_cycle: self.machine.mem.dram.peak_bytes_per_cycle(),
            n_workers: self.worker_cores.len(),
            requests: (!self.meters.is_empty()).then_some(requests),
            status,
            cycles_total: self.chip.cycle(),
            cycles_skipped: self.chip.skipped_cycles(),
            samples,
            tenants,
        }
    }
}

/// The run's checkpoint unit: its installed control and snapshot path,
/// its key, and the cycle of the last cadence snapshot. Without an
/// installed control every method is inert and the run proceeds exactly
/// as it would uncheckpointed.
struct Unit {
    ckpt: Option<(CheckpointCtl, PathBuf)>,
    key: u64,
    last_ckpt: u64,
}

impl Unit {
    /// The unit of the run named `name` under the thread's installed
    /// control, if any, recorded in that control's used-file ledger.
    fn open(name: &str, cfg: &RunConfig) -> Self {
        let Some(ctl) = checkpoint::current() else {
            return Self { ckpt: None, key: 0, last_ckpt: 0 };
        };
        let key = checkpoint::unit_key(&ctl.scope, name, cfg);
        let file = checkpoint::unit_file(key);
        ctl.note_used(&file);
        let path = ctl.dir.join(file);
        Self { ckpt: Some((ctl, path)), key, last_ckpt: 0 }
    }

    /// A stop request raised before the run starts: the run is
    /// interrupted before it builds a chip, so it neither restores nor
    /// writes a snapshot (an existing one stays as it is).
    fn refuse_if_stopped(&self) -> Result<(), HarnessError> {
        match &self.ckpt {
            Some((ctl, _)) if ctl.stop.load(std::sync::atomic::Ordering::SeqCst) => {
                Err(HarnessError::Interrupted)
            }
            _ => Ok(()),
        }
    }

    /// Restores a prior snapshot of this exact unit into `rig`, or starts
    /// it fresh. Any defect — missing, corrupt, version skew, topology
    /// mismatch — degrades to a fresh run, which produces the same bytes
    /// anyway.
    fn restore(&mut self, rig: &mut Rig<'_>) -> Phase {
        let phase = self.load(rig).unwrap_or_else(|| {
            rig.attach_polluters();
            Phase::PreWarm { cycles_done: 0 }
        });
        self.last_ckpt = rig.chip.cycle();
        phase
    }

    fn load(&self, rig: &mut Rig<'_>) -> Option<Phase> {
        let (_, path) = self.ckpt.as_ref()?;
        let payload = checkpoint::load_envelope(path, self.key)?;
        match rig.restore_payload(&payload) {
            Ok(phase) => Some(phase),
            Err(e) => {
                // The envelope checksum held but the payload no longer
                // decodes (format drift or a writer bug): structural —
                // move the evidence aside and start fresh.
                checkpoint::quarantine(path, &format!("payload decode: {e:?}"));
                rig.rebuild();
                None
            }
        }
    }

    /// Called between simulation slices: honours stop requests (signal
    /// flag or the deterministic test trigger) by saving and bailing out,
    /// and takes a cadence snapshot when one is due.
    fn boundary(&mut self, chip: &Chip, phase: &Phase) -> Result<(), HarnessError> {
        let Some((ctl, path)) = &self.ckpt else { return Ok(()) };
        let save = || {
            let mut e = Enc::new();
            phase.encode_snap(&mut e);
            chip.encode_snap(&mut e);
            // Best-effort: a failed save costs re-simulation on resume,
            // never correctness — a fresh run produces the same bytes.
            if let Err(err) = checkpoint::save_envelope(path, self.key, &e.buf) {
                eprintln!("checkpoint: failed to save {}: {err}", path.display());
            }
        };
        let now = chip.cycle();
        let stop_requested = ctl.stop.load(std::sync::atomic::Ordering::SeqCst)
            || ctl.interrupt_after.is_some_and(|k| now >= k);
        if stop_requested {
            save();
            return Err(HarnessError::Interrupted);
        }
        if ctl.cadence_cycles > 0 && now >= self.last_ckpt.saturating_add(ctl.cadence_cycles) {
            save();
            self.last_ckpt = now;
        }
        Ok(())
    }
}

/// Like [`run`], but treats a truncated window as a hard failure: a result
/// whose status is [`RunStatus::Truncated`] becomes
/// [`HarnessError::Truncated`]. Figure campaigns use this so a silently
/// short window can never contaminate published numbers — the campaign
/// layer retries with a widened `max_cycles` instead.
pub fn run_strict(bench: &Benchmark, cfg: &RunConfig) -> Result<RunResult, HarnessError> {
    run_colocated_strict(std::slice::from_ref(bench), cfg)
}

/// Like [`run_colocated`], but treats a truncated window as a hard failure,
/// exactly as [`run_strict`] does for solo runs.
pub fn run_colocated_strict(
    benches: &[Benchmark],
    cfg: &RunConfig,
) -> Result<RunResult, HarnessError> {
    let result = run_colocated(benches, cfg)?;
    if let RunStatus::Truncated { committed, target } = result.status {
        return Err(HarnessError::Truncated { committed, target });
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            warmup_instr: 60_000,
            measure_instr: 120_000,
            max_cycles: 8_000_000,
            ..RunConfig::default()
        }
    }

    #[test]
    fn worker_placement_default_and_split() {
        let mut cfg = RunConfig::default();
        assert_eq!(cfg.worker_cores(6), vec![0, 1, 2, 3]);
        cfg.split_sockets = true;
        assert_eq!(cfg.worker_cores(6), vec![0, 6, 1, 7]);
    }

    #[test]
    fn polluters_avoid_workers() {
        let cfg = RunConfig { polluter_bytes: Some(4 << 20), ..RunConfig::default() };
        assert_eq!(cfg.polluter_cores(6), vec![4, 5]);
        assert!(RunConfig::default().polluter_cores(6).is_empty());
    }

    #[test]
    fn run_produces_consistent_metrics() {
        let bench = Benchmark::mcf();
        let r = run(&bench, &tiny()).expect("valid config must run");
        assert_eq!(r.status, RunStatus::Completed);
        assert_eq!(r.cores.len(), 4);
        assert!(r.instructions() >= 120_000);
        assert!(r.ipc() > 0.0 && r.ipc() <= 4.0);
        let b = r.breakdown();
        let total = b.committing_app + b.committing_os + b.stalled_app + b.stalled_os;
        assert!((total - 1.0).abs() < 1e-6, "breakdown must partition time, got {total}");
        assert!(b.memory <= 1.0 + 1e-9);
    }

    #[test]
    fn smt_attaches_two_threads_per_core() {
        let bench = Benchmark::mcf();
        let r = run(&bench, &RunConfig { smt: true, ..tiny() }).expect("valid config must run");
        for c in &r.cores {
            assert_eq!(c.per_thread_committed.len(), 2);
            assert!(c.per_thread_committed.iter().all(|&n| n > 0));
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
    fn polluters_hit_the_llc() {
        // A scale-out workload exerts moderate eviction pressure; the
        // pre-warmed polluters must keep their arrays LLC-resident.
        let bench = Benchmark::web_search();
        let cfg = RunConfig {
            polluter_bytes: Some(4 << 20),
            warmup_instr: 1_500_000,
            measure_instr: 1_500_000,
            ..RunConfig::default()
        };
        let r = run(&bench, &cfg).expect("valid config must run");
        assert!(
            r.polluter_llc_hit_ratio() > 0.8,
            "polluter LLC hit ratio {} too low",
            r.polluter_llc_hit_ratio()
        );
    }

    #[test]
    fn validate_rejects_zero_workers() {
        let cfg = RunConfig { workers: 0, ..RunConfig::default() };
        assert_eq!(cfg.validate(), Err(ConfigError::NoWorkers));
        let err = run(&Benchmark::mcf(), &cfg).expect_err("must be rejected");
        assert_eq!(err, HarnessError::Config(ConfigError::NoWorkers));
    }

    #[test]
    fn validate_rejects_offchip_placement() {
        let cfg = RunConfig { workers: 20, ..RunConfig::default() };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::PlacementExceedsCores { core: 12, available: 12 })
        ));
    }

    #[test]
    fn validate_rejects_split_socket_polluter_overlap() {
        // Ten split-socket workers put five workers on socket 0 (cores
        // 0..=4); the polluter pair clamps onto cores 4 and 5 — overlap.
        let cfg = RunConfig {
            workers: 10,
            split_sockets: true,
            polluter_bytes: Some(4 << 20),
            ..RunConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::PlacementOverlap { core: 4 }));
    }

    #[test]
    fn validate_rejects_zero_dram_channels() {
        let cfg = RunConfig { dram_channels: Some(0), ..RunConfig::default() };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroDramChannels));
    }

    #[test]
    fn validate_rejects_misfit_cache_sizes() {
        let cfg = RunConfig { llc_bytes: Some(100), ..RunConfig::default() };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::InvalidCacheSize { which: "llc_bytes", bytes: 100 })
        );
        // Non-power-of-two capacities that fit the geometry are fine: the
        // Table 1 LLC itself is 12 MB.
        let ok = RunConfig { llc_bytes: Some(24 << 20), ..RunConfig::default() };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_windows() {
        let cfg = RunConfig { measure_instr: 0, ..RunConfig::default() };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroWindow { which: "measure_instr" }));
        let cfg = RunConfig { max_cycles: 0, ..RunConfig::default() };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroWindow { which: "max_cycles" }));
    }

    #[test]
    fn tiny_cycle_cap_reports_truncation() {
        let bench = Benchmark::mcf();
        let cfg = RunConfig { max_cycles: 4_000, watchdog_grace: 0, ..tiny() };
        let r = run(&bench, &cfg).expect("truncation is a status, not an error");
        match r.status {
            RunStatus::Truncated { committed, target } => {
                assert_eq!(target, cfg.measure_instr);
                assert!(committed < target, "{committed} should fall short of {target}");
            }
            RunStatus::Completed => panic!("a 4k-cycle window cannot commit 120k instructions"),
        }
        assert!(!r.status.is_complete());
        let strict = run_strict(&bench, &cfg).expect_err("run_strict must reject truncation");
        assert!(matches!(strict, HarnessError::Truncated { .. }));
    }

    #[test]
    fn audit_passes_on_a_real_run_and_catches_corruption() {
        let bench = Benchmark::mcf();
        let r = run(&bench, &tiny()).expect("valid config must run");
        audit(&r).expect("a real run must satisfy every conservation law");
        let mut bad = r.clone();
        bad.cycles_skipped = bad.cycles_total + 1;
        assert!(matches!(audit(&bad), Err(AuditError::SkipExceedsTotal { .. })));
        let mut bad = r.clone();
        bad.cores[0].committing_cycles[0] += 1;
        assert!(matches!(audit(&bad), Err(AuditError::CycleBreakdown { core: 0, .. })));
        let mut bad = r;
        bad.mem[0].l1d.hits[0] = bad.mem[0].l1d.accesses[0] + 1;
        assert!(matches!(audit(&bad), Err(AuditError::HitsExceedAccesses { .. })));
    }

    #[test]
    fn repeated_interrupt_and_resume_is_byte_identical() {
        use crate::checkpoint::{with_checkpointing, CheckpointCtl};
        let bench = Benchmark::mcf();
        // Polluters included so the PreWarm phase (workers not yet
        // attached) is exercised by the first interrupt.
        let cfg = RunConfig { polluter_bytes: Some(2 << 20), ..tiny() };
        let baseline = run(&bench, &cfg).expect("uninterrupted run");
        let dir = std::env::temp_dir()
            .join(format!("cs-harness-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Kill the run at increasing cycle counts, resuming each time from
        // the snapshot the previous interrupt saved.
        let mut interrupts = 0;
        let mut k = 200_000u64;
        let result = loop {
            let mut ctl = CheckpointCtl::new(dir.clone(), "unit-test");
            ctl.cadence_cycles = 150_000;
            ctl.interrupt_after = Some(k);
            match with_checkpointing(ctl, || run(&bench, &cfg)) {
                Err(HarnessError::Interrupted) => {
                    interrupts += 1;
                    k += 700_000;
                }
                Ok(r) => break r,
                Err(other) => panic!("unexpected error: {other:?}"),
            }
            assert!(interrupts < 64, "run never completed");
        };
        assert!(interrupts >= 2, "test must interrupt at least twice, got {interrupts}");
        assert_eq!(
            format!("{baseline:?}"),
            format!("{result:?}"),
            "an interrupted-and-resumed run must reproduce the baseline exactly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A control in `dir` whose stop flag is already raised.
    fn stopped_ctl(dir: &std::path::Path) -> CheckpointCtl {
        let ctl = CheckpointCtl::new(dir.to_path_buf(), "unit-test");
        ctl.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        ctl
    }

    fn dir_listing(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = (std::fs::read_dir(dir).into_iter().flatten())
            .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_fresh_run_after_a_stop_request_writes_no_snapshot() {
        use crate::checkpoint::with_checkpointing;
        let dir = std::env::temp_dir()
            .join(format!("cs-harness-stop-fresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctl = stopped_ctl(&dir);
        let err = with_checkpointing(ctl, || run(&Benchmark::mcf(), &tiny()))
            .expect_err("a raised stop flag must interrupt the run");
        assert!(matches!(err, HarnessError::Interrupted), "got {err:?}");
        assert!(dir_listing(&dir).is_empty(), "no snapshot may be written: {:?}", dir_listing(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_run_after_a_stop_request_leaves_its_snapshot_untouched() {
        use crate::checkpoint::{unit_file, unit_key, with_checkpointing};
        let bench = Benchmark::mcf();
        let cfg = tiny();
        let dir = std::env::temp_dir()
            .join(format!("cs-harness-stop-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Cycle 1 stops the run at its first boundary past cycle 0: the
        // end of warmup.
        let mut ctl = CheckpointCtl::new(dir.clone(), "unit-test");
        ctl.interrupt_after = Some(1);
        let first = with_checkpointing(ctl, || run(&bench, &cfg));
        assert!(matches!(first, Err(HarnessError::Interrupted)), "got {first:?}");
        let path = dir.join(unit_file(unit_key("unit-test", bench.name(), &cfg)));
        let saved = std::fs::read(&path).expect("the interrupted run saved a snapshot");
        let listing = dir_listing(&dir);

        let err = with_checkpointing(stopped_ctl(&dir), || run(&bench, &cfg))
            .expect_err("a raised stop flag must interrupt the run");
        assert!(matches!(err, HarnessError::Interrupted), "got {err:?}");
        assert_eq!(std::fs::read(&path).expect("snapshot"), saved, "the snapshot must stay as it was");
        assert_eq!(dir_listing(&dir), listing, "no file may be written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_a_fresh_byte_identical_run() {
        use crate::checkpoint::{unit_file, unit_key, with_checkpointing, CheckpointCtl};
        let bench = Benchmark::mcf();
        let cfg = tiny();
        let baseline = run(&bench, &cfg).expect("uninterrupted run");
        let dir = std::env::temp_dir()
            .join(format!("cs-harness-ckpt-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Plant garbage where the checkpoint would live.
        let key = unit_key("unit-test", bench.name(), &cfg);
        std::fs::write(dir.join(unit_file(key)), b"not a checkpoint").expect("write");
        let ctl = CheckpointCtl::new(dir.clone(), "unit-test");
        let r = with_checkpointing(ctl, || run(&bench, &cfg)).expect("must degrade to fresh");
        assert_eq!(format!("{baseline:?}"), format!("{r:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeded corruptions of one real mid-warmup snapshot payload, fed
    /// below the envelope checksum straight into the restore path: each
    /// must come back as a typed error (or, for a bit flip that lands in
    /// plain data, a clean restore), never a panic. Length fields are
    /// overwritten with arbitrary values too, so a decoder that sized an
    /// allocation or a loop from an unchecked field would abort or hang
    /// here rather than pass. A payload that restores is then stepped, so
    /// structures that disagree must be caught by restore, not by a panic
    /// mid-run.
    #[test]
    fn corrupt_snapshot_payloads_fail_typed_never_panic() {
        use cs_trace::rng::stream_rng;
        let benches = [Benchmark::mcf()];
        let cfg = RunConfig { llc_bytes: Some(1 << 20), ..tiny() };
        let mut rig = Rig::new(&benches, cfg.workers, &cfg);
        let mut phase = Phase::PreWarm { cycles_done: 0 };
        let out = rig.step(&mut phase, 1).expect("pre-warm").expect("no polluters, no pre-warm");
        let ControlFlow::Continue(next) = rig.advance(phase, out) else { unreachable!() };
        phase = next;
        assert!(rig.step(&mut phase, 20_000).expect("warmup").is_none(), "window still open");
        let mut e = Enc::new();
        phase.encode_snap(&mut e);
        rig.chip.encode_snap(&mut e);
        let payload = e.buf;

        // The intact payload restores and encodes back to the same bytes.
        rig.rebuild();
        let restored = rig.restore_payload(&payload).expect("the intact payload restores");
        let mut e = Enc::new();
        restored.encode_snap(&mut e);
        rig.chip.encode_snap(&mut e);
        assert!(e.buf == payload, "restore must round-trip");

        // A completion naming no in-flight entry. The completion list of
        // a core follows its stats, three counts, the off-core load count
        // and the store-drain list; the chip's cores follow the phase, the
        // cycle and skip counters and the core count.
        let mut core_at = e.buf.len() - {
            let mut chip = Enc::new();
            rig.chip.encode_snap(&mut chip);
            chip.buf.len()
        } + 3 * 8;
        let seq_at = rig.chip.cores().iter().find_map(|core| {
            let mut d = Dec::new(&payload[core_at..]);
            CoreStats::decode_snap(&mut d).expect("stats");
            for _ in 0..3 {
                d.len().expect("count");
            }
            d.u32().expect("off-core loads");
            for _ in 0..d.len().expect("store drain") {
                d.u64().expect("drain");
            }
            let in_flight = d.len().expect("completions") > 0;
            let at = payload.len() - d.remaining() + 2 * 8;
            let mut bytes = Enc::new();
            core.encode_snap(&mut bytes);
            core_at += bytes.buf.len();
            in_flight.then_some(at)
        });
        let mut bytes = payload.clone();
        let seq_at = seq_at.expect("a core has a completion in flight");
        bytes[seq_at..seq_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        rig.rebuild();
        let got = rig.restore_payload(&bytes).map(|_| ());
        assert!(matches!(got, Err(SnapError::Mismatch(_))), "{got:?}");

        const STEP_CYCLES: u64 = 2_000;
        let mut rng = stream_rng(0x0C5C_4B97, 0);
        for case in 0..512 {
            let mut bytes = payload.clone();
            let at = rng.gen_range(0..payload.len());
            // Whether every outcome but an error is a defect.
            let must_fail = match case % 4 {
                0 => {
                    for _ in 0..rng.gen_range(1..5usize) {
                        let bit = rng.gen_range(0..8 * payload.len());
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                    false
                }
                1 => {
                    let end = (at + 8).min(bytes.len());
                    let word = rng.next_u64().to_le_bytes();
                    bytes[at..end].copy_from_slice(&word[..end - at]);
                    false
                }
                2 => {
                    bytes.truncate(at);
                    true
                }
                _ => {
                    bytes = (0..rng.gen_range(0..4096usize)).map(|_| rng.gen_u8()).collect();
                    true
                }
            };
            rig.rebuild();
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let r = rig.restore_payload(&bytes).map(|_| ());
                if r.is_ok() {
                    rig.chip.run_cycles(STEP_CYCLES);
                }
                r
            }));
            match got {
                Err(_) => panic!("case {case} (mutation {}, offset {at}) panicked", case % 4),
                Ok(r) => assert!(
                    !(must_fail && r.is_ok()),
                    "case {case} (mutation {}) restored from a damaged payload",
                    case % 4
                ),
            }
        }
    }

    fn sampled_tiny() -> RunConfig {
        RunConfig {
            sample_windows: 4,
            sample_period: 120_000,
            sample_warmup_instr: 20_000,
            ..tiny()
        }
    }

    #[test]
    fn sampled_run_completes_and_audits() {
        let bench = Benchmark::mcf();
        let r = run(&bench, &sampled_tiny()).expect("valid config must run");
        assert_eq!(r.status, RunStatus::Completed);
        assert_eq!(r.samples.len(), 4);
        let summed: u64 = r.samples.iter().map(|s| s.instructions).sum();
        assert_eq!(summed, r.instructions(), "window sums must match merged stats");
        assert!(summed >= 120_000, "windows must cover the measurement budget");
        assert!(r.ipc() > 0.0 && r.ipc() <= 4.0);
        for s in &r.samples {
            assert!(s.ipc(r.n_workers) > 0.0);
        }
        // The merged breakdown must still partition the union of windows.
        let b = r.breakdown();
        let total = b.committing_app + b.committing_os + b.stalled_app + b.stalled_os;
        assert!((total - 1.0).abs() < 1e-6, "breakdown must partition time, got {total}");
        audit(&r).expect("a sampled run must satisfy every conservation law");
        // And the auditor must catch per-window corruption.
        let mut bad = r.clone();
        bad.samples[0].committing[0] += 1;
        assert!(matches!(audit(&bad), Err(AuditError::WindowBreakdown { window: 0, .. })));
        let mut bad = r;
        bad.samples[1].instructions += 1;
        assert!(matches!(audit(&bad), Err(AuditError::WindowInstructionSum { .. })));
    }

    #[test]
    fn sampled_zero_detailed_warmup_still_completes() {
        let bench = Benchmark::mcf();
        let cfg = RunConfig { sample_warmup_instr: 0, ..sampled_tiny() };
        let r = run(&bench, &cfg).expect("valid config must run");
        assert_eq!(r.status, RunStatus::Completed);
        assert_eq!(r.samples.len(), 4);
        audit(&r).expect("audit");
    }

    #[test]
    fn sampled_validation_rejects_degenerate_schedules() {
        let cfg = RunConfig { sample_windows: 3, ..RunConfig::default() };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroWindow { which: "sample_period" }));
        let cfg = RunConfig {
            sample_windows: 10,
            sample_period: 1_000,
            measure_instr: 5,
            ..RunConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::SampleWindowsExceedMeasure { windows: 10, measure_instr: 5 })
        );
    }

    #[test]
    fn sampled_interrupt_and_resume_is_byte_identical() {
        use crate::checkpoint::{with_checkpointing, CheckpointCtl};
        let bench = Benchmark::mcf();
        let cfg = sampled_tiny();
        let baseline = run(&bench, &cfg).expect("uninterrupted run");
        let dir = std::env::temp_dir()
            .join(format!("cs-harness-sampled-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Kill at increasing cycle counts so interrupts land inside
        // functional fast-forward, re-warm and measurement sub-phases.
        let mut interrupts = 0;
        let mut k = 150_000u64;
        let result = loop {
            let mut ctl = CheckpointCtl::new(dir.clone(), "unit-test");
            ctl.cadence_cycles = 100_000;
            ctl.interrupt_after = Some(k);
            match with_checkpointing(ctl, || run(&bench, &cfg)) {
                Err(HarnessError::Interrupted) => {
                    interrupts += 1;
                    k += 250_000;
                }
                Ok(r) => break r,
                Err(other) => panic!("unexpected error: {other:?}"),
            }
            assert!(interrupts < 64, "run never completed");
        };
        assert!(interrupts >= 2, "test must interrupt at least twice, got {interrupts}");
        assert_eq!(
            format!("{baseline:?}"),
            format!("{result:?}"),
            "an interrupted-and-resumed sampled run must reproduce the baseline exactly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_rejects_degenerate_qos() {
        let cfg = RunConfig { llc_way_masks: Some(vec![0]), ..RunConfig::default() };
        assert!(matches!(cfg.validate(), Err(ConfigError::InvalidWayMask { tenant: 0, .. })));
        let cfg = RunConfig { llc_way_masks: Some(vec![1 << 16]), ..RunConfig::default() };
        assert!(matches!(cfg.validate(), Err(ConfigError::InvalidWayMask { .. })));
        let cfg = RunConfig { dram_budgets: Some(vec![63]), ..RunConfig::default() };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BudgetBelowLineSize { tenant: 0, bytes: 63 })
        ));
        let cfg = RunConfig {
            dram_budgets: Some(vec![4096]),
            dram_budget_window: 0,
            ..RunConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroWindow { which: "dram_budget_window" }));
    }

    #[test]
    fn solo_run_is_a_one_tenant_colocation() {
        let bench = Benchmark::mcf();
        let a = run(&bench, &tiny()).expect("solo run");
        assert_eq!(a.tenants.len(), 1);
        assert_eq!(a.tenants[0].cores, vec![0, 1, 2, 3]);
        assert_eq!(a.tenants[0].instructions, a.instructions());
        assert!((a.tenant_ipc(0) - a.ipc()).abs() < 1e-12);
        assert_eq!(a.tenant_llc_share_pct(0), 100.0);
    }

    #[test]
    fn colocated_pair_reports_per_tenant_usage() {
        let benches = [Benchmark::mcf(), Benchmark::web_search()];
        let cfg = RunConfig { workers: 2, ..tiny() };
        let r = run_colocated(&benches, &cfg).expect("valid config must run");
        assert_eq!(r.name, "SPECint (mcf)+Web Search");
        assert_eq!(r.cores.len(), 4, "two tenants x two workers");
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.tenants[0].cores, vec![0, 1]);
        assert_eq!(r.tenants[1].cores, vec![2, 3]);
        for t in 0..2 {
            assert!(r.tenants[t].instructions > 0);
            assert!(r.tenants[t].llc_lines > 0, "tenant {t} owns no LLC lines");
            assert!(r.tenant_ipc(t) > 0.0);
        }
        let per_tenant: u64 = r.tenants.iter().map(|u| u.instructions).sum();
        assert_eq!(per_tenant, r.instructions(), "tenant chunks must partition the workers");
        audit(&r).expect("a co-located run must satisfy every conservation law");
    }

    #[test]
    fn colocated_interrupt_and_resume_with_qos_is_byte_identical() {
        use crate::checkpoint::{with_checkpointing, CheckpointCtl};
        let benches = [Benchmark::mcf(), Benchmark::data_serving()];
        // Both mitigations on, so the regulator cursors and per-line tenant
        // tags must survive the snapshot round-trip.
        let cfg = RunConfig {
            workers: 2,
            llc_way_masks: Some(vec![0x00FF, 0xFF00]),
            dram_budgets: Some(vec![64 * 1024, 64 * 1024]),
            ..tiny()
        };
        let baseline = run_colocated(&benches, &cfg).expect("uninterrupted run");
        let dir = std::env::temp_dir()
            .join(format!("cs-harness-coloc-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut interrupts = 0;
        let mut k = 150_000u64;
        let result = loop {
            let mut ctl = CheckpointCtl::new(dir.clone(), "unit-test");
            ctl.cadence_cycles = 100_000;
            ctl.interrupt_after = Some(k);
            match with_checkpointing(ctl, || run_colocated(&benches, &cfg)) {
                Err(HarnessError::Interrupted) => {
                    interrupts += 1;
                    k += 400_000;
                }
                Ok(r) => break r,
                Err(other) => panic!("unexpected error: {other:?}"),
            }
            assert!(interrupts < 64, "run never completed");
        };
        assert!(interrupts >= 1, "test must interrupt at least once");
        assert_eq!(
            format!("{baseline:?}"),
            format!("{result:?}"),
            "an interrupted-and-resumed co-located run must reproduce the baseline exactly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_dram_trips_the_watchdog() {
        let bench = Benchmark::mcf();
        let cfg = RunConfig {
            fault: Some(FaultPlan::stall(7)),
            watchdog_grace: 20_000,
            ..tiny()
        };
        let err = run(&bench, &cfg).expect_err("an all-stall fault plan must not complete");
        match err {
            HarnessError::Stalled { cycles_without_commit, window, .. } => {
                assert!(cycles_without_commit >= 20_000);
                assert_eq!(window, "warmup");
            }
            other => panic!("expected a stall diagnosis, got {other:?}"),
        }
    }
}
