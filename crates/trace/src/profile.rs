//! Statistical workload profiles.
//!
//! A [`WorkloadProfile`] is the declarative description of a workload's
//! micro-architectural character: instruction footprint, instruction mix,
//! data-access mixture, instruction-level-parallelism structure and
//! operating-system involvement. Profiles define the *traditional*
//! comparison benchmarks of the paper's §3.3 (SPEC CINT2006 cpu/mem
//! groups, PARSEC cpu/mem groups, SPECweb09, TPC-C, TPC-E, Web Backend,
//! plus the `mcf` outlier used in Figure 4), for which only the statistical
//! characterization matters, and the Figure 4 cache polluter. The six
//! scale-out workloads are not profiles: they are the mini applications of
//! `cs-workloads`, which build from this module's [`IlpModel`] and
//! [`OsProfile`] types only.
//!
//! Every constructor documents the workload configuration from the paper it
//! models. The numeric knobs are calibrated so that the simulated machine
//! reproduces the *shape* of the paper's Figures 1–7 (see EXPERIMENTS.md),
//! not any particular absolute number. The main calibration anchors:
//!
//! - instruction footprint and its reuse skew set the L1-I/L2 instruction
//!   miss rates (Figure 2);
//! - the weight on DRAM-resident patterns (huge Zipf datasets, pointer
//!   chases) sets off-chip misses per kilo-instruction, anchored by the
//!   paper's Figure 7 bandwidth utilizations (a few 64-byte lines per
//!   kilo-instruction for most scale-out workloads);
//! - `load_chain_prob` and chase chain counts set MLP (Figure 3);
//! - `SharedRw` pools set read-write sharing (Figure 6).

use crate::datagen::PatternSpec;
use crate::ifoot::CodeProfile;
use crate::synth::SyntheticSource;
use serde::Serialize;

/// Fractions of each functional class among non-branch micro-ops.
///
/// Branches are produced structurally by the instruction-footprint walker
/// (one per basic block), so they are not part of this mix. The remainder
/// after all listed classes is simple integer ALU work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InstrMix {
    /// Fraction of loads.
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of floating-point ops.
    pub fp: f64,
    /// Fraction of integer multiplies.
    pub mul: f64,
    /// Fraction of integer divides.
    pub div: f64,
}

impl InstrMix {
    /// A typical integer-server mix: 30% loads, 12% stores, no FP.
    pub fn server() -> Self {
        Self { load: 0.30, store: 0.12, fp: 0.00, mul: 0.01, div: 0.002 }
    }

    /// A compute-heavy mix with some floating point.
    pub fn compute(fp: f64) -> Self {
        Self { load: 0.25, store: 0.08, fp, mul: 0.02, div: 0.002 }
    }

    /// Sum of all explicit classes (must be ≤ 1; the rest is ALU work).
    pub fn total(&self) -> f64 {
        self.load + self.store + self.fp + self.mul + self.div
    }

    /// Validates the mix.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is negative or the total exceeds 1.
    pub fn validate(&self) {
        for (name, v) in [
            ("load", self.load),
            ("store", self.store),
            ("fp", self.fp),
            ("mul", self.mul),
            ("div", self.div),
        ] {
            assert!(v >= 0.0, "negative {name} fraction");
        }
        assert!(self.total() <= 1.0 + 1e-9, "instruction mix exceeds 1.0");
    }
}

/// Instruction-level-parallelism structure of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IlpModel {
    /// Probability that an op names a first register dependency at all.
    pub dep_prob: f64,
    /// Mean of the geometric distance (in ops, back in program order) of
    /// register dependencies. Larger means more independent instructions in
    /// the window, i.e. more exploitable ILP.
    pub mean_dep_distance: f64,
    /// Probability of a second dependency (given a first one exists).
    pub second_dep_prob: f64,
    /// Probability that a (non-chase) load's address depends on the most
    /// recent earlier load — the request-processing serialization that
    /// limits MLP in server software (the paper's "complex data structure
    /// dependencies", §4.4).
    pub load_chain_prob: f64,
}

impl IlpModel {
    /// An ILP model with the given mean dependency distance and load
    /// chaining, and conventional dependency probabilities.
    pub fn new(mean: f64, load_chain_prob: f64) -> Self {
        Self { dep_prob: 0.85, mean_dep_distance: mean, second_dep_prob: 0.35, load_chain_prob }
    }
}

/// Operating-system involvement of a workload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OsProfile {
    /// Long-run fraction of micro-ops executed in kernel mode.
    pub fraction: f64,
    /// Mean kernel burst length in micro-ops (one syscall / interrupt
    /// service worth of work).
    pub burst_mean: f64,
    /// Kernel code footprint model.
    pub code: CodeProfile,
    /// Kernel data-access mixture (weight, pattern).
    pub data: Vec<(f64, PatternSpec)>,
    /// Kernel instruction mix.
    pub mix: InstrMix,
}

impl OsProfile {
    /// A network-I/O-centric kernel profile typical of scale-out workloads:
    /// a restricted kernel instruction working set (the paper finds the OS
    /// footprint of scale-out workloads *smaller* than traditional server
    /// workloads, §4.1) and a shared network buffer pool (the source of OS
    /// read-write sharing in Figure 6).
    pub fn network(fraction: f64, code_kb: u64, net_share: f64) -> Self {
        Self {
            fraction,
            burst_mean: 400.0,
            code: CodeProfile::new(code_kb * 1024, 0.86, 0.012),
            data: vec![
                (
                    net_share,
                    PatternSpec::SharedRw { slots: 384, slot_bytes: 2048, write_frac: 0.35 },
                ),
                (
                    0.08,
                    PatternSpec::Zipf {
                        dataset_bytes: 8 << 20,
                        s: 0.85,
                        object_bytes: 256,
                        burst: 2,
                        write_frac: 0.06,
                    },
                ),
                (
                    0.02,
                    PatternSpec::Zipf {
                        dataset_bytes: 256 << 20,
                        s: 0.8,
                        object_bytes: 256,
                        burst: 2,
                        write_frac: 0.05,
                    },
                ),
                (1.0 - net_share - 0.10, PatternSpec::Hot { bytes: 16 * 1024 }),
            ],
            mix: InstrMix::server(),
        }
    }
}

/// Full declarative description of a workload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadProfile {
    /// Workload name as it appears in the paper's figures.
    pub name: String,
    /// Application code footprint model.
    pub code: CodeProfile,
    /// Application instruction mix.
    pub mix: InstrMix,
    /// Application data mixture (weight, pattern).
    pub data: Vec<(f64, PatternSpec)>,
    /// ILP structure.
    pub ilp: IlpModel,
    /// Operating-system involvement, if any.
    pub os: Option<OsProfile>,
    /// Whether heap datasets are shared between threads. Web and
    /// database servers share one dataset across worker threads; SPEC and
    /// PARSEC runs are independent processes (or partition their data), so
    /// each hardware thread gets a private copy.
    pub shared_data: bool,
}

impl WorkloadProfile {
    /// Builds the synthetic trace source for one hardware thread.
    ///
    /// Threads built from the same profile share all non-private data
    /// regions (dataset, shared pools) but keep private stacks and
    /// independent random streams, matching the paper's "completely
    /// independent requests" workload structure.
    pub fn build_source(&self, thread: usize, seed: u64) -> SyntheticSource {
        SyntheticSource::new(self, thread, seed)
    }

    // ------------------------------------------------------------------
    // Traditional benchmarks (§3.3).
    // ------------------------------------------------------------------

    /// SPEC CINT2006, cpu-intensive group: L1-resident code, high ILP,
    /// cache-resident data, no OS time.
    pub fn specint_cpu() -> Self {
        Self {
            name: "SPECint (cpu)".into(),
            code: CodeProfile::new(12 * 1024, 0.9, 0.006),
            mix: InstrMix::compute(0.02),
            data: vec![
                (0.78, PatternSpec::Hot { bytes: 16 * 1024 }),
                (
                    0.22,
                    PatternSpec::Zipf {
                        dataset_bytes: 256 * 1024,
                        s: 0.85,
                        object_bytes: 64,
                        burst: 2,
                        write_frac: 0.30,
                    },
                ),
            ],
            ilp: IlpModel::new(5.2, 0.10),
            os: None,
            shared_data: false,
        }
    }

    /// SPEC CINT2006, memory-intensive group: small code, pointer-heavy data
    /// far beyond the LLC, abundant MLP.
    pub fn specint_mem() -> Self {
        Self {
            name: "SPECint (mem)".into(),
            code: CodeProfile::new(12 * 1024, 0.9, 0.02),
            mix: InstrMix::compute(0.01),
            data: vec![
                (0.66, PatternSpec::Hot { bytes: 16 * 1024 }),
                (
                    0.05,
                    PatternSpec::Chase {
                        region_bytes: 512 << 20,
                        node_bytes: 64,
                        chains: 8,
                        write_frac: 0.05,
                    },
                ),
                (
                    0.05,
                    PatternSpec::Zipf {
                        dataset_bytes: 128 << 20,
                        s: 0.7,
                        object_bytes: 128,
                        burst: 2,
                        write_frac: 0.10,
                    },
                ),
            ],
            ilp: IlpModel::new(4.5, 0.05),
            os: None,
            shared_data: false,
        }
    }

    /// The SPECint `mcf` outlier used in Figure 4: a working set a few times
    /// the LLC capacity, so every megabyte of cache visibly matters.
    pub fn mcf() -> Self {
        Self {
            name: "SPECint (mcf)".into(),
            code: CodeProfile::new(8 * 1024, 0.9, 0.02),
            mix: InstrMix::compute(0.0),
            data: vec![
                (0.12, PatternSpec::Hot { bytes: 8 * 1024 }),
                // A working set just beyond the 12 MB LLC with near-uniform
                // reuse: every megabyte of capacity converts misses into
                // hits, the defining Figure 4 behaviour of mcf.
                (
                    0.62,
                    PatternSpec::Zipf {
                        dataset_bytes: 3584 * 1024,
                        s: 0.3,
                        object_bytes: 128,
                        burst: 2,
                        write_frac: 0.15,
                    },
                ),
                (
                    0.25,
                    PatternSpec::Chase {
                        region_bytes: 3 << 20,
                        node_bytes: 64,
                        chains: 2,
                        write_frac: 0.05,
                    },
                ),
            ],
            ilp: IlpModel::new(4.0, 0.50),
            os: None,
            shared_data: false,
        }
    }

    /// PARSEC 2.1, cpu-intensive group: negligible instruction working set,
    /// high ILP, FP-heavy, cache-resident data.
    pub fn parsec_cpu() -> Self {
        Self {
            name: "PARSEC (cpu)".into(),
            code: CodeProfile::new(16 * 1024, 0.9, 0.005),
            mix: InstrMix::compute(0.30),
            data: vec![
                (0.74, PatternSpec::Hot { bytes: 24 * 1024 }),
                (0.10, PatternSpec::Stream { region_bytes: 256 * 1024, stride: 8, write_frac: 0.2 }),
                (
                    0.16,
                    PatternSpec::Zipf {
                        dataset_bytes: 768 * 1024,
                        s: 0.8,
                        object_bytes: 64,
                        burst: 2,
                        write_frac: 0.25,
                    },
                ),
            ],
            ilp: IlpModel::new(6.0, 0.10),
            os: None,
            shared_data: false,
        }
    }

    /// PARSEC 2.1, memory-intensive group: streaming and chasing over large
    /// arrays with high memory-level parallelism.
    pub fn parsec_mem() -> Self {
        Self {
            name: "PARSEC (mem)".into(),
            code: CodeProfile::new(16 * 1024, 0.9, 0.006),
            mix: InstrMix::compute(0.20),
            data: vec![
                (0.44, PatternSpec::Hot { bytes: 24 * 1024 }),
                (
                    0.36,
                    PatternSpec::Stream { region_bytes: 768 << 20, stride: 8, write_frac: 0.15 },
                ),
                (
                    0.06,
                    PatternSpec::Chase {
                        region_bytes: 256 << 20,
                        node_bytes: 64,
                        chains: 12,
                        write_frac: 0.05,
                    },
                ),
            ],
            ilp: IlpModel::new(5.0, 0.05),
            os: None,
            shared_data: false,
        }
    }

    /// SPECweb09 (e-banking on Nginx + FastCGI PHP): a traditional
    /// enterprise web workload dominated by static files and a small set of
    /// dynamic scripts, with heavy OS involvement (§4, Figure 1 discussion).
    pub fn specweb09() -> Self {
        Self {
            name: "SPECweb09".into(),
            code: CodeProfile::new(1024 * 1024, 0.86, 0.012),
            mix: InstrMix::server(),
            data: vec![
                (0.64, PatternSpec::Hot { bytes: 16 * 1024 }),
                (0.10, PatternSpec::Hot { bytes: 96 * 1024 }),
                // Static file cache over a 4 GB-scaled corpus.
                (
                    0.008,
                    PatternSpec::Zipf {
                        dataset_bytes: 4 << 30,
                        s: 0.9,
                        object_bytes: 4096,
                        burst: 16,
                        write_frac: 0.0,
                    },
                ),
                (
                    0.008,
                    PatternSpec::Chase {
                        region_bytes: 64 << 20,
                        node_bytes: 64,
                        chains: 1,
                        write_frac: 0.0,
                    },
                ),
                (0.002, PatternSpec::SharedRw { slots: 512, slot_bytes: 512, write_frac: 0.08 }),
            ],
            ilp: IlpModel::new(2.9, 0.38),
            os: Some(OsProfile {
                fraction: 0.45,
                burst_mean: 600.0,
                code: CodeProfile::new(2048 * 1024, 0.85, 0.014),
                data: OsProfile::network(0.45, 2048, 0.020).data,
                mix: InstrMix::server(),
            }),
            shared_data: true,
        }
    }

    /// TPC-C on a commercial DBMS (40 warehouses, 3 GB buffer pool): the
    /// paper's worst case — over 80% of time stalled on *dependent* memory
    /// accesses, with heavy lock/latch read-write sharing and 14% RFO
    /// memory cycles.
    pub fn tpcc() -> Self {
        Self {
            name: "TPC-C".into(),
            code: CodeProfile::new(3072 * 1024, 0.62, 0.018),
            mix: InstrMix::server(),
            data: vec![
                (0.58, PatternSpec::Hot { bytes: 16 * 1024 }),
                // Hot inner B-tree levels and row cache: LLC-warm.
                (
                    0.10,
                    PatternSpec::Zipf {
                        dataset_bytes: 48 << 20,
                        s: 0.85,
                        object_bytes: 256,
                        burst: 2,
                        write_frac: 0.08,
                    },
                ),
                // Leaf/row chains in the buffer pool: single-chain pointer
                // chasing — minimal MLP, mostly off-chip.
                (
                    0.014,
                    PatternSpec::Chase {
                        region_bytes: 3 << 30,
                        node_bytes: 64,
                        chains: 1,
                        write_frac: 0.10,
                    },
                ),
                (
                    0.008,
                    PatternSpec::Zipf {
                        dataset_bytes: 3 << 30,
                        s: 0.85,
                        object_bytes: 512,
                        burst: 3,
                        write_frac: 0.10,
                    },
                ),
                // Lock manager / latches: intense application-level sharing.
                (0.010, PatternSpec::SharedRw { slots: 192, slot_bytes: 128, write_frac: 0.40 }),
            ],
            ilp: IlpModel::new(2.4, 0.70),
            os: Some(OsProfile {
                fraction: 0.30,
                burst_mean: 500.0,
                code: CodeProfile::new(2560 * 1024, 0.70, 0.016),
                data: OsProfile::network(0.30, 2560, 0.012).data,
                mix: InstrMix::server(),
            }),
            shared_data: true,
        }
    }

    /// TPC-E 1.12 on a commercial DBMS (5000 customers, 52 GB, 10 GB buffer
    /// pool): more complex schemas and queries than TPC-C, which the paper
    /// finds closest to the scale-out class.
    pub fn tpce() -> Self {
        Self {
            name: "TPC-E".into(),
            code: CodeProfile::new(3072 * 1024, 0.76, 0.016),
            mix: InstrMix::server(),
            data: vec![
                (0.62, PatternSpec::Hot { bytes: 24 * 1024 }),
                (
                    0.09,
                    PatternSpec::Zipf {
                        dataset_bytes: 48 << 20,
                        s: 0.85,
                        object_bytes: 256,
                        burst: 2,
                        write_frac: 0.08,
                    },
                ),
                (
                    0.007,
                    PatternSpec::Chase {
                        region_bytes: 8 << 30,
                        node_bytes: 64,
                        chains: 2,
                        write_frac: 0.05,
                    },
                ),
                (
                    0.008,
                    PatternSpec::Zipf {
                        dataset_bytes: 10 << 30,
                        s: 0.85,
                        object_bytes: 512,
                        burst: 4,
                        write_frac: 0.05,
                    },
                ),
                (0.008, PatternSpec::SharedRw { slots: 256, slot_bytes: 128, write_frac: 0.35 }),
            ],
            ilp: IlpModel::new(2.8, 0.50),
            os: Some(OsProfile {
                fraction: 0.22,
                burst_mean: 500.0,
                code: CodeProfile::new(2048 * 1024, 0.76, 0.014),
                data: OsProfile::network(0.22, 2048, 0.012).data,
                mix: InstrMix::server(),
            }),
            shared_data: true,
        }
    }

    /// Web Backend: MySQL 5.5.9 with a 2 GB buffer pool executing the
    /// database half of the Web Frontend benchmark.
    pub fn web_backend() -> Self {
        Self {
            name: "Web Backend".into(),
            code: CodeProfile::new(2048 * 1024, 0.78, 0.016),
            mix: InstrMix::server(),
            data: vec![
                (0.62, PatternSpec::Hot { bytes: 24 * 1024 }),
                (
                    0.08,
                    PatternSpec::Zipf {
                        dataset_bytes: 32 << 20,
                        s: 0.85,
                        object_bytes: 256,
                        burst: 2,
                        write_frac: 0.08,
                    },
                ),
                (
                    0.009,
                    PatternSpec::Chase {
                        region_bytes: 2 << 30,
                        node_bytes: 64,
                        chains: 2,
                        write_frac: 0.08,
                    },
                ),
                (
                    0.008,
                    PatternSpec::Zipf {
                        dataset_bytes: 2 << 30,
                        s: 0.9,
                        object_bytes: 512,
                        burst: 4,
                        write_frac: 0.05,
                    },
                ),
                (0.008, PatternSpec::SharedRw { slots: 256, slot_bytes: 128, write_frac: 0.35 }),
            ],
            ilp: IlpModel::new(3.1, 0.38),
            os: Some(OsProfile::network(0.24, 1792, 0.015)),
            shared_data: true,
        }
    }

    /// A cache-polluter thread (§3.1): walks an array of `array_bytes` in a
    /// pseudo-random order so that every access misses the L1/L2 and hits
    /// the LLC, stealing that much LLC capacity from the workload under
    /// test. Used by the Figure 4 methodology.
    pub fn polluter(array_bytes: u64) -> Self {
        Self {
            name: format!("polluter-{}MB", array_bytes >> 20),
            code: CodeProfile::new(4 * 1024, 0.9, 0.001),
            mix: InstrMix { load: 0.60, store: 0.0, fp: 0.0, mul: 0.0, div: 0.0 },
            data: vec![(
                1.0,
                PatternSpec::Chase {
                    region_bytes: array_bytes,
                    node_bytes: 64,
                    chains: 24,
                    write_frac: 0.0,
                },
            )],
            ilp: IlpModel::new(8.0, 0.0),
            os: None,
            shared_data: false,
        }
    }

    /// All traditional comparison profiles, in the paper's figure order.
    pub fn traditional_suite() -> Vec<Self> {
        vec![
            Self::parsec_cpu(),
            Self::parsec_mem(),
            Self::specint_cpu(),
            Self::specint_mem(),
            Self::specweb09(),
            Self::tpcc(),
            Self::tpce(),
            Self::web_backend(),
        ]
    }

    /// Validates structural invariants of the profile.
    ///
    /// # Panics
    ///
    /// Panics if the instruction mix or pattern weights are malformed.
    pub fn validate(&self) {
        self.mix.validate();
        assert!(!self.data.is_empty(), "profile needs at least one data pattern");
        let total: f64 = self.data.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0, "data pattern weights must be positive");
        assert!(self.data.iter().all(|(w, _)| *w >= 0.0), "negative pattern weight");
        if let Some(os) = &self.os {
            os.mix.validate();
            assert!((0.0..1.0).contains(&os.fraction), "os fraction must be in [0,1)");
            assert!(!os.data.is_empty(), "os profile needs data patterns");
            assert!(os.data.iter().all(|(w, _)| *w >= 0.0), "negative os pattern weight");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_stock_profiles_validate() {
        for p in WorkloadProfile::traditional_suite()
            .into_iter()
            .chain([WorkloadProfile::mcf(), WorkloadProfile::polluter(4 << 20)])
        {
            p.validate();
        }
    }

    #[test]
    fn cpu_benchmarks_fit_in_l1i() {
        for p in [WorkloadProfile::specint_cpu(), WorkloadProfile::parsec_cpu()] {
            assert!(p.code.footprint_bytes <= 32 * 1024, "{}", p.name);
        }
    }

    #[test]
    fn desktop_and_parallel_benchmarks_are_private() {
        for p in [
            WorkloadProfile::specint_cpu(),
            WorkloadProfile::specint_mem(),
            WorkloadProfile::parsec_cpu(),
            WorkloadProfile::parsec_mem(),
            WorkloadProfile::mcf(),
        ] {
            assert!(p.os.is_none(), "{}", p.name);
            assert!(!p.shared_data, "{} must not share data", p.name);
        }
    }

    #[test]
    fn mix_validation_rejects_oversubscription() {
        let mut mix = InstrMix::server();
        mix.load = 0.95;
        let result = std::panic::catch_unwind(move || mix.validate());
        assert!(result.is_err());
    }

    #[test]
    fn polluter_is_pure_chase() {
        let p = WorkloadProfile::polluter(6 << 20);
        assert_eq!(p.data.len(), 1);
        assert!(matches!(p.data[0].1, PatternSpec::Chase { .. }));
        assert!(p.os.is_none());
    }

    #[test]
    fn suites_have_paper_cardinalities() {
        assert_eq!(WorkloadProfile::traditional_suite().len(), 8);
    }
}
