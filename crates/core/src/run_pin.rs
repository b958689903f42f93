//! Result-hash pin of the harness.
//!
//! Runs the §3.1 pipeline at tiny windows on every shape the phase machine
//! distinguishes — solo, SMT with pre-warmed polluters, sampled with and
//! without detailed re-warm, a co-located pair under both QoS mitigations,
//! and a sampled run killed mid-sample and resumed — and checks the
//! `fnv1a64` of each [`RunResult`]'s `Debug` rendering against recorded
//! hashes. A refactor of the phase loop, the machine build or the result
//! assembly that moves one counter fails here in a debug `cargo test`,
//! rather than in a release-only campaign diff.
//!
//! The killed-and-resumed case also pins the `fnv1a64` of every snapshot
//! payload it loads (phase marker, sampling accumulator and chip). A codec
//! change that moves a byte of the checkpoint layout fails here even when
//! its decoder moves with it and the final result stays the same.

use crate::checkpoint::{
    load_envelope, unit_file, unit_key, with_checkpointing, CheckpointCtl,
};
use crate::errors::HarnessError;
use crate::harness::{run, run_colocated, RunConfig, RunResult};
use crate::registry::Benchmark;
use crate::sampling::Phase;
use cs_trace::snap::{fnv1a64, Dec};

fn tiny() -> RunConfig {
    RunConfig {
        workers: 2,
        warmup_instr: 30_000,
        measure_instr: 60_000,
        max_cycles: 4_000_000,
        ..RunConfig::default()
    }
}

fn sampled(sample_warmup_instr: u64) -> RunConfig {
    RunConfig { sample_windows: 3, sample_period: 40_000, sample_warmup_instr, ..tiny() }
}

fn result_hash(r: &RunResult) -> u64 {
    fnv1a64(format!("{r:?}").as_bytes())
}

/// Runs the sampled three-window shape under a checkpoint control that
/// interrupts it at increasing cycles, resuming from each saved snapshot,
/// and returns the final result with the digest of every payload loaded.
/// Asserts that at least one interrupt landed inside the sampling phase
/// with a completed window in its accumulator.
fn interrupted_mid_sample() -> (RunResult, Vec<u64>) {
    let bench = Benchmark::mcf();
    let cfg = sampled(10_000);
    let dir = std::env::temp_dir().join(format!("cs-run-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = unit_key("run-pin", bench.name(), &cfg);
    let path = dir.join(unit_file(key));
    let mut mid_sample = 0;
    let mut payloads = Vec::new();
    let mut k = 60_000u64;
    let result = loop {
        let mut ctl = CheckpointCtl::new(dir.clone(), "run-pin");
        ctl.cadence_cycles = 0;
        ctl.interrupt_after = Some(k);
        match with_checkpointing(ctl, || run(&bench, &cfg)) {
            Err(HarnessError::Interrupted) => {
                let payload = load_envelope(&path, key).expect("interrupt saves a snapshot");
                payloads.push(fnv1a64(&payload));
                let phase = Phase::decode_snap(&mut Dec::new(&payload)).expect("phase decodes");
                if let Phase::Sample { acc, .. } = phase {
                    mid_sample += usize::from(!acc.samples.is_empty());
                }
                k += 60_000;
            }
            Ok(r) => break r,
            Err(other) => panic!("unexpected error: {other:?}"),
        }
        assert!(k < 64 * 60_000, "run never completed");
    };
    let _ = std::fs::remove_dir_all(&dir);
    assert!(mid_sample >= 1, "no interrupt landed after a completed sampling window");
    (result, payloads)
}

fn cases() -> (Vec<(&'static str, RunResult)>, Vec<u64>) {
    let mcf = Benchmark::mcf();
    let ok = |r: Result<RunResult, HarnessError>| r.expect("pinned shapes are valid");
    let pair = [Benchmark::mcf(), Benchmark::data_serving()];
    let qos = RunConfig {
        llc_way_masks: Some(vec![0x00FF, 0xFF00]),
        dram_budgets: Some(vec![64 * 1024, 64 * 1024]),
        workers: 1,
        ..tiny()
    };
    let (resumed, payloads) = interrupted_mid_sample();
    let cases = vec![
        ("solo", ok(run(&mcf, &tiny()))),
        (
            "smt_polluters",
            ok(run(&mcf, &RunConfig { smt: true, polluter_bytes: Some(2 << 20), ..tiny() })),
        ),
        ("sampled", ok(run(&mcf, &sampled(10_000)))),
        ("sampled_no_rewarm", ok(run(&mcf, &sampled(0)))),
        ("colocated_qos", ok(run_colocated(&pair, &qos))),
        ("sampled_resumed", resumed),
    ];
    (cases, payloads)
}

/// `fnv1a64` of each case's `format!("{:?}", RunResult)`. Recorded before
/// the phase loop was split into machine build, one stepping path and one
/// result assembly; every later harness change must reproduce them. The
/// resumed case equals the uninterrupted sampled one by construction.
const PINS: [(&str, u64); 6] = [
    ("solo", 0x58fe_5d3e_9e5a_115f),
    ("smt_polluters", 0x2508_99a2_0b85_bcde),
    ("sampled", 0x1b4e_5aef_7dda_024b),
    ("sampled_no_rewarm", 0x616c_e7a3_8826_88a8),
    ("colocated_qos", 0x538d_5249_cc31_6d5e),
    ("sampled_resumed", 0x1b4e_5aef_7dda_024b),
];

/// `fnv1a64` of each payload the killed-and-resumed case loads, in load
/// order. A change that moves one byte of the snapshot layout must bump
/// `checkpoint::VERSION` and re-record them.
const PAYLOAD_PINS: [u64; 9] = [
    0x0652_04d0_830e_4edc,
    0xf0da_2f2d_a362_1603,
    0xf582_8dca_ff9d_c8de,
    0x0152_3e7c_efe7_0db6,
    0x26af_98f6_8e1c_6d08,
    0x383c_c62b_9768_a8e5,
    0xa0fc_46fe_4972_47f6,
    0x2a1f_397a_9069_42cc,
    0x00f6_0c1a_5ab8_4107,
];

#[test]
fn run_results_match_pinned_hashes() {
    let (cases, payloads) = cases();
    let got: Vec<(&str, u64)> =
        cases.iter().map(|(name, r)| (*name, result_hash(r))).collect();
    assert_eq!(got, PINS, "{got:#018x?}");
    assert_eq!(payloads, PAYLOAD_PINS, "{payloads:#018x?}");
}
