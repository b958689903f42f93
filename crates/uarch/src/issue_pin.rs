//! Snapshot-hash pin of the issue stage.
//!
//! Runs synthetic traces that stress the scheduler — long load chains
//! that saturate the MSHRs, FP and divide bursts that run out of ports,
//! store RFOs, mispredicted branches and kernel ops — through a small
//! chip on every core shape the harness builds, and checks the `fnv1a64`
//! of [`Chip::encode_snap`] at every 1024-cycle stride against recorded
//! hashes. Any change to issue order, structural blocking, `ready_dirty`
//! or the cycle-skip certificates changes the snapshot bytes and fails
//! here. The traces are built with [`splitmix64`] only, so the hashes do
//! not depend on the workload generators' random draws.

use crate::branch::BranchModel;
use crate::chip::Chip;
use crate::config::{CoreConfig, SmtFetchPolicy};
use cs_memsys::{CacheConfig, MemSysConfig};
use cs_trace::rng::splitmix64;
use cs_trace::snap::{fnv1a64, Dec, Enc};
use cs_trace::source::VecSource;
use cs_trace::{MicroOp, OpKind, Privilege};

const STRIDE: u64 = 1024;
const STRIDES: usize = 16;
const OPS_PER_THREAD: usize = 16_000;

/// One thread's trace: 96-op phases rotating through four mixes.
fn pin_trace(thread: u64) -> Vec<MicroOp> {
    let mut x = splitmix64(0x1551_E000 ^ thread);
    let mut ops = Vec::with_capacity(OPS_PER_THREAD);
    for i in 0..OPS_PER_THREAD as u64 {
        x = splitmix64(x);
        let r = x;
        let pc = 0x40_0000 + (thread << 20) + 4 * (i % 128);
        // Far addresses spread over 8 MiB miss the 1 MiB LLC.
        let far = 0x1000_0000 + (thread << 32) + ((r >> 20) % (1 << 17)) * 64;
        let near = 0x800_0000 + (thread << 32) + ((r >> 20) % 512) * 8;
        let small_dep = (r >> 8) % 6;
        let op = match (i / 96) % 4 {
            // Mixed integer work with branches, some mispredicted.
            0 => match r % 8 {
                0 => MicroOp::branch(pc, (r >> 40).is_multiple_of(13)),
                1 => MicroOp::load(pc, if (r >> 30).is_multiple_of(8) { far } else { near }, 8)
                    .with_deps(small_dep, 0),
                2 => MicroOp::of_kind(pc, OpKind::IntMul).with_deps(small_dep, 3),
                _ => MicroOp::alu(pc).with_deps(small_dep, (r >> 16) % 9),
            },
            // FP and divide bursts: mostly independent, so they run out of
            // the FP port and the single divider rather than operands.
            1 => match r % 8 {
                0..=3 => MicroOp::of_kind(pc, OpKind::Fp).with_deps(small_dep, 0),
                4 | 5 => MicroOp::of_kind(pc, OpKind::IntDiv).with_deps(small_dep, 0),
                6 => MicroOp::load(pc, near, 8),
                _ => MicroOp::of_kind(pc, OpKind::IntMul).with_deps(1, 0),
            },
            // Store RFOs to far lines, with near loads and ALU work.
            2 => match r % 5 {
                0 | 1 => MicroOp::store(pc, far, 8).with_deps(small_dep, 0),
                3 => MicroOp::load(pc, near, 8).with_deps(small_dep, 0),
                _ => MicroOp::alu(pc).with_deps(1, 2),
            },
            // Load chains: far loads that each depend on the op 20 back,
            // so many chains interleave and more misses are ready than
            // the 16 MSHRs hold.
            _ => match r % 5 {
                0 | 1 => MicroOp::alu(pc).with_deps(1, small_dep),
                _ => MicroOp::load(pc, far, 8).with_deps(20, 0),
            },
        };
        let kernel = (r >> 50).is_multiple_of(16);
        ops.push(if kernel { op.with_privilege(Privilege::Kernel) } else { op });
    }
    ops
}

/// A chip with one core of `cfg` and a 1 MiB LLC, each hardware thread
/// fed its own pin trace.
fn pin_chip(cfg: CoreConfig) -> Chip {
    let mem =
        MemSysConfig { llc: CacheConfig::llc().with_size(1 << 20), ..MemSysConfig::default() };
    let mut chip = Chip::new(cfg, mem, 1);
    for t in 0..cfg.smt_threads {
        chip.attach(0, Box::new(VecSource::new(pin_trace(t as u64))));
    }
    chip
}

fn snap_hash(chip: &Chip) -> u64 {
    let mut e = Enc::new();
    chip.encode_snap(&mut e);
    fnv1a64(&e.buf)
}

fn stride_hashes(cfg: CoreConfig) -> Vec<u64> {
    let mut chip = pin_chip(cfg);
    (0..STRIDES)
        .map(|_| {
            chip.run_cycles(STRIDE);
            snap_hash(&chip)
        })
        .collect()
}

fn gshare() -> CoreConfig {
    CoreConfig { branch_model: BranchModel::Gshare { bits: 12 }, ..CoreConfig::x5670() }
}

fn smt(policy: SmtFetchPolicy) -> CoreConfig {
    CoreConfig { smt_fetch: policy, ..CoreConfig::x5670_smt() }
}

/// The `trends` experiment's next-generation core: 6-wide, a 256-entry
/// ROB, every slot a thread can address.
fn future() -> CoreConfig {
    CoreConfig {
        width: 6,
        fetch_width: 6,
        rob_entries: 256,
        load_queue: 72,
        store_queue: 48,
        reservation_stations: 60,
        mshrs: 20,
        ..CoreConfig::x5670()
    }
}

fn cases() -> Vec<(&'static str, CoreConfig)> {
    vec![
        ("x5670", CoreConfig::x5670()),
        ("x5670_smt_rr", smt(SmtFetchPolicy::RoundRobin)),
        ("x5670_smt_icount", smt(SmtFetchPolicy::Icount)),
        ("narrow2", CoreConfig::narrow2()),
        ("in_order2", CoreConfig::in_order2()),
        ("gshare", gshare()),
        ("future6_rob256", future()),
    ]
}

/// `fnv1a64` of the chip snapshot after each stride, per case. Recorded
/// with an issue stage that scanned the whole waiting list every pass
/// (`future6_rob256`: with sorted ready lists and a tuple completion
/// heap); the slot-set issue stage must reproduce it bit for bit.
#[rustfmt::skip]
const PINS: [(&str, [u64; STRIDES]); 7] = [
    (
        "x5670",
        [
            0xe7c8e196398ebd82, 0xce3a55cbadfc2fa5, 0x5ecad06df3e1f4c5, 0xcc2d382d8ea41bfe,
            0xd7e877d7b4d978bf, 0x92c7b05f2e9b2957, 0x68f046b12dce6161, 0x78887397ce79abfe,
            0x51fdda5c5cabecdd, 0x25ac88edd392fac9, 0x03666629305ce7b7, 0x7f69c7c43f45ca5a,
            0xbb7ed0d4266963be, 0x97dd7d7fb2863dc1, 0x91926a32ba9e6306, 0x670e2b492166a0a7,
        ],
    ),
    (
        "x5670_smt_rr",
        [
            0xfde12649e5ec7935, 0x47293c871bcb6a9f, 0xfbc6e27a51329a08, 0x65a16cc8249c5139,
            0x72bf276d079f1194, 0x06ca5162aef06ef2, 0x007bccc034f05907, 0x04b7f666bd3dc801,
            0xb01f804d7b296987, 0xf15d8593d07fd49f, 0x663981eb32ae0e0e, 0x913aeb731baee46b,
            0x8590c2730f23283f, 0xd86a770fd947e896, 0x3c218f19a5807fba, 0x0cf912badf5e1bf9,
        ],
    ),
    (
        "x5670_smt_icount",
        [
            0xde19e1756b763711, 0x1473bbecffcb4627, 0x0e0a9cb482d71b0e, 0x541bbc0dc9b38e80,
            0xddca34b826e1cc38, 0xa11a05ead9598141, 0x33095567d8dfcf75, 0x732ca6d51dc45110,
            0xb7b5fcfda3bf35ea, 0x78f73e83183653b5, 0xb485be93aa3887b7, 0x9ccf1171589e8f70,
            0x7d8eff4bd9fe2a5a, 0x5d2085e8ac4108dd, 0x3aebffe9c7637391, 0x5e2515a3e266c7ce,
        ],
    ),
    (
        "narrow2",
        [
            0xee3507267456f815, 0x92a15afd6801b5b1, 0x5920394166b2540c, 0x9a5bd9ef10f49ed7,
            0xf83cd460aa1cef60, 0x049a28ceaa916e14, 0x26e2e008b8c71b9d, 0x6da670e724fc6513,
            0x1adf24f6e6ff07e5, 0xa858976f1584e97c, 0x38b96e0efbd975ed, 0xf7a839d4ab32fbc7,
            0x99522d2e82bfbef0, 0x1188ec1572a6a55d, 0x8c65bc371bd17661, 0x0a396c03bc7d636a,
        ],
    ),
    (
        "in_order2",
        [
            0x541aa6a0b8c9c852, 0xb6651367b6697eae, 0x20d67fb0ba06a7cb, 0x54f6d20252682330,
            0x6f60175e40a7d6e9, 0xd453150154c2df1c, 0x4e1c204a6f2aef92, 0xe14a2cae14f740c5,
            0x118f429141634592, 0x5cc98a58cc35c00c, 0x0eb0c95fb0737838, 0x61fe5ffa924ebe05,
            0x3351033a1a75992f, 0x3f34c5da2213eb14, 0xc0840068af6b777a, 0x70bd7f89f2f5fca8,
        ],
    ),
    (
        "gshare",
        [
            0x13318cee17f8159d, 0x31cf89b613108550, 0x70d0dc84cf304249, 0xd00efea35b898826,
            0x9a2136f31ef35d6e, 0x534ecba917dc5272, 0xbbe86ed517aef79f, 0x0f4fc6499da9b577,
            0xf872cef86951187f, 0x1c1b4ac6ac9c87ae, 0xe0b12abc31e77a65, 0x244caf4efd6f061d,
            0x1fd4c63dbf619b89, 0x1c003fe275cf0164, 0x10a63e1514a98d57, 0x535e906869461c8c,
        ],
    ),
    (
        "future6_rob256",
        [
            0x45cb876030d7ee67, 0xc3e0fe6922e81fca, 0x37a0430bf6c542ef, 0xeb6e9eddfd68cc11,
            0x261654d7d16aedd5, 0x5a00f395824ada27, 0x5ae98cc70730365e, 0x294e44b4ba809d95,
            0xc9617a9fbcf1ff58, 0x32cef80116002edf, 0xf0c87e345701a2b6, 0xb93b630fec4d237b,
            0xeab8f556be7d4fba, 0x921675faad205d7f, 0x6c9ac94cdfb9d88b, 0x11b873380a6e2a47,
        ],
    ),
];

#[test]
fn snapshots_match_pinned_hashes_at_every_stride() {
    for ((name, cfg), (pin_name, pins)) in cases().into_iter().zip(PINS) {
        assert_eq!(name, pin_name);
        for (k, (got, want)) in stride_hashes(cfg).into_iter().zip(pins).enumerate() {
            assert_eq!(
                got,
                want,
                "{name}: snapshot hash at cycle {} is {got:#018x}, pinned {want:#018x}",
                (k as u64 + 1) * STRIDE
            );
        }
    }
}

#[test]
fn mid_window_restore_continues_on_the_pinned_hashes() {
    let (name, cfg) = ("x5670_smt_rr", smt(SmtFetchPolicy::RoundRobin));
    let pins = PINS.iter().find(|(n, _)| *n == name).expect("case pinned").1;
    // A cycle inside a load-chain phase where both threads hold woken ops
    // that the MSHR gate keeps from issuing: the restore must rebuild
    // non-empty ready sets.
    let snap_at = 7 * STRIDE + 648;
    let mut live = pin_chip(cfg);
    live.run_cycles(snap_at);
    assert!(live.cores()[0].ready_counts().iter().all(|&r| r > 0), "ready sets empty");
    let mut e = Enc::new();
    live.encode_snap(&mut e);
    let mut restored = pin_chip(cfg);
    let mut d = Dec::new(&e.buf);
    restored.restore_snap(&mut d).expect("restore");
    d.finish().expect("full consumption");
    assert_eq!(snap_hash(&restored), fnv1a64(&e.buf), "save(restore(s)) == s");
    assert_eq!(restored.cores()[0].ready_counts(), live.cores()[0].ready_counts());
    for (k, want) in pins.iter().enumerate().skip((snap_at / STRIDE) as usize) {
        let at = (k as u64 + 1) * STRIDE;
        for chip in [&mut live, &mut restored] {
            chip.run_cycles(at - chip.cycle());
        }
        assert_eq!(snap_hash(&live), *want, "live run at cycle {at}");
        assert_eq!(snap_hash(&restored), *want, "restored run at cycle {at}");
    }
}
