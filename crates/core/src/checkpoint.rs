//! Crash-safe mid-run checkpointing.
//!
//! A long figure campaign is hours of simulation; a kill signal, OOM or
//! power loss used to throw away every half-finished unit. This module
//! provides the two pieces that make interruption cheap instead:
//!
//! - **A versioned, checksummed snapshot envelope** ([`save_envelope`] /
//!   [`load_envelope`]) written atomically (unique temp file + `fsync` +
//!   `rename`), so a crash mid-write can never leave a torn file that
//!   parses. The payload is the harness phase machine plus the full
//!   [`cs_uarch::Chip`] snapshot — everything the simulator needs to
//!   continue a run *byte-identically*.
//! - **A thread-local checkpoint control** ([`CheckpointCtl`], installed
//!   with [`with_checkpointing`]) that the harness polls at deterministic
//!   cycle boundaries: it carries the snapshot directory, the cadence, the
//!   cooperative stop flag the signal handler sets, and (for tests and CI)
//!   a deterministic interrupt-after-cycle trigger. It also collects what
//!   each finished unit reports back: the checkpoint files it used and its
//!   phase telemetry. It carries a [`RunMemo`] too: a campaign pass puts
//!   one memo on every control, so every lane of every experiment shares
//!   one result per distinct run.
//!
//! # Soundness of byte-identical resume
//!
//! The simulator is a pure function of its configuration and seeds: trace
//! sources have no feedback from simulation, and every component exposes
//! `encode_snap`/`restore_snap` covering its complete mutable state. A
//! checkpoint is only ever taken *between* [`cs_uarch::Chip::run_cycles`]
//! strides whose lengths are independent of the checkpoint cadence
//! ([`cs_uarch::Chip::step_watched`]), so the sequence of simulated work is
//! literally the same whether a run is interrupted zero or many times.
//! Anything that would break this property (a time-dependent decision, an
//! unserialized piece of state) is a bug, and the round-trip and
//! kill/resume tests exist to catch it.
//!
//! # Degraded reads
//!
//! [`load_envelope`] never fails the run: a missing, truncated, corrupt,
//! version-skewed or config-mismatched checkpoint logs one line to stderr
//! and returns `None`, and the harness starts the unit from scratch — a
//! fresh run produces the same bytes an uninterrupted run would, so
//! dropping a bad checkpoint is always safe.
//!
//! Structurally bad files — bad magic, version skew, truncation, checksum
//! mismatch, or a payload that no longer decodes — are additionally
//! **quarantined**: atomically renamed to `<name>.corrupt` next to the
//! original ([`quarantine`]), so the evidence survives for a post-mortem
//! instead of being silently overwritten by the fresh run's next snapshot.
//! A config-hash mismatch is *not* quarantined: the envelope is intact,
//! it just belongs to a different unit of work.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};

use crate::errors::HarnessError;
use crate::harness::RunResult;
use crate::sampling::PhaseTelemetry;
use cs_trace::snap::fnv1a64;

/// File magic of a checkpoint envelope (the trailing `01` is the major
/// format generation; the explicit version field below tracks revisions).
pub const MAGIC: &[u8; 8] = b"CSCKPT01";
/// Current envelope version. Bump on any layout change of the payload;
/// readers reject other versions (and the harness then starts fresh).
/// Version 2: per-core fidelity byte in the core snapshot and the
/// SMARTS sampling phase (window bookkeeping + statistics accumulator).
/// Version 3: tenant byte per LLC line and the optional DRAM bandwidth
/// regulator cursors (multi-tenant co-location QoS).
/// Version 4: an overlapped sampling phase (tag 4) and two accumulator
/// cycle counters.
/// Version 5: tag 4 and the two counters removed again. The payload is
/// laid out as in version 3; the number still moves forward so that a
/// version 4 file is rejected rather than misread.
pub const VERSION: u32 = 5;

/// Default checkpoint cadence in simulated cycles.
pub const DEFAULT_CADENCE_CYCLES: u64 = 2_000_000;

/// Monotonic suffix for temp files, so concurrent writers in one process
/// never collide.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Shared control block for checkpointing, installed per unit of work via
/// [`with_checkpointing`] and polled by the harness at deterministic cycle
/// boundaries.
#[derive(Debug, Clone)]
pub struct CheckpointCtl {
    /// Directory snapshot files live in (created on first save).
    pub dir: PathBuf,
    /// Take a snapshot roughly every this many simulated cycles (`0`
    /// disables cadence snapshots; stop/interrupt snapshots still happen).
    pub cadence_cycles: u64,
    /// Cooperative stop flag (set by the SIGINT/SIGTERM handler). When
    /// observed, the harness saves a snapshot and returns
    /// [`crate::errors::HarnessError::Interrupted`].
    pub stop: Arc<AtomicBool>,
    /// Deterministic interruption for tests and CI: behave exactly like a
    /// kill signal once the chip reaches this cycle.
    pub interrupt_after: Option<u64>,
    /// Namespace for unit keys (the experiment name), so identical
    /// configurations in different experiments never share a checkpoint.
    pub scope: String,
    /// File names of every checkpoint this control read or wrote, for the
    /// campaign layer to record in the manifest and clean up after the
    /// experiment's results are durably emitted.
    pub used: Arc<Mutex<Vec<String>>>,
    /// Phase telemetry of every sampled unit that finished under this
    /// control, for the campaign layer to write outside the results tree.
    pub telemetry: Arc<Mutex<Vec<PhaseTelemetry>>>,
    /// The run memo. [`CheckpointCtl::new`] gives each control its own; a
    /// campaign pass replaces it with one memo shared by every experiment
    /// of the pass.
    pub memo: Arc<RunMemo>,
}

impl CheckpointCtl {
    /// A control block with the given directory and scope, default cadence,
    /// a fresh stop flag and no deterministic interrupt.
    pub fn new(dir: PathBuf, scope: impl Into<String>) -> Self {
        Self {
            dir,
            cadence_cycles: DEFAULT_CADENCE_CYCLES,
            stop: Arc::new(AtomicBool::new(false)),
            interrupt_after: None,
            scope: scope.into(),
            used: Arc::new(Mutex::new(Vec::new())),
            telemetry: Arc::new(Mutex::new(Vec::new())),
            memo: Arc::default(),
        }
    }

    /// Records that `file` (a bare file name inside [`CheckpointCtl::dir`])
    /// belongs to the current unit of work.
    pub fn note_used(&self, file: &str) {
        if let Ok(mut v) = self.used.lock() {
            if !v.iter().any(|f| f == file) {
                v.push(file.to_owned());
            }
        }
    }

    /// Records one finished unit's phase telemetry.
    pub fn note_telemetry(&self, record: PhaseTelemetry) {
        if let Ok(mut v) = self.telemetry.lock() {
            v.push(record);
        }
    }

    /// Takes every telemetry record noted since the last take.
    pub fn take_telemetry(&self) -> Vec<PhaseTelemetry> {
        self.telemetry.lock().map(|mut v| std::mem::take(&mut *v)).unwrap_or_default()
    }

    /// Sorted snapshot of the file names recorded via
    /// [`CheckpointCtl::note_used`].
    pub fn used_files(&self) -> Vec<String> {
        let mut v = self.used.lock().map(|v| v.clone()).unwrap_or_default();
        v.sort();
        v
    }
}

/// The distinct runs of one campaign pass, keyed by canonical run string
/// ([`run_canon`]): every run is a pure function of that string, so a
/// second caller can take the first caller's result instead of simulating
/// it again.
///
/// Each key has its own slot, locked by its first caller for as long as it
/// simulates; a caller that reaches the same key meanwhile waits for that
/// result, with its [`crate::par`] lane handed back so another item can
/// run in its place. Only successful runs are stored. A failed or
/// interrupted run leaves its slot empty, and the next caller simulates it
/// again and meets the same error, so failure handling and retries see no
/// memo at all.
///
/// `cycle_skip` is not in the string: it only moves the inspect-only
/// [`RunResult::cycles_skipped`], and a campaign pass runs every
/// experiment with one setting.
#[derive(Debug, Default)]
pub struct RunMemo {
    slots: Mutex<HashMap<String, Arc<Mutex<Option<RunResult>>>>>,
    simulated: AtomicU64,
    reused: AtomicU64,
}

impl RunMemo {
    /// The stored result of the run `canon`, or the result of `simulate`,
    /// stored if it is `Ok`.
    pub fn run(
        &self,
        canon: String,
        simulate: impl FnOnce() -> Result<RunResult, HarnessError>,
    ) -> Result<RunResult, HarnessError> {
        // The map only ever gains whole entries, and a slot is only ever
        // written with a finished result, so a lock poisoned by a
        // panicking simulation still guards valid data.
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(slots.entry(canon).or_default())
        };
        // A slot that is locked is being simulated on another lane: hand
        // this thread's lane back while it waits for that result.
        let mut held = match slot.try_lock() {
            Ok(held) => held,
            Err(TryLockError::Poisoned(held)) => held.into_inner(),
            Err(TryLockError::WouldBlock) => crate::par::blocking(|| {
                slot.lock().unwrap_or_else(PoisonError::into_inner)
            }),
        };
        if let Some(result) = held.as_ref() {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return Ok(result.clone());
        }
        let result = simulate()?;
        self.simulated.fetch_add(1, Ordering::Relaxed);
        *held = Some(result.clone());
        Ok(result)
    }

    /// Runs simulated to a stored result, and runs answered from the memo.
    pub fn counts(&self) -> (u64, u64) {
        (self.simulated.load(Ordering::Relaxed), self.reused.load(Ordering::Relaxed))
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CheckpointCtl>> = const { RefCell::new(None) };
}

/// Runs `f` with `ctl` installed as the thread's checkpoint control; the
/// previous control (usually none) is restored afterwards, even on unwind.
pub fn with_checkpointing<R>(ctl: CheckpointCtl, f: impl FnOnce() -> R) -> R {
    struct Guard(Option<CheckpointCtl>);
    impl Drop for Guard {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctl));
    let _guard = Guard(prev);
    f()
}

/// The checkpoint control installed on this thread, if any.
pub fn current() -> Option<CheckpointCtl> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The canonical string of one run: the benchmark and every
/// [`crate::harness::RunConfig`] field that affects simulated bytes. Two
/// runs with the same canonical string produce the same
/// [`crate::harness::RunResult`], so it keys both the checkpoint of a unit
/// ([`unit_key`]) and a campaign pass's [`RunMemo`]. Deliberately
/// **excluded**: `jobs` and `cycle_skip`, which never change results (so a
/// checkpoint taken at `--jobs 4` resumes under `--jobs 1` and with skip
/// toggled). Deliberately **included**: `max_cycles` and `watchdog_grace` —
/// the campaign's widened-budget retry must not resume the failed
/// attempt's checkpoint, whose window cursor has the old budget baked in.
pub fn run_canon(bench: &str, cfg: &crate::harness::RunConfig) -> String {
    format!(
        "{bench}|{:?}|{:?}|{:?}|{:?}",
        (
            cfg.workers,
            cfg.smt,
            cfg.split_sockets,
            cfg.polluter_bytes,
            cfg.llc_bytes,
            cfg.prefetch,
            cfg.core,
            cfg.l1i_bytes,
            cfg.l2_bytes,
        ),
        (
            cfg.dram_channels,
            cfg.interconnect_latency,
            cfg.warmup_instr,
            cfg.measure_instr,
            cfg.max_cycles,
            cfg.seed,
            cfg.watchdog_grace,
            cfg.fault,
        ),
        // The trailing `false` keeps every key, and so every checkpoint
        // file name a campaign manifest records, unchanged from when this
        // tuple also carried a sampler-mode flag.
        (cfg.sample_windows, cfg.sample_period, cfg.sample_warmup_instr, false),
        (&cfg.llc_way_masks, &cfg.dram_budgets, cfg.dram_budget_window)
    )
}

/// Stable fingerprint of one unit of work: `fnv1a64` of the scope
/// (experiment name), a `|`, and the run's canonical string
/// ([`run_canon`]). The scope keeps identical configurations in different
/// experiments from sharing a checkpoint file.
pub fn unit_key(scope: &str, bench: &str, cfg: &crate::harness::RunConfig) -> u64 {
    fnv1a64(format!("{scope}|{}", run_canon(bench, cfg)).as_bytes())
}

/// File name of the checkpoint for `key` (inside [`CheckpointCtl::dir`]).
pub fn unit_file(key: u64) -> String {
    format!("{key:016x}.ckpt")
}

/// Writes `payload` to `path` atomically: a uniquely-named temp file in the
/// same directory is written, checksummed, `fsync`ed and renamed over the
/// destination. A crash at any point leaves either the old file or the new
/// one — never a torn hybrid (a torn temp file is ignored by readers and
/// harmless).
pub fn save_envelope(path: &Path, config_hash: u64, payload: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut header = [0u8; 36];
    header[..8].copy_from_slice(MAGIC);
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&config_hash.to_le_bytes());
    header[20..28].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[28..].copy_from_slice(&fnv1a64(payload).to_le_bytes());
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = std::fs::File::create(&tmp)?;
    // Header, then the payload in place: a multi-megabyte snapshot is
    // never copied into a joined buffer.
    f.write_all(&header)?;
    f.write_all(payload)?;
    f.sync_all()?;
    drop(f);
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Atomically renames a structurally corrupt snapshot to `<name>.corrupt`
/// so the fresh-run fallback cannot overwrite the evidence. Best-effort:
/// a failed rename (e.g. a read-only directory) is logged and the file is
/// left in place — the caller has already decided to ignore it either way.
pub fn quarantine(path: &Path, why: &str) {
    let mut name = path.as_os_str().to_owned();
    name.push(".corrupt");
    let dest = PathBuf::from(name);
    match std::fs::rename(path, &dest) {
        Ok(()) => eprintln!(
            "checkpoint: quarantined corrupt {} -> {} ({why})",
            path.display(),
            dest.display()
        ),
        Err(e) => eprintln!(
            "checkpoint: ignoring corrupt {} ({why}); quarantine rename failed: {e}",
            path.display()
        ),
    }
}

/// Reads and validates the envelope at `path`, returning the payload.
///
/// Returns `None` — and the caller starts the unit from scratch — when the
/// file is missing, unreadable, truncated, has the wrong magic, an unknown
/// version, a checksum mismatch, or was written for a different
/// configuration (`config_hash`). Every reason except "missing" is logged
/// to stderr, because it usually means a crashed writer or a stale format
/// worth knowing about. Structural defects (anything except a config-hash
/// mismatch) also [`quarantine`] the file as `<name>.corrupt`.
pub fn load_envelope(path: &Path, config_hash: u64) -> Option<Vec<u8>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => {
            eprintln!("checkpoint: ignoring unreadable {}: {e}", path.display());
            return None;
        }
    };
    // An intact envelope for a different unit: ignored but not corrupt.
    let reject = |why: &str| {
        eprintln!("checkpoint: ignoring {}: {why}", path.display());
        None
    };
    // A structurally bad file: ignored and moved aside for post-mortem.
    let corrupt = |why: &str| {
        quarantine(path, why);
        None
    };
    if bytes.len() < 36 {
        return corrupt("truncated header");
    }
    if &bytes[0..8] != MAGIC {
        return corrupt("bad magic");
    }
    let rd_u32 = |o: usize| u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
    let rd_u64 = |o: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[o..o + 8]);
        u64::from_le_bytes(b)
    };
    if rd_u32(8) != VERSION {
        return corrupt("unsupported version");
    }
    if rd_u64(12) != config_hash {
        return reject("written for a different configuration");
    }
    let len = rd_u64(20);
    let checksum = rd_u64(28);
    let payload = &bytes[36..];
    if payload.len() as u64 != len {
        return corrupt("payload length mismatch");
    }
    if fnv1a64(payload) != checksum {
        return corrupt("checksum mismatch");
    }
    Some(payload.to_vec())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cs-ckpt-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn envelope_roundtrips() {
        let d = tdir("roundtrip");
        let p = d.join("a.ckpt");
        save_envelope(&p, 7, b"hello snapshot").expect("save");
        assert_eq!(load_envelope(&p, 7).as_deref(), Some(&b"hello snapshot"[..]));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn envelope_bytes_are_pinned() {
        let d = tdir("pinned");
        let p = d.join("a.ckpt");
        save_envelope(&p, 0x0102_0304_0506_0708, b"abc").expect("save");
        let mut want = b"CSCKPT01".to_vec();
        want.extend_from_slice(&[5, 0, 0, 0]);
        want.extend_from_slice(&[8, 7, 6, 5, 4, 3, 2, 1]);
        want.extend_from_slice(&[3, 0, 0, 0, 0, 0, 0, 0]);
        // FNV-1a 64 of "abc" is 0xe71fa2190541574b.
        want.extend_from_slice(&[0x4b, 0x57, 0x41, 0x05, 0x19, 0xa2, 0x1f, 0xe7]);
        want.extend_from_slice(b"abc");
        assert_eq!(std::fs::read(&p).expect("read"), want);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn envelope_rejects_corruption_and_skew() {
        let d = tdir("reject");
        let p = d.join("a.ckpt");
        let q = d.join("a.ckpt.corrupt");
        save_envelope(&p, 7, b"payload bytes").expect("save");
        // Wrong config hash: rejected but intact — NOT quarantined (the
        // envelope belongs to a different unit, it is not corrupt).
        assert_eq!(load_envelope(&p, 8), None);
        assert!(p.exists(), "config mismatch must leave the file in place");
        assert!(!q.exists());
        // Flip a payload byte: checksum mismatch, quarantined.
        let mut bytes = std::fs::read(&p).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&p, &bytes).expect("write");
        assert_eq!(load_envelope(&p, 7), None);
        assert!(!p.exists(), "corrupt snapshot must be moved aside");
        assert!(q.exists(), "corrupt snapshot must survive as .corrupt");
        // Truncation: quarantined too (renamed over the earlier quarantine;
        // the latest evidence wins).
        std::fs::write(&p, &bytes[..10]).expect("write");
        assert_eq!(load_envelope(&p, 7), None);
        assert!(!p.exists());
        assert!(q.exists());
        // Missing file: silent None, nothing quarantined.
        assert_eq!(load_envelope(&d.join("absent.ckpt"), 7), None);
        assert!(!d.join("absent.ckpt.corrupt").exists());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn envelope_rejects_other_versions() {
        let d = tdir("version");
        let p = d.join("a.ckpt");
        save_envelope(&p, 1, b"x").expect("save");
        let mut bytes = std::fs::read(&p).expect("read");
        bytes[8] = bytes[8].wrapping_add(1);
        std::fs::write(&p, &bytes).expect("write");
        assert_eq!(load_envelope(&p, 1), None);
        assert!(
            d.join("a.ckpt.corrupt").exists(),
            "version skew is structural: the file must be quarantined"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn save_replaces_atomically_and_leaves_no_temp_files() {
        let d = tdir("atomic");
        let p = d.join("a.ckpt");
        save_envelope(&p, 1, b"first").expect("save");
        save_envelope(&p, 1, b"second, longer payload").expect("save");
        assert_eq!(load_envelope(&p, 1).as_deref(), Some(&b"second, longer payload"[..]));
        let leftovers: Vec<_> = std::fs::read_dir(&d)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn unit_key_ignores_jobs_and_skip_but_not_budgets() {
        let base = crate::harness::RunConfig::quick();
        let bench = "web_search";
        let k = unit_key("fig1", bench, &base);
        let mut jobs = base.clone();
        jobs.jobs = 8;
        jobs.cycle_skip = false;
        assert_eq!(unit_key("fig1", bench, &jobs), k, "jobs/skip must not change the key");
        let mut widened = base.clone();
        widened.max_cycles *= 4;
        assert_ne!(unit_key("fig1", bench, &widened), k, "budget changes must change the key");
        let mut sampled = base.clone();
        sampled.sample_windows = 8;
        sampled.sample_period = 100_000;
        assert_ne!(unit_key("fig1", bench, &sampled), k, "sampling must change the key");
        let mut qos = base.clone();
        qos.llc_way_masks = Some(vec![0x00FF, 0xFF00]);
        assert_ne!(unit_key("fig1", bench, &qos), k, "way masks must change the key");
        let mut qos = base.clone();
        qos.dram_budgets = Some(vec![4096, 4096]);
        assert_ne!(unit_key("fig1", bench, &qos), k, "budgets must change the key");
        assert_ne!(unit_key("fig2", bench, &base), k, "scope must namespace the key");
        assert_ne!(unit_key("fig1", "mcf", &base), k, "bench must namespace the key");
    }

    #[test]
    fn unit_keys_are_pinned() {
        // Campaign manifests record checkpoint file names, which are these
        // keys: a key that drifts changes every results tree.
        let base = crate::harness::RunConfig::quick();
        assert_eq!(unit_key("fig1", "web_search", &base), 0x4503_f125_201f_6af3);
        let sampled = crate::harness::RunConfig {
            sample_windows: 8,
            sample_period: 100_000,
            sample_warmup_instr: 2_000,
            ..base
        };
        assert_eq!(unit_key("sampled_ipc", "Data Serving", &sampled), 0x8974_abba_dc8f_fed9);
    }

    /// A result that only its name and cycle count tell apart.
    pub(crate) fn stub(name: &str, cycles: u64) -> RunResult {
        RunResult {
            name: name.to_owned(),
            cycles,
            cores: Vec::new(),
            mem: Vec::new(),
            polluter_mem: Vec::new(),
            dram: Default::default(),
            peak_bytes_per_cycle: 0.0,
            n_workers: 0,
            requests: None,
            status: crate::harness::RunStatus::Completed,
            cycles_total: cycles,
            cycles_skipped: 0,
            samples: Vec::new(),
            tenants: Vec::new(),
        }
    }

    #[test]
    fn memo_stores_only_successes() {
        let memo = RunMemo::default();
        let stall = || Err(HarnessError::Stalled { core: 0, cycles_without_commit: 9, window: "warmup" });
        assert!(memo.run("a".into(), stall).is_err());
        assert!(memo.run("a".into(), || Err(HarnessError::Interrupted)).is_err());
        assert_eq!(memo.counts(), (0, 0), "failures are neither stored nor counted");
        let calls = AtomicU64::new(0);
        let simulate = || {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(stub("a", 7))
        };
        assert_eq!(memo.run("a".into(), simulate).expect("run").cycles, 7);
        let again = memo.run("a".into(), || unreachable!("a stored run is not simulated again"));
        assert_eq!(again.expect("reused").cycles, 7);
        assert_eq!(memo.run("b".into(), || Ok(stub("b", 8))).expect("run").cycles, 8);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(memo.counts(), (2, 1));
    }

    #[test]
    fn memo_makes_a_second_caller_wait_for_the_first() {
        let memo = RunMemo::default();
        // The barrier is passed inside the first caller's simulation, so
        // the second caller looks the run up while the first holds its
        // slot or after it stored the result: either way it must not
        // simulate.
        let started = std::sync::Barrier::new(2);
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(|| {
                memo.run("k".into(), || {
                    started.wait();
                    Ok(stub("k", 3))
                })
            });
            started.wait();
            let second = memo.run("k".into(), || unreachable!("the second caller must wait"));
            (first.join().expect("first caller"), second)
        });
        assert_eq!(first.expect("first").cycles, 3);
        assert_eq!(second.expect("second").cycles, 3);
        assert_eq!(memo.counts(), (1, 1));
    }

    #[test]
    fn thread_local_ctl_is_scoped_and_restored() {
        assert!(current().is_none());
        let ctl = CheckpointCtl::new(PathBuf::from("/nonexistent"), "scope");
        with_checkpointing(ctl, || {
            let c = current().expect("installed");
            assert_eq!(c.scope, "scope");
            c.note_used("b.ckpt");
            c.note_used("a.ckpt");
            c.note_used("b.ckpt");
            assert_eq!(c.used_files(), vec!["a.ckpt".to_owned(), "b.ckpt".to_owned()]);
        });
        assert!(current().is_none(), "control must be uninstalled on exit");
    }
}
