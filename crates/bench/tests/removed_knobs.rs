//! Knobs that no longer exist, or never did, fail loudly: `all_figures`,
//! the single-experiment binaries (`fig3`) and the per-workload ones
//! (`density`) treat a removed flag, a misspelled `CS_*` variable or, for
//! the last two, any argument at all as a usage error (exit 2) instead of
//! silently running an experiment configured differently than the
//! operator believes. `inspect` rejects a misspelled variable too.
//!
//! No invocation can start a long run if the check regresses: each passes
//! `--help`, which `all_figures` answers with exit 0 and the other
//! binaries reject, or sets `CS_MEASURE=0`, which fails the first run.
//! `inspect` gets the filter `zzz`, which names no workload.

use std::process::{Command, Output};

/// The binaries under test.
const BINARIES: [(&str, &str); 3] = [
    ("all_figures", env!("CARGO_BIN_EXE_all_figures")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("density", env!("CARGO_BIN_EXE_density")),
];

/// Runs `exe` with `args` and `envs` on top of an environment stripped of
/// every inherited `CS_*` variable.
fn run(exe: &str, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(exe);
    for (name, _) in std::env::vars().filter(|(n, _)| n.starts_with("CS_")) {
        cmd.env_remove(name);
    }
    cmd.args(args).envs(envs.iter().copied()).output().expect("spawn binary")
}

#[test]
fn removed_overlapped_sampling_flag_is_a_usage_error() {
    for (bin, exe) in BINARIES {
        let out = run(exe, &["--window-par", "--help"], &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: stderr: {stderr}");
        assert!(stderr.contains("unknown argument: --window-par"), "{bin}: {stderr}");
    }
}

#[test]
fn removed_overlapped_sampling_env_knobs_are_usage_errors() {
    for (bin, exe) in BINARIES {
        // Two removed knobs and a typo of a live one.
        for name in ["CS_WINDOW_PAR", "CS_SAMPLE_INFLIGHT", "CS_SAMPLE_WINDOW"] {
            let out = run(exe, &["--help"], &[(name, "1")]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {name}: stderr: {stderr}");
            assert!(
                stderr.contains(&format!("unknown environment knob {name}")),
                "{bin}: {stderr}"
            );
        }
    }
}

#[test]
fn single_run_binaries_take_no_arguments() {
    for (bin, exe) in &BINARIES[1..] {
        let out = run(exe, &["--jobs", "4"], &[("CS_MEASURE", "0")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: stderr: {stderr}");
        assert!(stderr.contains("unknown argument: --jobs"), "{bin}: {stderr}");
    }
}

#[test]
fn inspect_rejects_a_misspelled_env_knob() {
    let exe = env!("CARGO_BIN_EXE_inspect");
    let out = run(exe, &["zzz"], &[("CS_SAMPLE_WINDOW", "4")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown environment knob CS_SAMPLE_WINDOW"), "{stderr}");
    let out = run(exe, &["zzz"], &[("CS_SEED", "7")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}
