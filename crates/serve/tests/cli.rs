//! CLI contract for the daemon binaries: bad arguments must produce a
//! usage message on stderr and exit code 2 — never a panic backtrace —
//! so wrapper scripts and process supervisors can tell "operator typo"
//! apart from "daemon crashed".

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn assert_usage_rejection(bin: &str, args: &[&str], needle: &str) {
    let out = run(bin, args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?}: expected exit code 2, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{bin} {args:?}: stderr missing {needle:?}:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?}: stderr missing usage block:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?}: panicked instead of rejecting:\n{stderr}"
    );
}

const MT_SERVE: &str = env!("CARGO_BIN_EXE_mt-serve");
const SERVE_REPLAY: &str = env!("CARGO_BIN_EXE_serve-replay");

#[test]
fn mt_serve_rejects_unknown_flags() {
    assert_usage_rejection(MT_SERVE, &["--frobnicate"], "unknown argument --frobnicate");
}

#[test]
fn mt_serve_rejects_malformed_values() {
    assert_usage_rejection(MT_SERVE, &["--udp", "not-an-addr"], "--udp not-an-addr");
    assert_usage_rejection(MT_SERVE, &["--event-loops", "many"], "--event-loops");
    assert_usage_rejection(MT_SERVE, &["--lateness-hours"], "--lateness-hours");
    assert_usage_rejection(MT_SERVE, &["--health-json"], "--health-json needs PATH");
    // Parseable but out of range: no worker to fold, and an hour count
    // whose seconds overflow a u64.
    assert_usage_rejection(
        MT_SERVE,
        &["--ingest-threads", "0"],
        "--ingest-threads needs at least 1",
    );
    assert_usage_rejection(
        MT_SERVE,
        &["--lateness-hours", "18446744073709551615"],
        "--lateness-hours 18446744073709551615 is out of range",
    );
}

#[test]
fn serve_replay_rejects_bad_invocations() {
    // No target at all.
    assert_usage_rejection(SERVE_REPLAY, &[], "need --udp and/or --tcp target");
    assert_usage_rejection(SERVE_REPLAY, &["--bogus"], "unknown argument --bogus");
    assert_usage_rejection(
        SERVE_REPLAY,
        &["--udp", "127.0.0.1:4739", "--flows", "lots"],
        "--flows needs a number",
    );
    // Parseable but out of range: an empty message, and one whose u16
    // length fields would wrap.
    for n in ["0", "3000"] {
        assert_usage_rejection(
            SERVE_REPLAY,
            &["--tcp", "127.0.0.1:4740", "--records-per-message", n],
            "--records-per-message needs 1..=1924",
        );
    }
}

#[test]
fn mt_serve_runs_and_drains_with_explicit_event_loops() {
    // A real (tiny) run: two sharded loops on ephemeral ports,
    // self-shutdown, clean ledger on stdout, exit code 0.
    let out = run(
        MT_SERVE,
        &[
            "--udp",
            "127.0.0.1:0",
            "--tcp",
            "127.0.0.1:0",
            "--http",
            "127.0.0.1:0",
            "--event-loops",
            "2",
            "--max-seconds",
            "1",
        ],
    );
    assert!(
        out.status.success(),
        "mt-serve exited with {:?}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("mt-serve: 2 ingest event loops"),
        "missing loop-count line:\n{stdout}"
    );
    assert!(
        stdout.contains("0 in flight after drain"),
        "missing clean ledger line:\n{stdout}"
    );
}
