//! The `replay` bin at its process boundary: a trace path it cannot
//! write and a missing capsule are an exit code of 1 before anything
//! runs, and a closed stdout ends it quietly, never in a panic.

use std::process::{Command, Stdio};

const CAPSULE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/capsules/chaos-watchdog-demo.jsonl"
);

#[test]
fn replay_refuses_an_unwritable_trace_path() {
    let path = "/nonexistent/x.jsonl";
    let out = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args([CAPSULE, "--trace", path])
        .output()
        .expect("spawn replay");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("replay: {path}: No such file or directory")),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "ran before refusing");
}

#[test]
fn replay_without_a_capsule_prints_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_replay"))
        .arg("--summary")
        .output()
        .expect("spawn replay");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("usage: replay"), "{stderr}");
}

#[test]
fn replay_into_a_closed_pipe_ends_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args([CAPSULE, "--summary"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn replay");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("replay exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
}
