//! The `probe` bin at its process boundary: a trace path it cannot
//! write is an exit code of 1 and a one-line error naming the path and
//! the OS error, not a panic.

use std::process::Command;

#[test]
fn probe_refuses_an_unwritable_trace_path() {
    let path = "/nonexistent/x.jsonl";
    let out = Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(["3", "1", "0.1", "--trace", path])
        .output()
        .expect("spawn probe");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("probe: {path}: No such file or directory")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{stderr}");
}
