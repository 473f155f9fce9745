//! The process boundary of the swarm: the `node` and `swarm` binaries
//! refuse what they cannot run with an exit code of 1 and a one-line
//! error, never a panic. Each case fails before any socket is used or
//! any process is spawned, so the addresses are dummies.

use lrs_bench::capsules::ScenarioTags;
use lrs_host::node::NodeId;
use lrs_host::time::{Duration, SimTime};
use lrs_netsim::capsule::Capsule;
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::sim::SimConfig;
use lrs_netsim::topology::Topology;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A `star:4` LR-Seluge capsule of `image_len` bytes with `faults`,
/// saved under a name unique to this test process.
fn saved_capsule(name: &str, image_len: usize, faults: FaultPlan) -> PathBuf {
    let capsule = Capsule {
        seed: 7,
        deadline: Duration::from_secs(10),
        config: SimConfig::default(),
        topology: Topology::star(4),
        faults,
        scenario: ScenarioTags::new("lr-seluge", "campaign", image_len, "boundary keys").pairs(),
        digest: None,
    };
    let path =
        std::env::temp_dir().join(format!("lrs-boundary-{}-{name}.jsonl", std::process::id()));
    capsule.save(&path).expect("write capsule");
    path
}

/// Runs `bin` with `args` and returns its stderr, asserting it exited
/// 1 with a `<bin>: ` error and no panic.
fn refused(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let name = Path::new(bin).file_stem().unwrap().to_string_lossy();
    assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("{name}: ")),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    stderr
}

fn node(capsule: &Path, time_scale: &str) -> String {
    refused(
        env!("CARGO_BIN_EXE_node"),
        &[
            "--id",
            "0",
            "--proxy",
            "127.0.0.1:9",
            "--control",
            "127.0.0.1:9",
            "--capsule",
            capsule.to_str().expect("utf-8 path"),
            "--time-scale",
            time_scale,
        ],
    )
}

#[test]
fn node_refuses_unbuildable_images_and_a_zero_time_scale() {
    // An empty image, and one whose page count overflows the u16 item
    // space (it used to wrap and sign a truncated image).
    for image_len in [0, 30_000_000] {
        let path = saved_capsule(&format!("image-{image_len}"), image_len, FaultPlan::new());
        let err = node(&path, "10");
        assert!(err.starts_with("node: deployment: "), "{err}");
        std::fs::remove_file(&path).expect("clean up");
    }
    // Checked while parsing, before the capsule is read: the host's
    // clock would panic on it.
    let err = node(Path::new("/nonexistent.jsonl"), "0");
    assert!(err.starts_with("node: bad --time-scale \"0\""), "{err}");
}

#[test]
fn swarm_refuses_before_spawning_anything() {
    let good = saved_capsule("good", 512, FaultPlan::new());
    let mut crash = FaultPlan::new();
    crash.crash(NodeId(2), SimTime(1_000));
    let crashing = saved_capsule("crash", 512, crash);
    let swarm = env!("CARGO_BIN_EXE_swarm");
    let arg = |p: &PathBuf| p.to_str().expect("utf-8 path").to_string();
    // A refused capsule after a good one: nothing runs at all.
    let err = refused(swarm, &[&arg(&good), &arg(&crashing)]);
    assert!(
        err.contains("-crash.jsonl: the proxy cannot express node fault"),
        "{err}"
    );
    assert!(err.contains(r#""ev":"fault_crash""#), "{err}");
    let err = refused(swarm, &["--time-scale", "0", &arg(&good)]);
    assert!(err.starts_with("swarm: bad --time-scale \"0\""), "{err}");
    for path in [good, crashing] {
        std::fs::remove_file(&path).expect("clean up");
    }
}
