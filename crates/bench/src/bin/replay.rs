//! Flight-recorder front-end: capture and replay run capsules.
//!
//! A capsule (`lrs_netsim::capsule`) records everything needed to
//! re-execute a simulation bit-identically — seed, config, sampled
//! topology, fault schedule, scenario tags, and the run digest.
//! This binary drives the whole loop from the command line:
//!
//! ```text
//! replay --capture <path> [--scheme lr-seluge|seluge] [--seed N] [--image-bytes N]
//!     Run a small chaos-profile scenario and save a capsule with its
//!     digest.
//!
//! replay --replay <path>
//!     Load a capsule, reconstruct its node population from the
//!     scenario tags, re-execute, and verify the recomputed digest
//!     against the recorded one. Exits 1 on divergence.
//!
//! replay --smoke
//!     CI gate: capture both schemes, replay each, verify every digest.
//! ```
//!
//! Capsules written by `chaos --capsule DIR` and the campaign engine
//! load here directly: their scenario tags name the scheme,
//! parameter profile, image length, and key context, which is all the
//! registry in `lrs_bench::capsules` needs to rebuild `make_node`.

use lrs_bench::capsules::{chaos_sim_config, replay_capsule, ScenarioTags};
use lrs_bench::Cli;
use lrs_host::node::NodeId;
use lrs_host::time::{Duration, SimTime};
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::topology::Topology;
use lrs_netsim::{verify_replay, Capsule};
use std::path::PathBuf;
use std::process::ExitCode;

/// Star size of captured demo scenarios (matches the chaos sweep: one
/// base station + 8 honest receivers + one spare).
const CAPTURE_NODES: usize = 10;

const FLAGS: &[lrs_bench::cli::Flag] = &[
    lrs_bench::cli::valued(
        "--capture",
        "run a demo scenario and save a capsule to <path>",
    ),
    lrs_bench::cli::valued("--scheme", "captured scheme: lr-seluge (default) or seluge"),
    lrs_bench::cli::valued("--seed", "capture seed (default 7)"),
    lrs_bench::cli::valued("--image-bytes", "captured image size (default 2048)"),
    lrs_bench::cli::valued(
        "--replay",
        "load capsule <path>, re-execute, verify its digest",
    ),
    lrs_bench::cli::flag(
        "--smoke",
        "CI gate: capture + replay both schemes, verify digests",
    ),
];

/// Builds and captures a demo scenario: a chaos-profile run with a
/// small deterministic fault plan, with its digest.
fn capture(path: &PathBuf, scheme: &str, seed: u64, image_len: usize) -> Result<(), String> {
    let tags = ScenarioTags::new(scheme, "chaos", image_len, "chaos keys");
    let mut faults = FaultPlan::new();
    // Mid-dissemination churn: one receiver reboots, one stays down,
    // and the spare's uplink flaps — enough to exercise every fault
    // path without stalling the run.
    faults.crash_and_reboot(NodeId(3), SimTime(2_000_000), Duration::from_secs(5));
    faults.crash(NodeId(7), SimTime(4_000_000));
    faults.link_outage(
        NodeId(9),
        NodeId(0),
        SimTime(1_000_000),
        Duration::from_secs(3),
    );
    let mut capsule = Capsule {
        seed,
        deadline: Duration::from_secs(5_000),
        config: chaos_sim_config(),
        topology: Topology::star(CAPTURE_NODES),
        faults,
        scenario: tags.pairs(),
        digest: None,
    };
    let run = replay_capsule(&capsule)?;
    println!(
        "captured {scheme} (seed {seed}, {image_len} B image): {} @ {:.1} s",
        run.digest.outcome,
        run.report.final_time.as_secs_f64(),
    );
    capsule.digest = Some(run.digest);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        }
    }
    capsule
        .save(path)
        .map_err(|e| format!("saving {path:?}: {e}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Replays a loaded capsule and verifies the digest, printing a
/// human-readable verdict. Returns `Err` on divergence.
fn replay_and_verify(capsule: &Capsule) -> Result<(), String> {
    let run = replay_capsule(capsule)?;
    verify_replay(capsule, &run).map_err(|err| format!("replay FAILED: {err}"))?;
    println!(
        "replay OK: reproduced outcome {:?} at {:.1} s, {} trace events, digests match",
        run.report.outcome,
        run.report.final_time.as_secs_f64(),
        run.trace.len(),
    );
    Ok(())
}

fn cmd_replay(path: &PathBuf) -> Result<(), String> {
    let capsule = Capsule::load(path).map_err(|e| format!("loading {path:?}: {e}"))?;
    println!(
        "capsule: seed {}, {} nodes, {} fault events",
        capsule.seed,
        capsule.topology.len(),
        capsule.faults.events().len(),
    );
    replay_and_verify(&capsule)
}

fn cmd_smoke() -> Result<(), String> {
    let dir = PathBuf::from("results/capsules");
    for scheme in ["lr-seluge", "seluge"] {
        let path = dir.join(format!("replay-smoke-{scheme}.jsonl"));
        capture(&path, scheme, 7, 2 * 1024)?;
        let capsule = Capsule::load(&path).map_err(|e| format!("loading {path:?}: {e}"))?;
        replay_and_verify(&capsule)?;
    }
    println!("replay smoke: both schemes replayed bit-identically");
    Ok(())
}

fn run() -> Result<(), String> {
    let cli = Cli::parse("replay", FLAGS).map_err(|e| e.to_string())?;
    if let Some(path) = cli.value("--capture") {
        let scheme = cli.value("--scheme").unwrap_or("lr-seluge").to_string();
        let seed = cli
            .parsed_or::<u64>("--seed", 7)
            .map_err(|e| e.to_string())?;
        let image_len = cli
            .parsed_or::<usize>("--image-bytes", 2 * 1024)
            .map_err(|e| e.to_string())?;
        return capture(&PathBuf::from(path), &scheme, seed, image_len);
    }
    if let Some(path) = cli.value("--replay") {
        return cmd_replay(&PathBuf::from(path));
    }
    if cli.smoke() {
        return cmd_smoke();
    }
    Err(format!(
        "no mode given; use --capture <path>, --replay <path>, or --smoke\n{}",
        cli.usage()
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
    }
}
