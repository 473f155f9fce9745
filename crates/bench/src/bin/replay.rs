//! Flight-recorder front-end: capture, replay, and bisect run capsules.
//!
//! A capsule (`lrs_netsim::capsule`) records everything needed to
//! re-execute a simulation bit-identically — seed, config, sampled
//! topology, fault schedule, scenario tags, and per-engine run digests.
//! This binary drives the whole loop from the command line:
//!
//! ```text
//! replay --capture <path> [--scheme lr-seluge|seluge] [--seed N] [--image-bytes N]
//!     Run a small chaos-profile scenario on both engines and save a
//!     capsule with both digests (extension lrsc/bin → framed binary,
//!     anything else → JSONL).
//!
//! replay --replay <path> [--engine sequential|sharded] [--shards N]
//!     Load a capsule, reconstruct its node population from the
//!     scenario tags, re-execute, and verify the recomputed digest
//!     against the recorded one. Exits 1 on divergence.
//!
//! replay --bisect <path> [--shards A,B | --engines]
//!     Replay at two shard counts (default 1,4) and report the first
//!     diverging OrderKey with context — or compare the sequential and
//!     sharded engines' event orders.
//!
//! replay --smoke
//!     CI gate: capture both schemes, replay each on the sequential
//!     engine and at 1/4 shards, verify every digest, and assert the
//!     shard bisector finds no divergence.
//! ```
//!
//! Capsules written by `chaos --capsule DIR` and `scale --capsule DIR`
//! load here directly: their scenario tags name the scheme,
//! parameter profile, image length, and key context, which is all the
//! registry in `lrs_bench::capsules` needs to rebuild `make_node`.

use lrs_bench::capsules::{
    bisect_capsule_engines, bisect_capsule_shards, chaos_sim_config, replay_capsule, ScenarioTags,
};
use lrs_bench::Cli;
use lrs_netsim::capsule::{SEQUENTIAL_ENGINE, SHARDED_ENGINE};
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::node::NodeId;
use lrs_netsim::time::{Duration, SimTime};
use lrs_netsim::topology::Topology;
use lrs_netsim::{verify_replay, Capsule, EngineDigest, ReplayRun};
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
    lrs_bench::cli::valued("--engine", "replay engine: sequential or sharded"),
    lrs_bench::cli::valued("--shards", "shard count (replay) or pair like 1,4 (bisect)"),
    lrs_bench::cli::valued(
        "--bisect",
        "replay capsule <path> at two shard counts and diff",
    ),
    lrs_bench::cli::flag(
        "--engines",
        "bisect sequential vs sharded event orders instead",
    ),
    lrs_bench::cli::flag(
        "--smoke",
        "CI gate: capture + replay both schemes, assert lockstep",
    ),
];

/// Builds and captures a demo scenario: a chaos-profile run with a
/// small deterministic fault plan, digested on both engines.
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
        engine: SHARDED_ENGINE.to_string(),
        shards: 2,
        deadline: Duration::from_secs(5_000),
        config: chaos_sim_config(),
        topology: Topology::star(CAPTURE_NODES),
        faults,
        scenario: tags.pairs(),
        digests: Vec::new(),
    };
    let sequential = replay_capsule(&capsule, SEQUENTIAL_ENGINE, 1)?;
    let sharded = replay_capsule(&capsule, SHARDED_ENGINE, 2)?;
    println!(
        "captured {scheme} (seed {seed}, {image_len} B image): \
         sequential {} @ {:.1} s, sharded {} @ {:.1} s",
        sequential.digest.outcome,
        sequential.report.final_time.as_secs_f64(),
        sharded.digest.outcome,
        sharded.report.final_time.as_secs_f64(),
    );
    capsule.digests = vec![
        EngineDigest {
            engine: SEQUENTIAL_ENGINE.to_string(),
            shards: 1,
            digest: sequential.digest,
        },
        EngineDigest {
            engine: SHARDED_ENGINE.to_string(),
            shards: 2,
            digest: sharded.digest,
        },
    ];
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
fn replay_and_verify(capsule: &Capsule, engine: &str, shards: usize) -> Result<ReplayRun, String> {
    let run = replay_capsule(capsule, engine, shards)?;
    match verify_replay(capsule, &run) {
        Ok(()) => {
            println!(
                "replay OK: {engine}{} reproduced outcome {:?} at {:.1} s, \
                 {} trace events, digests match",
                if engine == SHARDED_ENGINE {
                    format!(" @ {shards} shards")
                } else {
                    String::new()
                },
                run.report.outcome,
                run.report.final_time.as_secs_f64(),
                run.trace.len(),
            );
            Ok(run)
        }
        Err(err) => Err(format!("replay FAILED: {err}")),
    }
}

fn cmd_replay(cli: &Cli, path: &PathBuf) -> Result<(), String> {
    let capsule = Capsule::load(path).map_err(|e| format!("loading {path:?}: {e}"))?;
    let engine = cli
        .value("--engine")
        .map(str::to_string)
        .unwrap_or_else(|| capsule.engine.clone());
    let shards = cli
        .parsed::<usize>("--shards")
        .map_err(|e| e.to_string())?
        .unwrap_or(capsule.shards);
    println!(
        "capsule: seed {}, captured on {} @ {} shard(s), {} nodes, {} fault events",
        capsule.seed,
        capsule.engine,
        capsule.shards,
        capsule.topology.len(),
        capsule.faults.events().len(),
    );
    replay_and_verify(&capsule, &engine, shards).map(|_| ())
}

fn cmd_bisect(cli: &Cli, path: &PathBuf) -> Result<(), String> {
    let capsule = Capsule::load(path).map_err(|e| format!("loading {path:?}: {e}"))?;
    if cli.flag("--engines") {
        match bisect_capsule_engines(&capsule)? {
            Some(div) => println!(
                "sequential and sharded event orders part ways (expected by design):\n{div}"
            ),
            None => println!("engines produced identical event orders"),
        }
        return Ok(());
    }
    let spec = cli.value("--shards").unwrap_or("1,4");
    let (a, b) = spec
        .split_once(',')
        .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)))
        .ok_or_else(|| format!("bad --shards {spec:?}; expected two counts like 1,4"))?;
    match bisect_capsule_shards(&capsule, a, b)? {
        Some(div) => {
            // A shard-count divergence is an engine bug: surface it loudly.
            Err(format!("shard counts {a} and {b} DIVERGE:\n{div}"))
        }
        None => {
            println!("shard counts {a} and {b} are lockstep-identical");
            Ok(())
        }
    }
}

fn cmd_smoke() -> Result<(), String> {
    let dir = PathBuf::from("results/capsules");
    let mut verified = 0usize;
    for scheme in ["lr-seluge", "seluge"] {
        let path = dir.join(format!("replay-smoke-{scheme}.lrsc"));
        capture(&path, scheme, 7, 2 * 1024)?;
        let capsule = Capsule::load(&path).map_err(|e| format!("loading {path:?}: {e}"))?;
        replay_and_verify(&capsule, SEQUENTIAL_ENGINE, 1)?;
        for shards in [1, 4] {
            replay_and_verify(&capsule, SHARDED_ENGINE, shards)?;
        }
        if let Some(div) = bisect_capsule_shards(&capsule, 1, 4)? {
            return Err(format!("{scheme}: shard counts 1 and 4 diverge:\n{div}"));
        }
        println!("{scheme}: shard counts 1 and 4 are lockstep-identical");
        verified += 3;
    }
    println!("replay smoke: {verified} replays verified bit-identical across both schemes");
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
        return cmd_replay(&cli, &PathBuf::from(path));
    }
    if let Some(path) = cli.value("--bisect") {
        return cmd_bisect(&cli, &PathBuf::from(path));
    }
    if cli.smoke() {
        return cmd_smoke();
    }
    Err(format!(
        "no mode given; use --capture <path>, --replay <path>, --bisect <path>, or --smoke\n{}",
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
