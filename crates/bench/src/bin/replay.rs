//! Flight-recorder front end: `replay <capsule>`.
//!
//! A capsule (`lrs_netsim::capsule`) records everything needed to
//! re-execute a simulation bit-identically: seed, config, sampled
//! topology, fault schedule, scenario tags, and the run digest. This
//! binary loads one, rebuilds its node population from the scenario tags
//! through the registry in `lrs_bench::capsules`, re-executes it, and
//! verifies the recomputed digest against the recorded one. It exits 1
//! on a capsule it refuses to load, on tags it cannot rebuild, and on
//! divergence.
//!
//! Capsules from a campaign's `failures/`, `campaign --export-job` and
//! the committed `results/capsules/` all load here directly.

use lrs_bench::capsules::replay_capsule;
use lrs_bench::cli::{exit_with_usage, positional, Cli, Flag};
use lrs_netsim::{verify_replay, Capsule};
use std::process::ExitCode;

const FLAGS: &[Flag] = &[positional(
    "<capsule>",
    "capsule file to load, re-execute and verify against its digest",
)];

fn replay(path: &str) -> Result<(), String> {
    let capsule = Capsule::load(path).map_err(|e| format!("loading {path:?}: {e}"))?;
    println!(
        "capsule: seed {}, {} nodes, {} fault events",
        capsule.seed,
        capsule.topology.len(),
        capsule.faults.events().len(),
    );
    let run = replay_capsule(&capsule)?;
    verify_replay(&capsule, &run).map_err(|err| format!("replay FAILED: {err}"))?;
    println!(
        "replay OK: reproduced outcome {:?} at {:.1} s, {} trace events, digests match",
        run.report.outcome,
        run.report.final_time.as_secs_f64(),
        run.digest.events,
    );
    Ok(())
}

fn main() -> ExitCode {
    let cli = Cli::parse("replay", FLAGS).unwrap_or_else(|e| exit_with_usage("replay", FLAGS, &e));
    match replay(cli.value("<capsule>").expect("a required slot")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
    }
}
