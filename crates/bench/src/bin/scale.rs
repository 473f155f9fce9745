//! Shard-scaling sweep for the parallel discrete-event engine.
//!
//! Runs a full dissemination of both schemes (LR-Seluge and Seluge) on
//! multi-hop grids of ~1k / ~5k / ~10k nodes, sweeping the shard count
//! 1–16, and records wall-clock time per configuration. Because the
//! sharded engine is deterministic in the shard count, every run of a
//! configuration must also produce *identical* metrics — the sweep
//! asserts this, so it doubles as a large-scale determinism check.
//!
//! Modes:
//!
//! * default — 32×32, 71×71, and 100×100 grids, shards {1, 2, 4, 8, 16}
//! * `--quick` — the 32×32 grid only
//! * `--smoke` — CI gate: a 20×20 (400-node) grid at 1 and 2 shards,
//!   asserting the 2-shard metrics equal the 1-shard metrics
//!
//! Writes `results/scale.json` including the machine's core count;
//! speedup numbers are only meaningful relative to it (on a single-core
//! container every shard count shares one CPU and the sweep measures
//! synchronization overhead, not parallel speedup — see
//! `BENCH_scale.json`).

use lrs_bench::capsules::{population, ScenarioTags};
use lrs_bench::runner::{simulate_sharded, Matched, SimSetup};
use lrs_bench::{with_scheme, write_json, Json, Table};
use lrs_netsim::node::Protocol;
use lrs_netsim::sim::Outcome;
use lrs_netsim::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::CapsuleSpec;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SEED: u64 = 1;

/// Per-run record: completion fraction plus the numbers that must be
/// shard-count independent.
struct CaseRun {
    wall_s: f64,
    outcome: Outcome,
    final_time_us: u64,
    completed: usize,
    metrics: lrs_netsim::metrics::Metrics,
}

/// Disseminates the "scale" profile's 1 KiB image with scheme family
/// `S` over a `side`×`side` grid on `shards` shards. `--capsule <dir>`
/// arms the flight recorder: a run ending in a diagnostic outcome
/// (stall, invariant violation, worker panic) drops a tagged replay
/// capsule into the directory.
fn run_case<S: Matched>(side: usize, shards: usize, capsule_dir: Option<&Path>) -> CaseRun {
    let tags = ScenarioTags::new(S::NAME, "scale", 1024, "scale sweep");
    let pop = population::<S>(&tags).expect("the scale profile is registered");
    let start = Instant::now();
    let name = format!("scale-{}-{side}x{side}-s{shards}.jsonl", S::NAME);
    let setup = SimSetup {
        capsule: capsule_dir.map(|dir| tags.apply(CapsuleSpec::new(dir.join(name)))),
        ..SimSetup::new(
            Topology::grid(side, 10.0, 77),
            SEED,
            Duration::from_secs(100_000),
        )
    };
    let run = simulate_sharded(&pop, setup, shards, Protocol::is_complete);
    CaseRun {
        wall_s: start.elapsed().as_secs_f64(),
        outcome: run.report.outcome,
        final_time_us: run.report.final_time.0,
        completed: run.harvest.iter().filter(|c| **c == Some(true)).count(),
        metrics: run.metrics,
    }
}

const FLAGS: &[lrs_bench::cli::Flag] = &[
    lrs_bench::cli::flag("--smoke", "CI gate: 20x20 grid at 1 and 2 shards"),
    lrs_bench::cli::flag("--quick", "the 32x32 grid only"),
    lrs_bench::cli::valued("--capsule", "arm the flight recorder on every run"),
];

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scale: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), lrs_bench::CliError> {
    let cli = lrs_bench::Cli::parse("scale", FLAGS)?;
    let (smoke, quick) = (cli.smoke(), cli.quick());
    // `--capsule <dir>`: arm the flight recorder on every run.
    let capsule_dir: Option<PathBuf> = cli.capsule_dir();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8, 16] };
    let sides: &[usize] = if smoke {
        &[20]
    } else if quick {
        &[32]
    } else {
        &[32, 71, 100]
    };
    println!(
        "Shard-scaling sweep: grids {:?} (nodes = side²), shards {:?}, {} core(s) available\n",
        sides, shard_counts, cores
    );

    let mut table = Table::new(vec![
        "scheme", "nodes", "shards", "wall_s", "speedup", "outcome", "virt_s", "complete",
    ]);
    let mut rows = Vec::new();
    for &side in sides {
        let nodes = side * side;
        for scheme in ["lr-seluge", "seluge"] {
            let mut baseline: Option<CaseRun> = None;
            let mut runs_json = Vec::new();
            for &shards in shard_counts {
                let run =
                    with_scheme!(scheme, S => run_case::<S>(side, shards, capsule_dir.as_deref()))
                        .unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(
                    run.outcome,
                    Outcome::Complete,
                    "{scheme} on {side}x{side} @ {shards} shards did not complete"
                );
                assert_eq!(run.completed, nodes, "{scheme} @ {shards} shards");
                let speedup = match &baseline {
                    Some(base) => {
                        // Shard-count independence: the engine must
                        // reproduce the 1-shard metrics exactly.
                        assert_eq!(
                            run.metrics, base.metrics,
                            "{scheme} on {side}x{side}: metrics diverge at {shards} shards"
                        );
                        assert_eq!(
                            run.final_time_us, base.final_time_us,
                            "{scheme} on {side}x{side}: final time diverges at {shards} shards"
                        );
                        base.wall_s / run.wall_s
                    }
                    None => 1.0,
                };
                table.row(vec![
                    scheme.to_string(),
                    nodes.to_string(),
                    shards.to_string(),
                    format!("{:.2}", run.wall_s),
                    format!("{speedup:.2}"),
                    format!("{:?}", run.outcome),
                    format!("{:.1}", run.final_time_us as f64 / 1e6),
                    run.completed.to_string(),
                ]);
                println!(
                    "{scheme:10} {nodes:6} nodes  {shards:2} shards  {:.2} s wall  {speedup:.2}x",
                    run.wall_s
                );
                runs_json.push(Json::Obj(vec![
                    ("shards".into(), Json::num(shards as u32)),
                    ("wall_s".into(), Json::num(run.wall_s)),
                    ("speedup_vs_1_shard".into(), Json::num(speedup)),
                    ("outcome".into(), Json::str(format!("{:?}", run.outcome))),
                    (
                        "virtual_time_s".into(),
                        Json::num(run.final_time_us as f64 / 1e6),
                    ),
                    ("completed_nodes".into(), Json::num(run.completed as u32)),
                    (
                        "total_tx_bytes".into(),
                        Json::num(run.metrics.total_tx_bytes() as f64),
                    ),
                ]));
                if baseline.is_none() {
                    baseline = Some(run);
                }
            }
            rows.push(Json::Obj(vec![
                ("scheme".into(), Json::str(scheme)),
                ("grid_side".into(), Json::num(side as u32)),
                ("nodes".into(), Json::num(nodes as u32)),
                ("runs".into(), Json::Arr(runs_json)),
            ]));
        }
    }

    println!("\n{}", table.render());
    let doc = Json::Obj(vec![
        ("experiment".into(), Json::str("scale")),
        (
            "mode".into(),
            Json::str(if smoke {
                "smoke"
            } else if quick {
                "quick"
            } else {
                "full"
            }),
        ),
        ("cores".into(), Json::num(cores as u32)),
        ("seed".into(), Json::num(SEED as u32)),
        (
            "note".into(),
            Json::str(
                "Speedup is wall-clock relative to 1 shard on this machine; \
                 with a single core it measures synchronization overhead, \
                 not parallelism.",
            ),
        ),
        ("rows".into(), Json::Arr(rows)),
    ]);
    println!("wrote {}", write_json("scale", &doc));
    if smoke {
        println!("scale smoke: 2-shard metrics identical to 1-shard metrics");
    }
    Ok(())
}
