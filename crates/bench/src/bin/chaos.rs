//! Chaos experiments: a fault-intensity sweep (crash rate × link flap ×
//! packet-storm bursts) over LR-Seluge and Seluge with always-on
//! protocol invariant checking, plus a watchdog demonstration on a
//! deliberately partitioned network.
//!
//! Every run installs a per-delivery invariant checker (only
//! authenticated packets buffered, buffer occupancy within the paper's
//! `n`-packet bound, completed pages identical to preprocessing, and a
//! complete node's image byte-identical to the origin) and the
//! simulator's stall watchdog. The sweep asserts, per seed:
//!
//! * zero invariant violations on every configuration, and
//! * zero watchdog trips on non-adversarial configurations.
//!
//! `--smoke` runs a reduced grid with fixed seeds for CI; `--quick`
//! trims seeds for local iteration.

use lr_seluge::Deployment;
use lrs_bench::capsules::{
    chaos_params as params, chaos_sim_config as sim_config, storm_attacker, ScenarioTags,
};
use lrs_bench::runner::{matched_seluge_params, test_image};
use lrs_bench::{sample_grid, stat_json, write_csv, write_json, Json, Table};
use lrs_deluge::attack::MaybeAdversary;
use lrs_netsim::energy::EnergyModel;
use lrs_netsim::fault::{FaultConfig, FaultPlan};
use lrs_netsim::node::NodeId;
use lrs_netsim::sim::Outcome;

use lrs_netsim::time::{Duration, SimTime};
use lrs_netsim::topology::Topology;
use lrs_netsim::{CapsuleSpec, SimBuilder};
use lrs_seluge::SelugeDeployment;
use std::path::{Path, PathBuf};

/// Honest receivers; one more node is either an extra receiver or the
/// packet-storm attacker, and node 0 is the base station.
const N_HONEST: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SchemeKind {
    LrSeluge,
    Seluge,
}

impl SchemeKind {
    fn label(self) -> &'static str {
        match self {
            SchemeKind::LrSeluge => "lr-seluge",
            SchemeKind::Seluge => "seluge",
        }
    }
}

/// One cell of the fault-intensity grid.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    scheme: SchemeKind,
    /// Per-node crash probability over the fault horizon.
    crash_rate: f64,
    /// Fraction of directed links that flap down/up.
    link_flap: f64,
    /// Whether a bursty bogus-data packet storm runs alongside.
    storm: bool,
}

/// Observables of one chaos run, as floats for seed aggregation.
#[derive(Clone, Copy, Debug)]
struct ChaosOutcome {
    complete: f64,
    unfinished: f64,
    latency_s: f64,
    reboots: f64,
    injected: f64,
    stalled: f64,
    violations: f64,
    /// Whole-network radio energy under the default CC1000 model, in
    /// joules — the graceful-degradation drain axis.
    energy_j: f64,
}

const METRIC_NAMES: [&str; 8] = [
    "complete",
    "unfinished_nodes",
    "latency_s",
    "reboots",
    "injected",
    "stalled",
    "violations",
    "energy_j",
];

impl ChaosOutcome {
    fn fields(&self) -> [f64; 8] {
        [
            self.complete,
            self.unfinished,
            self.latency_s,
            self.reboots,
            self.injected,
            self.stalled,
            self.violations,
            self.energy_j,
        ]
    }

    /// A canonical string of every field, used by the determinism check.
    fn canonical(&self) -> String {
        format!("{:?}", self.fields())
    }
}

fn fault_config(sc: &Scenario) -> FaultConfig {
    // Timescales are matched to the ~5–15 s undisturbed runs of this
    // grid so crashes and flaps actually land mid-dissemination.
    FaultConfig {
        crash_rate: sc.crash_rate,
        reboot_after: Some((Duration::from_secs(3), Duration::from_secs(8))),
        link_flap_rate: sc.link_flap,
        down_sojourn: Duration::from_secs(3),
        up_sojourn: Duration::from_secs(8),
        horizon: Duration::from_secs(20),
        protect_first: 1,
        ..FaultConfig::default()
    }
}

/// Flight-recorder spec for one sweep cell: a capsule lands in
/// `dir` under a name encoding the scenario, tagged so the `replay`
/// binary can reconstruct the node population.
fn capsule_spec(
    dir: &Path,
    sc: &Scenario,
    seed: u64,
    image_len: usize,
    attacker_id: NodeId,
) -> CapsuleSpec {
    let name = format!(
        "chaos-{}-c{:02}-f{:02}-{}-seed{}.jsonl",
        sc.scheme.label(),
        (sc.crash_rate * 100.0) as u32,
        (sc.link_flap * 100.0) as u32,
        if sc.storm { "storm" } else { "calm" },
        seed,
    );
    let mut tags = ScenarioTags::new(sc.scheme.label(), "chaos", image_len, "chaos keys");
    if sc.storm {
        tags = tags.with_attacker(attacker_id);
    }
    tags.apply(CapsuleSpec::new(dir.join(name)))
}

/// Summarizes a finished run. `images_ok(i)` reports whether honest
/// node `i` holds the correct image.
#[allow(clippy::too_many_arguments)]
fn outcome_from(
    report: &lrs_netsim::sim::RunReport,
    reboots: u64,
    injected: u64,
    violations: u64,
    unfinished: usize,
    energy_j: f64,
) -> ChaosOutcome {
    ChaosOutcome {
        complete: if report.outcome == Outcome::Complete && unfinished == 0 {
            1.0
        } else {
            0.0
        },
        unfinished: unfinished as f64,
        latency_s: report.latency.map(|t| t.as_secs_f64()).unwrap_or(f64::NAN),
        reboots: reboots as f64,
        injected: injected as f64,
        stalled: if report.outcome == Outcome::Stalled {
            1.0
        } else {
            0.0
        },
        violations: violations as f64,
        energy_j,
    }
}

/// Runs LR-Seluge under the scenario's fault plan and invariant checker.
fn run_lr_chaos(
    image_len: usize,
    sc: &Scenario,
    seed: u64,
    capsule_dir: Option<&Path>,
) -> ChaosOutcome {
    let p = params(image_len);
    let image = test_image(image_len);
    let deployment = Deployment::new(&image, p, b"chaos keys");
    let artifacts = deployment.artifacts().clone();
    let attacker_id = NodeId((N_HONEST + 1) as u32);
    let storm = sc.storm;
    let topo = Topology::star(N_HONEST + 2);
    let mut sim = SimBuilder::new(topo.clone(), seed, |id| {
        if storm && id == attacker_id {
            MaybeAdversary::Attacker(storm_attacker(p.payload_len, p.n, p.version))
        } else {
            MaybeAdversary::Honest(deployment.node(id, NodeId(0)))
        }
    })
    .config(sim_config())
    .build();
    sim.inject_faults(&FaultPlan::generate(&fault_config(sc), &topo, seed));
    if let Some(dir) = capsule_dir {
        sim.set_capsule_on_failure(capsule_spec(dir, sc, seed, image_len, attacker_id));
    }
    let check_art = artifacts.clone();
    let check_img = image.clone();
    sim.set_invariant_checker(Box::new(move |node, _id| match node.honest() {
        Some(n) => n.scheme().verify_invariants(&check_art, &check_img),
        None => Ok(()),
    }));
    let report = sim.run(Duration::from_secs(5_000));
    let mut violations = u64::from(sim.invariant_violation().is_some());
    let mut unfinished = 0usize;
    for i in 0..topo.len() as u32 {
        let id = NodeId(i);
        let Some(node) = sim.node(id).honest() else {
            continue;
        };
        // End-of-run sweep: the per-delivery checker sees every accepted
        // packet, this catches anything corrupted after the last one.
        if node.scheme().verify_invariants(&artifacts, &image).is_err() {
            violations += 1;
        }
        if node.scheme().image().as_deref() != Some(&image[..]) {
            unfinished += 1;
        }
    }
    let injected = if storm {
        sim.node(attacker_id).attacker().map_or(0, |a| a.injected)
    } else {
        0
    };
    let energy_j = sim.energy().total_joules(&EnergyModel::default());
    outcome_from(
        &report,
        sim.reboots(),
        injected,
        violations,
        unfinished,
        energy_j,
    )
}

/// Runs Seluge under the same fault plan and its invariant checker.
fn run_seluge_chaos(
    image_len: usize,
    sc: &Scenario,
    seed: u64,
    capsule_dir: Option<&Path>,
) -> ChaosOutcome {
    let sp = matched_seluge_params(&params(image_len));
    let image = test_image(image_len);
    let deployment = SelugeDeployment::new(&image, sp, b"chaos keys");
    let artifacts = deployment.artifacts().clone();
    let attacker_id = NodeId((N_HONEST + 1) as u32);
    let storm = sc.storm;
    let topo = Topology::star(N_HONEST + 2);
    let mut sim = SimBuilder::new(topo.clone(), seed, |id| {
        if storm && id == attacker_id {
            MaybeAdversary::Attacker(storm_attacker(
                sp.data_payload_len(),
                sp.packets_per_page,
                sp.version,
            ))
        } else {
            MaybeAdversary::Honest(deployment.node(id, NodeId(0)))
        }
    })
    .config(sim_config())
    .build();
    sim.inject_faults(&FaultPlan::generate(&fault_config(sc), &topo, seed));
    if let Some(dir) = capsule_dir {
        sim.set_capsule_on_failure(capsule_spec(dir, sc, seed, image_len, attacker_id));
    }
    let check_art = artifacts.clone();
    let check_img = image.clone();
    sim.set_invariant_checker(Box::new(move |node, _id| match node.honest() {
        Some(n) => n.scheme().verify_invariants(&check_art, &check_img),
        None => Ok(()),
    }));
    let report = sim.run(Duration::from_secs(5_000));
    let mut violations = u64::from(sim.invariant_violation().is_some());
    let mut unfinished = 0usize;
    for i in 0..topo.len() as u32 {
        let Some(node) = sim.node(NodeId(i)).honest() else {
            continue;
        };
        if node.scheme().verify_invariants(&artifacts, &image).is_err() {
            violations += 1;
        }
        if node.scheme().image().as_deref() != Some(&image[..]) {
            unfinished += 1;
        }
    }
    let injected = if storm {
        sim.node(attacker_id).attacker().map_or(0, |a| a.injected)
    } else {
        0
    };
    let energy_j = sim.energy().total_joules(&EnergyModel::default());
    outcome_from(
        &report,
        sim.reboots(),
        injected,
        violations,
        unfinished,
        energy_j,
    )
}

fn run_scenario(
    image_len: usize,
    sc: &Scenario,
    seed: u64,
    capsule_dir: Option<&Path>,
) -> ChaosOutcome {
    match sc.scheme {
        SchemeKind::LrSeluge => run_lr_chaos(image_len, sc, seed, capsule_dir),
        SchemeKind::Seluge => run_seluge_chaos(image_len, sc, seed, capsule_dir),
    }
}

/// Deliberately partitions a network and shows the watchdog converting
/// the resulting livelock into a structured diagnostic dump — and, when
/// the flight recorder is armed, a replay capsule.
fn watchdog_demo(image_len: usize, capsule_dir: Option<&Path>) -> String {
    let p = params(image_len);
    let image = test_image(image_len);
    let deployment = Deployment::new(&image, p, b"chaos keys");
    let topo = Topology::star(4);
    let mut sim = SimBuilder::new(topo.clone(), 3, |id| deployment.node(id, NodeId(0)))
        .config(lrs_netsim::sim::SimConfig {
            stall_window: Some(Duration::from_secs(60)),
            ..sim_config()
        })
        .build();
    if let Some(dir) = capsule_dir {
        sim.set_capsule_on_failure(
            ScenarioTags::new("lr-seluge", "chaos", image_len, "chaos keys")
                .apply(CapsuleSpec::new(dir.join("chaos-watchdog-demo.jsonl"))),
        );
    }
    // Cut the base station off in both directions, forever: receivers
    // keep advertising and requesting but can never make progress.
    let mut plan = FaultPlan::new();
    for i in 1..topo.len() as u32 {
        plan.push(lrs_netsim::fault::FaultEvent::LinkDown {
            from: NodeId(0),
            to: NodeId(i),
            at: SimTime(2_000_000),
        });
        plan.push(lrs_netsim::fault::FaultEvent::LinkDown {
            from: NodeId(i),
            to: NodeId(0),
            at: SimTime(2_000_000),
        });
    }
    sim.inject_faults(&plan);
    let report = sim.run(Duration::from_secs(5_000));
    assert_eq!(
        report.outcome,
        Outcome::Stalled,
        "a partitioned network must terminate via the watchdog"
    );
    let dump = report
        .diagnostic
        .expect("a stalled run carries a diagnostic dump");
    assert!(!dump.nodes.is_empty());
    dump.to_json()
}

const FLAGS: &[lrs_bench::cli::Flag] = &[
    lrs_bench::cli::flag("--smoke", "reduced grid with fixed seeds for CI"),
    lrs_bench::cli::flag("--quick", "trimmed seeds for local iteration"),
    lrs_bench::cli::valued(
        "--capsule",
        "arm the flight recorder; diagnostic runs dump replay capsules into <dir>",
    ),
    lrs_bench::cli::valued(
        "--threads",
        "worker threads (default: LRS_THREADS or all cores)",
    ),
];

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("chaos: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), lrs_bench::CliError> {
    let cli = lrs_bench::Cli::parse("chaos", FLAGS)?;
    let (smoke, quick) = (cli.smoke(), cli.quick());
    // `--capsule <dir>` arms the flight recorder: any run that ends in
    // a diagnostic outcome drops a replay capsule into <dir>, loadable
    // by `cargo run -p lrs-bench --bin replay -- --replay <file>`.
    let capsule_dir: Option<PathBuf> = cli.capsule_dir();
    let seeds: u64 = if smoke || quick { 2 } else { 5 };
    let image_len = if smoke {
        2 * 1024
    } else if quick {
        4 * 1024
    } else {
        8 * 1024
    };
    let threads = cli.threads()?;

    println!(
        "Chaos sweep, one-hop star, N = {} honest + base (+storm attacker), image = {} KiB, seeds = {seeds}, threads = {threads}\n",
        N_HONEST,
        image_len / 1024
    );

    let crash_rates: &[f64] = if smoke {
        &[0.0, 0.5]
    } else {
        &[0.0, 0.25, 0.5]
    };
    let flap_rates: &[f64] = &[0.0, 0.4];
    let mut scenarios = Vec::new();
    for &scheme in &[SchemeKind::LrSeluge, SchemeKind::Seluge] {
        for &crash_rate in crash_rates {
            for &link_flap in flap_rates {
                for &storm in &[false, true] {
                    scenarios.push(Scenario {
                        scheme,
                        crash_rate,
                        link_flap,
                        storm,
                    });
                }
            }
        }
    }

    let grid = sample_grid(&scenarios, seeds, threads, |sc, seed| {
        run_scenario(image_len, sc, seed, capsule_dir.as_deref())
    });

    let mut t = Table::new(vec![
        "scheme",
        "crash",
        "flap",
        "storm",
        "complete",
        "unfinished",
        "latency_s",
        "reboots",
        "stalled",
        "violations",
        "energy_j",
    ]);
    let mut rows = Vec::new();
    for (sc, samples) in scenarios.iter().zip(&grid) {
        // Hard acceptance criteria hold per seed, not just on average.
        for o in samples {
            assert_eq!(
                o.violations, 0.0,
                "invariant violation under {sc:?} — protocol state corrupted"
            );
            if !sc.storm {
                assert_eq!(
                    o.stalled, 0.0,
                    "watchdog tripped on a non-adversarial config {sc:?}"
                );
            }
        }
        let col = |f: usize| samples.iter().map(|o| o.fields()[f]).collect::<Vec<f64>>();
        let mean = |f: usize| {
            let v = col(f);
            let finite: Vec<f64> = v.into_iter().filter(|x| x.is_finite()).collect();
            if finite.is_empty() {
                f64::NAN
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            }
        };
        let cell = |f: usize| {
            if mean(f).is_finite() {
                format!("{:.1}", mean(f))
            } else {
                "-".to_string()
            }
        };
        t.row(vec![
            sc.scheme.label().to_string(),
            format!("{:.2}", sc.crash_rate),
            format!("{:.2}", sc.link_flap),
            if sc.storm { "yes" } else { "no" }.to_string(),
            cell(0),
            cell(1),
            cell(2),
            cell(3),
            cell(5),
            cell(6),
            cell(7),
        ]);
        let metrics: Vec<(String, Json)> = METRIC_NAMES
            .iter()
            .enumerate()
            .map(|(f, name)| (name.to_string(), stat_json(&col(f))))
            .collect();
        rows.push(Json::Obj(vec![
            (
                "params".into(),
                Json::Obj(vec![
                    ("scheme".into(), Json::str(sc.scheme.label())),
                    ("crash_rate".into(), Json::num(sc.crash_rate)),
                    ("link_flap".into(), Json::num(sc.link_flap)),
                    ("storm".into(), Json::num(u8::from(sc.storm))),
                ]),
            ),
            ("metrics".into(), Json::Obj(metrics)),
        ]));
    }
    println!("{}", t.render());

    // Seed determinism: the same scenario and seed must reproduce every
    // observable bit for bit.
    let probe = Scenario {
        scheme: SchemeKind::LrSeluge,
        crash_rate: 0.5,
        link_flap: 0.4,
        storm: true,
    };
    let a = run_scenario(image_len, &probe, 7, None).canonical();
    let b = run_scenario(image_len, &probe, 7, None).canonical();
    assert_eq!(a, b, "same seed must reproduce the identical outcome");
    println!("determinism: seed 7 reproduced bit-identically\n");

    // Watchdog demonstration: a partitioned network terminates with a
    // structured dump instead of spinning to the deadline.
    let dump = watchdog_demo(image_len.min(2 * 1024), capsule_dir.as_deref());
    println!("watchdog demo (partitioned star) diagnostic dump:\n{dump}\n");
    if let Some(dir) = &capsule_dir {
        println!(
            "flight recorder armed: diagnostic runs dump capsules to {} \
             (the watchdog demo always writes chaos-watchdog-demo.jsonl)\n",
            dir.display()
        );
    }

    println!("wrote {}", write_csv("chaos", &t));
    let report = Json::Obj(vec![
        ("experiment".into(), Json::str("chaos")),
        ("threads".into(), Json::num(threads as u32)),
        ("seeds".into(), Json::num(seeds as u32)),
        ("rows".into(), Json::Arr(rows)),
    ]);
    println!("wrote {}", write_json("chaos", &report));
    println!("all invariant and watchdog assertions held");
    Ok(())
}
