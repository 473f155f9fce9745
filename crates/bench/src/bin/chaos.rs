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

use lrs_bench::capsules::{chaos_sim_config as sim_config, population, LrScheme, ScenarioTags};
use lrs_bench::runner::{simulate, Matched, SimSetup};
use lrs_bench::sweep::mean_cell;
use lrs_bench::{sample_grid, with_scheme, Json, Report, Sample};
use lrs_deluge::deployment::SchemeFamily;
use lrs_host::node::NodeId;
use lrs_host::time::{Duration, SimTime};
use lrs_netsim::fault::{FaultConfig, FaultPlan};
use lrs_netsim::sim::Outcome;
use lrs_netsim::topology::Topology;
use lrs_netsim::CapsuleSpec;
use std::path::{Path, PathBuf};

/// Honest receivers; one more node is either an extra receiver or the
/// packet-storm attacker, and node 0 is the base station.
const N_HONEST: usize = 8;

/// One cell of the fault-intensity grid.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    /// Scheme family name.
    scheme: &'static str,
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

impl Sample for ChaosOutcome {
    const NAMES: &'static [&'static str] = &[
        "complete",
        "unfinished_nodes",
        "latency_s",
        "reboots",
        "injected",
        "stalled",
        "violations",
        "energy_j",
    ];

    fn values(&self) -> Vec<f64> {
        vec![
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

/// Flight-recorder file name encoding the scenario.
fn capsule_name(sc: &Scenario, seed: u64) -> String {
    format!(
        "chaos-{}-c{:02}-f{:02}-{}-seed{}.jsonl",
        sc.scheme,
        (sc.crash_rate * 100.0) as u32,
        (sc.link_flap * 100.0) as u32,
        if sc.storm { "storm" } else { "calm" },
        seed,
    )
}

/// Runs scheme family `S` under the scenario's fault plan with the
/// per-delivery invariant checker armed.
fn run_chaos<S: Matched>(
    image_len: usize,
    sc: &Scenario,
    seed: u64,
    capsule_dir: Option<&Path>,
) -> ChaosOutcome {
    // What the capsule registry rebuilds the node population from, here
    // and in the `replay` binary.
    let mut tags = ScenarioTags::new(sc.scheme, "chaos", image_len, "chaos keys");
    if sc.storm {
        tags = tags.with_storm(NodeId((N_HONEST + 1) as u32));
    }
    let pop = population::<S>(&tags).expect("the chaos profile is registered");
    let topo = Topology::star(N_HONEST + 2);
    let done = simulate(
        &pop,
        SimSetup {
            config: sim_config(),
            faults: FaultPlan::generate(&fault_config(sc), &topo, seed),
            capsule: capsule_dir
                .map(|dir| tags.apply(CapsuleSpec::new(dir.join(capsule_name(sc, seed))))),
            check_deliveries: true,
            ..SimSetup::new(topo, seed, Duration::from_secs(5_000))
        },
    );
    let report = &done.report;
    let unfinished = done.wrong_images();
    let violations = usize::from(done.sim.invariant_violation().is_some()) + done.violations();
    let flag = |on: bool| if on { 1.0 } else { 0.0 };
    ChaosOutcome {
        complete: flag(report.outcome == Outcome::Complete && unfinished == 0),
        unfinished: unfinished as f64,
        latency_s: report.latency.map(|t| t.as_secs_f64()).unwrap_or(f64::NAN),
        reboots: done.sim.reboots() as f64,
        injected: done.injected() as f64,
        stalled: flag(report.outcome == Outcome::Stalled),
        violations: violations as f64,
        energy_j: done.energy_j(),
    }
}

fn run_scenario(
    image_len: usize,
    sc: &Scenario,
    seed: u64,
    capsule_dir: Option<&Path>,
) -> ChaosOutcome {
    with_scheme!(sc.scheme, S => run_chaos::<S>(image_len, sc, seed, capsule_dir))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Deliberately partitions a network and shows the watchdog converting
/// the resulting livelock into a structured diagnostic dump — and, when
/// the flight recorder is armed, a replay capsule.
fn watchdog_demo(image_len: usize, capsule_dir: Option<&Path>) -> String {
    let tags = ScenarioTags::new(LrScheme::NAME, "chaos", image_len, "chaos keys");
    let pop = population::<LrScheme>(&tags).expect("the chaos profile is registered");
    let topo = Topology::star(4);
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
    let report = simulate(
        &pop,
        SimSetup {
            config: lrs_netsim::sim::SimConfig {
                stall_window: Some(Duration::from_secs(60)),
                ..sim_config()
            },
            faults: plan,
            capsule: capsule_dir
                .map(|dir| tags.apply(CapsuleSpec::new(dir.join("chaos-watchdog-demo.jsonl")))),
            ..SimSetup::new(topo, 3, Duration::from_secs(5_000))
        },
    )
    .report;
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
    // by `cargo run -p lrs-bench --bin replay -- <file>`.
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
    for scheme in ["lr-seluge", "seluge"] {
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

    let columns = vec![
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
    ];
    let mut report = Report::new("chaos", columns, seeds, threads);
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
        let cell = |metric| mean_cell(samples, metric, 1);
        report.row(vec![
            sc.scheme.to_string(),
            format!("{:.2}", sc.crash_rate),
            format!("{:.2}", sc.link_flap),
            if sc.storm { "yes" } else { "no" }.to_string(),
            cell("complete"),
            cell("unfinished_nodes"),
            cell("latency_s"),
            cell("reboots"),
            cell("stalled"),
            cell("violations"),
            cell("energy_j"),
        ]);
        report.push(
            &[
                ("scheme", Json::str(sc.scheme)),
                ("crash_rate", Json::num(sc.crash_rate)),
                ("link_flap", Json::num(sc.link_flap)),
                ("storm", Json::num(u8::from(sc.storm))),
            ],
            samples,
        );
    }
    println!("{}", report.table().render());

    // Seed determinism: the same scenario and seed must reproduce every
    // observable bit for bit.
    let probe = Scenario {
        scheme: "lr-seluge",
        crash_rate: 0.5,
        link_flap: 0.4,
        storm: true,
    };
    let a = run_scenario(image_len, &probe, 7, None);
    let b = run_scenario(image_len, &probe, 7, None);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "same seed must reproduce the identical outcome"
    );
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

    report.write();
    println!("all invariant and watchdog assertions held");
    Ok(())
}
