//! Attack-resilience experiments (§III adversary model, §IV-E defences).
//!
//! 1. **Bogus-data flood** against LR-Seluge: every forged packet is
//!    rejected on arrival, no node ever stores a wrong byte, and
//!    dissemination completes; the same flood against plain Deluge
//!    corrupts images.
//! 2. **Forged-signature flood**: the message-specific puzzle absorbs
//!    the flood — each node still performs exactly one expensive
//!    signature verification.
//! 3. **Denial-of-receipt** by a compromised insider: without the
//!    §IV-E budget the victim keeps serving; with the per-neighbor
//!    budget its extra transmissions are capped.
//!
//! Attackers are built from single-entry [`AttackPlan`]s through the
//! shared capsule registry (`lrs_bench::capsules`), so `--capsule <dir>`
//! arms the flight recorder: any LR-Seluge flood run that ends in a
//! diagnostic outcome drops a replay capsule whose scenario tags carry
//! the full plan.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lrs_bench::capsules::{attack_params, population, LrScheme, ScenarioTags};
use lrs_bench::runner::{simulate, Finished, Matched, SimSetup};
use lrs_bench::sweep::mean_cell;
use lrs_bench::{sample_grid, Json, Report, Sample, Table};
use lrs_deluge::attack::{AttackEntry, AttackPlan, AttackVector};
use lrs_deluge::engine::EngineConfig;
use lrs_deluge::image::DelugeScheme;
use lrs_host::node::NodeId;
use lrs_host::time::{Duration, SimTime};
use lrs_netsim::topology::Topology;
use lrs_netsim::CapsuleSpec;

const N_HONEST: usize = 10;

/// Single-entry plan placing one attacker at the star's last leaf.
fn single_attacker_plan(vector: AttackVector, interval: Duration) -> AttackPlan {
    let mut plan = AttackPlan::new();
    plan.push(AttackEntry {
        node: NodeId((N_HONEST + 1) as u32),
        vector,
        at: SimTime(0),
        interval,
        burst: None,
        target: NodeId(0),
        spoof_pool: (N_HONEST + 2) as u32,
    });
    plan
}

/// One flood run's observables, as floats for summarizing over seeds.
#[derive(Clone, Copy, Debug)]
struct FloodOutcome {
    injected: f64,
    complete: f64,
    wrong: f64,
    rejects: f64,
    sig_verifs: f64,
}

impl Sample for FloodOutcome {
    const NAMES: &'static [&'static str] = &[
        "injected",
        "complete",
        "wrong_images",
        "rejects",
        "sig_verifs",
    ];

    fn values(&self) -> Vec<f64> {
        vec![
            self.injected,
            self.complete,
            self.wrong,
            self.rejects,
            self.sig_verifs,
        ]
    }
}

/// The victim base station under denial-of-receipt.
#[derive(Clone, Copy, Debug)]
struct VictimLoad {
    data_pkts: f64,
    budget_rejections: f64,
}

impl Sample for VictimLoad {
    const NAMES: &'static [&'static str] = &["victim_data_pkts", "budget_rejections"];

    fn values(&self) -> Vec<f64> {
        vec![self.data_pkts, self.budget_rejections]
    }
}

/// Runs scheme family `S` (the "attack" profile, matched) on the star
/// with one plan-driven attacker at the last leaf, for `window` of
/// virtual time. When `capsule_dir` is set the flight recorder is armed
/// with the run's scenario tags, so a diagnostic outcome dumps a
/// bit-replayable capsule; only runs on the registry's default engine
/// configuration (no §IV-E budget) may pass one.
fn run_attacked<S: Matched>(
    image_len: usize,
    vector: AttackVector,
    interval: Duration,
    budget: Option<u32>,
    seed: u64,
    window: Duration,
    capsule_dir: Option<&Path>,
) -> Result<Finished<S>, String> {
    let tags = ScenarioTags::new(S::NAME, "attack", image_len, "attack keys")
        .with_attack_plan(single_attacker_plan(vector, interval));
    let pop = population::<S>(&tags)?.with_engine_config(EngineConfig {
        per_neighbor_item_budget: budget,
        ..EngineConfig::default()
    });
    let name = format!(
        "attack-{}-{}ms-seed{}.jsonl",
        vector.label(),
        interval.as_micros() / 1_000,
        seed,
    );
    let setup = SimSetup {
        capsule: capsule_dir.map(|dir| tags.apply(CapsuleSpec::new(dir.join(name)))),
        ..SimSetup::new(Topology::star(N_HONEST + 2), seed, window)
    };
    Ok(simulate(&pop, setup))
}

/// One flood run of family `S`, summarized over the honest receivers.
fn run_under_attack<S: Matched>(
    image_len: usize,
    vector: AttackVector,
    interval: Duration,
    seed: u64,
    capsule_dir: Option<&Path>,
) -> Result<FloodOutcome, String> {
    let window = Duration::from_secs(20_000);
    let done = run_attacked::<S>(image_len, vector, interval, None, seed, window, capsule_dir)?;
    let mut rejects = 0u64;
    let mut sig_verifs = 0u64;
    // Receivers only: the base station is the flood's bystander.
    for (_, node) in done.honest().skip(1) {
        let st = node.stats();
        rejects += st.auth_rejects + st.mac_rejects + st.out_of_order_drops;
        sig_verifs += node.scheme().cost().signature_verifications;
    }
    Ok(FloodOutcome {
        injected: done.injected() as f64,
        complete: if done.report.all_complete { 1.0 } else { 0.0 },
        wrong: done.wrong_images() as f64,
        rejects: rejects as f64,
        sig_verifs: sig_verifs as f64,
    })
}

/// Runs the insider denial-of-receipt attack; returns the victim base
/// station's data packets sent and budget rejections.
fn run_denial_of_receipt(
    image_len: usize,
    budget: Option<u32>,
    seed: u64,
) -> Result<VictimLoad, String> {
    // Fixed observation window: the unbounded variant is a total DoS and
    // would otherwise run to any deadline.
    let done = run_attacked::<LrScheme>(
        image_len,
        AttackVector::DenialOfReceipt,
        Duration::from_millis(250),
        budget,
        seed,
        Duration::from_secs(2_000),
        None,
    )?;
    let base = done
        .sim
        .node(NodeId(0))
        .honest()
        .ok_or("the base station should be honest but is not")?;
    Ok(VictimLoad {
        data_pkts: base.stats().data_sent as f64,
        budget_rejections: base.stats().budget_rejections as f64,
    })
}

/// A flood scenario row: (label, scheme).
#[derive(Clone)]
enum Scenario {
    LrBogus { interval_ms: u64 },
    DelugeBogus { interval_ms: u64 },
    ForgedSig { interval_ms: u64 },
}

impl Scenario {
    fn label(&self) -> String {
        match self {
            Scenario::LrBogus { interval_ms } => format!("bogus-data @{interval_ms}ms"),
            Scenario::DelugeBogus { interval_ms } => format!("bogus-data @{interval_ms}ms"),
            Scenario::ForgedSig { interval_ms } => format!("forged-signature @{interval_ms}ms"),
        }
    }

    fn scheme(&self) -> &'static str {
        match self {
            Scenario::DelugeBogus { .. } => "deluge (insecure)",
            _ => "lr-seluge",
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("attack: {e}");
            ExitCode::FAILURE
        }
    }
}

const FLAGS: &[lrs_bench::cli::Flag] = &[
    lrs_bench::cli::flag("--quick", "one seed and a smaller image"),
    lrs_bench::cli::valued(
        "--capsule",
        "arm the flight recorder on the LR-Seluge flood runs; capsules land in <dir>",
    ),
    lrs_bench::cli::valued(
        "--threads",
        "worker threads (default: LRS_THREADS or all cores)",
    ),
];

fn run() -> Result<(), String> {
    let cli = lrs_bench::Cli::parse("attack", FLAGS).map_err(|e| e.to_string())?;
    let quick = cli.quick();
    // `--capsule <dir>` arms the flight recorder on the LR-Seluge flood
    // runs: any diagnostic outcome drops a replay capsule into <dir>,
    // loadable by the `replay` binary.
    let capsule_dir: Option<PathBuf> = cli.capsule_dir();
    if let Some(dir) = &capsule_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let seeds: u64 = if quick { 1 } else { 3 };
    let threads = cli.threads().map_err(|e| e.to_string())?;
    let image_len = if quick { 4 * 1024 } else { 20 * 1024 };
    let p = attack_params(image_len);

    println!(
        "Attack resilience, one-hop, N = {N_HONEST} honest receivers + 1 attacker (seeds = {seeds}, threads = {threads})\n"
    );
    let scenarios = [
        Scenario::LrBogus { interval_ms: 800 },
        Scenario::LrBogus { interval_ms: 300 },
        Scenario::LrBogus { interval_ms: 120 },
        Scenario::DelugeBogus { interval_ms: 300 },
        Scenario::ForgedSig { interval_ms: 400 },
    ];
    let grid = sample_grid(&scenarios, seeds, threads, |sc, seed| match *sc {
        Scenario::LrBogus { interval_ms } => run_under_attack::<LrScheme>(
            image_len,
            AttackVector::BogusData,
            Duration::from_millis(interval_ms),
            seed,
            capsule_dir.as_deref(),
        ),
        // Plain Deluge authenticates nothing, so it has no rejection or
        // verification counts to report, and its capsules have no
        // registered scheme to replay under.
        Scenario::DelugeBogus { interval_ms } => run_under_attack::<DelugeScheme>(
            image_len,
            AttackVector::BogusData,
            Duration::from_millis(interval_ms),
            seed,
            None,
        )
        .map(|o| FloodOutcome {
            rejects: f64::NAN,
            sig_verifs: f64::NAN,
            ..o
        }),
        Scenario::ForgedSig { interval_ms } => run_under_attack::<LrScheme>(
            image_len,
            AttackVector::ForgedSignature,
            Duration::from_millis(interval_ms),
            seed,
            capsule_dir.as_deref(),
        ),
    });

    let columns = [&["experiment", "scheme"], FloodOutcome::NAMES].concat();
    let mut report = Report::new("attack", columns, seeds, threads);
    for (sc, results) in scenarios.iter().zip(grid) {
        let samples = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        // Security invariants hold per seed, not just on average.
        for o in &samples {
            match sc {
                Scenario::LrBogus { .. } => {
                    if o.wrong != 0.0 {
                        return Err(format!(
                            "LR-Seluge stored forged data under {} ({} wrong images)",
                            sc.label(),
                            o.wrong
                        ));
                    }
                }
                Scenario::ForgedSig { .. } => {
                    if o.sig_verifs != N_HONEST as f64 {
                        return Err(format!(
                            "puzzle must limit each node to one expensive verification; \
                             saw {} under {}",
                            o.sig_verifs,
                            sc.label()
                        ));
                    }
                }
                Scenario::DelugeBogus { .. } => {}
            }
        }
        let means = FloodOutcome::NAMES
            .iter()
            .map(|name| mean_cell(&samples, name, 1));
        report.row([vec![sc.label(), sc.scheme().to_string()], means.collect()].concat());
        report.push(
            &[
                ("experiment", Json::str(sc.label())),
                ("scheme", Json::str(sc.scheme())),
            ],
            &samples,
        );
    }

    // 3. Denial-of-receipt: victim transmissions with and without budget.
    println!("Denial-of-receipt (insider SNACK flood at the base station):");
    let budgets = [None, Some(3 * p.n as u32)];
    let dor_grid = sample_grid(&budgets, seeds, threads, |&budget, seed| {
        run_denial_of_receipt(image_len, budget, seed)
    });
    let mut dor = Table::new(vec!["budget", "victim_data_pkts", "budget_rejections"]);
    for (budget, results) in budgets.iter().zip(dor_grid) {
        let samples = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        dor.row(vec![
            budget.map_or("none".to_string(), |b| b.to_string()),
            mean_cell(&samples, "victim_data_pkts", 0),
            mean_cell(&samples, "budget_rejections", 0),
        ]);
        report.push(
            &[
                ("experiment", Json::str("denial-of-receipt")),
                ("budget", budget.map_or(Json::Null, Json::num)),
            ],
            &samples,
        );
    }
    println!("{}", dor.render());

    println!("{}", report.table().render());
    if let Some(dir) = &capsule_dir {
        println!(
            "flight recorder armed: diagnostic flood runs dump capsules to {}",
            dir.display()
        );
    }
    report.write();
    Ok(())
}
