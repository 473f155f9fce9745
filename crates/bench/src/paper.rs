//! The paper's evaluation (§VI, plus the §V-B overhead claims and the
//! design-choice ablations) as one table of experiments over the
//! [`sweep`](crate::sweep) driver. Every point of every figure and
//! table is a one-cell campaign ([`cell`]) whose jobs run seeds
//! `1..=S`: an experiment runs its cells under `results/paper/`
//! (`results/paper-quick/` with `--quick`), resuming any cell already
//! there, and renders its table and CSV from the cells' job records.
//! The `paper` bin runs the experiments by name; each prints its series
//! and writes `results/<name>.csv`. A point's per-seed metrics and
//! their statistics are its cell's `jobs.log` and `report.json`.

use crate::campaign::{Campaign, JobRecord};
use crate::capsules::{population, profile_params, ScenarioTags};
use crate::cli::{Cli, CliError};
use crate::harness::parallel_map;
use crate::runner::{matched_seluge_params, simulate};
use crate::spec::CampaignSpec;
use crate::sweep::{five_metrics, mean, mean_cell, run_cells, FIVE_METRICS};
use crate::table::{write_csv, Table};
use crate::with_scheme;
use lr_seluge::LrSelugeParams;
use lrs_analysis::{
    ack_lr_expected_data_packets, seluge_expected_data_packets, AckLrModel, Summary,
};
use lrs_deluge::engine::{CryptoCost, Scheme as _};
use lrs_netsim::capsule::Capsule;
use std::path::PathBuf;

/// One experiment: `(quick, threads)`.
pub type Experiment = fn(bool, usize);

/// Every experiment by name, in the order `all` runs them.
pub const EXPERIMENTS: [(&str, Experiment); 8] = [
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("imgsize", imgsize),
    ("ablation", ablation),
    ("overhead", overhead),
    ("table2_3", table2_3),
];

/// The experiments `cli`'s positionals name, in the order given, `all`
/// standing for every one; each name is checked before any runs.
pub fn select(cli: &Cli) -> Result<Vec<Experiment>, CliError> {
    let mut selected = Vec::new();
    for name in cli.positionals() {
        match EXPERIMENTS
            .iter()
            .find(|(known, _)| *known == name.as_str())
        {
            Some(&(_, experiment)) => selected.push(experiment),
            None if name == "all" => selected.extend(EXPERIMENTS.iter().map(|&(_, e)| e)),
            None => {
                return Err(CliError::UnknownArg {
                    arg: name.clone(),
                    usage: cli.usage(),
                })
            }
        }
    }
    Ok(selected)
}

/// LR-Seluge first, the order of every LR-Seluge vs Seluge table.
const LR_FIRST: [&str; 2] = ["lr-seluge", "seluge"];

/// A one-hop job's time limit, also its stall window (virtual seconds).
const ONE_HOP_DEADLINE_S: u64 = 100_000;

/// A 15×15 grid job's time limit and stall window.
const GRID_DEADLINE_S: u64 = 400_000;

/// The one-cell campaign of a paper point: `scheme` on `topology` at
/// application-layer loss `p`, under the `paper` profile with an
/// `image_bytes` image, its jobs running seeds `1..=seeds` with the
/// one-hop time limit as their stall window.
pub fn cell(
    name: String,
    scheme: &str,
    topology: String,
    p: f64,
    image_bytes: usize,
    seeds: u64,
) -> CampaignSpec {
    CampaignSpec {
        name,
        schemes: vec![scheme.to_string()],
        topologies: vec![topology],
        loss_ppm: vec![(p * 1e6).round() as u32],
        faults: vec!["none".into()],
        attackers: vec!["none".into()],
        seeds,
        seed_base: 1,
        image_bytes,
        profile: "paper".into(),
        noise: "none".into(),
        deadline_s: ONE_HOP_DEADLINE_S,
        stall_s: ONE_HOP_DEADLINE_S,
        fault_horizon_s: ONE_HOP_DEADLINE_S,
    }
}

/// The topology token of a one-hop star of `receivers` around the base.
fn star(receivers: usize) -> String {
    format!("star:{}", receivers + 1)
}

/// Runs an experiment's cells in the quick or the full cell directory.
fn run(cells: &[CampaignSpec], quick: bool, threads: usize) -> Vec<Vec<JobRecord>> {
    let root = PathBuf::from("results").join(if quick { "paper-quick" } else { "paper" });
    run_cells(cells, &root, threads)
}

/// The paper's 20 KB image, or a 4 KB one when `quick`.
fn image_bytes(quick: bool) -> usize {
    if quick {
        4 * 1024
    } else {
        20 * 1024
    }
}

/// `100 · (1 − lr/seluge)`: what LR-Seluge saves, in percent.
fn saving(lr: f64, seluge: f64) -> f64 {
    100.0 * (1.0 - lr / seluge)
}

/// Figure 3: one-page data-packet transmissions in a one-hop cluster,
/// (a) vs the packet-loss rate `p` at fixed `N`, (b) vs the number of
/// receivers `N` at fixed `p`.
///
/// Four series each, as in the paper: analytical Seluge (max-of-geometrics
/// formula), analytical ACK-based LR-Seluge (round-process upper bound),
/// simulated Seluge, simulated LR-Seluge. The paper's observations to
/// look for: the Seluge simulation hugs its analysis; the ACK-based curve
/// upper-bounds the LR-Seluge simulation; the ACK-based curve jumps
/// between `p = 0.3` and `p = 0.4` (one round → two rounds at rate 1.5);
/// LR-Seluge is far less sensitive to both `p` and `N`.
fn fig3(quick: bool, threads: usize) {
    let seeds = if quick { 3 } else { 10 };
    let mc = AckLrModel::MonteCarlo {
        trials: if quick { 3_000 } else { 20_000 },
        seed: 99,
    };
    // One page exactly: k = 32, n = 48 encoded packets, 72 B payloads
    // (1 920 image bytes); Seluge's one page is 32 x 64 B slices.
    let lr = LrSelugeParams::default();
    let (k, n) = (lr.k as usize, lr.n as usize);
    let one_page = [
        ("seluge", matched_seluge_params(&lr).page_capacity()),
        ("lr-seluge", lr.page_capacity()),
    ];

    // `points` are `(N, p)`; `vs_p` says which of the two is the axis.
    let half = |name: &str, vs_p: bool, points: &[(usize, f64)]| {
        let cells: Vec<CampaignSpec> = points
            .iter()
            .flat_map(|&(n_rx, p)| {
                one_page.map(|(scheme, bytes)| {
                    let name = format!("{name}-n{n_rx}-p{p}-{scheme}");
                    cell(name, scheme, star(n_rx), p, bytes, seeds)
                })
            })
            .collect();
        let grid = run(&cells, quick, threads);
        let axis = if vs_p { "p" } else { "N" };
        let columns = vec![
            axis,
            "seluge_analytical",
            "ack_lr_analytical",
            "seluge_sim",
            "lr_sim",
        ];
        let mut table = Table::new(columns);
        for (&(n_rx, p), by_scheme) in points.iter().zip(grid.chunks(2)) {
            let cell = if vs_p {
                format!("{p:.2}")
            } else {
                format!("{n_rx}")
            };
            table.row(vec![
                cell,
                format!("{:.1}", seluge_expected_data_packets(k, n_rx, p)),
                format!("{:.1}", ack_lr_expected_data_packets(k, n, p, n_rx, mc)),
                mean_cell(&by_scheme[0], "page_data_pkts", 1),
                mean_cell(&by_scheme[1], "page_data_pkts", 1),
            ]);
        }
        println!("{}", table.render());
        println!("wrote {}", write_csv(name, &table));
    };

    let n_rx = 10;
    println!("Fig 3(a): one page, N = {n_rx} receivers, data packets vs p (threads = {threads})\n");
    let ps = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5];
    half("fig3a", true, &ps.map(|p| (n_rx, p)));

    let p = 0.2;
    println!("\nFig 3(b): one page, p = {p}, data packets vs N\n");
    half(
        "fig3b",
        false,
        &[2, 5, 10, 15, 20, 25, 30, 40].map(|n| (n, p)),
    );
}

/// The LR-Seluge and Seluge cells of every point, in point order, each
/// `(name, topology, p, image_bytes)`.
fn lr_first(points: &[(String, String, f64, usize)], seeds: u64) -> Vec<CampaignSpec> {
    points
        .iter()
        .flat_map(|(name, topology, p, bytes)| {
            LR_FIRST.map(|scheme| {
                cell(
                    format!("{name}-{scheme}"),
                    scheme,
                    topology.clone(),
                    *p,
                    *bytes,
                    seeds,
                )
            })
        })
        .collect()
}

/// Figure 4: impact of the packet-loss rate `p` (one-hop, N = 20,
/// 20 KB image) on the five metrics: (a) data packets, (b) SNACK
/// packets, (c) advertisement packets, (d) total bytes, (e) latency,
/// LR-Seluge vs Seluge.
///
/// Expected shape (§VI-B-1): both grow with `p`; LR-Seluge slightly
/// worse at `p ≤ 0.01` (erasure redundancy costs extra pages), clearly
/// better for `p > 0.01`, with ~44 % byte savings and ~48 % latency
/// savings at `p = 0.4`.
fn fig4(quick: bool, threads: usize) {
    let seeds = if quick { 1 } else { 3 };
    let bytes = image_bytes(quick);
    let n_rx = 20;
    let ps = [0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    println!(
        "Fig 4: one-hop, N = {n_rx}, image {} KB, sweep p (seeds = {seeds}, threads = {threads})\n",
        bytes / 1024
    );
    let points = ps.map(|p| (format!("fig4-p{p}"), star(n_rx), p, bytes));
    let grid = run(&lr_first(&points, seeds), quick, threads);
    let columns = [&["p", "scheme"], FIVE_METRICS].concat();
    let mut table = Table::new(columns);
    for (&p, by_scheme) in ps.iter().zip(grid.chunks(2)) {
        for (scheme, samples) in LR_FIRST.iter().zip(by_scheme) {
            let lead = vec![format!("{p:.2}"), scheme.to_string()];
            table.row([lead, five_metrics(samples)].concat());
        }
        let saved = |metric| saving(mean(&by_scheme[0], metric), mean(&by_scheme[1], metric));
        println!(
            "p = {p:<4}: LR saves {:5.1} % bytes, {:5.1} % latency",
            saved("total_bytes"),
            saved("latency_s")
        );
    }
    println!("\n{}", table.render());
    println!("wrote {}", write_csv("fig4", &table));
}

/// Figure 5: impact of node density (one-hop, p = 0.1, 20 KB image),
/// sweeping the number of receivers `N`: the five metrics for LR-Seluge
/// vs Seluge.
///
/// Expected shape (§VI-B-2): every cost grows with `N`, but LR-Seluge
/// grows much more slowly; Seluge's latency creeps up with `N` while
/// LR-Seluge's slightly decreases (the more requesters, the sooner some
/// node decodes the page and requests the next one).
fn fig5(quick: bool, threads: usize) {
    let seeds = if quick { 1 } else { 3 };
    let bytes = image_bytes(quick);
    let p = 0.1;
    println!(
        "Fig 5: one-hop, p = {p}, image {} KB, sweep N (seeds = {seeds}, threads = {threads})\n",
        bytes / 1024
    );
    let ns: &[usize] = if quick {
        &[5, 20, 40]
    } else {
        &[5, 10, 15, 20, 25, 30, 35, 40]
    };
    let points: Vec<_> = ns
        .iter()
        .map(|&n_rx| (format!("fig5-n{n_rx}"), star(n_rx), p, bytes))
        .collect();
    let grid = run(&lr_first(&points, seeds), quick, threads);
    let columns = [&["N", "scheme"], FIVE_METRICS].concat();
    let mut table = Table::new(columns);
    for (&n_rx, by_scheme) in ns.iter().zip(grid.chunks(2)) {
        for (scheme, samples) in LR_FIRST.iter().zip(by_scheme) {
            let lead = vec![format!("{n_rx}"), scheme.to_string()];
            table.row([lead, five_metrics(samples)].concat());
        }
    }
    println!("{}", table.render());
    println!("wrote {}", write_csv("fig5", &table));
}

/// Figure 6: impact of the erasure-coding rate `n/k` on LR-Seluge
/// (one-hop, N = 20, `k` fixed at 32), under several loss rates.
///
/// Expected shape (§VI-B-3): moving from `n = k` (no redundancy) to a
/// moderate rate slashes SNACK and data traffic; pushing the rate
/// further slowly *raises* cost again, because the chained-hash region
/// `n·8` eats into each page's image capacity, adding pages.
fn fig6(quick: bool, threads: usize) {
    let seeds = if quick { 1 } else { 3 };
    let (bytes, k) = (image_bytes(quick), LrSelugeParams::default().k);
    let n_rx = 20;
    println!(
        "Fig 6: one-hop, N = {n_rx}, k = {}, image {} KB, sweep n (seeds = {seeds}, threads = {threads})\n",
        k,
        bytes / 1024
    );
    let loss_rates: &[f64] = if quick {
        &[0.1, 0.3]
    } else {
        &[0.05, 0.1, 0.2, 0.3]
    };
    let ns: &[u16] = if quick {
        &[32, 48, 64]
    } else {
        &[32, 36, 40, 44, 48, 56, 64]
    };
    let cells: Vec<CampaignSpec> = loss_rates
        .iter()
        .flat_map(|&p| {
            ns.iter().map(move |&n| CampaignSpec {
                profile: format!("paper:n={n}"),
                ..cell(
                    format!("fig6-p{p}-n{n}"),
                    "lr-seluge",
                    star(n_rx),
                    p,
                    bytes,
                    seeds,
                )
            })
        })
        .collect();
    let grid = run(&cells, quick, threads);
    let columns = [&["p", "n", "rate", "pages"], FIVE_METRICS].concat();
    let mut table = Table::new(columns);
    for (spec, samples) in cells.iter().zip(&grid) {
        let p = spec.loss_ppm[0] as f64 / 1e6;
        let params = profile_params(&spec.profile, spec.image_bytes).expect("valid profile");
        let rate = params.n as f64 / k as f64;
        let lead = vec![
            format!("{p:.2}"),
            format!("{}", params.n),
            format!("{rate:.2}"),
            format!("{}", params.pages()),
        ];
        table.row([lead, five_metrics(samples)].concat());
    }
    println!("{}", table.render());
    println!("wrote {}", write_csv("fig6", &table));
}

/// Image-size sweep (§VI-C: "we have simulated the impact of different
/// image sizes in both one-hop and multi-hop networks and observed
/// similar advantages of LR-Seluge over Seluge").
fn imgsize(quick: bool, threads: usize) {
    let seeds = if quick { 1 } else { 3 };
    let p = 0.2;
    let n_rx = 20;
    let sizes: &[usize] = if quick {
        &[4 * 1024, 16 * 1024]
    } else {
        &[4 * 1024, 10 * 1024, 20 * 1024, 40 * 1024, 80 * 1024]
    };
    println!(
        "Image-size sweep: one-hop, N = {n_rx}, p = {p} (seeds = {seeds}, threads = {threads})\n"
    );
    let points: Vec<_> = sizes
        .iter()
        .map(|&size| (format!("imgsize-{size}"), star(n_rx), p, size))
        .collect();
    let grid = run(&lr_first(&points, seeds), quick, threads);
    let columns = vec![
        "image_kb",
        "scheme",
        "data_pkts",
        "total_kbytes",
        "latency_s",
        "byte_saving_pct",
    ];
    let mut table = Table::new(columns);
    for (&size, by_scheme) in sizes.iter().zip(grid.chunks(2)) {
        let bytes = by_scheme
            .iter()
            .map(|s| mean(s, "total_bytes"))
            .collect::<Vec<_>>();
        let savings = [
            format!("{:.1}", saving(bytes[0], bytes[1])),
            "-".to_string(),
        ];
        for ((scheme, samples), saved) in LR_FIRST.iter().zip(by_scheme).zip(savings) {
            table.row(vec![
                format!("{}", size / 1024),
                scheme.to_string(),
                mean_cell(samples, "data_pkts", 0),
                format!("{:.1}", mean(samples, "total_bytes") / 1024.0),
                mean_cell(samples, "latency_s", 1),
                saved,
            ]);
        }
    }
    println!("{}", table.render());
    println!("wrote {}", write_csv("imgsize", &table));
}

/// Design-choice ablations.
///
/// 1. **Scheduler**: LR-Seluge with the greedy round-robin tracking
///    table (§IV-D-3) vs the same protocol with the Deluge/Seluge
///    union-of-bit-vectors rule (profile knob `tx=union`). Isolates how
///    much of LR-Seluge's win comes from the scheduler rather than from
///    erasure coding alone.
/// 2. **Erasure code**: Reed-Solomon (`k' = k`) vs the XOR code
///    (`k' = k + ε`) and the LT code (profile knob `code=rs|xor|lt`):
///    the reception-overhead cost of XOR-only decoding.
///
/// Every ablation job must complete.
fn ablation(quick: bool, threads: usize) {
    let seeds = 3;
    let image_bytes = image_bytes(quick);
    let n_rx = 20;
    let loss_rates = [0.1, 0.3];
    // `(label, profile)` per variant, run at every loss rate.
    let run_variants = |table: &str, variants: &[(&str, &str)]| {
        let cells: Vec<CampaignSpec> = loss_rates
            .iter()
            .flat_map(|&p| {
                variants.iter().map(move |&(label, profile)| CampaignSpec {
                    profile: profile.to_string(),
                    ..cell(
                        format!("{table}-p{p}-{label}"),
                        "lr-seluge",
                        star(n_rx),
                        p,
                        image_bytes,
                        seeds,
                    )
                })
            })
            .collect();
        let grid = run(&cells, quick, threads);
        for (spec, records) in cells.iter().zip(&grid) {
            let complete = records.iter().all(|r| r.outcome == "complete");
            assert!(complete, "{}: run stalled", spec.name);
        }
        (cells, grid)
    };
    // The three columns both ablation tables end in.
    let tail_cells = |samples: &[JobRecord]| {
        vec![
            mean_cell(samples, "page_data_pkts", 0),
            format!("{:.1}", mean(samples, "total_bytes") / 1024.0),
            mean_cell(samples, "latency_s", 1),
        ]
    };
    let tail: &[&str] = &["data_pkts", "total_kbytes", "latency_s"];

    println!(
        "Ablation 1: greedy round-robin scheduler vs union rule (N = {n_rx}, threads = {threads})\n"
    );
    let policies = [("greedy", "paper"), ("union", "paper:tx=union")];
    let (_, grid) = run_variants("ablation_scheduler", &policies);
    let columns = [&["p", "policy"], tail].concat();
    let mut table = Table::new(columns);
    for (&p, by_policy) in loss_rates.iter().zip(grid.chunks(2)) {
        for (&(policy, _), samples) in policies.iter().zip(by_policy) {
            table.row(
                [
                    vec![format!("{p}"), policy.to_string()],
                    tail_cells(samples),
                ]
                .concat(),
            );
        }
        let sent = |samples| mean(samples, "page_data_pkts");
        println!(
            "p = {p}: scheduler saves {:.1} % data packets",
            saving(sent(&by_policy[0]), sent(&by_policy[1]))
        );
    }
    println!("\n{}", table.render());
    println!("wrote {}", write_csv("ablation_scheduler", &table));

    println!("\nAblation 2: Reed-Solomon (k' = k) vs sparse XOR (k' = k + 4)\n");
    let codes = [
        ("rs", "paper:code=rs"),
        ("xor", "paper:code=xor"),
        ("lt", "paper:code=lt"),
    ];
    let (cells, grid) = run_variants("ablation_code", &codes);
    let columns = [&["p", "code", "k_prime"], tail].concat();
    let mut table = Table::new(columns);
    for (spec, samples) in cells.iter().zip(&grid) {
        let p = spec.loss_ppm[0] as f64 / 1e6;
        let coded = profile_params(&spec.profile, image_bytes).expect("valid profile");
        let (code, k_prime) = (format!("{:?}", coded.code_kind), coded.k_prime());
        let lead = vec![format!("{p}"), code, format!("{k_prime}")];
        table.row([lead, tail_cells(samples)].concat());
    }
    println!("{}", table.render());
    println!("wrote {}", write_csv("ablation_code", &table));
}

/// The overhead table's counter columns, in [`mean_receiver_cost`]'s
/// order.
const COST_COLUMNS: [&str; 5] = [
    "hashes",
    "sig_verifications",
    "puzzle_checks",
    "decodes",
    "encodes",
];

/// Runs a campaign job's `capsule` the way the job runs and returns the
/// mean per-receiver count of each [`COST_COLUMNS`] counter.
fn mean_receiver_cost(capsule: &Capsule) -> [u64; 5] {
    let tags = ScenarioTags::decode(capsule).expect("a job capsule carries its tags");
    with_scheme!(tags.scheme.as_str(), S => {
        let pop = population::<S>(&tags).expect("paper profiles build");
        let done = simulate(&pop, capsule, true, Vec::new());
        assert!(done.report.all_complete);
        let receivers: Vec<CryptoCost> = done.honest().skip(1).map(|(_, n)| n.scheme().cost()).collect();
        let mean = |count: fn(&CryptoCost) -> u64| {
            receivers.iter().map(count).sum::<u64>() / receivers.len() as u64
        };
        // Exactly one expensive signature verification per receiver per
        // image, every seed: the puzzle's whole point.
        let sig_verifications = mean(|c| c.signature_verifications);
        assert_eq!(sig_verifications, 1);
        [
            mean(|c| c.hashes),
            sig_verifications,
            mean(|c| c.puzzle_checks),
            mean(|c| c.decodes),
            mean(|c| c.encodes),
        ]
    })
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Computation overhead (§V-B): cryptographic and coding work per
/// receiver for LR-Seluge vs Seluge over one full image.
///
/// The paper's qualitative claims: both schemes verify exactly one
/// signature per image (guarded by the puzzle); both hash every received
/// data packet once; LR-Seluge additionally pays one erasure decode per
/// page at every node and one encode per page at every *serving* node,
/// the price of loss resilience, affordable because the codes are
/// GF(256) table arithmetic (see `cargo bench -p lrs-bench` for the
/// per-operation costs).
///
/// The cells are built like every other experiment's, but their
/// observable is per-node state, not a job record: each job's capsule
/// runs here and no campaign directory is written.
fn overhead(quick: bool, threads: usize) {
    let seeds = if quick { 1 } else { 3 };
    let image_bytes = image_bytes(quick);
    let (p_loss, n_rx) = (0.2, 10);
    let points = [("overhead".into(), star(n_rx), p_loss, image_bytes)];
    let cells = lr_first(&points, seeds);
    let costs = parallel_map(&cells, threads, |spec| {
        let campaign = Campaign::offline(spec.clone(), PathBuf::new());
        (0..campaign.total_jobs())
            .map(|job| mean_receiver_cost(&campaign.job_capsule(job).expect("valid cell")))
            .collect::<Vec<_>>()
    });
    println!(
        "Computation overhead per receiver: one-hop, N = {n_rx}, p = {p_loss}, image {} KB (seeds = {seeds}, threads = {threads})\n",
        image_bytes / 1024
    );
    let mut table = Table::new([&["scheme"], COST_COLUMNS.as_slice()].concat());
    for (scheme, samples) in LR_FIRST.iter().zip(&costs) {
        let means = (0..COST_COLUMNS.len()).map(|i| {
            let per_seed: Vec<f64> = samples.iter().map(|c| c[i] as f64).collect();
            format!("{:.0}", Summary::of(&per_seed).mean)
        });
        table.row([vec![scheme.to_string()], means.collect()].concat());
    }
    println!("{}", table.render());
    println!("wrote {}", write_csv("overhead", &table));
}

/// Tables II and III: multi-hop 15×15 grid networks.
///
/// Table II uses the high-density ("tight", 8 m) grid, Table III the
/// low-density ("medium", 15 m) grid (our regenerated equivalents of
/// the TinyOS `15-15-{tight,medium}-mica2-grid.txt` topologies) under
/// heavy bursty noise standing in for the `meyer-heavy` trace. Expected
/// shape: LR-Seluge beats Seluge on every metric by a significant
/// margin, as in the one-hop case.
fn table2_3(quick: bool, threads: usize) {
    let seeds = 1;
    let bytes = image_bytes(quick);
    let cases = [
        ("Table II", "high (tight grid)", "table2", "grid:15"),
        ("Table III", "low (medium grid)", "table3", "grid:15:15"),
    ];
    let points = cases.map(|(_, _, name, grid)| (name.to_string(), grid.to_string(), 0.0, bytes));
    let cells: Vec<CampaignSpec> = lr_first(&points, seeds)
        .into_iter()
        .map(|spec| CampaignSpec {
            noise: "heavy".into(),
            deadline_s: GRID_DEADLINE_S,
            stall_s: GRID_DEADLINE_S,
            fault_horizon_s: GRID_DEADLINE_S,
            ..spec
        })
        .collect();
    let grid = run(&cells, quick, threads);
    let columns = [&["table", "density", "scheme", "completed"], FIVE_METRICS].concat();
    let mut table = Table::new(columns);
    for (&(label, density, _, _), by_scheme) in cases.iter().zip(grid.chunks(2)) {
        println!(
            "{label}: 15x15 grid, {density}, image {} KB, bursty noise",
            bytes / 1024
        );
        for (scheme, samples) in LR_FIRST.iter().zip(by_scheme) {
            let lead = vec![
                label.to_string(),
                density.to_string(),
                scheme.to_string(),
                mean_cell(samples, "completed", 2),
            ];
            table.row([lead, five_metrics(samples)].concat());
        }
        let saved = |metric| saving(mean(&by_scheme[0], metric), mean(&by_scheme[1], metric));
        println!(
            "  LR saves {:.1} % data pkts, {:.1} % bytes, {:.1} % latency\n",
            saved("data_pkts"),
            saved("total_bytes"),
            saved("latency_s"),
        );
    }
    println!("{}", table.render());
    println!("wrote {}", write_csv("table2_3", &table));
}
