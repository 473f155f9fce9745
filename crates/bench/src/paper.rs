//! The paper's evaluation (§VI, plus the §V-B overhead claims and the
//! design-choice ablations) as one table of experiments over the
//! [`sweep`](crate::sweep) driver. The `paper` bin runs them by name;
//! each prints its series and writes `results/<name>.{csv,json}`.

use crate::capsules::Population;
use crate::cli::{Cli, CliError};
use crate::harness::sample_grid;
use crate::runner::{
    aggregate, matched_seluge_params, run_lr, run_with_policy, simulate, test_image,
    ExperimentMetrics, Matched, RunSpec,
};
use crate::sweep::{
    five_metrics, mean_cell, per_scheme, run_matched, Report, Sample, FIVE_METRICS,
};
use crate::{with_scheme, Json};
use lr_seluge::{CodeKind, GreedyRoundRobinPolicy, LrScheme, LrSelugeParams};
use lrs_analysis::{ack_lr_expected_data_packets, seluge_expected_data_packets, AckLrModel};
use lrs_deluge::deployment::Deployment;
use lrs_deluge::engine::CryptoCost;
use lrs_deluge::policy::UnionPolicy;
use lrs_host::time::Duration;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::noise::{BurstyNoise, NoiseModel};
use lrs_netsim::topology::Topology;

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

/// The paper's defaults (20 KB image), or a 4 KB image when `quick`.
fn image_params(quick: bool) -> LrSelugeParams {
    LrSelugeParams {
        image_len: if quick { 4 * 1024 } else { 20 * 1024 },
        ..LrSelugeParams::default()
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
    // One page exactly: k = 32, n = 48 encoded packets, 72 B payloads;
    // Seluge's one page is 32 x 64 B slices.
    let mut lr = LrSelugeParams::default();
    lr.image_len = lr.page_capacity();
    let seluge_page = LrSelugeParams {
        image_len: matched_seluge_params(&lr).page_capacity(),
        ..lr
    };
    let (k, n) = (lr.k as usize, lr.n as usize);
    let schemes = ["seluge", "lr-seluge"];

    // `points` are `(N, p)`; `vs_p` says which of the two is the axis.
    let half = |name: &str, vs_p: bool, points: &[(usize, f64)]| {
        let grid = per_scheme(
            points,
            &schemes,
            seeds,
            threads,
            |&(n_rx, p), scheme, seed| {
                let one_page = if scheme == "seluge" {
                    &seluge_page
                } else {
                    &lr
                };
                run_matched(scheme, &RunSpec::one_hop(n_rx, p), one_page, seed)
            },
        );
        let axis = if vs_p { "p" } else { "N" };
        let columns = vec![
            axis,
            "seluge_analytical",
            "ack_lr_analytical",
            "seluge_sim",
            "lr_sim",
        ];
        let mut report = Report::new(name, columns, seeds, threads);
        for (&(n_rx, p), by_scheme) in points.iter().zip(&grid) {
            let (param, cell) = if vs_p {
                (Json::num(p), format!("{p:.2}"))
            } else {
                (Json::num(n_rx as u32), format!("{n_rx}"))
            };
            report.push_schemes(&[(axis, param)], &schemes, by_scheme);
            report.row(vec![
                cell,
                format!("{:.1}", seluge_expected_data_packets(k, n_rx, p)),
                format!("{:.1}", ack_lr_expected_data_packets(k, n, p, n_rx, mc)),
                format!("{:.1}", aggregate(&by_scheme[0]).page_data_pkts),
                format!("{:.1}", aggregate(&by_scheme[1]).page_data_pkts),
            ]);
        }
        println!("{}", report.table().render());
        report.write();
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
    let lr = image_params(quick);
    let n_rx = 20;
    let ps = [0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    println!(
        "Fig 4: one-hop, N = {n_rx}, image {} KB, sweep p (seeds = {seeds}, threads = {threads})\n",
        lr.image_len / 1024
    );
    let grid = per_scheme(&ps, &LR_FIRST, seeds, threads, |&p, scheme, seed| {
        run_matched(scheme, &RunSpec::one_hop(n_rx, p), &lr, seed)
    });
    let columns = [&["p", "scheme"], FIVE_METRICS].concat();
    let mut report = Report::new("fig4", columns, seeds, threads);
    for (&p, by_scheme) in ps.iter().zip(&grid) {
        report.push_schemes(&[("p", Json::num(p))], &LR_FIRST, by_scheme);
        let means = [aggregate(&by_scheme[0]), aggregate(&by_scheme[1])];
        for (scheme, m) in LR_FIRST.iter().zip(&means) {
            report.row([vec![format!("{p:.2}"), scheme.to_string()], five_metrics(m)].concat());
        }
        println!(
            "p = {p:<4}: LR saves {:5.1} % bytes, {:5.1} % latency",
            saving(means[0].total_bytes, means[1].total_bytes),
            saving(means[0].latency_s, means[1].latency_s)
        );
    }
    println!("\n{}", report.table().render());
    report.write();
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
    let lr = image_params(quick);
    let p = 0.1;
    println!(
        "Fig 5: one-hop, p = {p}, image {} KB, sweep N (seeds = {seeds}, threads = {threads})\n",
        lr.image_len / 1024
    );
    let ns: &[usize] = if quick {
        &[5, 20, 40]
    } else {
        &[5, 10, 15, 20, 25, 30, 35, 40]
    };
    let grid = per_scheme(ns, &LR_FIRST, seeds, threads, |&n_rx, scheme, seed| {
        run_matched(scheme, &RunSpec::one_hop(n_rx, p), &lr, seed)
    });
    let columns = [&["N", "scheme"], FIVE_METRICS].concat();
    let mut report = Report::new("fig5", columns, seeds, threads);
    for (&n_rx, by_scheme) in ns.iter().zip(&grid) {
        report.push_schemes(&[("N", Json::num(n_rx as u32))], &LR_FIRST, by_scheme);
        for (scheme, samples) in LR_FIRST.iter().zip(by_scheme) {
            let cells = five_metrics(&aggregate(samples));
            report.row([vec![format!("{n_rx}"), scheme.to_string()], cells].concat());
        }
    }
    println!("{}", report.table().render());
    report.write();
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
    let base = image_params(quick);
    let n_rx = 20;
    println!(
        "Fig 6: one-hop, N = {n_rx}, k = {}, image {} KB, sweep n (seeds = {seeds}, threads = {threads})\n",
        base.k,
        base.image_len / 1024
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
    let points: Vec<(f64, LrSelugeParams)> = loss_rates
        .iter()
        .flat_map(|&p| ns.iter().map(move |&n| (p, LrSelugeParams { n, ..base })))
        .collect();
    let grid = sample_grid(&points, seeds, threads, |&(p, params), seed| {
        run_lr(&RunSpec::one_hop(n_rx, p), params, seed)
    });
    let columns = [&["p", "n", "rate", "pages"], FIVE_METRICS].concat();
    let mut report = Report::new("fig6", columns, seeds, threads);
    for (&(p, params), samples) in points.iter().zip(&grid) {
        let rate = params.n as f64 / base.k as f64;
        report.push(
            &[
                ("p", Json::num(p)),
                ("n", Json::num(params.n)),
                ("rate", Json::num(rate)),
            ],
            samples,
        );
        let lead = vec![
            format!("{p:.2}"),
            format!("{}", params.n),
            format!("{rate:.2}"),
            format!("{}", params.pages()),
        ];
        report.row([lead, five_metrics(&aggregate(samples))].concat());
    }
    println!("{}", report.table().render());
    report.write();
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
    let grid = per_scheme(sizes, &LR_FIRST, seeds, threads, |&size, scheme, seed| {
        let lr = LrSelugeParams {
            image_len: size,
            ..LrSelugeParams::default()
        };
        run_matched(scheme, &RunSpec::one_hop(n_rx, p), &lr, seed)
    });
    let columns = vec![
        "image_kb",
        "scheme",
        "data_pkts",
        "total_kbytes",
        "latency_s",
        "byte_saving_pct",
    ];
    let mut report = Report::new("imgsize", columns, seeds, threads);
    for (&size, by_scheme) in sizes.iter().zip(&grid) {
        let kb = ("image_kb", Json::num((size / 1024) as u32));
        report.push_schemes(&[kb], &LR_FIRST, by_scheme);
        let means = [aggregate(&by_scheme[0]), aggregate(&by_scheme[1])];
        let savings = [
            format!("{:.1}", saving(means[0].total_bytes, means[1].total_bytes)),
            "-".to_string(),
        ];
        for ((scheme, m), saved) in LR_FIRST.iter().zip(&means).zip(savings) {
            report.row(vec![
                format!("{}", size / 1024),
                scheme.to_string(),
                format!("{:.0}", m.data_pkts),
                format!("{:.1}", m.total_bytes / 1024.0),
                format!("{:.1}", m.latency_s),
                saved,
            ]);
        }
    }
    println!("{}", report.table().render());
    report.write();
}

/// Design-choice ablations.
///
/// 1. **Scheduler**: LR-Seluge with the greedy round-robin tracking
///    table (§IV-D-3) vs the same protocol with the Deluge/Seluge
///    union-of-bit-vectors rule. Isolates how much of LR-Seluge's win
///    comes from the scheduler rather than from erasure coding alone.
/// 2. **Erasure code**: Reed-Solomon (`k' = k`) vs the XOR code
///    (`k' = k + ε`): the reception-overhead cost of XOR-only decoding.
fn ablation(quick: bool, threads: usize) {
    let seeds = 3;
    let params = image_params(quick);
    let n_rx = 20;
    let policy_run = |p: f64, params: LrSelugeParams, greedy: bool, seed: u64| {
        let spec = RunSpec::one_hop(n_rx, p);
        let m = if greedy {
            run_with_policy::<LrScheme, _>(&spec, params, seed, GreedyRoundRobinPolicy::new)
        } else {
            run_with_policy::<LrScheme, _>(&spec, params, seed, UnionPolicy::new)
        };
        assert_eq!(m.completed, 1.0, "run stalled");
        m
    };
    // The three columns both ablation tables end in.
    let cells = |m: &ExperimentMetrics| {
        vec![
            format!("{:.0}", m.page_data_pkts),
            format!("{:.1}", m.total_bytes / 1024.0),
            format!("{:.1}", m.latency_s),
        ]
    };
    let tail: &[&str] = &["data_pkts", "total_kbytes", "latency_s"];

    println!(
        "Ablation 1: greedy round-robin scheduler vs union rule (N = {n_rx}, threads = {threads})\n"
    );
    let policies = ["greedy", "union"];
    let loss_rates = [0.1, 0.3];
    let grid = per_scheme(
        &loss_rates,
        &policies,
        seeds,
        threads,
        |&p, policy, seed| policy_run(p, params, policy == "greedy", seed),
    );
    let columns = [&["p", "policy"], tail].concat();
    let mut report = Report::new("ablation_scheduler", columns, seeds, threads);
    for (&p, by_policy) in loss_rates.iter().zip(&grid) {
        let means = [aggregate(&by_policy[0]), aggregate(&by_policy[1])];
        for ((policy, samples), m) in policies.iter().zip(by_policy).zip(&means) {
            report.push(
                &[("p", Json::num(p)), ("policy", Json::str(*policy))],
                samples,
            );
            report.row([vec![format!("{p}"), policy.to_string()], cells(m)].concat());
        }
        println!(
            "p = {p}: scheduler saves {:.1} % data packets",
            saving(means[0].page_data_pkts, means[1].page_data_pkts)
        );
    }
    println!("\n{}", report.table().render());
    report.write();

    println!("\nAblation 2: Reed-Solomon (k' = k) vs sparse XOR (k' = k + 4)\n");
    let kinds = [CodeKind::ReedSolomon, CodeKind::SparseXor, CodeKind::Lt];
    let points: Vec<(f64, LrSelugeParams)> = loss_rates
        .iter()
        .flat_map(|&p| {
            kinds.iter().map(move |&code_kind| {
                let coded = LrSelugeParams {
                    code_kind,
                    ..params
                };
                (p, coded)
            })
        })
        .collect();
    let grid = sample_grid(&points, seeds, threads, |&(p, coded), seed| {
        policy_run(p, coded, true, seed)
    });
    let columns = [&["p", "code", "k_prime"], tail].concat();
    let mut report = Report::new("ablation_code", columns, seeds, threads);
    for (&(p, coded), samples) in points.iter().zip(&grid) {
        let (code, k_prime) = (format!("{:?}", coded.code_kind), coded.k_prime());
        report.push(
            &[
                ("p", Json::num(p)),
                ("code", Json::str(&code)),
                ("k_prime", Json::num(k_prime as u32)),
            ],
            samples,
        );
        let lead = vec![format!("{p}"), code, format!("{k_prime}")];
        report.row([lead, cells(&aggregate(samples))].concat());
    }
    println!("{}", report.table().render());
    report.write();
}

/// The mean per-receiver cost of one run, in `CryptoCost`'s own counters.
impl Sample for CryptoCost {
    const NAMES: &'static [&'static str] = &[
        "hashes",
        "sig_verifications",
        "puzzle_checks",
        "decodes",
        "encodes",
    ];

    fn values(&self) -> Vec<f64> {
        [
            self.hashes,
            self.signature_verifications,
            self.puzzle_checks,
            self.decodes,
            self.encodes,
        ]
        .map(|count| count as f64)
        .to_vec()
    }
}

/// Disseminates `image` with scheme family `S` (parameters matched to
/// `lr`) under `spec` and returns the mean per-receiver cost.
fn mean_receiver_cost<S: Matched>(
    image: &[u8],
    lr: &LrSelugeParams,
    spec: &RunSpec,
    seed: u64,
) -> CryptoCost {
    let deployment = Deployment::<S>::new(image, S::matched(lr), b"overhead");
    let pop = Population::honest(deployment);
    let done = simulate(&pop, &spec.capsule(seed), false, Vec::new());
    assert!(done.report.all_complete);
    let mut acc = CryptoCost::default();
    for (_, node) in done.honest().skip(1) {
        let c = node.scheme().cost();
        acc.hashes += c.hashes;
        acc.signature_verifications += c.signature_verifications;
        acc.puzzle_checks += c.puzzle_checks;
        acc.decodes += c.decodes;
        acc.encodes += c.encodes;
    }
    let d = (spec.topology.len() - 1) as u64;
    CryptoCost {
        hashes: acc.hashes / d,
        signature_verifications: acc.signature_verifications / d,
        puzzle_checks: acc.puzzle_checks / d,
        decodes: acc.decodes / d,
        encodes: acc.encodes / d,
        ..CryptoCost::default()
    }
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
fn overhead(quick: bool, threads: usize) {
    let seeds = if quick { 1 } else { 3 };
    let lr = image_params(quick);
    let p_loss = 0.2;
    let n_rx = 10;
    let image = test_image(lr.image_len);
    let spec = RunSpec::one_hop(n_rx, p_loss);
    let costs = sample_grid(&LR_FIRST, seeds, threads, |&scheme, seed| {
        with_scheme!(scheme, S => mean_receiver_cost::<S>(&image, &lr, &spec, seed))
            .unwrap_or_else(|e| panic!("{e}"))
    });
    println!(
        "Computation overhead per receiver: one-hop, N = {n_rx}, p = {p_loss}, image {} KB (seeds = {seeds}, threads = {threads})\n",
        lr.image_len / 1024
    );
    let columns = [&["scheme"], CryptoCost::NAMES].concat();
    let mut report = Report::new("overhead", columns, seeds, threads);
    for (scheme, samples) in LR_FIRST.iter().zip(&costs) {
        // Exactly one expensive signature verification per receiver per
        // image, every seed: the puzzle's whole point.
        for c in samples {
            assert_eq!(c.signature_verifications, 1);
        }
        report.push(&[("scheme", Json::str(*scheme))], samples);
        let means = CryptoCost::NAMES
            .iter()
            .map(|name| mean_cell(samples, name, 0));
        report.row([vec![scheme.to_string()], means.collect()].concat());
    }
    println!("{}", report.table().render());
    report.write();
}

/// The 15×15 grid at `spacing` under heavy bursty noise.
fn grid_spec(spacing: f64, seed: u64) -> RunSpec {
    RunSpec {
        topology: Topology::grid(15, spacing, seed),
        medium: MediumConfig {
            app_loss: 0.0,
            noise: NoiseModel::Bursty(BurstyNoise::heavy()),
            ..MediumConfig::default()
        },
        deadline: Duration::from_secs(400_000),
    }
}

/// Tables II and III: multi-hop 15×15 grid networks.
///
/// Table II uses the high-density ("tight") grid, Table III the
/// low-density ("medium") grid (our regenerated equivalents of the
/// TinyOS `15-15-{tight,medium}-mica2-grid.txt` topologies) under
/// heavy bursty noise standing in for the `meyer-heavy` trace. Expected
/// shape: LR-Seluge beats Seluge on every metric by a significant
/// margin, as in the one-hop case.
fn table2_3(quick: bool, threads: usize) {
    let seeds = 1;
    let lr = image_params(quick);
    let cases = [
        ("Table II", "high (tight grid)", 8.0),
        ("Table III", "low (medium grid)", 15.0),
    ];
    let grid = per_scheme(
        &cases,
        &LR_FIRST,
        seeds,
        threads,
        |&(_, _, spacing), scheme, seed| run_matched(scheme, &grid_spec(spacing, seed), &lr, seed),
    );
    let columns = [&["table", "density", "scheme", "completed"], FIVE_METRICS].concat();
    let mut report = Report::new("table2_3", columns, seeds, threads);
    for (&(label, density, _), by_scheme) in cases.iter().zip(&grid) {
        println!(
            "{label}: 15x15 grid, {density}, image {} KB, bursty noise",
            lr.image_len / 1024
        );
        report.push_schemes(&[("table", Json::str(label))], &LR_FIRST, by_scheme);
        let means = [aggregate(&by_scheme[0]), aggregate(&by_scheme[1])];
        for (scheme, m) in LR_FIRST.iter().zip(&means) {
            let lead = vec![
                label.to_string(),
                density.to_string(),
                scheme.to_string(),
                format!("{:.2}", m.completed),
            ];
            report.row([lead, five_metrics(m)].concat());
        }
        println!(
            "  LR saves {:.1} % data pkts, {:.1} % bytes, {:.1} % latency\n",
            saving(means[0].data_pkts, means[1].data_pkts),
            saving(means[0].total_bytes, means[1].total_bytes),
            saving(means[0].latency_s, means[1].latency_s),
        );
    }
    println!("{}", report.table().render());
    report.write();
}
