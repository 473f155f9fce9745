//! Design-choice ablations.
//!
//! 1. **Scheduler** — LR-Seluge with the greedy round-robin tracking
//!    table (§IV-D-3) vs the same protocol with the Deluge/Seluge
//!    union-of-bit-vectors rule. Isolates how much of LR-Seluge's win
//!    comes from the scheduler rather than from erasure coding alone.
//! 2. **Erasure code** — Reed-Solomon (`k' = k`) vs the XOR code
//!    (`k' = k + ε`): the reception-overhead cost of XOR-only decoding.

use lr_seluge::{CodeKind, Deployment, GreedyRoundRobinPolicy, LrSelugeParams};
use lrs_bench::runner::test_image;
use lrs_bench::{aggregate, sample_grid, write_csv, ExperimentMetrics, Json, JsonReport, Table};
use lrs_deluge::policy::UnionPolicy;
use lrs_host::node::{NodeId, PacketKind, Protocol};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::SimConfig;

use lrs_host::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;

fn run_with<P, F>(
    params: LrSelugeParams,
    p_loss: f64,
    seed: u64,
    make_policy: F,
) -> ExperimentMetrics
where
    P: lrs_deluge::policy::TxPolicy + 'static,
    F: Fn() -> P,
    lrs_deluge::engine::DisseminationNode<lr_seluge::LrScheme, P>: Protocol,
{
    let image = test_image(params.image_len);
    let deployment = Deployment::new(&image, params, b"ablation");
    let cfg = SimConfig {
        medium: MediumConfig {
            app_loss: p_loss,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(Topology::star(21), seed, |id| {
        deployment.node_with_policy(id, NodeId(0), make_policy())
    })
    .config(cfg)
    .build();
    let report = sim.run(Duration::from_secs(100_000));
    assert!(report.all_complete, "run stalled");
    let m = sim.metrics();
    ExperimentMetrics {
        page_data_pkts: m.tx_packets(PacketKind::Data) as f64,
        data_pkts: (m.tx_packets(PacketKind::Data)
            + m.tx_packets(PacketKind::HashPage)
            + m.tx_packets(PacketKind::Signature)) as f64,
        snack_pkts: m.tx_packets(PacketKind::Snack) as f64,
        adv_pkts: m.tx_packets(PacketKind::Adv) as f64,
        total_bytes: m.total_tx_bytes() as f64,
        latency_s: report.latency.expect("complete").as_secs_f64(),
        completed: 1.0,
        ..ExperimentMetrics::default()
    }
}

fn main() {
    let (quick, threads) = lrs_bench::cli::sweep_args("ablation");
    let seeds = 3;
    let params = LrSelugeParams {
        image_len: if quick { 4 * 1024 } else { 20 * 1024 },
        ..LrSelugeParams::default()
    };

    // --- Ablation 1: scheduler ---------------------------------------
    println!(
        "Ablation 1: greedy round-robin scheduler vs union rule (N = 20, threads = {threads})\n"
    );
    let policies = ["greedy", "union"];
    let points: Vec<(f64, usize)> = [0.1, 0.3]
        .iter()
        .flat_map(|&p| (0..policies.len()).map(move |i| (p, i)))
        .collect();
    let grid = sample_grid(&points, seeds, threads, |&(p, policy), seed| match policy {
        0 => run_with(params, p, seed, GreedyRoundRobinPolicy::new),
        _ => run_with(params, p, seed, UnionPolicy::new),
    });
    let mut t = Table::new(vec![
        "p",
        "policy",
        "data_pkts",
        "total_kbytes",
        "latency_s",
    ]);
    let mut j = JsonReport::new("ablation_scheduler", seeds, threads);
    for (i, &(p, policy)) in points.iter().enumerate() {
        let m = aggregate(&grid[i]);
        j.push_row(
            &[("p", Json::num(p)), ("policy", Json::str(policies[policy]))],
            &grid[i],
        );
        t.row(vec![
            format!("{p}"),
            policies[policy].to_string(),
            format!("{:.0}", m.page_data_pkts),
            format!("{:.1}", m.total_bytes / 1024.0),
            format!("{:.1}", m.latency_s),
        ]);
        if policy == 1 {
            let greedy = aggregate(&grid[i - 1]);
            println!(
                "p = {p}: scheduler saves {:.1} % data packets",
                100.0 * (1.0 - greedy.page_data_pkts / m.page_data_pkts)
            );
        }
    }
    println!("\n{}", t.render());
    println!("wrote {}", write_csv("ablation_scheduler", &t));
    println!("wrote {}\n", j.write());

    // --- Ablation 2: erasure code ------------------------------------
    println!("Ablation 2: Reed-Solomon (k' = k) vs sparse XOR (k' = k + 4)\n");
    let kinds = [CodeKind::ReedSolomon, CodeKind::SparseXor, CodeKind::Lt];
    let points: Vec<(f64, CodeKind)> = [0.1, 0.3]
        .iter()
        .flat_map(|&p| kinds.iter().map(move |&kind| (p, kind)))
        .collect();
    let grid = sample_grid(&points, seeds, threads, |&(p, kind), seed| {
        let kp = LrSelugeParams {
            code_kind: kind,
            ..params
        };
        run_with(kp, p, seed, GreedyRoundRobinPolicy::new)
    });
    let mut t2 = Table::new(vec![
        "p",
        "code",
        "k_prime",
        "data_pkts",
        "total_kbytes",
        "latency_s",
    ]);
    let mut j2 = JsonReport::new("ablation_code", seeds, threads);
    for (i, &(p, kind)) in points.iter().enumerate() {
        let kp = LrSelugeParams {
            code_kind: kind,
            ..params
        };
        let m = aggregate(&grid[i]);
        j2.push_row(
            &[
                ("p", Json::num(p)),
                ("code", Json::str(format!("{kind:?}"))),
                ("k_prime", Json::num(kp.k_prime() as u32)),
            ],
            &grid[i],
        );
        t2.row(vec![
            format!("{p}"),
            format!("{kind:?}"),
            format!("{}", kp.k_prime()),
            format!("{:.0}", m.page_data_pkts),
            format!("{:.1}", m.total_bytes / 1024.0),
            format!("{:.1}", m.latency_s),
        ]);
    }
    println!("{}", t2.render());
    println!("wrote {}", write_csv("ablation_code", &t2));
    println!("wrote {}", j2.write());
}
