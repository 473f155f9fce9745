//! Multi-hop dissemination over a dense sensor grid with bursty RF
//! noise — the paper's Table II/III setting, scaled to a quick demo.
//!
//! The base station sits at a grid corner; the image propagates hop by
//! hop, with intermediate nodes decoding pages, re-encoding them and
//! serving their own neighbors.
//!
//! ```text
//! cargo run --release --example multihop_grid
//! ```

use lr_seluge::{Deployment, LrSelugeParams};
use lrs_deluge::engine::Scheme as _;
use lrs_host::node::{NodeId, PacketKind};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::noise::{BurstyNoise, NoiseModel};
use lrs_netsim::sim::SimConfig;

use lrs_host::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;

fn main() {
    let image: Vec<u8> = (0..6 * 1024u32).map(|i| (i * 131 % 250) as u8).collect();
    let params = LrSelugeParams {
        image_len: image.len(),
        ..LrSelugeParams::default()
    };
    let deployment = Deployment::new(&image, params, b"grid demo keys");

    // An 8x8 grid at tight spacing under heavy bursty noise (the stand-in
    // for the meyer-heavy interference trace).
    let side = 8usize;
    let topo = Topology::grid(side, 8.0, 7);
    println!(
        "{}x{side} grid, mean degree {:.1}, connected: {}",
        side,
        topo.mean_degree(),
        topo.is_connected()
    );
    let config = SimConfig {
        medium: MediumConfig {
            noise: NoiseModel::Bursty(BurstyNoise::heavy()),
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(topo, 99, |id| deployment.node(id, NodeId(0)))
        .config(config)
        .build();
    let report = sim.run(Duration::from_secs(40_000));
    assert!(report.all_complete, "dissemination stalled");

    // Per-hop completion wavefront: nodes farther from the corner finish
    // later.
    println!("\ncompletion wave (seconds, by grid row):");
    for row in 0..side {
        let times: Vec<String> = (0..side)
            .map(|col| {
                let id = NodeId((row * side + col) as u32);
                let t = sim.metrics().completion_of(id).expect("complete");
                format!("{:6.1}", t.as_secs_f64())
            })
            .collect();
        println!("  {}", times.join(" "));
    }

    // Every node decoded the exact image; relays re-encoded to serve.
    let mut total_encodes = 0u64;
    for i in 0..(side * side) as u32 {
        let node = sim.node(NodeId(i));
        assert_eq!(node.scheme().image().expect("complete"), image);
        total_encodes += node.scheme().cost().encodes;
    }
    let m = sim.metrics();
    println!(
        "\n{} nodes verified; {} page re-encodings by relays; \
         {} data pkts, {} snacks, {} advs, {:.1} KiB total, latency {:.1} s",
        side * side,
        total_encodes,
        m.tx_packets(PacketKind::Data),
        m.tx_packets(PacketKind::Snack),
        m.tx_packets(PacketKind::Adv),
        m.total_tx_bytes() as f64 / 1024.0,
        report.latency.expect("complete").as_secs_f64()
    );
}
