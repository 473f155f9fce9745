//! Quickstart: disseminate a code image to a one-hop cluster with
//! LR-Seluge and verify every node reconstructed it bit-exactly.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lr_seluge::{Deployment, LrSelugeParams};
use lrs_host::node::{NodeId, PacketKind};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::SimConfig;

use lrs_host::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;

fn main() {
    // 1. The new code image the base station wants to push (8 KiB of
    //    stand-in firmware bytes).
    let image: Vec<u8> = (0..8 * 1024u32).map(|i| (i * 31 % 251) as u8).collect();

    // 2. Deployment-time configuration: the paper's defaults — pages of
    //    k = 32 blocks erasure-coded into n = 48 packets (any 32
    //    recover the page), 72-byte payloads.
    let params = LrSelugeParams {
        image_len: image.len(),
        ..LrSelugeParams::default()
    };
    println!(
        "image: {} bytes -> {} pages of {} packets (k={}, n={}, rate {:.2})",
        image.len(),
        params.pages(),
        params.n,
        params.k,
        params.n,
        params.n as f64 / params.k as f64
    );

    // 3. Preprocess: chained hashes, erasure-coded hash page, Merkle
    //    tree, signed root, puzzle. Keys are derived from seed material.
    let deployment = Deployment::new(&image, params, b"quickstart deployment keys");

    // 4. A lossy one-hop cluster: base station + 8 sensor nodes, each
    //    dropping 20 % of received packets (the paper's loss model).
    let config = SimConfig {
        medium: MediumConfig {
            app_loss: 0.20,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(Topology::star(9), 42, |id| deployment.node(id, NodeId(0)))
        .config(config)
        .build();

    // 5. Run until every node holds the verified image.
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete, "dissemination stalled");
    for i in 1..9u32 {
        let node = sim.node(NodeId(i));
        assert_eq!(
            node.scheme().image().expect("complete"),
            image,
            "node {i} image mismatch"
        );
    }

    let m = sim.metrics();
    println!("all 8 nodes verified the image under 20 % loss");
    println!(
        "cost: {} data + {} hash-page + {} snack + {} adv packets, {:.1} KiB on air",
        m.tx_packets(PacketKind::Data),
        m.tx_packets(PacketKind::HashPage),
        m.tx_packets(PacketKind::Snack),
        m.tx_packets(PacketKind::Adv),
        m.total_tx_bytes() as f64 / 1024.0
    );
    println!(
        "latency: {:.1} s of virtual time; {} signature verification per node",
        report.latency.expect("complete").as_secs_f64(),
        1
    );
}
