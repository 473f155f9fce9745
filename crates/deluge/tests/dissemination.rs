//! End-to-end Deluge dissemination through the generic engine.

use lrs_crypto::cluster::ClusterKey;
use lrs_deluge::engine::{DisseminationNode, EngineConfig};
use lrs_deluge::image::{DelugeImage, DelugeScheme, ImageParams};
use lrs_deluge::policy::UnionPolicy;
use lrs_host::node::NodeId;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::{SimConfig, Simulator};

use lrs_host::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;

type DelugeNode = DisseminationNode<DelugeScheme, UnionPolicy>;

fn params(image_len: usize) -> ImageParams {
    ImageParams {
        version: 1,
        image_len,
        packets_per_page: 8,
        payload_len: 64,
    }
}

fn test_image(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect()
}

fn build_sim(topo: Topology, image_len: usize, app_loss: f64, seed: u64) -> Simulator<DelugeNode> {
    let p = params(image_len);
    let image = DelugeImage::new(test_image(image_len), p);
    let key = ClusterKey::derive(b"test", 0);
    let cfg = SimConfig {
        medium: MediumConfig {
            app_loss,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    SimBuilder::new(topo, seed, move |id| {
        let scheme = if id == NodeId(0) {
            DelugeScheme::base(&image)
        } else {
            DelugeScheme::receiver(p)
        };
        DisseminationNode::new(
            scheme,
            UnionPolicy::new(),
            key.clone(),
            EngineConfig::default(),
        )
    })
    .config(cfg)
    .build()
}

fn assert_all_received(sim: &Simulator<DelugeNode>, image_len: usize) {
    let want = test_image(image_len);
    for i in 0..sim.topology().len() {
        let got = sim
            .node(NodeId(i as u32))
            .scheme()
            .image()
            .unwrap_or_else(|| panic!("node {i} incomplete"));
        assert_eq!(got, want, "node {i} image mismatch");
    }
}

#[test]
fn one_hop_lossless() {
    let mut sim = build_sim(Topology::star(6), 2_000, 0.0, 1);
    let report = sim.run(Duration::from_secs(600));
    assert!(report.all_complete, "stalled at {:?}", report.final_time);
    assert_all_received(&sim, 2_000);
}

#[test]
fn one_hop_lossy() {
    let mut sim = build_sim(Topology::star(6), 2_000, 0.3, 2);
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete, "stalled at {:?}", report.final_time);
    assert_all_received(&sim, 2_000);
}

#[test]
fn multi_hop_line() {
    let mut sim = build_sim(Topology::line(5, 1.0), 1_500, 0.1, 3);
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete, "stalled at {:?}", report.final_time);
    assert_all_received(&sim, 1_500);
}

#[test]
fn small_grid() {
    let mut sim = build_sim(Topology::grid(4, 10.0, 7), 1_000, 0.05, 4);
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete, "stalled at {:?}", report.final_time);
    assert_all_received(&sim, 1_000);
}

#[test]
fn deterministic_metrics() {
    let run = |seed| {
        let mut sim = build_sim(Topology::star(5), 1_000, 0.2, seed);
        let report = sim.run(Duration::from_secs(3_600));
        assert!(report.all_complete);
        (
            sim.metrics().total_tx_packets(),
            sim.metrics().total_tx_bytes(),
            report.latency,
        )
    };
    assert_eq!(run(11), run(11));
    // Different seeds almost surely differ in latency.
    assert_ne!(run(11).2, run(12).2);
}

#[test]
fn lossier_runs_cost_more() {
    let cost = |p| {
        let mut sim = build_sim(Topology::star(10), 4_000, p, 5);
        let report = sim.run(Duration::from_secs(36_000));
        assert!(report.all_complete, "p={p} stalled");
        sim.metrics().tx_packets(lrs_host::node::PacketKind::Data)
    };
    let low = cost(0.0);
    let high = cost(0.4);
    assert!(
        high as f64 > low as f64 * 1.5,
        "expected ARQ blowup: p=0 cost {low}, p=0.4 cost {high}"
    );
}
