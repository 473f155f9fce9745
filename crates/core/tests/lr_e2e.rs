//! End-to-end LR-Seluge dissemination over the simulator.

use lr_seluge::{CodeKind, Deployment, LrSelugeParams};
use lrs_deluge::engine::Scheme as _;
use lrs_host::node::NodeId;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::{SimConfig, Simulator};

use lrs_host::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;

fn small_params(image_len: usize) -> LrSelugeParams {
    LrSelugeParams {
        version: 1,
        image_len,
        k: 8,
        n: 12,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 6,
        ..LrSelugeParams::default()
    }
}

fn test_image(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect()
}

fn run(
    topo: Topology,
    image_len: usize,
    app_loss: f64,
    seed: u64,
) -> (Simulator<lr_seluge::LrNode>, Vec<u8>) {
    let image = test_image(image_len);
    let deployment = Deployment::new(&image, small_params(image_len), b"e2e keys");
    let cfg = SimConfig {
        medium: MediumConfig {
            app_loss,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(topo, seed, |id| deployment.node(id, NodeId(0)))
        .config(cfg)
        .build();
    let report = sim.run(Duration::from_secs(7_200));
    assert!(report.all_complete, "stalled at {:?}", report.final_time);
    (sim, image)
}

#[test]
fn one_hop_lossless() {
    let (sim, image) = run(Topology::star(6), 2_000, 0.0, 1);
    for i in 1..6u32 {
        assert_eq!(
            sim.node(NodeId(i)).scheme().image().unwrap(),
            image,
            "node {i}"
        );
    }
}

#[test]
fn one_hop_heavy_loss() {
    // p = 0.4: the regime where the paper reports ~44 % savings.
    let (sim, image) = run(Topology::star(6), 2_000, 0.4, 2);
    for i in 1..6u32 {
        assert_eq!(
            sim.node(NodeId(i)).scheme().image().unwrap(),
            image,
            "node {i}"
        );
    }
}

#[test]
fn multi_hop_line_decodes_via_relays() {
    let (sim, image) = run(Topology::line(5, 0.9), 1_500, 0.1, 3);
    for i in 1..5u32 {
        let node = sim.node(NodeId(i));
        assert_eq!(node.scheme().image().unwrap(), image, "node {i}");
        assert_eq!(node.scheme().cost().signature_verifications, 1);
    }
    // Interior relays must have re-encoded pages to serve downstream.
    let relay_encodes: u64 = (1..4u32)
        .map(|i| sim.node(NodeId(i)).scheme().cost().encodes)
        .sum();
    assert!(relay_encodes > 0, "no relay ever re-encoded");
}

#[test]
fn grid_dissemination() {
    let (sim, image) = run(Topology::grid(4, 10.0, 5), 1_200, 0.1, 4);
    for i in 1..16u32 {
        assert_eq!(
            sim.node(NodeId(i)).scheme().image().unwrap(),
            image,
            "node {i}"
        );
    }
}

#[test]
fn deterministic_for_fixed_seed() {
    let m = |seed| {
        let (sim, _) = run(Topology::star(5), 1_500, 0.2, seed);
        (
            sim.metrics().total_tx_packets(),
            sim.metrics().total_tx_bytes(),
            sim.metrics().dissemination_latency(),
        )
    };
    assert_eq!(m(42), m(42));
}

#[test]
fn sparse_xor_code_also_disseminates() {
    // The general k' > k path (§II-C): an XOR-only code whose decode can
    // be rank-deficient at exactly k packets; the protocol keeps
    // requesting until decode succeeds.
    let params = LrSelugeParams {
        code_kind: CodeKind::SparseXor,
        image_len: 1_500,
        k: 8,
        n: 16,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 6,
        ..LrSelugeParams::default()
    };
    assert!(params.k_prime() > params.k, "XOR code must have k' > k");
    let image = test_image(params.image_len);
    let deployment = Deployment::new(&image, params, b"xor keys");
    let cfg = SimConfig {
        medium: MediumConfig {
            app_loss: 0.2,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(Topology::star(5), 17, |id| deployment.node(id, NodeId(0)))
        .config(cfg)
        .build();
    let report = sim.run(Duration::from_secs(36_000));
    assert!(report.all_complete, "stalled at {:?}", report.final_time);
    for i in 1..5u32 {
        assert_eq!(
            sim.node(NodeId(i)).scheme().image().unwrap(),
            image,
            "node {i}"
        );
    }
}

#[test]
fn lt_code_also_disseminates() {
    // The capped-LT variant: peeling decode with k' ≈ 1.15k; decode
    // failures at the threshold are retried by the SNACK loop.
    let params = LrSelugeParams {
        code_kind: CodeKind::Lt,
        image_len: 1_500,
        k: 8,
        n: 20,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 6,
        ..LrSelugeParams::default()
    };
    assert!(params.k_prime() > params.k);
    let image = test_image(params.image_len);
    let deployment = Deployment::new(&image, params, b"lt keys");
    let cfg = SimConfig {
        medium: MediumConfig {
            app_loss: 0.15,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(Topology::star(5), 23, |id| deployment.node(id, NodeId(0)))
        .config(cfg)
        .build();
    let report = sim.run(Duration::from_secs(36_000));
    assert!(report.all_complete, "stalled at {:?}", report.final_time);
    for i in 1..5u32 {
        assert_eq!(
            sim.node(NodeId(i)).scheme().image().unwrap(),
            image,
            "node {i}"
        );
    }
}

#[test]
fn single_page_and_exact_multiple_images() {
    // Boundary geometries: an image that fits one page, and one that is
    // an exact multiple of the page capacity (no padding).
    for len_kind in ["single", "exact", "exact_plus_one"] {
        let probe = small_params(1);
        let capacity = probe.page_capacity();
        let image_len = match len_kind {
            "single" => capacity / 2,
            "exact" => capacity * 3,
            _ => capacity * 3 + 1,
        };
        let params = small_params(image_len);
        let image = test_image(image_len);
        let deployment = Deployment::new(&image, params, b"edges");
        let mut sim =
            SimBuilder::new(Topology::star(3), 7, |id| deployment.node(id, NodeId(0))).build();
        let report = sim.run(Duration::from_secs(36_000));
        assert!(report.all_complete, "{len_kind} stalled");
        for i in 1..3u32 {
            assert_eq!(
                sim.node(NodeId(i)).scheme().image().as_deref(),
                Some(&image[..]),
                "{len_kind} node {i}"
            );
        }
        match len_kind {
            "single" => assert_eq!(params.pages(), 1),
            "exact" => assert_eq!(params.pages(), 3),
            _ => assert_eq!(params.pages(), 4),
        }
    }
}
