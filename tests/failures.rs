//! Crash-failure injection: dissemination must route around dead relays
//! when the topology allows it, and partitioned segments must be the
//! only casualties when it does not. Crash→reboot cycles must resume
//! from flash without re-downloading completed pages. Also exercises
//! the per-node energy ledger.

use lr_seluge::{Deployment, LrSelugeParams};
use lrs_deluge::engine::Scheme as _;
use lrs_host::node::NodeId;
use lrs_netsim::energy::EnergyModel;
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::sim::Simulator;

use lrs_host::time::{Duration, SimTime};
use lrs_netsim::topology::Topology;
use lrs_netsim::trace::{TraceEvent, TraceLog};
use lrs_netsim::SimBuilder;
use lrs_seluge::{SelugeDeployment, SelugeNode};

fn params() -> LrSelugeParams {
    LrSelugeParams {
        image_len: 1024,
        k: 8,
        n: 12,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 4,
        ..LrSelugeParams::default()
    }
}

fn image() -> Vec<u8> {
    (0..1024u32).map(|i| (i * 73 % 251) as u8).collect()
}

/// `node` crashes for good at `at_us`.
fn crash(node: u32, at_us: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.crash(NodeId(node), SimTime(at_us));
    plan
}

/// Receiver 2 crashes at `down_us` and reboots at `up_us`.
fn reboot_of_node_2(down_us: u64, up_us: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.crash_and_reboot(
        NodeId(2),
        SimTime(down_us),
        Duration::from_micros(up_us - down_us),
    );
    plan
}

#[test]
fn grid_routes_around_a_dead_relay() {
    let deployment = Deployment::new(&image(), params(), b"failures");
    // Kill an interior relay shortly after dissemination starts.
    let mut sim = SimBuilder::new(Topology::grid(4, 10.0, 21), 4, |id| {
        deployment.node(id, NodeId(0))
    })
    .faults(crash(5, 2_000_000))
    .build();
    let report = sim.run(Duration::from_secs(36_000));
    assert!(
        report.all_complete,
        "grid should route around the dead node"
    );
    assert!(sim.is_failed(NodeId(5)));
    for i in 1..16u32 {
        if i == 5 {
            continue;
        }
        assert_eq!(
            sim.node(NodeId(i)).scheme().image().as_deref(),
            Some(&image()[..]),
            "node {i}"
        );
    }
}

#[test]
fn line_partition_stops_at_the_dead_node() {
    let deployment = Deployment::new(&image(), params(), b"failures");
    // Node 3 dies immediately: nodes 4 and 5 are partitioned from the base.
    let mut sim = SimBuilder::new(Topology::line(6, 1.0), 9, |id| {
        deployment.node(id, NodeId(0))
    })
    .faults(crash(3, 1))
    .build();
    let report = sim.run(Duration::from_secs(2_000));
    assert!(!report.all_complete, "partitioned nodes cannot complete");
    // Upstream of the failure everything completes...
    for i in [1u32, 2] {
        assert_eq!(
            sim.node(NodeId(i)).scheme().image().as_deref(),
            Some(&image()[..]),
            "node {i} upstream of the partition"
        );
    }
    // ...downstream nothing does.
    for i in [4u32, 5] {
        assert_eq!(sim.node(NodeId(i)).scheme().image(), None, "node {i}");
    }
}

/// Levels at which `node` announced a completed item, in emission order.
/// Flash recovery shows up here as a strictly increasing sequence: a
/// node that lost its completed pages would re-announce old levels.
fn completion_levels(trace: &TraceLog, node: NodeId) -> Vec<u64> {
    trace
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Note {
                node: n,
                label: "page_complete",
                a,
                ..
            } if n == node => Some(a),
            _ => None,
        })
        .collect()
}

fn assert_strictly_increasing(levels: &[u64]) {
    assert!(
        levels.windows(2).all(|w| w[0] < w[1]),
        "levels repeated after reboot (completed pages re-downloaded): {levels:?}"
    );
}

/// Crash an LR-Seluge receiver mid-page (signature, M0 and page 0 in
/// flash, a partial page in RAM) and reboot it. It must finish without
/// re-decoding any completed item and without re-verifying the
/// signature.
#[test]
fn lr_reboot_mid_page_resumes_from_flash() {
    let deployment = Deployment::new(&image(), params(), b"failures");
    let trace = TraceLog::default();
    // At 1.3s (seed 11) the receiver holds three completed items.
    let mut sim = SimBuilder::new(Topology::star(3), 11, |id| deployment.node(id, NodeId(0)))
        .trace(trace.clone())
        .faults(reboot_of_node_2(1_300_000, 2_000_000))
        .build();
    let report = sim.run(Duration::from_secs(36_000));
    assert!(report.all_complete, "rebooted node should still finish");
    assert_eq!(sim.reboots(), 1);
    let scheme = sim.node(NodeId(2)).scheme();
    assert_eq!(scheme.image().as_deref(), Some(&image()[..]));
    let items = u64::from(scheme.num_items());
    let cost = scheme.cost();
    assert_eq!(
        cost.decodes,
        items - 1,
        "every item except the signature decodes exactly once"
    );
    assert_eq!(cost.signature_verifications, 1);
    let levels = completion_levels(&trace, NodeId(2));
    assert!(levels.len() as u64 == items, "levels: {levels:?}");
    assert_strictly_increasing(&levels);
}

/// Crash an LR-Seluge receiver while it is still collecting M0 (only
/// the verified signature is in flash). The reboot drops the partial
/// hash page but must not force a second signature download.
#[test]
fn lr_reboot_during_m0_keeps_the_signature() {
    let deployment = Deployment::new(&image(), params(), b"failures");
    let trace = TraceLog::default();
    // At 0.4s (seed 11) the receiver has the signature but not M0.
    let mut sim = SimBuilder::new(Topology::star(3), 11, |id| deployment.node(id, NodeId(0)))
        .trace(trace.clone())
        .faults(reboot_of_node_2(400_000, 1_200_000))
        .build();
    let report = sim.run(Duration::from_secs(36_000));
    assert!(report.all_complete);
    assert_eq!(sim.reboots(), 1);
    let scheme = sim.node(NodeId(2)).scheme();
    assert_eq!(scheme.image().as_deref(), Some(&image()[..]));
    assert_eq!(
        scheme.cost().signature_verifications,
        1,
        "the flash-held signature must not be re-verified after reboot"
    );
    assert_eq!(scheme.cost().decodes, u64::from(scheme.num_items()) - 1);
    assert_strictly_increasing(&completion_levels(&trace, NodeId(2)));
}

fn seluge_sim(trace: &TraceLog, faults: FaultPlan) -> (Simulator<SelugeNode>, Vec<u8>) {
    let sp = lrs_bench::runner::matched_seluge_params(&params());
    let image = image();
    let deployment = SelugeDeployment::new(&image, sp, b"failures keys");
    let sim = SimBuilder::new(Topology::star(3), 11, |id| deployment.node(id, NodeId(0)))
        .trace(trace.clone())
        .faults(faults)
        .build();
    (sim, image)
}

/// The Seluge baseline persists whole received pages to flash too: a
/// mid-page crash→reboot loses only the partial page.
#[test]
fn seluge_reboot_mid_page_resumes_from_flash() {
    let trace = TraceLog::default();
    let (mut sim, image) = seluge_sim(&trace, reboot_of_node_2(1_300_000, 2_000_000));
    let report = sim.run(Duration::from_secs(36_000));
    assert!(report.all_complete);
    assert_eq!(sim.reboots(), 1);
    let scheme = sim.node(NodeId(2)).scheme();
    assert_eq!(scheme.image().as_deref(), Some(&image[..]));
    assert_eq!(scheme.cost().signature_verifications, 1);
    let levels = completion_levels(&trace, NodeId(2));
    assert!(levels.len() as u64 == u64::from(scheme.num_items()));
    assert_strictly_increasing(&levels);
}

/// Seluge treats a partially received hash page as RAM: a crash during
/// M0 re-collects it from scratch but keeps the verified signature.
#[test]
fn seluge_reboot_during_m0_keeps_the_signature() {
    let trace = TraceLog::default();
    let (mut sim, image) = seluge_sim(&trace, reboot_of_node_2(400_000, 1_200_000));
    let report = sim.run(Duration::from_secs(36_000));
    assert!(report.all_complete);
    assert_eq!(sim.reboots(), 1);
    let scheme = sim.node(NodeId(2)).scheme();
    assert_eq!(scheme.image().as_deref(), Some(&image[..]));
    assert_eq!(scheme.cost().signature_verifications, 1);
    assert_strictly_increasing(&completion_levels(&trace, NodeId(2)));
}

#[test]
fn energy_ledger_tracks_radio_work() {
    let deployment = Deployment::new(&image(), params(), b"energy");
    let mut sim =
        SimBuilder::new(Topology::star(5), 2, |id| deployment.node(id, NodeId(0))).build();
    let report = sim.run(Duration::from_secs(36_000));
    assert!(report.all_complete);
    let model = EnergyModel::default();
    // The base station transmits the bulk of the bytes: it must be the
    // energy hotspot.
    let (hotspot, joules) = sim.energy().max_joules(&model);
    assert_eq!(hotspot, NodeId(0));
    assert!(joules > 0.0);
    // Every receiver paid reception energy.
    for i in 1..5u32 {
        assert!(sim.energy().rx_bytes(NodeId(i)) > 0, "node {i}");
        assert!(sim.energy().joules(NodeId(i), &model) > 0.0);
    }
    // Conservation-ish: total receive bytes cannot exceed
    // tx bytes × (#nodes − 1) on a fully connected star.
    let total_tx: u64 = (0..5u32).map(|i| sim.energy().tx_bytes(NodeId(i))).sum();
    let total_rx: u64 = (0..5u32).map(|i| sim.energy().rx_bytes(NodeId(i))).sum();
    assert!(total_rx <= total_tx * 4);
    assert!(total_rx > 0);
}
