//! Simulator-level semantics of crash-failure injection and the energy
//! ledger, using a minimal protocol.

use lrs_host::node::{Context, NodeId, PacketKind, Protocol, TimerId};
use lrs_netsim::energy::EnergyModel;
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::sim::Simulator;

use lrs_host::time::{Duration, SimTime};
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;

/// Node 0 beacons every 100 ms; others count beacons.
struct Beacon {
    source: bool,
    heard: u32,
}

impl Protocol for Beacon {
    fn on_init(&mut self, ctx: &mut Context<'_>) {
        if self.source {
            ctx.set_timer(TimerId(0), Duration::from_millis(100));
        }
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _data: &[u8]) {
        self.heard += 1;
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerId) {
        ctx.broadcast(PacketKind::Data, vec![0u8; 16]);
        ctx.set_timer(TimerId(0), Duration::from_millis(100));
    }
    fn is_complete(&self) -> bool {
        false
    }
}

fn beacon_sim(seed: u64, faults: FaultPlan) -> Simulator<Beacon> {
    SimBuilder::new(Topology::star(3), seed, |id| Beacon {
        source: id == NodeId(0),
        heard: 0,
    })
    .faults(faults)
    .build()
}

/// `node` crashes for good at `at`.
fn crash(node: u32, at: SimTime) -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.crash(NodeId(node), at);
    plan
}

#[test]
fn failed_source_stops_transmitting() {
    let mut sim = beacon_sim(1, crash(0, SimTime(1_050_000))); // after ~10 beacons
    let _ = sim.run(Duration::from_secs(10));
    assert!(sim.is_failed(NodeId(0)));
    let heard = sim.node(NodeId(1)).heard;
    assert!(
        (8..=11).contains(&heard),
        "source must stop at failure: heard {heard}"
    );
}

#[test]
fn failed_receiver_neither_hears_nor_pays_energy() {
    let mut sim = beacon_sim(2, crash(2, SimTime(1))); // dead from the start
    let _ = sim.run(Duration::from_secs(5));
    assert_eq!(sim.node(NodeId(2)).heard, 0);
    assert_eq!(sim.energy().rx_bytes(NodeId(2)), 0);
    // The live receiver heard ~50 beacons and paid for them.
    assert!(sim.node(NodeId(1)).heard >= 45);
    assert!(sim.energy().rx_bytes(NodeId(1)) > 0);
}

#[test]
fn energy_split_matches_byte_counters() {
    let mut sim = beacon_sim(3, FaultPlan::new());
    let _ = sim.run(Duration::from_secs(3));
    let model = EnergyModel::default();
    let tx = sim.energy().tx_bytes(NodeId(0));
    let rx = sim.energy().rx_bytes(NodeId(1));
    assert!(tx > 0 && rx > 0);
    let expect = tx as f64 * model.tx_j_per_byte;
    assert!((sim.energy().joules(NodeId(0), &model) - expect).abs() < 1e-12);
    // Two perfect-link receivers: rx bytes equal 2x tx bytes except for
    // packets still in flight when the deadline stops the run.
    let rx_total = sim.energy().rx_bytes(NodeId(1)) + sim.energy().rx_bytes(NodeId(2));
    assert!(rx_total <= 2 * tx);
    assert!(
        rx_total + 2 * 16 * 2 >= 2 * tx,
        "rx {rx_total} vs 2tx {}",
        2 * tx
    );
}
