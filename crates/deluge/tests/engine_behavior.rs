//! Focused engine-behaviour tests using a minimal in-memory scheme:
//! budget enforcement, out-of-order drops, suppression bounds, and
//! level advertisement dynamics.

use lrs_crypto::cluster::ClusterKey;
use lrs_deluge::engine::{CryptoCost, DisseminationNode, EngineConfig, PacketDisposition, Scheme};
use lrs_deluge::policy::UnionPolicy;
use lrs_deluge::wire::BitVec;
use lrs_host::node::{NodeId, PacketKind};
use lrs_host::time::{Duration, SimTime};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::{SimConfig, Simulator};
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;

/// Three items of four accept-anything packets each.
struct TestScheme {
    version: u16,
    have: Vec<Vec<Option<Vec<u8>>>>,
    base: bool,
}

impl TestScheme {
    fn new(base: bool) -> Self {
        TestScheme {
            version: 1,
            have: (0..3)
                .map(|_| (0..4).map(|j| base.then(|| vec![j as u8; 8])).collect())
                .collect(),
            base,
        }
    }
}

impl Scheme for TestScheme {
    fn version(&self) -> u16 {
        self.version
    }
    fn num_items(&self) -> u16 {
        3
    }
    fn item_packets(&self, _item: u16) -> u16 {
        4
    }
    fn packets_needed(&self, _item: u16) -> u16 {
        4
    }
    fn complete_items(&self) -> u16 {
        self.have
            .iter()
            .take_while(|item| item.iter().all(|p| p.is_some()))
            .count() as u16
    }
    fn handle_packet(&mut self, item: u16, index: u16, payload: &[u8]) -> PacketDisposition {
        if index >= 4 || payload.len() != 8 {
            return PacketDisposition::Rejected;
        }
        let slot = &mut self.have[item as usize][index as usize];
        if slot.is_some() {
            return PacketDisposition::Duplicate;
        }
        *slot = Some(payload.to_vec());
        PacketDisposition::Accepted
    }
    fn wanted(&self, item: u16) -> BitVec {
        let mut bits = BitVec::zeros(4);
        for (i, p) in self.have[item as usize].iter().enumerate() {
            if p.is_none() {
                bits.set(i, true);
            }
        }
        bits
    }
    fn packet_payload(&mut self, item: u16, index: u16) -> Option<Vec<u8>> {
        self.have.get(item as usize)?.get(index as usize)?.clone()
    }
    fn item_kind(&self, _item: u16) -> PacketKind {
        PacketKind::Data
    }
    fn cost(&self) -> CryptoCost {
        let _ = self.base;
        CryptoCost::default()
    }
}

type TestNode = DisseminationNode<TestScheme, UnionPolicy>;

fn sim_with(engine: EngineConfig, app_loss: f64, seed: u64, n: usize) -> Simulator<TestNode> {
    let key = ClusterKey::derive(b"engine-test", 0);
    let cfg = SimConfig {
        medium: MediumConfig {
            app_loss,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    SimBuilder::new(Topology::star(n), seed, move |id| {
        DisseminationNode::new(
            TestScheme::new(id == NodeId(0)),
            UnionPolicy::new(),
            key.clone(),
            engine,
        )
    })
    .config(cfg)
    .build()
}

#[test]
fn minimal_scheme_disseminates() {
    let mut sim = sim_with(EngineConfig::default(), 0.1, 1, 5);
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete);
    for i in 1..5u32 {
        assert_eq!(sim.node(NodeId(i)).scheme().complete_items(), 3);
    }
}

#[test]
fn out_of_order_data_is_dropped_not_buffered() {
    // An attacker injecting data for future items: the engine must count
    // the packets as out-of-order drops and never advance the level.
    use lrs_deluge::attack::{
        AttackEntry, AttackVector, Attacker, AttackerProfile, MaybeAdversary,
    };

    let key = ClusterKey::derive(b"engine-test", 0);
    let cfg = SimConfig {
        medium: MediumConfig::default(),
        ..SimConfig::default()
    };
    // Two nodes: an attacker spraying item-2 data and one honest node
    // with no server available (level stays 0).
    let mut sim = SimBuilder::new(Topology::star(2), 7, move |id| {
        if id == NodeId(0) {
            let entry = AttackEntry {
                node: id,
                vector: AttackVector::BogusData,
                at: SimTime::ZERO,
                interval: Duration::from_millis(300),
                burst: None,
                target: NodeId(1),
                spoof_pool: 0,
            };
            let profile = AttackerProfile {
                // Wrong payload length: the scheme rejects it, so the
                // honest node can never advance on forged data.
                payload_len: 5,
                index_space: 4,
                sig_body_len: 0,
                n_bits: 4,
                version: 1,
                cluster_key: None,
            };
            MaybeAdversary::Attacker(Attacker::new(entry, profile))
        } else {
            MaybeAdversary::Honest(DisseminationNode::new(
                TestScheme::new(false),
                UnionPolicy::new(),
                key.clone(),
                EngineConfig::default(),
            ))
        }
    })
    .config(cfg)
    .build();
    // Bounded observation window (the honest node can never complete).
    let _ = sim.run(Duration::from_secs(120));
    let honest = sim.node(NodeId(1)).honest().expect("honest");
    assert_eq!(honest.scheme().complete_items(), 0, "must not advance");
    let st = honest.stats();
    assert!(
        st.out_of_order_drops + st.auth_rejects > 0,
        "forged data must be counted as dropped/rejected"
    );
}

#[test]
fn healthy_runs_have_no_out_of_order_drops_on_two_nodes() {
    let mut sim = sim_with(EngineConfig::default(), 0.0, 3, 2);
    let report = sim.run(Duration::from_secs(600));
    assert!(report.all_complete);
    assert_eq!(sim.node(NodeId(1)).stats().out_of_order_drops, 0);
}

#[test]
fn budget_limits_service_per_neighbor() {
    // With a tiny per-neighbor budget, a lossy receiver that re-requests
    // a lot eventually gets refused by its first server and must rotate.
    let engine = EngineConfig {
        per_neighbor_item_budget: Some(4),
    };
    let mut sim = sim_with(engine, 0.3, 5, 4);
    let report = sim.run(Duration::from_secs(36_000));
    // Dissemination still completes: peers that finished serve the rest.
    assert!(report.all_complete);
    let rejections: u64 = (0..4u32)
        .map(|i| sim.node(NodeId(i)).stats().budget_rejections)
        .sum();
    assert!(rejections > 0, "tiny budget should trigger rejections");
}

#[test]
fn deterministic_under_fixed_seed() {
    let run = |seed| {
        let mut sim = sim_with(EngineConfig::default(), 0.2, seed, 6);
        let report = sim.run(Duration::from_secs(3_600));
        assert!(report.all_complete);
        (
            sim.metrics().total_tx_packets(),
            report.latency.map(|t| t.as_micros()),
        )
    };
    assert_eq!(run(9), run(9));
}

#[test]
fn advertisements_carry_levels_and_quiesce() {
    // After completion, Trickle backs off: advertisement counts stay
    // bounded well below one per interval forever.
    let mut sim = sim_with(EngineConfig::default(), 0.0, 11, 3);
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete);
    let advs = sim.metrics().tx_packets(PacketKind::Adv);
    assert!(advs > 0, "someone must advertise");
    assert!(
        advs < 200,
        "Trickle should suppress steady-state advertising, got {advs}"
    );
}
