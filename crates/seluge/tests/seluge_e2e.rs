//! End-to-end Seluge dissemination, including under attack.

use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::puzzle::{Puzzle, PuzzleKeyChain};
use lrs_crypto::schnorr::Keypair;
use lrs_deluge::attack::{AttackEntry, AttackVector, Attacker, MaybeAdversary};
use lrs_deluge::engine::{DisseminationNode, EngineConfig, Scheme};
use lrs_deluge::policy::UnionPolicy;
use lrs_deluge::SchemeFamily;
use lrs_host::node::NodeId;
use lrs_host::time::{Duration, SimTime};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::SimConfig;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;
use lrs_seluge::{SelugeArtifacts, SelugeParams, SelugeScheme};

type SelugeNode = DisseminationNode<SelugeScheme, UnionPolicy>;

struct Setup {
    params: SelugeParams,
    artifacts: SelugeArtifacts,
    image: Vec<u8>,
    key: ClusterKey,
    pubkey: lrs_crypto::schnorr::PublicKey,
    puzzle: Puzzle,
}

fn setup(image_len: usize) -> Setup {
    let params = SelugeParams {
        version: 1,
        image_len,
        packets_per_page: 8,
        slice_len: 48,
        hash_page_chunks: 4,
        puzzle_strength: 6,
    };
    let image: Vec<u8> = (0..image_len as u32)
        .map(|i| (i.wrapping_mul(2246822519) >> 11) as u8)
        .collect();
    let kp = Keypair::from_seed(b"base station");
    let chain = PuzzleKeyChain::generate(b"puzzle chain", 4);
    let artifacts = SelugeArtifacts::build(&image, params, &kp, &chain);
    Setup {
        params,
        artifacts,
        image,
        key: ClusterKey::derive(b"deployment", 0),
        pubkey: kp.public(),
        puzzle: Puzzle::new(chain.anchor(), params.puzzle_strength),
    }
}

fn make_node(s: &Setup, id: NodeId) -> SelugeNode {
    let scheme = if id == NodeId(0) {
        SelugeScheme::base(&s.artifacts, s.pubkey, s.puzzle)
    } else {
        SelugeScheme::receiver(s.params, s.pubkey, s.puzzle)
    };
    DisseminationNode::new(
        scheme,
        UnionPolicy::new(),
        s.key.clone(),
        EngineConfig::default(),
    )
}

#[test]
fn one_hop_secure_dissemination() {
    let s = setup(2_000);
    let cfg = SimConfig {
        medium: MediumConfig {
            app_loss: 0.1,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(Topology::star(6), 21, |id| make_node(&s, id))
        .config(cfg)
        .build();
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete, "stalled at {:?}", report.final_time);
    for i in 1..6u32 {
        let node = sim.node(NodeId(i));
        assert_eq!(node.scheme().image().unwrap(), s.image, "node {i}");
        assert_eq!(node.scheme().cost().signature_verifications, 1, "node {i}");
    }
}

#[test]
fn multi_hop_secure_dissemination() {
    let s = setup(1_200);
    let mut sim = SimBuilder::new(Topology::line(4, 0.9), 5, |id| make_node(&s, id)).build();
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete, "stalled at {:?}", report.final_time);
    for i in 1..4u32 {
        assert_eq!(sim.node(NodeId(i)).scheme().image().unwrap(), s.image);
    }
}

/// An outsider at `node` injecting `vector` every `interval_ms` from
/// the start, mimicking `s`'s Seluge parameters.
fn outsider(s: &Setup, node: NodeId, vector: AttackVector, interval_ms: u64) -> Attacker {
    let entry = AttackEntry {
        node,
        vector,
        at: SimTime::ZERO,
        interval: Duration::from_millis(interval_ms),
        burst: None,
        target: NodeId(0),
        spoof_pool: 0,
    };
    Attacker::new(entry, SelugeScheme::attacker_profile(&s.params, None))
}

#[test]
fn bogus_data_flood_is_rejected_and_dissemination_completes() {
    let s = setup(1_200);
    let cfg = SimConfig::default();
    let mut sim = SimBuilder::new(Topology::star(6), 9, |id| {
        if id == NodeId(5) {
            MaybeAdversary::Attacker(outsider(&s, id, AttackVector::BogusData, 150))
        } else {
            MaybeAdversary::Honest(make_node(&s, id))
        }
    })
    .config(cfg)
    .build();
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete, "stalled at {:?}", report.final_time);
    let mut total_rejects = 0;
    for i in 1..5u32 {
        let node = sim.node(NodeId(i)).honest().expect("honest");
        // Every honest node ends with the *correct* image despite the
        // flood: no bogus packet was ever stored.
        assert_eq!(node.scheme().image().unwrap(), s.image, "node {i}");
        total_rejects += node.stats().auth_rejects + node.stats().out_of_order_drops;
    }
    let injected = sim.node(NodeId(5)).attacker().expect("attacker").injected;
    assert!(injected > 0, "attacker never fired");
    assert!(
        total_rejects > 0,
        "flood should have produced rejections (injected {injected})"
    );
}

#[test]
fn forged_signature_flood_never_triggers_expensive_verification() {
    let s = setup(1_200);
    let mut sim = SimBuilder::new(Topology::star(5), 13, |id| {
        if id == NodeId(4) {
            MaybeAdversary::Attacker(outsider(&s, id, AttackVector::ForgedSignature, 400))
        } else {
            MaybeAdversary::Honest(make_node(&s, id))
        }
    })
    .build();
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete);
    for i in 1..4u32 {
        let node = sim.node(NodeId(i)).honest().unwrap();
        let cost = node.scheme().cost();
        // The puzzle absorbed the flood: exactly the one legitimate
        // verification ran, while puzzle checks counted the forgeries.
        assert_eq!(cost.signature_verifications, 1, "node {i}");
        assert!(cost.puzzle_checks >= 1, "node {i}");
    }
}

#[test]
fn forged_control_packets_rejected_by_mac() {
    let s = setup(800);
    let mut sim = SimBuilder::new(Topology::star(5), 17, |id| {
        if id == NodeId(4) {
            MaybeAdversary::Attacker(outsider(&s, id, AttackVector::ForgedAdv, 400))
        } else {
            MaybeAdversary::Honest(make_node(&s, id))
        }
    })
    .build();
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete);
    let mut mac_rejects = 0;
    for i in 1..4u32 {
        let node = sim.node(NodeId(i)).honest().unwrap();
        assert_eq!(node.scheme().image().unwrap(), s.image);
        mac_rejects += node.stats().mac_rejects;
    }
    assert!(
        mac_rejects > 0,
        "forged advertisements must be MAC-rejected"
    );
}

#[test]
fn tiny_image_single_page() {
    let s = setup(100); // far less than one page
    assert_eq!(s.params.pages(), 1);
    let mut sim = SimBuilder::new(Topology::star(3), 31, |id| make_node(&s, id)).build();
    let report = sim.run(Duration::from_secs(3_600));
    assert!(report.all_complete);
    for i in 1..3u32 {
        assert_eq!(sim.node(NodeId(i)).scheme().image().unwrap(), s.image);
    }
}
