//! Whole-system adversarial tests: the contrast between insecure Deluge
//! and LR-Seluge under active attack, and the §IV-E denial-of-receipt
//! mitigation.

use lr_seluge::{Deployment, LrScheme, LrSelugeParams};
use lrs_crypto::cluster::ClusterKey;
use lrs_deluge::attack::{AttackEntry, AttackVector, Attacker, MaybeAdversary};
use lrs_deluge::engine::{DisseminationNode, EngineConfig, RejectCause, Scheme};
use lrs_deluge::image::{DelugeImage, DelugeScheme, ImageParams};
use lrs_deluge::policy::UnionPolicy;
use lrs_deluge::wire::{BitVec, Frame, Message};
use lrs_deluge::SchemeFamily;
use lrs_host::node::{Action, Context, NodeId, Protocol};
use lrs_host::time::{Duration, SimTime};
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;
use lrs_rng::DetRng;

const N: usize = 5;
const IMAGE_LEN: usize = 1536;

fn image() -> Vec<u8> {
    (0..IMAGE_LEN as u32)
        .map(|i| (i * 37 % 251) as u8)
        .collect()
}

fn lr_params() -> LrSelugeParams {
    LrSelugeParams {
        image_len: IMAGE_LEN,
        k: 8,
        n: 12,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 6,
        ..LrSelugeParams::default()
    }
}

const ATTACKER: NodeId = NodeId((N + 1) as u32);

/// The attacker's plan entry: `vector` every `interval` from the start,
/// aimed at the base station.
fn entry(vector: AttackVector, interval: Duration) -> AttackEntry {
    AttackEntry {
        node: ATTACKER,
        vector,
        at: SimTime::ZERO,
        interval,
        burst: None,
        target: NodeId(0),
        spoof_pool: 64, // plenty of forged identities
    }
}

/// Hands a receiver of `scheme`, built by the bare engine constructor,
/// one advertisement of a higher level MAC'd under a foreign cluster
/// key; returns the node's MAC rejections and the actions it took.
fn hear_foreign_adv<S: Scheme>(scheme: S) -> (u64, Vec<Action>) {
    let version = scheme.version();
    let key = ClusterKey::derive(b"adv", 0);
    let mut node = DisseminationNode::new(scheme, UnionPolicy::new(), key, EngineConfig::default());
    let foreign = ClusterKey::derive(b"another cluster", 0);
    let adv = Message::adv(&foreign, NodeId(1), version, 1).to_bytes();
    let (mut rng, mut actions) = (DetRng::seed_from_u64(1), Vec::new());
    let mut ctx = Context::new(SimTime::ZERO, NodeId(2), &mut rng, &mut actions, 416, 2_000);
    node.on_packet(&mut ctx, NodeId(1), &adv);
    (node.stats().mac_rejects, actions)
}

#[test]
fn control_macs_are_checked_exactly_for_signed_schemes() {
    // Plain Deluge authenticates nothing: the advertisement counts, and
    // the node schedules a request to the advertiser.
    let ip = ImageParams {
        version: 1,
        image_len: IMAGE_LEN,
        packets_per_page: 8,
        payload_len: 56,
    };
    let (rejects, actions) = hear_foreign_adv(DelugeScheme::receiver(ip));
    assert_eq!(rejects, 0);
    assert!(!actions.is_empty(), "Deluge must act on the advertisement");
    // LR-Seluge opens with a signature packet, so its control traffic
    // must carry this cluster's MAC: the advertisement is dropped.
    let deployment = Deployment::new(&image(), lr_params(), b"adv");
    let lr = LrScheme::receiver(lr_params(), deployment.pubkey(), deployment.puzzle());
    let (rejects, actions) = hear_foreign_adv(lr);
    assert_eq!(rejects, 1);
    assert!(actions.is_empty(), "{actions:?}");
}

#[test]
fn the_signature_opens_a_receiver_only_as_an_item_zero_data_frame() {
    // The wire has no signature frame of its own: the genuine signature
    // body behind the retired tag 4 is an unparseable datagram, counted
    // where unparseable frames are counted, and never reaches the
    // signature check. The same body as item 0, packet 0 opens the image.
    let deployment = Deployment::new(&image(), lr_params(), b"adv");
    let (pubkey, puzzle) = (deployment.pubkey(), deployment.puzzle());
    let mut base = LrScheme::base(deployment.artifacts(), pubkey, puzzle);
    let body = base
        .packet_payload(0, 0)
        .expect("the base station holds the signature");
    let version = lr_params().version;
    let hear = |bytes: &[u8]| {
        let lr = LrScheme::receiver(lr_params(), pubkey, puzzle);
        let key = deployment.cluster_key().clone();
        let mut node = DisseminationNode::new(lr, UnionPolicy::new(), key, EngineConfig::default());
        let (mut rng, mut actions) = (DetRng::seed_from_u64(1), Vec::new());
        let mut ctx = Context::new(SimTime::ZERO, NodeId(2), &mut rng, &mut actions, 416, 2_000);
        node.on_packet(&mut ctx, NodeId(0), bytes);
        let cost = node.scheme().cost();
        (
            node.stats().mac_rejects,
            cost.signature_verifications,
            cost.puzzle_checks,
            node.scheme().complete_items(),
        )
    };

    let mut tag4 = vec![4];
    tag4.extend_from_slice(&version.to_be_bytes());
    tag4.extend_from_slice(&(body.len() as u16).to_be_bytes());
    tag4.extend_from_slice(&body);
    assert_eq!(Frame::parse(&tag4), None);
    assert_eq!(hear(&tag4), (1, 0, 0, 0));

    let data = Message::Data {
        version,
        item: 0,
        index: 0,
        payload: body,
    };
    let (rejects, verifications, _, level) = hear(&data.to_bytes());
    assert_eq!((rejects, verifications, level), (0, 1, 1));
}

#[test]
fn deluge_is_corrupted_by_bogus_data_while_lr_seluge_is_not() {
    let flood = Duration::from_millis(200);

    // Deluge run.
    let ip = ImageParams {
        version: 1,
        image_len: IMAGE_LEN,
        packets_per_page: 8,
        payload_len: 56,
    };
    let dimage = DelugeImage::new(image(), ip);
    let key = ClusterKey::derive(b"adv", 0);
    let mut dsim = SimBuilder::new(Topology::star(N + 2), 3, |id| {
        if id == ATTACKER {
            MaybeAdversary::Attacker(Attacker::new(
                entry(AttackVector::BogusData, flood),
                DelugeScheme::attacker_profile(&ip, None),
            ))
        } else {
            let scheme = if id == NodeId(0) {
                DelugeScheme::base(&dimage)
            } else {
                DelugeScheme::receiver(ip)
            };
            MaybeAdversary::Honest(DisseminationNode::new(
                scheme,
                UnionPolicy::new(),
                key.clone(),
                EngineConfig::default(),
            ))
        }
    })
    .build();
    let _ = dsim.run(Duration::from_secs(40_000));
    let corrupted = (1..=N as u32)
        .filter(|&i| {
            let node = dsim.node(NodeId(i)).honest().expect("honest");
            node.scheme()
                .image()
                .map(|got| got != image())
                .unwrap_or(true)
        })
        .count();
    assert!(
        corrupted > 0,
        "the insecure baseline should be corrupted by the flood"
    );

    // LR-Seluge run under the identical flood.
    let deployment = Deployment::new(&image(), lr_params(), b"adv");
    let mut lsim = SimBuilder::new(Topology::star(N + 2), 3, |id| {
        if id == ATTACKER {
            MaybeAdversary::Attacker(Attacker::new(
                entry(AttackVector::BogusData, flood),
                deployment.attacker_profile(false),
            ))
        } else {
            MaybeAdversary::Honest(deployment.node(id, NodeId(0)))
        }
    })
    .build();
    let report = lsim.run(Duration::from_secs(40_000));
    assert!(report.all_complete, "LR-Seluge must complete under attack");
    for i in 1..=N as u32 {
        let node = lsim.node(NodeId(i)).honest().expect("honest");
        assert_eq!(node.scheme().image().expect("done"), image(), "node {i}");
    }
}

#[test]
fn denial_of_receipt_budget_caps_victim_transmissions() {
    let run = |budget: Option<u32>| -> (u64, u64) {
        let p = lr_params();
        let engine = EngineConfig {
            per_neighbor_item_budget: budget,
        };
        let deployment = Deployment::new(&image(), p, b"dor").with_engine(engine);
        let mut sim = SimBuilder::new(Topology::star(N + 2), 9, |id| {
            if id == ATTACKER {
                MaybeAdversary::Attacker(Attacker::new(
                    entry(AttackVector::DenialOfReceipt, Duration::from_millis(150)),
                    deployment.attacker_profile(true),
                ))
            } else {
                MaybeAdversary::Honest(deployment.node(id, NodeId(0)))
            }
        })
        .build();
        // The unbounded attack is a total DoS (the victim never escapes
        // the attacker's lowest-item requests), so measure over a fixed
        // observation window instead of waiting for completion.
        let _ = sim.run(Duration::from_secs(900));
        let base = sim.node(NodeId(0)).honest().expect("base");
        (base.stats().data_sent, base.stats().budget_rejections)
    };

    let (unbounded, rej0) = run(None);
    let (bounded, rej1) = run(Some(2 * lr_params().n as u32));
    assert_eq!(rej0, 0);
    assert!(rej1 > 0, "budget must have rejected insider SNACKs");
    assert!(
        bounded < unbounded,
        "budget must reduce the victim's transmissions: {bounded} vs {unbounded}"
    );
}

#[test]
fn insider_snack_flood_does_not_prevent_completion() {
    let p = lr_params();
    let deployment = Deployment::new(&image(), p, b"dor2").with_engine(EngineConfig {
        per_neighbor_item_budget: Some(3 * p.n as u32),
    });
    let mut sim = SimBuilder::new(Topology::star(N + 2), 21, |id| {
        if id == ATTACKER {
            MaybeAdversary::Attacker(Attacker::new(
                entry(AttackVector::DenialOfReceipt, Duration::from_millis(150)),
                deployment.attacker_profile(true),
            ))
        } else {
            MaybeAdversary::Honest(deployment.node(id, NodeId(0)))
        }
    })
    .build();
    let report = sim.run(Duration::from_secs(40_000));
    assert!(report.all_complete);
    for i in 1..=N as u32 {
        let node = sim.node(NodeId(i)).honest().expect("honest");
        assert_eq!(node.scheme().image().expect("done"), image());
    }
}

#[test]
fn spoofed_denial_of_receipt_evades_budget_without_leap_but_not_with_it() {
    // The insider rotates forged sender ids: per-neighbor budgets keyed
    // by the (unauthenticated) source field are useless — unless SNACK
    // sources are identified with LEAP pairwise MACs (§IV-E).
    let run = |leap: bool| -> (u64, [u64; RejectCause::COUNT]) {
        let p = lr_params();
        let engine = EngineConfig {
            per_neighbor_item_budget: Some(2 * p.n as u32),
        };
        let mut deployment = Deployment::new(&image(), p, b"spoof").with_engine(engine);
        if leap {
            deployment = deployment.with_leap(b"initial network key");
        }
        let mut sim = SimBuilder::new(Topology::star(N + 2), 13, |id| {
            if id == ATTACKER {
                MaybeAdversary::Attacker(Attacker::new(
                    entry(
                        AttackVector::SpoofedDenialOfReceipt,
                        Duration::from_millis(150),
                    ),
                    deployment.attacker_profile(true),
                ))
            } else {
                MaybeAdversary::Honest(deployment.node(id, NodeId(0)))
            }
        })
        .build();
        let _ = sim.run(Duration::from_secs(600));
        let base = sim.node(NodeId(0)).honest().expect("base");
        (base.stats().data_sent, base.stats().rejects)
    };

    let (without_leap, _) = run(false);
    let (with_leap, rejects) = run(true);
    // Honest frames never fail, so every reject is a spoofed SNACK.
    let leap_rejects = rejects[RejectCause::Leap as usize];
    assert!(
        leap_rejects > 0,
        "LEAP must reject the spoofed SNACKs (got {rejects:?})"
    );
    assert_eq!(rejects.iter().sum::<u64>(), leap_rejects, "{rejects:?}");
    assert!(
        with_leap * 3 < without_leap,
        "LEAP should neutralize the spoofing attack: {with_leap} vs {without_leap}"
    );
}

#[test]
fn rejects_are_counted_under_their_one_cause() {
    // A base station with LEAP hears a garbage datagram, then a SNACK
    // under the cluster key whose claimed sender never signed it (the
    // spoofed denial-of-receipt frame): each lands in its own cause, and
    // `mac_rejects` stays their sum.
    let deployment = Deployment::new(&image(), lr_params(), b"causes").with_leap(b"network key");
    let mut base = deployment.node(NodeId(0), NodeId(0));
    let (mut rng, mut actions) = (DetRng::seed_from_u64(1), Vec::new());
    let mut hear = |bytes: &[u8]| {
        let mut ctx = Context::new(SimTime::ZERO, NodeId(0), &mut rng, &mut actions, 416, 2_000);
        base.on_packet(&mut ctx, NodeId(3), bytes);
        base.stats()
    };
    let mut want = [0u64; RejectCause::COUNT];

    let stats = hear(&[0xee; 7]);
    want[RejectCause::Unparseable as usize] = 1;
    assert_eq!((stats.rejects, stats.mac_rejects), (want, 1));

    let n_bits = deployment.attacker_profile(true).n_bits;
    let version = lr_params().version;
    let key = deployment.cluster_key();
    let spoofed = Message::snack(key, NodeId(3), NodeId(0), version, 1, BitVec::ones(n_bits));
    let stats = hear(&spoofed.to_bytes());
    want[RejectCause::Leap as usize] = 1;
    assert_eq!((stats.rejects, stats.mac_rejects), (want, 2));
}
