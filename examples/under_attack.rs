//! Attack resilience demo: the same bogus-data flood is launched against
//! plain Deluge and against LR-Seluge.
//!
//! Deluge stores whatever fits the packet layout, so the flood corrupts
//! node images; LR-Seluge authenticates every packet on arrival, rejects
//! the forgeries without buffering them, and still completes.
//!
//! ```text
//! cargo run --release --example under_attack
//! ```

use lr_seluge::{Deployment, LrSelugeParams};
use lrs_crypto::cluster::ClusterKey;
use lrs_deluge::attack::{AttackEntry, AttackVector, Attacker, MaybeAdversary};
use lrs_deluge::engine::{DisseminationNode, EngineConfig};
use lrs_deluge::image::{DelugeImage, DelugeScheme, ImageParams};
use lrs_deluge::policy::UnionPolicy;
use lrs_deluge::SchemeFamily;
use lrs_host::node::NodeId;
use lrs_host::time::{Duration, SimTime};
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;

const N: usize = 6; // honest receivers
const IMAGE_LEN: usize = 4 * 1024;

fn image() -> Vec<u8> {
    (0..IMAGE_LEN as u32)
        .map(|i| (i * 17 % 253) as u8)
        .collect()
}

fn main() {
    let attacker_id = NodeId((N + 1) as u32);
    // The same plan entry mounts the flood against either scheme: bogus
    // data every 250 ms from the start, no duty cycle.
    let flood = AttackEntry {
        node: attacker_id,
        vector: AttackVector::BogusData,
        at: SimTime::ZERO,
        interval: Duration::from_millis(250),
        burst: None,
        target: NodeId(0),
        spoof_pool: 0,
    };

    // --- Plain Deluge under the flood --------------------------------
    let ip = ImageParams {
        version: 1,
        image_len: IMAGE_LEN,
        packets_per_page: 32,
        payload_len: 72,
    };
    let dimage = DelugeImage::new(image(), ip);
    let key = ClusterKey::derive(b"demo", 0);
    let mut deluge_sim = SimBuilder::new(Topology::star(N + 2), 5, |id| {
        if id == attacker_id {
            MaybeAdversary::Attacker(Attacker::new(
                flood,
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
    let _ = deluge_sim.run(Duration::from_secs(40_000));
    let corrupted = (1..=N as u32)
        .filter(|&i| {
            let node = deluge_sim.node(NodeId(i)).honest().expect("honest");
            node.scheme()
                .image()
                .map(|got| got != image())
                .unwrap_or(true)
        })
        .count();
    println!("Deluge under bogus-data flood: {corrupted}/{N} nodes corrupted or stalled");

    // --- LR-Seluge under the same flood ------------------------------
    let params = LrSelugeParams {
        image_len: IMAGE_LEN,
        puzzle_strength: 8,
        ..LrSelugeParams::default()
    };
    let deployment = Deployment::new(&image(), params, b"demo");
    let mut lr_sim = SimBuilder::new(Topology::star(N + 2), 5, |id| {
        if id == attacker_id {
            MaybeAdversary::Attacker(Attacker::new(flood, deployment.attacker_profile(false)))
        } else {
            MaybeAdversary::Honest(deployment.node(id, NodeId(0)))
        }
    })
    .build();
    let report = lr_sim.run(Duration::from_secs(40_000));
    let mut rejects = 0u64;
    for i in 1..=N as u32 {
        let node = lr_sim.node(NodeId(i)).honest().expect("honest");
        assert_eq!(
            node.scheme().image().expect("complete"),
            image(),
            "LR-Seluge node {i} must hold the authentic image"
        );
        let st = node.stats();
        rejects += st.auth_rejects + st.out_of_order_drops;
    }
    let injected = lr_sim
        .node(attacker_id)
        .attacker()
        .expect("attacker")
        .injected;
    println!(
        "LR-Seluge under the same flood: 0/{N} corrupted, complete = {}, \
         {injected} forgeries injected, {rejects} rejected/dropped unbuffered",
        report.all_complete
    );
}
