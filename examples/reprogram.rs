//! Over-the-air reprogramming: the actual use case of code
//! dissemination. A network finishes disseminating firmware v1; the base
//! station is then loaded with v2 and every node upgrades — discarding
//! v1 transfer state and authenticating the new image from its own
//! signed root.
//!
//! ```text
//! cargo run --release --example reprogram
//! ```

use lr_seluge::upgrade::VersionedNode;
use lr_seluge::{Deployment, LrSelugeParams};
use lrs_host::node::NodeId;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::SimConfig;

use lrs_host::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;

fn firmware(version: u16, len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| ((i * 37) as u16 ^ (version * 1031)) as u8)
        .collect()
}

fn main() {
    let params = |version| LrSelugeParams {
        version,
        image_len: 4 * 1024,
        ..LrSelugeParams::default()
    };
    let v1 = Deployment::new(&firmware(1, 4 * 1024), params(1), b"reprogram demo");
    let v2 = Deployment::new(&firmware(2, 4 * 1024), params(2), b"reprogram demo");

    // Sensor nodes start on v1; the base station is flashed with v2.
    // Its first advertisement (higher version, valid cluster MAC)
    // triggers the upgrade network-wide.
    let base = NodeId(0);
    let n = 8usize;
    let mut sim = SimBuilder::new(Topology::star(n + 1), 11, |id| {
        if id == base {
            VersionedNode::new(&v2, id, base)
        } else {
            VersionedNode::new(&v1, id, base).with_upgrade(v2.clone())
        }
    })
    .config(SimConfig {
        medium: MediumConfig {
            app_loss: 0.15,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    })
    .build();
    let report = sim.run(Duration::from_secs(36_000));
    assert!(report.all_complete, "upgrade stalled");

    for i in 1..=n as u32 {
        let node = sim.node(NodeId(i));
        assert_eq!(node.version(), 2);
        assert_eq!(node.image().expect("complete"), firmware(2, 4 * 1024));
    }
    println!(
        "all {n} nodes reprogrammed to v2 under 15 % loss in {:.1} s of virtual time \
         ({} upgrades applied, image verified bit-exact on every node)",
        report.latency.expect("complete").as_secs_f64(),
        n
    );
}
