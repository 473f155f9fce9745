//! Multi-version operation: over-the-air *re*-programming.
//!
//! The point of code dissemination is replacing a running image (paper
//! §I: "removing program bugs and adding new functionalities"). A
//! deployed node therefore runs the [`VersionedNode`] wrapper: it
//! executes the current version's protocol node and, on hearing a
//! MAC-authenticated advertisement for a *newer* version, retires the
//! old state and starts collecting the new image from scratch (the new
//! version has its own signature packet, hash page, and chained hashes,
//! so no old state is reusable — and crucially, no *unauthenticated*
//! packet can trigger the switch, or an adversary could reset nodes at
//! will).

use crate::deployment::{Deployment, LrNode};
use lrs_deluge::engine::Scheme as _;
use lrs_deluge::wire::Frame;
use lrs_host::node::{Context, NodeId, Protocol, TimerId};

/// A node that can be reprogrammed across image versions.
///
/// Deployments for future versions are registered up front in tests; in
/// a real system the parameters travel with the (signed) new image.
pub struct VersionedNode {
    id: NodeId,
    base_id: NodeId,
    current: LrNode,
    /// Deployments for versions this node may upgrade to.
    upgrades: Vec<Deployment>,
    /// Number of upgrades performed.
    pub upgrades_applied: u32,
}

impl VersionedNode {
    /// Creates the node running `initial`'s version.
    pub fn new(initial: &Deployment, id: NodeId, base_id: NodeId) -> Self {
        VersionedNode {
            id,
            base_id,
            current: initial.node(id, base_id),
            upgrades: Vec::new(),
            upgrades_applied: 0,
        }
    }

    /// Registers a future version this node will accept.
    pub fn with_upgrade(mut self, deployment: Deployment) -> Self {
        self.upgrades.push(deployment);
        self
    }

    /// The currently running version.
    pub fn version(&self) -> u16 {
        self.current.scheme().version()
    }

    /// The current protocol node.
    pub fn node(&self) -> &LrNode {
        &self.current
    }

    /// The current image, if this node completed its version.
    pub fn image(&self) -> Option<Vec<u8>> {
        self.current.scheme().image()
    }

    /// Checks whether `data` is an authenticated advertisement for a
    /// newer registered version; returns the matching deployment index.
    fn upgrade_for(&self, data: &[u8]) -> Option<usize> {
        let frame = Frame::parse(data)?;
        let Frame::Adv { version, .. } = frame else {
            return None;
        };
        if version <= self.version() {
            return None;
        }
        let (idx, deployment) = self
            .upgrades
            .iter()
            .enumerate()
            .find(|(_, d)| d.params().version == version)?;
        // Only a MAC-valid advertisement may trigger the switch.
        if !frame.mac_ok(deployment.cluster_key()) {
            return None;
        }
        Some(idx)
    }
}

impl Protocol for VersionedNode {
    fn on_init(&mut self, ctx: &mut Context<'_>) {
        self.current.on_init(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, from: NodeId, data: &[u8]) {
        if let Some(idx) = self.upgrade_for(data) {
            let deployment = self.upgrades.remove(idx);
            // Retire every old-version state and timer; the fresh node
            // re-initializes its Trickle machinery.
            self.current = deployment.node(self.id, self.base_id);
            self.upgrades_applied += 1;
            for t in 0..8u32 {
                ctx.cancel_timer(TimerId(t));
            }
            self.current.on_init(ctx);
        }
        self.current.on_packet(ctx, from, data);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
        self.current.on_timer(ctx, timer);
    }

    fn is_complete(&self) -> bool {
        // Complete only when no further registered upgrade is pending.
        self.upgrades.is_empty() && self.current.is_complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LrSelugeParams;
    use lrs_deluge::wire::Message;
    use lrs_netsim::medium::MediumConfig;
    use lrs_netsim::sim::SimConfig;

    use lrs_host::time::Duration;
    use lrs_netsim::topology::Topology;
    use lrs_netsim::SimBuilder;

    fn params(version: u16) -> LrSelugeParams {
        LrSelugeParams {
            version,
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

    fn image(version: u16) -> Vec<u8> {
        (0..1024u32)
            .map(|i| (i as u16 ^ (version * 7)) as u8)
            .collect()
    }

    #[test]
    fn network_upgrades_from_v1_to_v2() {
        let d1 = Deployment::new(&image(1), params(1), b"upgrade demo");
        let d2 = Deployment::new(&image(2), params(2), b"upgrade demo");
        let base_id = NodeId(0);
        let mut sim = SimBuilder::new(Topology::star(5), 3, |id| {
            if id == base_id {
                // The base already runs v2: its first advertisement
                // triggers the network-wide upgrade.
                VersionedNode::new(&d2, id, base_id)
            } else {
                VersionedNode::new(&d1, id, base_id).with_upgrade(d2.clone())
            }
        })
        .config(SimConfig {
            medium: MediumConfig {
                app_loss: 0.1,
                ..MediumConfig::default()
            },
            ..SimConfig::default()
        })
        .build();
        let report = sim.run(Duration::from_secs(36_000));
        assert!(
            report.all_complete,
            "upgrade stalled at {:?}",
            report.final_time
        );
        for i in 1..5u32 {
            let node = sim.node(NodeId(i));
            assert_eq!(node.version(), 2, "node {i} stuck on old version");
            assert_eq!(node.upgrades_applied, 1, "node {i}");
            assert_eq!(node.image().expect("complete"), image(2), "node {i}");
        }
    }

    #[test]
    fn forged_upgrade_advertisement_is_ignored() {
        // An advertisement claiming v2 but MACed with the wrong key must
        // not reset a node.
        let d1 = Deployment::new(&image(1), params(1), b"honest keys");
        let d2 = Deployment::new(&image(2), params(2), b"honest keys");
        let node = VersionedNode::new(&d1, NodeId(1), NodeId(0)).with_upgrade(d2);
        let wrong_key = lrs_crypto::cluster::ClusterKey::derive(b"attacker", 0);
        let forged = Message::adv(&wrong_key, NodeId(9), 2, 5).to_bytes();
        assert_eq!(node.upgrade_for(&forged), None);
        // The honest advertisement does trigger it.
        let honest_d2 = Deployment::new(&image(2), params(2), b"honest keys");
        let genuine = Message::adv(honest_d2.cluster_key(), NodeId(0), 2, 5).to_bytes();
        assert!(node.upgrade_for(&genuine).is_some());
    }

    #[test]
    fn older_version_advertisements_never_downgrade() {
        let d1 = Deployment::new(&image(1), params(1), b"keys");
        let d2 = Deployment::new(&image(2), params(2), b"keys");
        let node = VersionedNode::new(&d2, NodeId(1), NodeId(0)).with_upgrade(d1.clone());
        let old_adv = Message::adv(d1.cluster_key(), NodeId(0), 1, 5).to_bytes();
        assert_eq!(node.upgrade_for(&old_adv), None, "no downgrade");
    }
}
