//! A convenience facade bundling key material, preprocessing and node
//! construction for a whole deployment.

use crate::params::{LrSelugeParams, ParamError};
use crate::preprocess::LrArtifacts;
use crate::scheduler::GreedyRoundRobinPolicy;
use crate::scheme::{LrScheme, PacketDigestCache};
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::leap::LeapKeyring;
use lrs_crypto::puzzle::Puzzle;
use lrs_crypto::schnorr::PublicKey;
use lrs_deluge::bootstrap::DeploymentKeys;
use lrs_deluge::engine::{DisseminationNode, EngineConfig};
use lrs_deluge::policy::TxPolicy;
use lrs_netsim::node::NodeId;

/// An LR-Seluge protocol node, ready for the simulator.
pub type LrNode = DisseminationNode<LrScheme, GreedyRoundRobinPolicy>;

/// A prepared deployment: one image, one base-station keypair, one
/// cluster key, preprocessed artifacts.
#[derive(Clone)]
pub struct Deployment {
    artifacts: LrArtifacts,
    pubkey: PublicKey,
    puzzle: Puzzle,
    cluster_key: ClusterKey,
    engine: EngineConfig,
    /// Initial network key for LEAP bootstrap, when enabled.
    leap_seed: Option<Vec<u8>>,
}

impl Deployment {
    /// Preprocesses `image` with keys derived from `seed_material`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent or the image length does
    /// not match `params.image_len`; use [`try_new`](Self::try_new) to
    /// get a typed error instead.
    pub fn new(image: &[u8], params: LrSelugeParams, seed_material: &[u8]) -> Self {
        match Self::try_new(image, params, seed_material) {
            Ok(deployment) => deployment,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`new`](Self::new): rejects inconsistent parameters or
    /// a mismatched image with a [`ParamError`] instead of panicking —
    /// the entry point when the configuration comes from user input.
    pub fn try_new(
        image: &[u8],
        params: LrSelugeParams,
        seed_material: &[u8],
    ) -> Result<Self, ParamError> {
        let keys = DeploymentKeys::derive(seed_material, params.version, params.puzzle_strength);
        let artifacts = LrArtifacts::try_build(image, params, &keys.keypair, &keys.chain)?;
        Ok(Deployment {
            artifacts,
            pubkey: keys.keypair.public(),
            puzzle: keys.puzzle,
            cluster_key: keys.cluster_key,
            engine: EngineConfig::default(),
            leap_seed: None,
        })
    }

    /// Enables LEAP pairwise source authentication of SNACK packets (the
    /// paper's §IV-E proposal, required for a spoof-proof
    /// denial-of-receipt budget).
    pub fn with_leap(mut self, initial_network_key: &[u8]) -> Self {
        self.leap_seed = Some(initial_network_key.to_vec());
        self
    }

    /// Overrides the engine configuration (timers, retry limits,
    /// denial-of-receipt budget).
    pub fn with_engine_config(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The preprocessed artifacts.
    pub fn artifacts(&self) -> &LrArtifacts {
        &self.artifacts
    }

    /// The deployment-wide cluster key.
    pub fn cluster_key(&self) -> &ClusterKey {
        &self.cluster_key
    }

    /// Layout parameters.
    pub fn params(&self) -> LrSelugeParams {
        self.artifacts.params()
    }

    /// Builds a node with a custom TX policy (used by the scheduler
    /// ablation, which runs LR-Seluge with the Deluge/Seluge union rule
    /// instead of the greedy round-robin scheduler).
    pub fn node_with_policy<P: TxPolicy>(
        &self,
        id: NodeId,
        base_id: NodeId,
        policy: P,
    ) -> DisseminationNode<LrScheme, P> {
        self.wrap(self.make_scheme(id, base_id), policy, id)
    }

    /// Builds the protocol node for `id` (`base_id` gets the full image).
    pub fn node(&self, id: NodeId, base_id: NodeId) -> LrNode {
        self.node_with_policy(id, base_id, GreedyRoundRobinPolicy::new())
    }

    /// Like [`Deployment::node`], but shares a per-run packet-digest memo
    /// across the run's nodes. The cache is `Rc`-based and deliberately
    /// *not* stored in the deployment (which is shared across harness
    /// threads): create one per sim run and pass it to every node.
    pub fn node_cached(&self, id: NodeId, base_id: NodeId, cache: &PacketDigestCache) -> LrNode {
        let scheme = self.make_scheme(id, base_id);
        let policy = GreedyRoundRobinPolicy::new();
        self.wrap(scheme.with_digest_cache(cache.clone()), policy, id)
    }

    /// Pre-fills a per-run packet-digest memo from the preprocessed
    /// artifacts (see [`LrArtifacts::warm_digest_cache`]): all
    /// predetermined packet hashes are computed in multi-buffer batches
    /// up front, so receivers hit warm entries from the first packet.
    pub fn warm_digest_cache(&self, cache: &PacketDigestCache) {
        self.artifacts.warm_digest_cache(cache);
    }

    fn make_scheme(&self, id: NodeId, base_id: NodeId) -> LrScheme {
        if id == base_id {
            LrScheme::base(&self.artifacts, self.pubkey, self.puzzle)
        } else {
            LrScheme::receiver(self.params(), self.pubkey, self.puzzle)
        }
    }

    fn wrap<P: TxPolicy>(
        &self,
        scheme: LrScheme,
        policy: P,
        id: NodeId,
    ) -> DisseminationNode<LrScheme, P> {
        let node = DisseminationNode::new(scheme, policy, self.cluster_key.clone(), self.engine);
        match &self.leap_seed {
            Some(seed) => node.with_leap(LeapKeyring::bootstrap(seed, id.0)),
            None => node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_netsim::node::Protocol as _;

    #[test]
    fn deployment_builds_base_and_receivers() {
        let params = LrSelugeParams {
            image_len: 512,
            k: 4,
            n: 6,
            payload_len: 48,
            k0: 2,
            n0: 4,
            puzzle_strength: 4,
            ..LrSelugeParams::default()
        };
        let image = vec![0x5a; 512];
        let d = Deployment::new(&image, params, b"seed");
        let base = d.node(NodeId(0), NodeId(0));
        let rx = d.node(NodeId(1), NodeId(0));
        assert!(base.is_complete());
        assert!(!rx.is_complete());
        assert_eq!(base.scheme().image().unwrap(), image);
    }

    #[test]
    fn try_new_rejects_bad_configuration_without_panicking() {
        let good = LrSelugeParams {
            image_len: 512,
            k: 4,
            n: 6,
            payload_len: 48,
            k0: 2,
            n0: 4,
            puzzle_strength: 4,
            ..LrSelugeParams::default()
        };
        // Inconsistent code dimensions.
        let err = match Deployment::try_new(&[0u8; 512], LrSelugeParams { n: 2, ..good }, b"seed") {
            Ok(_) => panic!("n < k must be rejected"),
            Err(err) => err,
        };
        assert!(err.to_string().contains("invalid LR-Seluge configuration"));
        // Image/params length mismatch.
        assert!(Deployment::try_new(&[0u8; 100], good, b"seed").is_err());
        // The good configuration still builds.
        assert!(Deployment::try_new(&[0u8; 512], good, b"seed").is_ok());
    }
}
