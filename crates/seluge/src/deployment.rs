//! A convenience facade bundling key material, preprocessing and node
//! construction for a whole Seluge deployment (the counterpart of
//! `lr_seluge::Deployment`).

use crate::preprocess::{SelugeArtifacts, SelugeParams};
use crate::scheme::{PacketDigestCache, SelugeScheme};
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::puzzle::Puzzle;
use lrs_crypto::schnorr::PublicKey;
use lrs_deluge::bootstrap::DeploymentKeys;
use lrs_deluge::engine::{DisseminationNode, EngineConfig};
use lrs_deluge::policy::UnionPolicy;
use lrs_netsim::node::NodeId;

/// A Seluge protocol node, ready for the simulator.
pub type SelugeNode = DisseminationNode<SelugeScheme, UnionPolicy>;

/// A prepared deployment: one image, one base-station keypair, one
/// cluster key, preprocessed artifacts.
#[derive(Clone)]
pub struct SelugeDeployment {
    artifacts: SelugeArtifacts,
    pubkey: PublicKey,
    puzzle: Puzzle,
    cluster_key: ClusterKey,
    engine: EngineConfig,
}

impl SelugeDeployment {
    /// Preprocesses `image` with keys derived from `seed_material`.
    ///
    /// # Panics
    ///
    /// Panics if the image length does not match `params.image_len` or
    /// the chunk count is not a power of two.
    pub fn new(image: &[u8], params: SelugeParams, seed_material: &[u8]) -> Self {
        let keys = DeploymentKeys::derive(seed_material, params.version, params.puzzle_strength);
        SelugeDeployment {
            artifacts: SelugeArtifacts::build(image, params, &keys.keypair, &keys.chain),
            pubkey: keys.keypair.public(),
            puzzle: keys.puzzle,
            cluster_key: keys.cluster_key,
            engine: EngineConfig::default(),
        }
    }

    /// Overrides the engine configuration (timers, retry limits,
    /// denial-of-receipt budget).
    pub fn with_engine_config(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The preprocessed artifacts.
    pub fn artifacts(&self) -> &SelugeArtifacts {
        &self.artifacts
    }

    /// The deployment-wide cluster key.
    pub fn cluster_key(&self) -> &ClusterKey {
        &self.cluster_key
    }

    /// Builds the protocol node for `id` (`base_id` gets the full image).
    pub fn node(&self, id: NodeId, base_id: NodeId) -> SelugeNode {
        self.wrap(self.scheme(id, base_id))
    }

    /// Like [`SelugeDeployment::node`], but shares a per-run
    /// packet-digest memo across the run's nodes. The cache is
    /// `Rc`-based and deliberately *not* stored in the deployment (which
    /// is shared across harness threads): create one per sim run and
    /// pass it to every node.
    pub fn node_cached(
        &self,
        id: NodeId,
        base_id: NodeId,
        cache: &PacketDigestCache,
    ) -> SelugeNode {
        self.wrap(self.scheme(id, base_id).with_digest_cache(cache.clone()))
    }

    fn scheme(&self, id: NodeId, base_id: NodeId) -> SelugeScheme {
        if id == base_id {
            SelugeScheme::base(&self.artifacts, self.pubkey, self.puzzle)
        } else {
            SelugeScheme::receiver(self.artifacts.params(), self.pubkey, self.puzzle)
        }
    }

    fn wrap(&self, scheme: SelugeScheme) -> SelugeNode {
        DisseminationNode::new(
            scheme,
            UnionPolicy::new(),
            self.cluster_key.clone(),
            self.engine,
        )
    }
}
