//! One scheme family, one deployment.
//!
//! The paper's evaluation (§VI) runs one engine under three schemes
//! "for fair comparison". [`SchemeFamily`] is what a scheme adds to
//! [`Scheme`] so everything above the protocol can be written once over
//! `S: SchemeFamily`: how its parameters and preprocessed artifacts are
//! built and validated, how a base station and a receiver start, what
//! its invariants are and what an attacker must mimic. [`Deployment`]
//! bundles one image's artifacts with the keys every node is preloaded
//! with and hands out ready protocol nodes.

use crate::attack::AttackerProfile;
use crate::bootstrap::{DeploymentKeys, PacketDigestCache};
use crate::engine::{DisseminationNode, EngineConfig, Scheme};
use crate::policy::TxPolicy;
use crate::wire::MAX_PAYLOAD_LEN;
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::leap::LeapKeyring;
use lrs_crypto::puzzle::Puzzle;
use lrs_crypto::schnorr::PublicKey;
use lrs_host::node::NodeId;
use lrs_host::violation::InvariantViolation;
use std::fmt;
use std::sync::Arc;

/// A rejected deployment configuration: inconsistent parameters or an
/// image that does not match them. Returned by the fallible constructor
/// paths ([`SchemeFamily::try_build`], [`Deployment::try_new`]) so
/// callers wiring user-supplied configuration get a typed error instead
/// of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamError(pub String);

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ParamError {}

/// Most pages an image may span: item indices are `u16` on the wire and
/// the secure schemes put two items (signature, hash page) before the
/// pages.
pub const MAX_PAGES: usize = u16::MAX as usize - 2;

/// The image geometry every family shares: a non-empty image cut into
/// `1..=MAX_PAGES` pages of `page_capacity > 0` bytes.
///
/// # Errors
///
/// Describes the violated constraint. Past [`MAX_PAGES`] a `u16` page
/// count would wrap and the base station would sign a truncated image.
pub fn check_layout(image_len: usize, page_capacity: usize) -> Result<(), String> {
    if image_len == 0 {
        return Err("empty image".to_string());
    }
    if page_capacity == 0 {
        return Err("page has no image capacity".to_string());
    }
    let pages = image_len.div_ceil(page_capacity);
    if pages > MAX_PAGES {
        return Err(format!(
            "a {image_len}-byte image needs {pages} pages of {page_capacity} bytes; \
             at most {MAX_PAGES} are addressable"
        ));
    }
    Ok(())
}

/// Rejects a packet whose `len`-byte payload (`what` names it) would not
/// fit the wire's `u16` length field, [`MAX_PAYLOAD_LEN`]: its length
/// would wrap and every receiver would drop it as malformed.
///
/// # Errors
///
/// Names the payload and its length.
pub fn check_payload_len(what: &str, len: usize) -> Result<(), String> {
    if len > MAX_PAYLOAD_LEN {
        return Err(format!(
            "{what} is {len} bytes; a wire packet carries at most {MAX_PAYLOAD_LEN}"
        ));
    }
    Ok(())
}

/// Rejects an image whose length differs from the parameters' claim.
///
/// # Errors
///
/// Names both lengths.
pub fn check_image_len(image: &[u8], image_len: usize) -> Result<(), ParamError> {
    if image.len() == image_len {
        Ok(())
    } else {
        Err(ParamError(format!(
            "image is {} bytes but params.image_len is {image_len}",
            image.len()
        )))
    }
}

/// What a dissemination scheme adds to [`Scheme`] so deployments,
/// experiment runners, replay, the real-UDP host and the tests are
/// written once for all of them (see DESIGN.md §5.3).
pub trait SchemeFamily: Scheme + Sized + 'static {
    /// The scheme's name on command lines, capsule tags and reports.
    const NAME: &'static str;
    /// Layout parameters preloaded on every node.
    type Params: Copy + fmt::Debug + Send + Sync + 'static;
    /// What the base station precomputes for one image.
    type Artifacts: Send + Sync + 'static;
    /// The TX policy the paper runs the scheme with.
    type Policy: TxPolicy + Default + 'static;

    /// `(version, puzzle_strength)` the deployment keys are derived for.
    fn key_schedule(params: &Self::Params) -> (u16, u32);

    /// Length in bytes of the image `params` describe.
    fn image_len(params: &Self::Params) -> usize;

    /// Validates `params` against `image` and preprocesses it.
    ///
    /// # Errors
    ///
    /// Inconsistent parameters, an empty or mismatched image, or more
    /// than [`MAX_PAGES`] pages.
    fn try_build(
        image: &[u8],
        params: Self::Params,
        keys: &DeploymentKeys,
    ) -> Result<Self::Artifacts, ParamError>;

    /// The base station: everything precomputed and complete.
    fn base(artifacts: &Self::Artifacts, pubkey: PublicKey, puzzle: Puzzle) -> Self;

    /// A receiver that has nothing yet, for `params` some
    /// [`try_build`](Self::try_build) accepted.
    fn receiver(params: Self::Params, pubkey: PublicKey, puzzle: Puzzle) -> Self;

    /// Attaches a run-wide packet-digest memo; observer-level only. The
    /// default is for a family that hashes no packets: nothing to memo.
    fn with_digest_cache(self, _cache: PacketDigestCache) -> Self {
        self
    }

    /// Pre-fills a per-run digest memo with the predetermined packets.
    fn warm_digest_cache(_artifacts: &Self::Artifacts, _cache: &PacketDigestCache) {}

    /// The reassembled image once dissemination completed.
    fn image(&self) -> Option<Vec<u8>>;

    /// Checks the scheme's protocol invariants against the origin
    /// `artifacts` and `image` (DESIGN.md §7).
    ///
    /// # Errors
    ///
    /// The first violated invariant.
    fn verify_invariants(
        &self,
        artifacts: &Self::Artifacts,
        image: &[u8],
    ) -> Result<(), InvariantViolation>;

    /// The constants an attacker must mimic to look like this scheme.
    fn attacker_profile(params: &Self::Params, cluster_key: Option<ClusterKey>) -> AttackerProfile;

    /// The family's fixed adjustment of an engine configuration.
    fn engine_config(cfg: EngineConfig) -> EngineConfig {
        cfg
    }
}

/// A protocol node of family `S` under its default policy.
pub type Node<S> = DisseminationNode<S, <S as SchemeFamily>::Policy>;

/// A prepared deployment: one image, one base-station keypair, one
/// cluster key, preprocessed artifacts. Cheap to clone (the artifacts
/// and the image are shared).
pub struct Deployment<S: SchemeFamily> {
    params: S::Params,
    artifacts: Arc<S::Artifacts>,
    image: Arc<[u8]>,
    pubkey: PublicKey,
    puzzle: Puzzle,
    cluster_key: ClusterKey,
    engine: EngineConfig,
    /// Initial network key for LEAP bootstrap, when enabled.
    leap_seed: Option<Vec<u8>>,
}

impl<S: SchemeFamily> Clone for Deployment<S> {
    fn clone(&self) -> Self {
        Deployment {
            params: self.params,
            artifacts: Arc::clone(&self.artifacts),
            image: Arc::clone(&self.image),
            pubkey: self.pubkey,
            puzzle: self.puzzle,
            cluster_key: self.cluster_key.clone(),
            engine: self.engine,
            leap_seed: self.leap_seed.clone(),
        }
    }
}

impl<S: SchemeFamily> Deployment<S> {
    /// Preprocesses `image` with keys derived from `seed_material`.
    ///
    /// # Panics
    ///
    /// Panics on what [`try_new`](Self::try_new) rejects.
    pub fn new(image: &[u8], params: S::Params, seed_material: &[u8]) -> Self {
        match Self::try_new(image, params, seed_material) {
            Ok(deployment) => deployment,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`new`](Self::new): the entry point when the
    /// configuration comes from user input.
    ///
    /// # Errors
    ///
    /// Whatever [`SchemeFamily::try_build`] rejects.
    pub fn try_new(
        image: &[u8],
        params: S::Params,
        seed_material: &[u8],
    ) -> Result<Self, ParamError> {
        let (version, puzzle_strength) = S::key_schedule(&params);
        let keys = DeploymentKeys::derive(seed_material, version, puzzle_strength);
        Ok(Deployment {
            params,
            artifacts: Arc::new(S::try_build(image, params, &keys)?),
            image: image.into(),
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
    /// denial-of-receipt budget); the family's fixed adjustment
    /// ([`SchemeFamily::engine_config`]) still applies on top.
    pub fn with_engine_config(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The preprocessed artifacts.
    pub fn artifacts(&self) -> &S::Artifacts {
        &self.artifacts
    }

    /// The image being disseminated.
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// The deployment-wide cluster key.
    pub fn cluster_key(&self) -> &ClusterKey {
        &self.cluster_key
    }

    /// The base station's public key, preloaded on every node.
    pub fn pubkey(&self) -> PublicKey {
        self.pubkey
    }

    /// The puzzle verifier preloaded on every node.
    pub fn puzzle(&self) -> Puzzle {
        self.puzzle
    }

    /// Layout parameters.
    pub fn params(&self) -> S::Params {
        self.params
    }

    /// What an attacker of this deployment mimics; `insider` grants it
    /// the cluster key.
    pub fn attacker_profile(&self, insider: bool) -> AttackerProfile {
        S::attacker_profile(&self.params, insider.then(|| self.cluster_key.clone()))
    }

    /// Checks `scheme`'s invariants against this deployment's origin.
    ///
    /// # Errors
    ///
    /// The first violated invariant.
    pub fn verify(&self, scheme: &S) -> Result<(), InvariantViolation> {
        scheme.verify_invariants(&self.artifacts, &self.image)
    }

    /// Builds the protocol node for `id` (`base_id` gets the full image).
    pub fn node(&self, id: NodeId, base_id: NodeId) -> Node<S> {
        self.wrap(self.scheme(id, base_id), S::Policy::default(), id)
    }

    /// Like [`node`](Self::node), but running TX policy `policy` (the
    /// scheduler ablation runs LR-Seluge with the Deluge/Seluge union
    /// rule instead of the greedy round-robin scheduler) and sharing a
    /// per-run packet-digest memo across the run's nodes. The cache is
    /// `Rc`-based and deliberately *not* stored in the deployment (which
    /// is shared across harness threads): create one per sim run and
    /// pass it to every node.
    pub fn node_with_policy<P: TxPolicy>(
        &self,
        id: NodeId,
        base_id: NodeId,
        cache: &PacketDigestCache,
        policy: P,
    ) -> DisseminationNode<S, P> {
        let scheme = self.scheme(id, base_id).with_digest_cache(cache.clone());
        self.wrap(scheme, policy, id)
    }

    /// Pre-fills a per-run packet-digest memo from the artifacts: all
    /// predetermined packet hashes are computed in multi-buffer batches
    /// up front, so receivers hit warm entries from the first packet.
    pub fn warm_digest_cache(&self, cache: &PacketDigestCache) {
        S::warm_digest_cache(&self.artifacts, cache);
    }

    fn scheme(&self, id: NodeId, base_id: NodeId) -> S {
        if id == base_id {
            S::base(&self.artifacts, self.pubkey, self.puzzle)
        } else {
            S::receiver(self.params, self.pubkey, self.puzzle)
        }
    }

    fn wrap<P: TxPolicy>(&self, scheme: S, policy: P, id: NodeId) -> DisseminationNode<S, P> {
        let engine = S::engine_config(self.engine);
        let node = DisseminationNode::new(scheme, policy, self.cluster_key.clone(), engine);
        match &self.leap_seed {
            Some(seed) => node.with_leap(LeapKeyring::bootstrap(seed, id.0)),
            None => node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{DelugeScheme, ImageParams};

    #[test]
    fn layout_bounds_the_page_count_at_the_u16_item_space() {
        assert_eq!(check_layout(352 * MAX_PAGES, 352), Ok(()));
        let err = check_layout(352 * MAX_PAGES + 1, 352).unwrap_err();
        assert!(err.contains("65534 pages"), "{err}");
        // The ISSUE's reproducer: 65 539 pages used to wrap to 3.
        assert!(check_layout(23_069_728, 352).is_err());
        assert_eq!(check_layout(0, 352), Err("empty image".to_string()));
        assert!(check_layout(1, 0).is_err());
    }

    #[test]
    fn deluge_deployment_validates_and_turns_control_authentication_off() {
        let params = ImageParams {
            version: 1,
            image_len: 1000,
            packets_per_page: 4,
            payload_len: 64,
        };
        let image = vec![7u8; 1000];
        let d = Deployment::<DelugeScheme>::new(&image, params, b"seed");
        assert_eq!(d.image(), &image[..]);
        let base = d.node(NodeId(0), NodeId(0));
        assert_eq!(base.scheme().image().as_deref(), Some(&image[..]));
        assert!(!DelugeScheme::engine_config(EngineConfig::default()).authenticate_control);
        // Empty, mismatched and unaddressable images are typed errors.
        let try_new = Deployment::<DelugeScheme>::try_new;
        assert!(try_new(&[], params, b"seed").is_err());
        assert!(try_new(&image[..999], params, b"seed").is_err());
        let huge = ImageParams {
            image_len: 256 * (MAX_PAGES + 1),
            ..params
        };
        let err = try_new(&vec![0u8; huge.image_len], huge, b"seed").err();
        assert!(err.expect("wrapped").to_string().contains("addressable"));
    }
}
