//! LR-Seluge as a [`SchemeFamily`], and its deployment facade: key
//! material, preprocessing and node construction for one image are the
//! generic [`lrs_deluge::deployment::Deployment`].

use crate::params::{LrSelugeParams, ParamError};
use crate::preprocess::LrArtifacts;
use crate::scheduler::GreedyRoundRobinPolicy;
use crate::scheme::{LrScheme, PacketDigestCache};
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::puzzle::Puzzle;
use lrs_crypto::schnorr::PublicKey;
use lrs_deluge::attack::AttackerProfile;
use lrs_deluge::bootstrap::{DeploymentKeys, Watermark, SIGNATURE_BODY_LEN};
use lrs_deluge::deployment::SchemeFamily;
use lrs_host::violation::InvariantViolation;

/// A prepared LR-Seluge deployment.
pub type Deployment = lrs_deluge::deployment::Deployment<LrScheme>;

/// An LR-Seluge protocol node, ready for the simulator.
pub type LrNode = lrs_deluge::deployment::Node<LrScheme>;

impl SchemeFamily for LrScheme {
    const NAME: &'static str = "lr-seluge";
    type Params = LrSelugeParams;
    type Artifacts = LrArtifacts;
    type Policy = GreedyRoundRobinPolicy;

    fn key_schedule(params: &LrSelugeParams) -> (u16, u32) {
        (params.version, params.puzzle_strength)
    }

    fn image_len(params: &LrSelugeParams) -> usize {
        params.image_len
    }

    fn try_build(
        image: &[u8],
        params: LrSelugeParams,
        keys: &DeploymentKeys,
    ) -> Result<LrArtifacts, ParamError> {
        LrArtifacts::try_build(image, params, &keys.keypair, &keys.chain)
    }

    fn base(artifacts: &LrArtifacts, pubkey: PublicKey, puzzle: Puzzle) -> Self {
        LrScheme::base(artifacts, pubkey, puzzle)
    }

    fn receiver(params: LrSelugeParams, pubkey: PublicKey, puzzle: Puzzle) -> Self {
        LrScheme::receiver(params, pubkey, puzzle)
    }

    fn with_digest_cache(self, cache: PacketDigestCache) -> Self {
        LrScheme::with_digest_cache(self, cache)
    }

    fn warm_digest_cache(artifacts: &LrArtifacts, cache: &PacketDigestCache) {
        artifacts.warm_digest_cache(cache);
    }

    fn image(&self) -> Option<Vec<u8>> {
        LrScheme::image(self)
    }

    /// [`Bootstrap::verify_invariants`]: only authenticated packets
    /// buffered, buffer occupancy within the paper's `n` / `n0` bounds,
    /// every decoded page input past `mark` identical to preprocessing,
    /// and, once, a complete node's image byte-identical to the origin.
    ///
    /// [`Bootstrap::verify_invariants`]: lrs_deluge::bootstrap::Bootstrap::verify_invariants
    fn check_invariants(
        &self,
        artifacts: &LrArtifacts,
        image: &[u8],
        mark: &mut Watermark,
    ) -> Result<(), InvariantViolation> {
        let (origin, packets) = (&artifacts.origin, &artifacts.page_packets);
        self.boot.verify_invariants(origin, packets, image, mark)
    }

    fn attacker_profile(p: &LrSelugeParams, cluster_key: Option<ClusterKey>) -> AttackerProfile {
        AttackerProfile {
            payload_len: p.payload_len,
            index_space: p.n,
            sig_body_len: SIGNATURE_BODY_LEN,
            n_bits: p.n as usize,
            version: p.version,
            cluster_key,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_host::node::{NodeId, Protocol as _};

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
        assert!(err.to_string().contains("invalid configuration"));
        // Image/params length mismatch.
        assert!(Deployment::try_new(&[0u8; 100], good, b"seed").is_err());
        // 65 539 pages of this geometry's 144 bytes: the u16 page count
        // used to wrap to 3 and a 432-byte image was signed instead.
        let huge = LrSelugeParams {
            image_len: 144 * 65_539,
            ..good
        };
        assert_eq!(huge.pages(), 3);
        assert!(Deployment::try_new(&vec![0u8; huge.image_len], huge, b"seed").is_err());
        // The good configuration still builds.
        assert!(Deployment::try_new(&[0u8; 512], good, b"seed").is_ok());
    }
}
