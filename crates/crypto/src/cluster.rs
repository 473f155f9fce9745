//! Cluster-key authentication for control packets.
//!
//! Seluge (and LR-Seluge, which inherits the mechanism, paper §IV-E)
//! authenticates advertisement and SNACK packets with a *cluster key*
//! shared among one-hop neighbors, so an outside adversary cannot forge
//! control traffic to trigger spurious transmissions or suppress real
//! ones. We model the end state of cluster-key establishment — every
//! legitimate node in a neighborhood holds the key; the adversary does
//! not — and provide MAC generation/verification with a truncated tag as
//! carried on the air.

use crate::hmac::{hmac_sha256_parts, HmacKey};

/// Truncated MAC tag length in bytes as carried in control packets.
pub const MAC_LEN: usize = 4;

/// A MAC tag over a control packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MacTag(pub [u8; MAC_LEN]);

/// A shared cluster key.
///
/// Besides the key it holds the key's [`HmacKey`] midstates, computed
/// once at [`derive`](Self::derive)/[`from_raw`](Self::from_raw): a
/// cache of a pure function of the key, so tags are bit-identical to
/// `hmac_sha256_parts(key, parts)` while each one costs two
/// compressions instead of four. Keys are always 32 bytes, so HMAC's
/// hash-the-long-key case never arises here.
///
/// # Example
///
/// ```
/// use lrs_crypto::cluster::ClusterKey;
/// let key = ClusterKey::derive(b"deployment secret", 7);
/// let tag = key.tag(&[b"ADV", &[2, 0, 5]]);
/// assert!(key.check(&[b"ADV", &[2, 0, 5]], &tag));
/// assert!(!key.check(&[b"ADV", &[2, 0, 6]], &tag));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct ClusterKey {
    key: [u8; 32],
    mac: HmacKey,
}

impl std::fmt::Debug for ClusterKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ClusterKey(…)")
    }
}

impl ClusterKey {
    /// Derives the cluster key for `cluster_id` from a deployment master
    /// secret (stands in for the key-establishment protocol's output).
    pub fn derive(master: &[u8], cluster_id: u32) -> Self {
        let d = hmac_sha256_parts(master, &[b"cluster", &cluster_id.to_be_bytes()]);
        Self::from_raw(d.0)
    }

    /// Wraps already-derived key material (used by the LEAP pairwise
    /// keys, which share this MAC interface).
    pub fn from_raw(key: [u8; 32]) -> Self {
        ClusterKey {
            key,
            mac: HmacKey::new(&key),
        }
    }

    /// Computes the truncated MAC tag over the packet `parts`.
    pub fn tag(&self, parts: &[&[u8]]) -> MacTag {
        let d = self.mac.mac_parts(parts);
        debug_assert_eq!(d, hmac_sha256_parts(&self.key, parts));
        let mut out = [0u8; MAC_LEN];
        out.copy_from_slice(&d.0[..MAC_LEN]);
        MacTag(out)
    }

    /// Verifies a tag over the packet `parts`.
    pub fn check(&self, parts: &[&[u8]], tag: &MacTag) -> bool {
        self.tag(parts) == *tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        let k = ClusterKey::derive(b"master", 1);
        let tag = k.tag(&[b"SNACK", &[3], &[0b0110]]);
        assert!(k.check(&[b"SNACK", &[3], &[0b0110]], &tag));
    }

    #[test]
    fn different_cluster_keys_differ() {
        let k1 = ClusterKey::derive(b"master", 1);
        let k2 = ClusterKey::derive(b"master", 2);
        let tag = k1.tag(&[b"ADV"]);
        assert!(!k2.check(&[b"ADV"], &tag));
    }

    #[test]
    fn tampered_content_rejected() {
        let k = ClusterKey::derive(b"master", 1);
        let tag = k.tag(&[b"ADV", &[5]]);
        assert!(!k.check(&[b"ADV", &[6]], &tag));
    }

    #[test]
    fn attacker_without_key_cannot_forge() {
        let k = ClusterKey::derive(b"master", 1);
        let forged = MacTag([0u8; MAC_LEN]);
        assert!(!k.check(&[b"ADV", &[1]], &forged));
    }
}
