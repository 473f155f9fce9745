//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1), implemented from scratch.
//!
//! Used by the [cluster-key](crate::cluster) mechanism to authenticate
//! advertisement and SNACK control packets among one-hop neighbors.

use crate::hash::Digest;
use crate::sha256::Sha256;

const BLOCK_LEN: usize = 64;

/// Computes `HMAC-SHA-256(key, message)`.
///
/// Keys longer than the 64-byte block are first hashed, per the HMAC
/// specification.
///
/// # Example
///
/// ```
/// use lrs_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"cluster key", b"ADV v=2 pages=5");
/// assert_eq!(tag.0.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    hmac_sha256_parts(key, &[message])
}

/// The key's inner and outer pad blocks (`K' ^ ipad`, `K' ^ opad`).
fn pads(key: &[u8]) -> ([u8; BLOCK_LEN], [u8; BLOCK_LEN]) {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let d = crate::sha256::sha256(key);
        key_block[..32].copy_from_slice(&d.0);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    (key_block.map(|b| b ^ 0x36), key_block.map(|b| b ^ 0x5c))
}

/// HMAC over the concatenation of several message parts.
///
/// This is the reference: it rebuilds both pads and hashes them on
/// every call. Callers that MAC many messages under one key hold an
/// [`HmacKey`] instead.
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> Digest {
    let (ipad, opad) = pads(key);

    let mut inner = Sha256::new();
    inner.update(&ipad);
    for p in parts {
        inner.update(p);
    }
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest.0);
    outer.finalize()
}

/// An HMAC-SHA-256 key with its pad blocks already absorbed.
///
/// The first block of both the inner and the outer hash is the padded
/// key, so the two chaining states after it are a pure function of the
/// key. Computing them once and resuming from them gives exactly the
/// tag [`hmac_sha256_parts`] gives, for two fewer compressions per MAC
/// (half of them for a control packet) and no per-call pad
/// construction.
///
/// # Example
///
/// ```
/// use lrs_crypto::hmac::{hmac_sha256_parts, HmacKey};
/// let key = HmacKey::new(b"cluster key");
/// assert_eq!(
///     key.mac_parts(&[b"ADV ", b"v=2"]),
///     hmac_sha256_parts(b"cluster key", &[b"ADV ", b"v=2"])
/// );
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The midstates are key-equivalent for forging: print neither.
        write!(f, "HmacKey(…)")
    }
}

impl HmacKey {
    /// Absorbs `key`'s pad blocks (keys longer than the block are
    /// hashed first, as in [`hmac_sha256`]).
    pub fn new(key: &[u8]) -> Self {
        let (ipad, opad) = pads(key);
        let after = |pad: &[u8; BLOCK_LEN]| {
            let mut h = Sha256::new();
            h.update(pad);
            h.midstate()
        };
        HmacKey {
            inner: after(&ipad),
            outer: after(&opad),
        }
    }

    /// HMAC over the concatenation of `parts`.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        let inner = Sha256::resume(self.inner, BLOCK_LEN as u64).finalize_parts(parts);
        Sha256::resume(self.outer, BLOCK_LEN as u64).finalize_parts(&[&inner.0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::tests::reference_sha256;

    /// The reference MAC, after checking the midstate path agrees.
    fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
        let tag = super::hmac_sha256(key, message);
        assert_eq!(HmacKey::new(key).mac_parts(&[message]), tag);
        tag
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn parts_match_whole() {
        let tag1 = hmac_sha256(b"k", b"snack page=3 bits=0110");
        let tag2 = hmac_sha256_parts(b"k", &[b"snack ", b"page=3 ", b"bits=0110"]);
        assert_eq!(tag1, tag2);
    }

    #[test]
    fn resumed_midstates_match_the_reference_mac() {
        // The keyed midstate resumes at 64 absorbed bytes, so the inner
        // message's length field must count the pad block the tail
        // never sees. Every message length 0..=300 in 1-6 random parts,
        // against the per-call pads and RFC 2104 over the FIPS
        // reference hash.
        let mut rng = lrs_rng::DetRng::seed_from_u64(0x686d_6163);
        for len in 0..=300usize {
            let mut key = vec![0u8; rng.gen_range(1usize..80)];
            rng.fill_bytes(&mut key);
            let mut msg = vec![0u8; len];
            rng.fill_bytes(&mut msg);
            let mut cuts: Vec<usize> = (0..rng.gen_range(0usize..6))
                .map(|_| rng.gen_range(0..=len))
                .collect();
            cuts.extend([0, len]);
            cuts.sort_unstable();
            let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &msg[w[0]..w[1]]).collect();
            let (ipad, opad) = pads(&key);
            let inner = reference_sha256(&[&ipad, &msg]);
            let want = reference_sha256(&[&opad, &inner.0]);
            assert_eq!(hmac_sha256_parts(&key, &parts), want, "len {len}");
            assert_eq!(HmacKey::new(&key).mac_parts(&parts), want, "len {len}");
        }
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
