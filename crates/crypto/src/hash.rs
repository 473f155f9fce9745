//! Digest and hash-image types.
//!
//! Seluge and LR-Seluge do not embed full digests into packets: to keep
//! packets small they carry truncated *hash images* (8 bytes in the
//! original Seluge packet layout, which targets 64-bit security against
//! second preimages found before the next page is requested). The
//! [`HashImage`] newtype makes the truncation explicit and keeps it from
//! being confused with a full [`Digest`].

use crate::sha256::sha256_concat;
use std::fmt;

/// A full 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Truncates the digest to a packet-sized hash image.
    pub fn truncate(&self) -> HashImage {
        let mut out = [0u8; HASH_IMAGE_LEN];
        out.copy_from_slice(&self.0[..HASH_IMAGE_LEN]);
        HashImage(out)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

/// Length in bytes of the truncated hash images embedded in packets.
///
/// Matches the 8-byte truncated hashes of Seluge's packet layout.
pub const HASH_IMAGE_LEN: usize = 8;

/// A truncated hash image as carried inside data packets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct HashImage(pub [u8; HASH_IMAGE_LEN]);

impl HashImage {
    /// Parses a hash image from the first [`HASH_IMAGE_LEN`] bytes of `b`.
    ///
    /// Returns `None` if `b` is too short.
    pub fn from_slice(b: &[u8]) -> Option<Self> {
        if b.len() < HASH_IMAGE_LEN {
            return None;
        }
        let mut out = [0u8; HASH_IMAGE_LEN];
        out.copy_from_slice(&b[..HASH_IMAGE_LEN]);
        Some(HashImage(out))
    }

    /// The raw bytes of the hash image.
    pub fn as_bytes(&self) -> &[u8; HASH_IMAGE_LEN] {
        &self.0
    }
}

impl fmt::Debug for HashImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HashImage(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl AsRef<[u8]> for HashImage {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Computes the truncated hash image of the concatenation of `parts`.
///
/// This is the `h_{i,j} = H(P_{i,j})` operation of the paper applied to a
/// packet serialized as several fields.
///
/// # Example
///
/// ```
/// use lrs_crypto::hash_image;
/// let h = hash_image(&[&1u16.to_be_bytes(), b"payload"]);
/// assert_eq!(h.as_bytes().len(), lrs_crypto::HASH_IMAGE_LEN);
/// ```
pub fn hash_image(parts: &[&[u8]]) -> HashImage {
    sha256_concat(parts).truncate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    #[test]
    fn truncation_takes_prefix() {
        let d = sha256(b"abc");
        let h = d.truncate();
        assert_eq!(&d.0[..HASH_IMAGE_LEN], h.as_bytes());
    }

    #[test]
    fn from_slice_roundtrip() {
        let d = sha256(b"x");
        let h = d.truncate();
        assert_eq!(HashImage::from_slice(&d.0), Some(h));
        assert_eq!(HashImage::from_slice(&d.0[..4]), None);
    }

    #[test]
    fn hash_image_matches_concat() {
        let h1 = hash_image(&[b"ab", b"cd"]);
        let h2 = hash_image(&[b"abcd"]);
        assert_eq!(h1, h2);
        let h3 = hash_image(&[b"abce"]);
        assert_ne!(h1, h3);
    }

    #[test]
    fn digest_display_and_debug() {
        let d = sha256(b"abc");
        assert_eq!(format!("{d}").len(), 64);
        assert!(format!("{d:?}").starts_with("Digest("));
        assert!(!format!("{:?}", d.truncate()).is_empty());
    }
}
