//! LR-Seluge layout parameters.

use crate::code::CodeKind;
use lrs_crypto::hash::HASH_IMAGE_LEN;
use lrs_deluge::deployment::{check_layout, check_payload_len, check_puzzle_strength};

pub use lrs_deluge::deployment::ParamError;

/// Static parameters preloaded on every node (paper §IV-B: the same
/// instances of the erasure codes `f` and `f0`, the base station's public
/// key, and the hash function).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LrSelugeParams {
    /// Code image version.
    pub version: u16,
    /// Original image length in bytes.
    pub image_len: usize,
    /// Source blocks per page (`k`).
    pub k: u16,
    /// Encoded blocks per page (`n ≥ k`); the coding rate is `n/k`.
    pub n: u16,
    /// Encoded-block (data packet payload) length in bytes. The same
    /// on-air payload size as Seluge's `slice + hash` packets, so the
    /// byte-cost comparison is fair.
    pub payload_len: usize,
    /// Source blocks of the hash page (`k0`).
    pub k0: u16,
    /// Encoded blocks of the hash page (`n0 = 2^d`, the Merkle leaf
    /// count).
    pub n0: u16,
    /// Puzzle difficulty in leading zero bits.
    pub puzzle_strength: u32,
    /// Which fixed-rate erasure code instantiates `f` and `f0`.
    pub code_kind: CodeKind,
}

impl Default for LrSelugeParams {
    /// The paper's defaults: 20 KB image, `k = 32`, `n = 48` (rate 1.5),
    /// `k0 = 8`, `n0 = 16`, 72-byte packets (Seluge's 64-byte slice plus
    /// its 8-byte chained hash).
    fn default() -> Self {
        LrSelugeParams {
            version: 1,
            image_len: 20 * 1024,
            k: 32,
            n: 48,
            payload_len: 72,
            k0: 8,
            n0: 16,
            puzzle_strength: 12,
            code_kind: CodeKind::ReedSolomon,
        }
    }
}

impl LrSelugeParams {
    /// Image bytes carried per page: `k · payload − n · hash_len`. The
    /// chained hashes ride inside the coded payload, so raising the
    /// coding rate `n/k` shrinks the image capacity per page (the
    /// effect Fig. 6 measures: "higher erasure-coding rates lead to
    /// shorter packet space for code-image slices and thus more packets
    /// for the same code image").
    pub fn page_capacity(&self) -> usize {
        self.k as usize * self.payload_len - self.hash_region_len()
    }

    /// Bytes of chained hash images appended to each page's plaintext.
    pub fn hash_region_len(&self) -> usize {
        self.n as usize * HASH_IMAGE_LEN
    }

    /// Number of code pages `g`.
    pub fn pages(&self) -> u16 {
        (self.image_len.div_ceil(self.page_capacity())).max(1) as u16
    }

    /// Engine item count: signature + hash page + pages.
    pub fn num_items(&self) -> u16 {
        2 + self.pages()
    }

    /// Hash-page (`M0`) length: one hash image per page-1 encoded packet.
    pub fn hash_page_len(&self) -> usize {
        self.n as usize * HASH_IMAGE_LEN
    }

    /// Length of each hash-page source/encoded block.
    pub fn hash_block_len(&self) -> usize {
        self.hash_page_len().div_ceil(self.k0 as usize)
    }

    /// Merkle depth `d` over the `n0` encoded hash-page blocks.
    pub fn merkle_depth(&self) -> usize {
        assert!(self.n0.is_power_of_two(), "n0 must be a power of two");
        self.n0.trailing_zeros() as usize
    }

    /// Hash-page packet payload length (encoded block + Merkle path).
    pub fn hash_page_payload_len(&self) -> usize {
        self.hash_block_len() + 32 * self.merkle_depth()
    }

    /// Reception threshold `k'` of the page code, as the code defines
    /// it ([`CodeKind::k_prime`]): `k` for Reed-Solomon, more for the
    /// XOR and LT codes (§II-C's general `k ≤ k' ≤ n`).
    pub fn k_prime(&self) -> u16 {
        self.code_kind.k_prime(self.k.into(), self.n.into()) as u16
    }

    /// Reception threshold `k0'` of the hash-page code.
    pub fn k0_prime(&self) -> u16 {
        self.code_kind.k_prime(self.k0.into(), self.n0.into()) as u16
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 || self.n < self.k || self.n > 255 {
            return Err(format!(
                "need 1 <= k <= n <= 255, got k={} n={}",
                self.k, self.n
            ));
        }
        if self.k0 == 0 || self.n0 < self.k0 || self.n0 > 255 {
            return Err(format!(
                "need 1 <= k0 <= n0 <= 255, got k0={} n0={}",
                self.k0, self.n0
            ));
        }
        if !self.n0.is_power_of_two() {
            return Err(format!("n0 must be a power of two, got {}", self.n0));
        }
        // The hash-page packets are bounded by n <= 255 and n0 <= 128.
        check_payload_len("payload_len", self.payload_len)?;
        check_puzzle_strength(self.puzzle_strength)?;
        if self.k as usize * self.payload_len <= self.hash_region_len() {
            return Err(format!(
                "page has no image capacity: k*payload = {} <= n*hash = {}",
                self.k as usize * self.payload_len,
                self.hash_region_len()
            ));
        }
        check_layout(self.image_len, self.page_capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_consistent() {
        let p = LrSelugeParams::default();
        p.validate().unwrap();
        // k*B = 2304, hash region = 48*8 = 384 → capacity 1920.
        assert_eq!(p.page_capacity(), 1920);
        // 20480 / 1920 → 11 pages.
        assert_eq!(p.pages(), 11);
        assert_eq!(p.num_items(), 13);
        assert_eq!(p.hash_page_len(), 384);
        assert_eq!(p.hash_block_len(), 48);
        assert_eq!(p.merkle_depth(), 4);
        assert_eq!(p.hash_page_payload_len(), 48 + 128);
    }

    #[test]
    fn higher_rate_means_more_pages() {
        // Fig. 6's structural effect.
        let base = LrSelugeParams::default();
        let high_rate = LrSelugeParams { n: 64, ..base };
        assert!(high_rate.page_capacity() < base.page_capacity());
        assert!(high_rate.pages() >= base.pages());
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let p = LrSelugeParams::default();
        assert!(LrSelugeParams { k: 0, ..p }.validate().is_err());
        assert!(LrSelugeParams { n: 20, ..p }.validate().is_err());
        assert!(LrSelugeParams { n0: 12, ..p }.validate().is_err());
        assert!(LrSelugeParams { k0: 0, ..p }.validate().is_err());
        assert!(LrSelugeParams { image_len: 0, ..p }.validate().is_err());
        // Hash region swallows the whole page.
        assert!(LrSelugeParams {
            payload_len: 8,
            ..p
        }
        .validate()
        .is_err());
    }

    #[test]
    fn payload_longer_than_the_wire_length_field_is_rejected() {
        // 70 000 bytes used to validate, then wrap the u16 length on
        // the wire, so every receiver dropped every data packet.
        let p = LrSelugeParams::default();
        let err = LrSelugeParams {
            payload_len: 70_000,
            ..p
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("payload_len is 70000 bytes"), "{err}");
        let max = lrs_deluge::wire::MAX_PAYLOAD_LEN;
        assert!(LrSelugeParams {
            payload_len: max,
            ..p
        }
        .validate()
        .is_ok());
    }
}
