//! Base-station preprocessing for Seluge.
//!
//! Starting from the last page and working backwards, every packet of
//! page `i` gets the hash image of the corresponding packet of page
//! `i+1` appended; the hashes of page 1's packets form the hash page
//! `M0`, protected by a Merkle tree whose root is signed.

use lrs_crypto::hash::{Digest, HASH_IMAGE_LEN};
use lrs_crypto::puzzle::PuzzleKeyChain;
use lrs_crypto::schnorr::Keypair;
use lrs_crypto::sha256::sha256_concat;
use lrs_deluge::bootstrap::{
    frame_hash_page, packet_hash_batch, seal_signature_body, warm_digest_cache, Origin,
    PacketDigestCache, PageShape, PageStore,
};
use lrs_deluge::deployment::{
    check_image_len, check_layout, check_payload_len, check_puzzle_strength, ParamError,
};

/// Static Seluge layout parameters, preloaded on every node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelugeParams {
    /// Code image version.
    pub version: u16,
    /// Original image length in bytes.
    pub image_len: usize,
    /// Packets per page (`k`).
    pub packets_per_page: u16,
    /// Image bytes per packet (the slice; the on-air payload additionally
    /// carries a [`HASH_IMAGE_LEN`]-byte chained hash).
    pub slice_len: usize,
    /// Number of hash-page chunks (a power of two; the Merkle leaf count).
    pub hash_page_chunks: u16,
    /// Puzzle difficulty in leading zero bits.
    pub puzzle_strength: u32,
}

impl Default for SelugeParams {
    fn default() -> Self {
        SelugeParams {
            version: 1,
            image_len: 20 * 1024,
            packets_per_page: 32,
            slice_len: 64,
            hash_page_chunks: 8,
            puzzle_strength: 12,
        }
    }
}

impl SelugeParams {
    /// Number of code pages `g`.
    pub fn pages(&self) -> u16 {
        (self.image_len.div_ceil(self.page_capacity())).max(1) as u16
    }

    /// Image bytes per page.
    pub fn page_capacity(&self) -> usize {
        self.packets_per_page as usize * self.slice_len
    }

    /// Engine item count: signature + hash page + pages.
    pub fn num_items(&self) -> u16 {
        2 + self.pages()
    }

    /// On-air data packet payload length (slice + chained hash).
    pub fn data_payload_len(&self) -> usize {
        self.slice_len + HASH_IMAGE_LEN
    }

    /// Hash-page length in bytes (one hash image per page-1 packet).
    pub fn hash_page_len(&self) -> usize {
        self.packets_per_page as usize * HASH_IMAGE_LEN
    }

    /// Hash-page chunk length in bytes.
    pub fn chunk_len(&self) -> usize {
        self.hash_page_len()
            .div_ceil(self.hash_page_chunks as usize)
    }

    /// Merkle tree depth over the hash-page chunks.
    pub fn merkle_depth(&self) -> usize {
        assert!(
            self.hash_page_chunks.is_power_of_two(),
            "hash_page_chunks must be a power of two"
        );
        self.hash_page_chunks.trailing_zeros() as usize
    }

    /// How a node stores a page: its packets as received, each the
    /// slice in front of the chained hash image.
    pub fn page_shape(&self) -> PageShape {
        let len = self.data_payload_len();
        PageShape::new(self.packets_per_page.into(), len, self.slice_len)
    }

    /// Hash-page packet payload length (chunk + Merkle path).
    pub fn hash_page_payload_len(&self) -> usize {
        self.chunk_len() + 32 * self.merkle_depth()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.hash_page_chunks.is_power_of_two() {
            return Err(format!(
                "hash_page_chunks must be a power of two, got {}",
                self.hash_page_chunks
            ));
        }
        check_payload_len("a data packet payload", self.data_payload_len())?;
        check_payload_len("a hash-page packet payload", self.hash_page_payload_len())?;
        check_puzzle_strength(self.puzzle_strength)?;
        check_layout(self.image_len, self.page_capacity())
    }
}

/// Everything the base station precomputes for one image.
#[derive(Clone, Debug)]
pub struct SelugeArtifacts {
    params: SelugeParams,
    /// The signature, the hash page (`M0`: page 0's packet hashes,
    /// zero-padded to whole chunks, framed as chunk ‖ Merkle path), and
    /// the pages: stride `j` of page `i` is the on-air payload of packet
    /// `j` of page `i` (0-based pages; wire item = `i + 2`), which is
    /// also how a node stores it.
    pub(crate) origin: Origin,
}

impl SelugeArtifacts {
    /// Runs the full preprocessing pipeline.
    ///
    /// # Panics
    ///
    /// Panics on what [`try_build`](Self::try_build) rejects.
    pub fn build(
        image: &[u8],
        params: SelugeParams,
        keypair: &Keypair,
        puzzle_chain: &PuzzleKeyChain,
    ) -> Self {
        match Self::try_build(image, params, keypair, puzzle_chain) {
            Ok(artifacts) => artifacts,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`build`](Self::build): rejects inconsistent parameters
    /// (see [`SelugeParams::validate`]) or a mismatched image with a
    /// [`ParamError`] instead of panicking.
    pub fn try_build(
        image: &[u8],
        params: SelugeParams,
        keypair: &Keypair,
        puzzle_chain: &PuzzleKeyChain,
    ) -> Result<Self, ParamError> {
        params.validate().map_err(ParamError)?;
        check_image_len(image, params.image_len)?;
        let g = params.pages() as usize;
        let mut padded = image.to_vec();
        padded.resize(g * params.page_capacity(), 0);

        // Build packets from the last page backwards; packet j of page i
        // carries the hash of packet j of page i+1 (zeroes for page g-1).
        let (shape, slice_len) = (params.page_shape(), params.slice_len);
        let mut pages = vec![0u8; g * shape.page_len];
        let mut next_hashes = vec![0u8; params.hash_page_len()];
        for i in (0..g).rev() {
            let item = (i + 2) as u16;
            let page = &mut pages[i * shape.page_len..(i + 1) * shape.page_len];
            let slices = padded[i * params.page_capacity()..].chunks(slice_len);
            let hashes = next_hashes.chunks(HASH_IMAGE_LEN);
            for ((packet, slice), hash) in page.chunks_mut(shape.stride).zip(slices).zip(hashes) {
                packet[..slice_len].copy_from_slice(slice);
                packet[slice_len..].copy_from_slice(hash);
            }
            next_hashes = packet_hash_batch(params.version, item, page.chunks(shape.stride))
                .iter()
                .flat_map(|h| h.0)
                .collect();
        }
        let pages = PageStore::from_bytes(shape, pages);

        // next_hashes now holds the hashes of page 0's packets (wire item
        // 2): they form the hash page M0.
        let mut hash_page = next_hashes;
        hash_page.resize(params.chunk_len() * params.hash_page_chunks as usize, 0);
        let chunks: Vec<&[u8]> = hash_page.chunks(params.chunk_len()).collect();
        let (root, hash_page_packets) = frame_hash_page(&chunks);
        let signature_body = seal_signature_body(
            &root,
            &Self::signed_message(&params, &root),
            keypair,
            puzzle_chain,
            params.version,
            params.puzzle_strength,
        );

        Ok(SelugeArtifacts {
            params,
            origin: Origin {
                signature_body,
                root,
                hash_page: hash_page_packets,
                m0: hash_page,
                pages,
            },
        })
    }

    /// The message covered by the signature: binds the root to the image
    /// metadata so a root cannot be replayed under different parameters.
    pub fn signed_message(params: &SelugeParams, root: &Digest) -> Digest {
        sha256_concat(&[
            b"seluge-root",
            &params.version.to_be_bytes(),
            &(params.image_len as u64).to_be_bytes(),
            &params.packets_per_page.to_be_bytes(),
            &(params.slice_len as u32).to_be_bytes(),
            &params.hash_page_chunks.to_be_bytes(),
            &root.0,
        ])
    }

    /// Layout parameters.
    pub fn params(&self) -> SelugeParams {
        self.params
    }

    /// The Merkle root over the hash page.
    pub fn root(&self) -> Digest {
        self.origin.root
    }

    /// The signature packet body.
    pub fn signature_body(&self) -> &[u8] {
        &self.origin.signature_body
    }

    /// Payload of hash-page packet `j`.
    pub fn hash_page_packet(&self, j: u16) -> &[u8] {
        &self.origin.hash_page[j as usize]
    }

    /// Payload of packet `j` of 0-based page `i`.
    pub fn page_packet(&self, i: u16, j: u16) -> &[u8] {
        let packet = self.origin.pages.stride(usize::from(i), usize::from(j));
        packet.expect("packet in range")
    }

    /// Pre-fills a per-run packet-digest memo with this image's page
    /// packets (see [`lrs_deluge::bootstrap::warm_digest_cache`]).
    pub fn warm_digest_cache(&self, cache: &PacketDigestCache) {
        warm_digest_cache(cache, self.params.version, &self.origin.pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_deluge::bootstrap::packet_hash;

    fn small_params() -> SelugeParams {
        SelugeParams {
            version: 1,
            image_len: 600,
            packets_per_page: 4,
            slice_len: 32,
            hash_page_chunks: 4,
            puzzle_strength: 4,
        }
    }

    fn build() -> SelugeArtifacts {
        let params = small_params();
        let image: Vec<u8> = (0..params.image_len as u32)
            .map(|i| (i % 253) as u8)
            .collect();
        let kp = Keypair::from_seed(b"bs");
        let chain = PuzzleKeyChain::generate(b"puzzles", 4);
        SelugeArtifacts::build(&image, params, &kp, &chain)
    }

    #[test]
    fn try_build_rejects_what_lr_seluge_rejects() {
        let kp = Keypair::from_seed(b"bs");
        let chain = PuzzleKeyChain::generate(b"puzzles", 4);
        let build = |image: &[u8], p| SelugeArtifacts::try_build(image, p, &kp, &chain).map(|_| ());
        let p = small_params();
        let image = vec![0u8; p.image_len];
        assert_eq!(build(&image, p), Ok(()));
        let empty = SelugeParams { image_len: 0, ..p };
        assert!(build(&[], empty).is_err(), "empty image");
        assert!(build(&image[1..], p).is_err(), "mismatched length");
        let chunks = SelugeParams {
            hash_page_chunks: 6,
            ..p
        };
        assert!(build(&image, chunks).is_err(), "chunk count not 2^d");
        // 65 539 pages of 128 bytes: the u16 page count used to wrap to 3.
        let huge = SelugeParams {
            image_len: 128 * 65_539,
            ..p
        };
        assert_eq!(huge.pages(), 3);
        assert!(build(&vec![0u8; huge.image_len], huge).is_err(), "wrapped");
    }

    #[test]
    fn try_build_bounds_the_puzzle_strength() {
        let kp = Keypair::from_seed(b"bs");
        let chain = PuzzleKeyChain::generate(b"puzzles", 4);
        let p = small_params();
        let image = vec![0u8; p.image_len];
        // 32 bits is accepted; checked by validation alone, since
        // solving it would take ~4 billion hashes.
        let at_bound = SelugeParams {
            puzzle_strength: 32,
            ..p
        };
        assert_eq!(at_bound.validate(), Ok(()));
        for strength in [33, u32::MAX] {
            let over = SelugeParams {
                puzzle_strength: strength,
                ..p
            };
            let err = SelugeArtifacts::try_build(&image, over, &kp, &chain)
                .map(|_| ())
                .unwrap_err();
            assert!(err.0.contains("puzzle_strength"), "{err}");
        }
    }

    #[test]
    fn payloads_longer_than_the_wire_length_field_are_rejected() {
        // Both used to validate, then wrap their u16 length on the wire,
        // so every receiver dropped every such packet.
        let p = small_params();
        let slice = SelugeParams {
            slice_len: 70_000,
            ..p
        };
        let err = slice.validate().unwrap_err();
        assert!(err.contains("data packet payload is 70008 bytes"), "{err}");
        // 16 384 hash images of page 1 in one chunk: a 131 072-byte
        // hash-page packet.
        let hash_page = SelugeParams {
            packets_per_page: 16_384,
            hash_page_chunks: 1,
            ..p
        };
        let err = hash_page.validate().unwrap_err();
        assert!(
            err.contains("hash-page packet payload is 131072 bytes"),
            "{err}"
        );
        let fits = SelugeParams {
            slice_len: lrs_deluge::wire::MAX_PAYLOAD_LEN - HASH_IMAGE_LEN,
            ..p
        };
        assert_eq!(fits.validate(), Ok(()));
    }

    #[test]
    fn page_count_and_sizes() {
        let p = small_params();
        // 600 / (4*32=128) = 5 pages.
        assert_eq!(p.pages(), 5);
        assert_eq!(p.num_items(), 7);
        assert_eq!(p.data_payload_len(), 32 + HASH_IMAGE_LEN);
        assert_eq!(p.hash_page_len(), 4 * HASH_IMAGE_LEN);
        assert_eq!(p.chunk_len(), 8);
        assert_eq!(p.merkle_depth(), 2);
    }

    #[test]
    fn chaining_is_consistent() {
        let art = build();
        let p = art.params();
        // The hash embedded in packet j of page i equals the hash of
        // packet j of page i+1.
        for i in 0..p.pages() - 1 {
            for j in 0..p.packets_per_page {
                let packet = art.page_packet(i, j);
                let embedded = &packet[p.slice_len..];
                let next = art.page_packet(i + 1, j);
                let expected = packet_hash(p.version, (i + 1) + 2, j, next);
                assert_eq!(embedded, expected.0, "page {i} packet {j}");
            }
        }
        // Last page chains to zeros.
        let last = art.page_packet(p.pages() - 1, 0);
        assert!(last[p.slice_len..].iter().all(|&b| b == 0));
    }

    #[test]
    fn hash_page_contains_page0_hashes() {
        let art = build();
        let p = art.params();
        // Reconstruct M0 from the chunk parts of the hash-page packets.
        let mut m0 = Vec::new();
        for j in 0..p.hash_page_chunks {
            m0.extend_from_slice(&art.hash_page_packet(j)[..p.chunk_len()]);
        }
        for j in 0..p.packets_per_page {
            let expected = packet_hash(p.version, 2, j, art.page_packet(0, j));
            let off = j as usize * HASH_IMAGE_LEN;
            assert_eq!(&m0[off..off + HASH_IMAGE_LEN], expected.0);
        }
    }
}
