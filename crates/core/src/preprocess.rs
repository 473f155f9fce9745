//! Base-station code-image preprocessing (paper §IV-C, Fig. 1).
//!
//! Pages are processed in reverse order. For page `i` the base station
//! takes the page's plaintext, appends the hash images
//! `h_{i+1,1} ‖ … ‖ h_{i+1,n}` of the *next* page's encoded packets
//! (zeros for the last page), splits the result into `k` blocks and
//! applies the fixed-rate code `f` to obtain the `n` encoded packets.
//! The hashes of page 1's packets form the hash page `M0`, which is
//! encoded with `f0` into `n0 = 2^d` blocks; a depth-`d` Merkle tree over
//! those blocks supplies per-packet authenticators and its root is
//! signed (with a message-specific puzzle as weak authenticator).

use crate::code::PageCode;
use crate::params::{LrSelugeParams, ParamError};
use lrs_crypto::hash::Digest;
use lrs_crypto::puzzle::PuzzleKeyChain;
use lrs_crypto::schnorr::Keypair;
use lrs_crypto::sha256::sha256_concat;
use lrs_deluge::bootstrap::{
    frame_hash_page, packet_hash_batch, seal_signature_body, warm_digest_cache, Origin,
    PacketDigestCache, PageShape, PageStore,
};
use lrs_deluge::deployment::check_image_len;
use lrs_erasure::ErasureCode;
use std::sync::Arc;

/// Everything the base station precomputes for one image.
#[derive(Clone, Debug)]
pub struct LrArtifacts {
    params: LrSelugeParams,
    /// Stride `j` of page `i` = encoded block `e_{i,j}` (wire item `i+2`),
    /// shared with every base station built from these artifacts, which
    /// serves them as they are. `Arc`: a campaign shares the artifacts
    /// across its worker threads.
    pub(crate) page_packets: Arc<PageStore>,
    /// The signature, the hash page (`M0`: page 0's packet hashes,
    /// zero-padded to `k0` blocks, framed as encoded block ‖ Merkle
    /// path), and the decoded page inputs (plaintext ‖ hash region),
    /// `k·payload` bytes each — what intermediate nodes hold after
    /// decoding.
    pub(crate) origin: Origin,
}

/// How an LR-Seluge node stores a decoded page: its whole input as one
/// stride, the plaintext in front of the next page's hash images.
pub(crate) fn page_shape(params: &LrSelugeParams) -> PageShape {
    let input_len = params.k as usize * params.payload_len;
    PageShape::new(1, input_len, params.page_capacity())
}

impl LrArtifacts {
    /// Runs the full preprocessing pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `image.len() != params.image_len` or the parameters are
    /// inconsistent (see [`LrSelugeParams::validate`]); use
    /// [`try_build`](Self::try_build) to get a typed error instead.
    pub fn build(
        image: &[u8],
        params: LrSelugeParams,
        keypair: &Keypair,
        puzzle_chain: &PuzzleKeyChain,
    ) -> Self {
        match Self::try_build(image, params, keypair, puzzle_chain) {
            Ok(artifacts) => artifacts,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`build`](Self::build): rejects inconsistent parameters
    /// or a mismatched image with a [`ParamError`] instead of panicking
    /// — the entry point for user-supplied configuration.
    pub fn try_build(
        image: &[u8],
        params: LrSelugeParams,
        keypair: &Keypair,
        puzzle_chain: &PuzzleKeyChain,
    ) -> Result<Self, ParamError> {
        params.validate().map_err(ParamError)?;
        check_image_len(image, params.image_len)?;
        let g = params.pages() as usize;
        let code = PageCode::new(params.code_kind, params.k as usize, params.n as usize)
            .expect("params validated");
        let mut padded = image.to_vec();
        padded.resize(g * params.page_capacity(), 0);

        let (cap, len) = (params.page_capacity(), params.payload_len);
        let (input_len, packets_len) = (params.k as usize * len, params.n as usize * len);
        let mut inputs = vec![0u8; g * input_len];
        let mut packets = vec![0u8; g * packets_len];
        let mut encoded = Vec::with_capacity(packets_len);
        let mut next_hashes = vec![0u8; params.hash_region_len()];
        for i in (0..g).rev() {
            let item = (i + 2) as u16;
            let input = &mut inputs[i * input_len..(i + 1) * input_len];
            input[..cap].copy_from_slice(&padded[i * cap..(i + 1) * cap]);
            input[cap..].copy_from_slice(&next_hashes);
            code.encode_into(input, len, &mut encoded)
                .expect("consistent shapes");
            next_hashes = packet_hash_batch(params.version, item, encoded.chunks(len))
                .iter()
                .flat_map(|h| h.0)
                .collect();
            packets[i * packets_len..(i + 1) * packets_len].copy_from_slice(&encoded);
        }
        let packet_shape = PageShape::new(params.n.into(), len, len);
        let page_packets = Arc::new(PageStore::from_bytes(packet_shape, packets));
        let pages = PageStore::from_bytes(page_shape(&params), inputs);

        // Hash page M0 = hashes of page 0's (wire item 2's) packets.
        let code0 = PageCode::new(params.code_kind, params.k0 as usize, params.n0 as usize)
            .expect("params validated");
        let mut m0 = next_hashes;
        let block0 = params.hash_block_len();
        m0.resize(block0 * params.k0 as usize, 0);
        code0
            .encode_into(&m0, block0, &mut encoded)
            .expect("consistent shapes");
        let (root, hash_page_packets) =
            frame_hash_page(&encoded.chunks(block0).collect::<Vec<_>>());
        let signature_body = seal_signature_body(
            &root,
            &Self::signed_message(&params, &root),
            keypair,
            puzzle_chain,
            params.version,
            params.puzzle_strength,
        );

        Ok(LrArtifacts {
            params,
            page_packets,
            origin: Origin {
                signature_body,
                root,
                hash_page: hash_page_packets,
                m0,
                pages,
            },
        })
    }

    /// The message covered by the signature (binds root to parameters).
    pub fn signed_message(params: &LrSelugeParams, root: &Digest) -> Digest {
        sha256_concat(&[
            b"lr-seluge-root",
            &params.version.to_be_bytes(),
            &(params.image_len as u64).to_be_bytes(),
            &params.k.to_be_bytes(),
            &params.n.to_be_bytes(),
            &params.k0.to_be_bytes(),
            &params.n0.to_be_bytes(),
            &(params.payload_len as u32).to_be_bytes(),
            &[match params.code_kind {
                crate::code::CodeKind::ReedSolomon => 0u8,
                crate::code::CodeKind::SparseXor => 1u8,
                crate::code::CodeKind::Lt => 2u8,
            }],
            &root.0,
        ])
    }

    /// Layout parameters.
    pub fn params(&self) -> LrSelugeParams {
        self.params
    }

    /// Merkle root over the encoded hash page.
    pub fn root(&self) -> Digest {
        self.origin.root
    }

    /// The signature packet body.
    pub fn signature_body(&self) -> &[u8] {
        &self.origin.signature_body
    }

    /// Encoded hash-page packet `j` (block ‖ Merkle path).
    pub fn hash_page_packet(&self, j: u16) -> &[u8] {
        &self.origin.hash_page[j as usize]
    }

    /// Encoded block `e_{i,j}` of 0-based page `i`.
    pub fn page_packet(&self, i: u16, j: u16) -> &[u8] {
        let packet = self.page_packets.stride(usize::from(i), usize::from(j));
        packet.expect("packet in range")
    }

    /// Decoded input (plaintext ‖ hash region) of 0-based page `i`.
    pub fn page_input(&self, i: u16) -> &[u8] {
        self.origin
            .pages
            .page(usize::from(i))
            .expect("page in range")
    }

    /// Pre-fills a per-run packet-digest memo with this image's page
    /// packets (see [`lrs_deluge::bootstrap::warm_digest_cache`]).
    pub fn warm_digest_cache(&self, cache: &PacketDigestCache) {
        warm_digest_cache(cache, self.params.version, &self.page_packets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet_hash;
    use lrs_crypto::hash::HASH_IMAGE_LEN;
    use lrs_erasure::ReedSolomon;

    fn small_params() -> LrSelugeParams {
        LrSelugeParams {
            version: 1,
            image_len: 700,
            k: 4,
            n: 6,
            payload_len: 48,
            k0: 2,
            n0: 4,
            puzzle_strength: 4,
            ..LrSelugeParams::default()
        }
    }

    fn build() -> (LrArtifacts, Vec<u8>) {
        let params = small_params();
        let image: Vec<u8> = (0..params.image_len as u32)
            .map(|i| (i % 247) as u8)
            .collect();
        let kp = Keypair::from_seed(b"bs");
        let chain = PuzzleKeyChain::generate(b"puzzles", 4);
        (LrArtifacts::build(&image, params, &kp, &chain), image)
    }

    #[test]
    fn try_build_bounds_the_puzzle_strength() {
        let kp = Keypair::from_seed(b"bs");
        let chain = PuzzleKeyChain::generate(b"puzzles", 4);
        let p = small_params();
        let image = vec![0u8; p.image_len];
        // 32 bits is accepted; checked by validation alone, since
        // solving it would take ~4 billion hashes.
        let at_bound = LrSelugeParams {
            puzzle_strength: 32,
            ..p
        };
        assert_eq!(at_bound.validate(), Ok(()));
        for strength in [33, u32::MAX] {
            let over = LrSelugeParams {
                puzzle_strength: strength,
                ..p
            };
            let err = LrArtifacts::try_build(&image, over, &kp, &chain)
                .map(|_| ())
                .unwrap_err();
            assert!(err.0.contains("puzzle_strength"), "{err}");
        }
    }

    #[test]
    fn geometry() {
        let p = small_params();
        // capacity = 4*48 - 6*8 = 144; 700/144 → 5 pages.
        assert_eq!(p.page_capacity(), 144);
        assert_eq!(p.pages(), 5);
        assert_eq!(p.hash_page_len(), 48);
        assert_eq!(p.hash_block_len(), 24);
        assert_eq!(p.merkle_depth(), 2);
    }

    #[test]
    fn chained_hashes_match_next_page_packets() {
        let (art, _) = build();
        let p = art.params();
        for i in 0..p.pages() - 1 {
            let chained = &art.page_input(i)[p.page_capacity()..];
            for j in 0..p.n {
                let expected = packet_hash(p.version, (i + 1) + 2, j, art.page_packet(i + 1, j));
                let off = j as usize * HASH_IMAGE_LEN;
                assert_eq!(
                    &chained[off..off + HASH_IMAGE_LEN],
                    expected.0,
                    "page {i} hash {j}"
                );
            }
        }
        // Last page chains to zeros.
        let last = art.page_input(p.pages() - 1);
        assert!(last[p.page_capacity()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn page_packets_are_the_erasure_encoding_of_the_input() {
        let (art, _) = build();
        let p = art.params();
        let code = ReedSolomon::new(p.k as usize, p.n as usize).unwrap();
        for i in 0..p.pages() {
            let blocks: Vec<Vec<u8>> = art
                .page_input(i)
                .chunks(p.payload_len)
                .map(|c| c.to_vec())
                .collect();
            let encoded = code.encode(&blocks).unwrap();
            for j in 0..p.n {
                assert_eq!(
                    art.page_packet(i, j),
                    &encoded[j as usize][..],
                    "page {i} pkt {j}"
                );
            }
        }
    }

    #[test]
    fn any_k_packets_decode_a_page() {
        let (art, image) = build();
        let p = art.params();
        let code = ReedSolomon::new(p.k as usize, p.n as usize).unwrap();
        // Decode page 0 from its last k packets and recover the image
        // prefix.
        let subset: Vec<(usize, &[u8])> = (p.n - p.k..p.n)
            .map(|j| (j as usize, art.page_packet(0, j)))
            .collect();
        let mut input = Vec::new();
        code.decode_into(&subset, p.payload_len, &mut input)
            .unwrap();
        assert_eq!(&input[..p.page_capacity()], &image[..p.page_capacity()]);
        assert_eq!(&input[..], art.page_input(0));
    }

    #[test]
    fn hash_page_decodes_to_page0_hashes() {
        let (art, _) = build();
        let p = art.params();
        let code0 = ReedSolomon::new(p.k0 as usize, p.n0 as usize).unwrap();
        let subset: Vec<(usize, &[u8])> = (0..p.k0)
            .map(|j| (j as usize, &art.hash_page_packet(j)[..p.hash_block_len()]))
            .collect();
        let mut m0 = Vec::new();
        code0
            .decode_into(&subset, p.hash_block_len(), &mut m0)
            .unwrap();
        for j in 0..p.n {
            let expected = packet_hash(p.version, 2, j, art.page_packet(0, j));
            let off = j as usize * HASH_IMAGE_LEN;
            assert_eq!(&m0[off..off + HASH_IMAGE_LEN], expected.0, "hash {j}");
        }
    }

    #[test]
    fn deterministic_preprocessing() {
        // Two base stations with the same inputs produce identical
        // packets — required because receivers chain hashes over them.
        let (a, _) = build();
        let (b, _) = build();
        let p = a.params();
        for i in 0..p.pages() {
            for j in 0..p.n {
                assert_eq!(a.page_packet(i, j), b.page_packet(i, j));
            }
        }
        assert_eq!(a.root(), b.root());
    }
}
