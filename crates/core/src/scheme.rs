//! The LR-Seluge per-node [`Scheme`] implementation (paper §IV-D/E).
//!
//! Reception: any `k'` authenticated encoded packets decode a page; the
//! decoded input simultaneously yields the plaintext *and* the hash
//! images that authenticate the next page's packets. Serving: a node
//! that decoded a page re-applies the same erasure code `f` — producing
//! byte-identical packets, whose hash images the requester already
//! holds — exactly as §IV-D-3 describes for nodes in the TX state.
//!
//! Authenticating what arrives (signature, hash page, page packets) is
//! the shared [`lrs_deluge::bootstrap`]; this module is the erasure
//! coding around it.

use crate::code::PageCode;
use crate::params::{LrSelugeParams, ParamError};
use crate::preprocess::LrArtifacts;
use lrs_crypto::hash::HashImage;
use lrs_crypto::puzzle::Puzzle;
use lrs_crypto::schnorr::PublicKey;
use lrs_deluge::bootstrap::{self, frame_hash_page, hash_images, Bootstrap, Layout, SlotBuffer};
use lrs_deluge::engine::{CryptoCost, PacketDisposition, Scheme};
use lrs_deluge::wire::BitVec;
use lrs_erasure::{CodeError, ErasureCode};
use lrs_host::node::PacketKind;
use lrs_host::violation::{ContentDigest, InvariantViolation};
use std::collections::HashMap;

pub use lrs_deluge::bootstrap::PacketDigestCache;

/// Per-node LR-Seluge state (base station or receiver).
#[derive(Clone, Debug)]
pub struct LrScheme {
    params: LrSelugeParams,
    code: PageCode,
    code0: PageCode,
    /// Verified signature and root, the receive buffers of `M0` (packets
    /// as block ‖ path) and of the page in flight, and the hash images
    /// its packets must match.
    boot: Bootstrap,
    /// Decoded `M0` source blocks, once available.
    hp_blocks: Option<Vec<Vec<u8>>>,
    /// Regenerated hash-page packets for serving (lazy).
    hp_cache: Option<Vec<Vec<u8>>>,
    /// Decoded inputs (plaintext ‖ hash region) of completed pages.
    page_inputs: Vec<Vec<u8>>,
    /// Re-encoded packets per completed page, built on first serve.
    encoded_cache: HashMap<u16, Vec<Vec<u8>>>,
    /// Scratch buffer for decoded pages, reused across decodes.
    decode_scratch: Vec<u8>,
}

fn layout(params: &LrSelugeParams) -> Layout {
    Layout {
        version: params.version,
        num_items: params.num_items(),
        hash_page_packets: params.n0,
        hash_block_len: params.hash_block_len(),
        page_packets: params.n,
        page_payload_len: params.payload_len,
    }
}

/// Erasure-decodes the first `block_len` bytes of the packets `buffer`
/// holds into `scratch`. False on a rank-deficient draw of a non-MDS
/// code: keep collecting, the SNACK loop requests more packets.
fn decode(code: &PageCode, buffer: &SlotBuffer, block_len: usize, scratch: &mut Vec<u8>) -> bool {
    let subset: Vec<(usize, &[u8])> = buffer.iter().map(|(j, p)| (j, &p[..block_len])).collect();
    match code.decode_into(&subset, block_len, scratch) {
        Ok(()) => true,
        Err(CodeError::NotEnoughBlocks { .. }) => false,
        Err(e) => panic!("decode failed unexpectedly: {e}"),
    }
}

impl LrScheme {
    /// A receiver that has nothing yet.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters (see
    /// [`LrSelugeParams::validate`]); use
    /// [`try_receiver`](Self::try_receiver) to get a typed error
    /// instead.
    pub fn receiver(params: LrSelugeParams, pubkey: PublicKey, puzzle: Puzzle) -> Self {
        match Self::try_receiver(params, pubkey, puzzle) {
            Ok(scheme) => scheme,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`receiver`](Self::receiver): rejects inconsistent
    /// parameters with a [`ParamError`] instead of panicking.
    pub fn try_receiver(
        params: LrSelugeParams,
        pubkey: PublicKey,
        puzzle: Puzzle,
    ) -> Result<Self, ParamError> {
        params.validate().map_err(ParamError)?;
        Ok(Self::around(
            params,
            Bootstrap::receiver(layout(&params), pubkey, puzzle),
        ))
    }

    /// The erasure-coding state around `boot`, for validated `params`.
    fn around(params: LrSelugeParams, boot: Bootstrap) -> Self {
        LrScheme {
            params,
            code: PageCode::new(params.code_kind, params.k as usize, params.n as usize)
                .expect("validated"),
            code0: PageCode::new(params.code_kind, params.k0 as usize, params.n0 as usize)
                .expect("validated"),
            boot,
            hp_blocks: None,
            hp_cache: None,
            page_inputs: Vec::new(),
            encoded_cache: HashMap::new(),
            decode_scratch: Vec::new(),
        }
    }

    /// Attaches a run-wide digest memo shared by all nodes of a sim run.
    /// Purely an observer-level optimization: dispositions, decoded
    /// bytes, and the `hashes` cost counter are unchanged; cache hits
    /// are tallied in `CryptoCost::memoized_hashes`.
    pub fn with_digest_cache(mut self, cache: PacketDigestCache) -> Self {
        self.boot.set_digest_cache(cache);
        self
    }

    /// The base station: everything precomputed and complete.
    pub fn base(artifacts: &LrArtifacts, pubkey: PublicKey, puzzle: Puzzle) -> Self {
        let params = artifacts.params();
        let boot = Bootstrap::base(
            layout(&params),
            pubkey,
            puzzle,
            artifacts.signature_body(),
            artifacts.root(),
            &[],
        );
        let mut scheme = Self::around(params, boot);
        scheme.hp_cache = Some(artifacts.hash_page_packets.clone());
        scheme.page_inputs = artifacts.page_inputs.clone();
        for (i, packets) in (0u16..).zip(&artifacts.page_packets) {
            scheme.encoded_cache.insert(i, packets.clone());
        }
        scheme
    }

    /// The reassembled, verified image once dissemination completed.
    pub fn image(&self) -> Option<Vec<u8>> {
        if !self.boot.is_complete() {
            return None;
        }
        let mut out = Vec::with_capacity(self.params.image_len);
        for input in &self.page_inputs {
            out.extend_from_slice(&input[..self.params.page_capacity()]);
        }
        out.truncate(self.params.image_len);
        Some(out)
    }

    /// Layout parameters.
    pub fn params(&self) -> LrSelugeParams {
        self.params
    }

    /// The chaining rule (§IV-C): the tail of a decoded page input is
    /// the hash images of the next page's `n` encoded packets.
    fn chained_images(&self, input: &[u8]) -> Vec<HashImage> {
        hash_images(&input[self.params.page_capacity()..])
    }

    /// Decodes `M0` once `k0'` authenticated hash-page packets are held.
    fn try_decode_hash_page(&mut self) {
        if self.boot.hash_page().held() < self.params.k0_prime() as usize {
            return;
        }
        let block_len = self.params.hash_block_len();
        self.boot.cost.decodes += 1;
        let scratch = &mut self.decode_scratch;
        if decode(&self.code0, self.boot.hash_page(), block_len, scratch) {
            self.boot.hash_page_complete(scratch);
            self.hp_blocks = Some(
                scratch
                    .chunks_exact(block_len)
                    .map(|c| c.to_vec())
                    .collect(),
            );
        }
    }

    /// Decodes the page in flight once `k'` authenticated packets are
    /// held.
    fn try_decode_page(&mut self) {
        if self.boot.page().held() < self.params.k_prime() as usize {
            return;
        }
        self.boot.cost.decodes += 1;
        let scratch = &mut self.decode_scratch;
        if decode(
            &self.code,
            self.boot.page(),
            self.params.payload_len,
            scratch,
        ) {
            let input = std::mem::take(scratch);
            self.boot.page_complete(self.chained_images(&input));
            self.page_inputs.push(input);
        }
    }

    /// Regenerates the hash-page packets by re-encoding `M0` and
    /// rebuilding the Merkle tree (all leaves are available, so every
    /// authentication path can be reconstructed).
    fn ensure_hp_cache(&mut self) -> Option<&Vec<Vec<u8>>> {
        if self.hp_cache.is_none() {
            let blocks = self.hp_blocks.as_ref()?;
            self.boot.cost.encodes += 1;
            let encoded = self.code0.encode(blocks).expect("consistent shapes");
            self.boot.cost.hashes += 2 * self.params.n0 as u64;
            self.hp_cache = Some(frame_hash_page(&encoded).1);
        }
        self.hp_cache.as_ref()
    }

    /// Checks the protocol invariants the chaos layer enforces after
    /// every delivery (see DESIGN.md §7): the shared ones
    /// ([`Bootstrap::verify_invariants`]: only authenticated packets
    /// buffered, buffer occupancy within the paper's `n` / `n0` bounds),
    /// then that every completed page's decoded input matches
    /// preprocessing and that a complete node's reassembled image is
    /// byte-identical to the origin image.
    pub fn verify_invariants(
        &self,
        artifacts: &LrArtifacts,
        image: &[u8],
    ) -> Result<(), InvariantViolation> {
        self.boot.verify_invariants(
            artifacts.signature_body(),
            &artifacts.hash_page_packets,
            &artifacts.page_packets,
        )?;
        let complete = self.boot.complete();
        let pages_done = (complete as usize).saturating_sub(2);
        if self.page_inputs.len() < pages_done {
            return Err(InvariantViolation::PagesMissing {
                complete: u64::from(complete),
                held: self.page_inputs.len() as u64,
            });
        }
        for (i, input) in self.page_inputs.iter().take(pages_done).enumerate() {
            let authentic = artifacts.page_input(i as u16);
            if input.as_slice() != authentic {
                return Err(InvariantViolation::PageMismatch {
                    page: i as u32,
                    packet: None,
                    expected: ContentDigest::of(authentic),
                    actual: ContentDigest::of(input),
                });
            }
        }
        self.boot.verify_image(self.image(), image)
    }

    /// Re-encodes a completed page on first serve (§IV-D-3).
    fn ensure_page_cache(&mut self, page: u16) -> Option<&Vec<Vec<u8>>> {
        if !self.encoded_cache.contains_key(&page) {
            let input = self.page_inputs.get(page as usize)?;
            let blocks: Vec<Vec<u8>> = input
                .chunks(self.params.payload_len)
                .map(|c| c.to_vec())
                .collect();
            self.boot.cost.encodes += 1;
            let encoded = self.code.encode(&blocks).expect("consistent shapes");
            self.encoded_cache.insert(page, encoded);
        }
        self.encoded_cache.get(&page)
    }
}

impl Scheme for LrScheme {
    fn version(&self) -> u16 {
        self.params.version
    }

    fn num_items(&self) -> u16 {
        self.params.num_items()
    }

    fn item_packets(&self, item: u16) -> u16 {
        match item {
            0 => 1,
            1 => self.params.n0,
            _ => self.params.n,
        }
    }

    fn packets_needed(&self, item: u16) -> u16 {
        match item {
            0 => 1,
            1 => self.params.k0_prime(),
            _ => self.params.k_prime(),
        }
    }

    fn complete_items(&self) -> u16 {
        self.boot.complete()
    }

    fn handle_packet(&mut self, item: u16, index: u16, payload: &[u8]) -> PacketDisposition {
        debug_assert_eq!(
            item,
            self.boot.complete(),
            "engine only feeds the next item"
        );
        match item {
            0 => {
                let params = self.params;
                self.boot.handle_signature(index, payload, |root| {
                    LrArtifacts::signed_message(&params, root)
                })
            }
            1 => {
                let disposition = self.boot.handle_hash_page(index, payload);
                if disposition == PacketDisposition::Accepted {
                    self.try_decode_hash_page();
                }
                disposition
            }
            _ => {
                let disposition = self.boot.handle_page_packet(item, index, payload);
                if disposition == PacketDisposition::Accepted {
                    self.try_decode_page();
                }
                disposition
            }
        }
    }

    fn wanted(&self, item: u16) -> BitVec {
        self.boot.wanted(item)
    }

    fn packet_payload(&mut self, item: u16, index: u16) -> Option<Vec<u8>> {
        if item >= self.boot.complete() {
            return None;
        }
        match item {
            0 => self.boot.signature_body().map(<[u8]>::to_vec),
            1 => self
                .ensure_hp_cache()
                .and_then(|c| c.get(index as usize))
                .cloned(),
            _ => self
                .ensure_page_cache(item - 2)
                .and_then(|c| c.get(index as usize))
                .cloned(),
        }
    }

    fn item_kind(&self, item: u16) -> PacketKind {
        bootstrap::item_kind(item)
    }

    fn cost(&self) -> CryptoCost {
        self.boot.cost
    }

    fn reboot(&mut self) {
        // Flash (survives): the verified signature body, the decoded
        // `M0` blocks, and every completed page's decoded input — real
        // motes write each verified page to external flash before
        // advancing (Seluge §V). RAM (lost): partially received packets
        // of the in-progress item and all serving caches.
        let has_m0 = self.hp_blocks.is_some() || self.hp_cache.is_some();
        self.boot.clear_hash_page();
        self.decode_scratch = Vec::new();
        self.encoded_cache.clear();
        if self.hp_blocks.is_some() {
            // Regenerable from the flash-resident blocks; the base
            // station's precomputed cache (no blocks) must be kept.
            self.hp_cache = None;
        }
        // The hash images authenticating the next page.
        let expected = match (self.page_inputs.last(), &self.hp_blocks) {
            (Some(input), _) => self.chained_images(input),
            (None, Some(blocks)) => self.boot.first_page_images(&blocks.concat()),
            (None, None) => Vec::new(),
        };
        self.boot.resume(has_m0, self.page_inputs.len(), expected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_crypto::puzzle::PuzzleKeyChain;
    use lrs_crypto::schnorr::Keypair;

    fn setup() -> (LrScheme, LrScheme, Vec<u8>) {
        let (base, rx, image, _) = setup_with_artifacts();
        (base, rx, image)
    }

    /// Transfers item by item, choosing which packet indices to deliver.
    fn transfer_with<F>(base: &mut LrScheme, rx: &mut LrScheme, mut pick: F)
    where
        F: FnMut(u16, &[usize]) -> Vec<usize>,
    {
        while rx.complete_items() < rx.num_items() {
            let item = rx.complete_items();
            let wanted: Vec<usize> = rx.wanted(item).iter_ones().collect();
            let before = rx.complete_items();
            for idx in pick(item, &wanted) {
                let payload = base.packet_payload(item, idx as u16).expect("base serves");
                let disp = rx.handle_packet(item, idx as u16, &payload);
                assert_ne!(disp, PacketDisposition::Rejected, "item {item} idx {idx}");
                if rx.complete_items() > before {
                    break;
                }
            }
            assert!(rx.complete_items() > before, "no progress on item {item}");
        }
    }

    #[test]
    fn full_transfer_using_first_packets() {
        let (mut base, mut rx, image) = setup();
        transfer_with(&mut base, &mut rx, |_, wanted| wanted.to_vec());
        assert_eq!(rx.image().unwrap(), image);
        assert_eq!(rx.cost().signature_verifications, 1);
        assert!(rx.cost().decodes >= rx.num_items() as u64 - 2);
    }

    #[test]
    fn full_transfer_using_parity_packets_only() {
        // Deliver packets from the *end* (all-parity subsets): the
        // loss-resilience property — any k' of n suffice.
        let (mut base, mut rx, image) = setup();
        transfer_with(&mut base, &mut rx, |_, wanted| {
            let mut w = wanted.to_vec();
            w.reverse();
            w
        });
        assert_eq!(rx.image().unwrap(), image);
    }

    #[test]
    fn relay_serves_identical_packets() {
        // A node that decoded pages re-encodes them; its packets must be
        // byte-identical to the base station's (their hashes were fixed
        // at preprocessing).
        let (mut base, mut rx, _) = setup();
        transfer_with(&mut base, &mut rx, |_, wanted| wanted.to_vec());
        for item in 0..rx.num_items() {
            for idx in 0..rx.item_packets(item) {
                assert_eq!(
                    rx.packet_payload(item, idx),
                    base.packet_payload(item, idx),
                    "item {item} idx {idx}"
                );
            }
        }
        assert!(rx.cost().encodes > 0, "relay must have re-encoded");
    }

    #[test]
    fn second_hop_can_decode_from_relay() {
        let (mut base, mut relay, image) = setup();
        transfer_with(&mut base, &mut relay, |_, wanted| wanted.to_vec());
        let (_, mut rx2, _) = setup();
        // Serve the second hop exclusively from the relay, parity-first.
        transfer_with(&mut relay, &mut rx2, |_, wanted| {
            let mut w = wanted.to_vec();
            w.reverse();
            w
        });
        assert_eq!(rx2.image().unwrap(), image);
    }

    #[test]
    fn tampered_packets_rejected() {
        let (mut base, mut rx, _) = setup();
        advance_to(&mut base, &mut rx, 2);
        // Page packet: bit flip.
        let mut pp = base.packet_payload(2, 3).unwrap();
        pp[5] ^= 1;
        assert_eq!(rx.handle_packet(2, 3, &pp), PacketDisposition::Rejected);
        // Page packet: right payload, wrong index.
        let p4 = base.packet_payload(2, 4).unwrap();
        assert_eq!(rx.handle_packet(2, 3, &p4), PacketDisposition::Rejected);
        // The genuine one passes.
        let p3 = base.packet_payload(2, 3).unwrap();
        assert_eq!(rx.handle_packet(2, 3, &p3), PacketDisposition::Accepted);
    }

    #[test]
    fn exactly_k_packets_complete_a_page() {
        let (mut base, mut rx, _) = setup();
        advance_to(&mut base, &mut rx, 2);
        assert_eq!(rx.complete_items(), 2);
        // Feed exactly k = 4 packets, indices {1, 2, 4, 5}.
        for (count, idx) in [1u16, 2, 4, 5].into_iter().enumerate() {
            let p = base.packet_payload(2, idx).unwrap();
            assert_eq!(rx.handle_packet(2, idx, &p), PacketDisposition::Accepted);
            let expect_complete = count == 3;
            assert_eq!(
                rx.complete_items() == 3,
                expect_complete,
                "after {} pkts",
                count + 1
            );
        }
    }

    #[test]
    fn duplicates_do_not_advance() {
        let (mut base, mut rx, _) = setup();
        let sig = base.packet_payload(0, 0).unwrap();
        assert_eq!(rx.handle_packet(0, 0, &sig), PacketDisposition::Accepted);
        let hp = base.packet_payload(1, 0).unwrap();
        assert_eq!(rx.handle_packet(1, 0, &hp), PacketDisposition::Accepted);
        assert_eq!(rx.handle_packet(1, 0, &hp), PacketDisposition::Duplicate);
        assert_eq!(rx.complete_items(), 1);
    }

    fn setup_with_artifacts() -> (LrScheme, LrScheme, Vec<u8>, LrArtifacts) {
        let params = LrSelugeParams {
            version: 1,
            image_len: 700,
            k: 4,
            n: 6,
            payload_len: 48,
            k0: 2,
            n0: 4,
            puzzle_strength: 4,
            ..LrSelugeParams::default()
        };
        let image: Vec<u8> = (0..params.image_len as u32)
            .map(|i| (i % 241) as u8)
            .collect();
        let kp = Keypair::from_seed(b"bs");
        let chain = PuzzleKeyChain::generate(b"puzzles", 4);
        let art = LrArtifacts::build(&image, params, &kp, &chain);
        let puzzle = Puzzle::new(chain.anchor(), params.puzzle_strength);
        let base = LrScheme::base(&art, kp.public(), puzzle);
        let rx = LrScheme::receiver(params, kp.public(), puzzle);
        (base, rx, image, art)
    }

    /// Advances `rx` until `level` items are complete.
    fn advance_to(base: &mut LrScheme, rx: &mut LrScheme, level: u16) {
        while rx.complete_items() < level {
            let item = rx.complete_items();
            for idx in rx.wanted(item).iter_ones().collect::<Vec<_>>() {
                let p = base.packet_payload(item, idx as u16).unwrap();
                rx.handle_packet(item, idx as u16, &p);
                if rx.complete_items() > item {
                    break;
                }
            }
        }
    }

    #[test]
    fn reboot_mid_page_keeps_flash_and_drops_ram() {
        let (mut base, mut rx, image, art) = setup_with_artifacts();
        advance_to(&mut base, &mut rx, 3); // signature + M0 + one page
                                           // Partially fill page 1.
        for idx in 0..2u16 {
            let p = base.packet_payload(3, idx).unwrap();
            rx.handle_packet(3, idx, &p);
        }
        assert_eq!(rx.wanted(3).count_ones() as u16, rx.params().n - 2);
        rx.reboot();
        assert_eq!(rx.complete_items(), 3, "flash items survive the reboot");
        assert_eq!(
            rx.wanted(3).count_ones() as u16,
            rx.params().n,
            "partially received page is RAM and is lost"
        );
        rx.verify_invariants(&art, &image).unwrap();
        // The transfer still finishes, and the node can serve afterwards.
        let total = rx.num_items();
        advance_to(&mut base, &mut rx, total);
        assert_eq!(rx.image().unwrap(), image);
        rx.verify_invariants(&art, &image).unwrap();
        for item in 0..rx.num_items() {
            for idx in 0..rx.item_packets(item) {
                assert_eq!(rx.packet_payload(item, idx), base.packet_payload(item, idx));
            }
        }
    }

    #[test]
    fn reboot_during_m0_keeps_the_signature_only() {
        let (mut base, mut rx, image, art) = setup_with_artifacts();
        advance_to(&mut base, &mut rx, 1);
        // One hash-page packet of the k0' needed.
        let p = base.packet_payload(1, 0).unwrap();
        rx.handle_packet(1, 0, &p);
        rx.reboot();
        assert_eq!(rx.complete_items(), 1, "verified signature is flash");
        assert_eq!(rx.wanted(1).count_ones() as u16, rx.params().n0);
        rx.verify_invariants(&art, &image).unwrap();
        let total = rx.num_items();
        advance_to(&mut base, &mut rx, total);
        assert_eq!(rx.image().unwrap(), image);
    }

    #[test]
    fn reboot_of_a_base_station_keeps_it_serving() {
        let (mut base, _, image, art) = setup_with_artifacts();
        base.reboot();
        assert_eq!(base.complete_items(), base.num_items());
        base.verify_invariants(&art, &image).unwrap();
        assert!(base.packet_payload(0, 0).is_some());
        assert!(base.packet_payload(1, 0).is_some());
        assert!(base.packet_payload(2, 0).is_some());
    }

    #[test]
    fn invariants_catch_a_corrupted_buffer() {
        let (mut base, mut rx, image, art) = setup_with_artifacts();
        advance_to(&mut base, &mut rx, 2);
        let p = base.packet_payload(2, 0).unwrap();
        rx.handle_packet(2, 0, &p);
        rx.verify_invariants(&art, &image).unwrap();
        // A receiver whose hash chain was subverted: it "authenticated"
        // a packet that differs from the authentic one in one bit.
        let mut bad = p.clone();
        bad[3] ^= 1;
        let mut m0 = vec![0u8; rx.params().hash_page_len()];
        m0[..8].copy_from_slice(&crate::packet_hash(1, 2, 0, &bad).0);
        let kp = Keypair::from_seed(b"bs");
        let puzzle = Puzzle::new(lrs_crypto::hash::Digest([0; 32]), 4);
        let mut forged = Bootstrap::receiver(layout(&rx.params()), kp.public(), puzzle);
        forged.hash_page_complete(&m0);
        assert_eq!(
            forged.handle_page_packet(2, 0, &bad),
            PacketDisposition::Accepted
        );
        rx.boot = forged;
        assert!(matches!(
            rx.verify_invariants(&art, &image),
            Err(InvariantViolation::UnauthenticPacket { index: 0, .. })
        ));
    }

    #[test]
    fn invariants_catch_a_wrong_image() {
        let (base, _, image, art) = setup_with_artifacts();
        let mut wrong = image.clone();
        wrong[0] ^= 1;
        base.verify_invariants(&art, &image).unwrap();
        assert!(base.verify_invariants(&art, &wrong).is_err());
    }

    #[test]
    fn wanted_shrinks_as_packets_arrive() {
        let (mut base, mut rx, _) = setup();
        advance_to(&mut base, &mut rx, 2);
        assert_eq!(rx.wanted(2).count_ones(), 6);
        let p = base.packet_payload(2, 2).unwrap();
        rx.handle_packet(2, 2, &p);
        let w = rx.wanted(2);
        assert_eq!(w.count_ones(), 5);
        assert!(!w.get(2));
    }
}
