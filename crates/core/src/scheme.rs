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
use crate::preprocess::{page_shape, LrArtifacts};
use lrs_crypto::puzzle::Puzzle;
use lrs_crypto::schnorr::PublicKey;
use lrs_deluge::bootstrap::{
    self, frame_hash_page, Bootstrap, Layout, PageStore, SlotBuffer, Watermark,
};
use lrs_deluge::deployment::SchemeFamily;
use lrs_deluge::engine::{CryptoCost, PacketDisposition, Scheme};
use lrs_deluge::wire::BitVec;
use lrs_erasure::{CodeError, ErasureCode};
use lrs_host::node::PacketKind;
use lrs_host::violation::InvariantViolation;
use std::sync::Arc;

pub use lrs_deluge::bootstrap::PacketDigestCache;

/// Per-node LR-Seluge state (base station or receiver).
#[derive(Clone, Debug)]
pub struct LrScheme {
    params: LrSelugeParams,
    code: PageCode,
    code0: PageCode,
    /// Verified signature and root, the receive buffers of `M0` (packets
    /// as block ‖ path) and of the page in flight, the decoded `M0` and
    /// the decoded inputs (plaintext ‖ hash region) of completed pages.
    pub(crate) boot: Bootstrap,
    /// Regenerated hash-page packets for serving (lazy).
    hp_cache: Option<Vec<Vec<u8>>>,
    /// The base station's preprocessed page packets, served as they are.
    /// `None` on a receiver and on a rebooted base station, which
    /// re-encode instead.
    preprocessed: Option<Arc<PageStore>>,
    /// Per stored page, its `n` re-encoded packets end to end, built on
    /// first serve; empty until then.
    encoded: Vec<Vec<u8>>,
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
        image_len: params.image_len,
        page_shape: page_shape(params),
    }
}

/// Erasure-decodes the first `block_len` bytes of the packets `buffer`
/// holds into `scratch`. False on a rank-deficient draw of a non-MDS
/// code: keep collecting, the SNACK loop requests more packets.
fn decode(code: &PageCode, buffer: &SlotBuffer, block_len: usize, scratch: &mut Vec<u8>) -> bool {
    let mut subset = Vec::with_capacity(buffer.held());
    subset.extend(buffer.iter().map(|(j, p)| (j, &p[..block_len])));
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
            hp_cache: None,
            preprocessed: None,
            encoded: vec![Vec::new(); usize::from(params.pages())],
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

    /// The base station: everything precomputed and complete. It serves
    /// the artifacts' page packets without copying them.
    pub fn base(artifacts: &LrArtifacts, pubkey: PublicKey, puzzle: Puzzle) -> Self {
        let params = artifacts.params();
        let boot = Bootstrap::base(layout(&params), pubkey, puzzle, &artifacts.origin);
        LrScheme {
            hp_cache: Some(artifacts.origin.hash_page.clone()),
            preprocessed: Some(Arc::clone(&artifacts.page_packets)),
            ..Self::around(params, boot)
        }
    }

    /// The reassembled, verified image once dissemination completed.
    pub fn image(&self) -> Option<Vec<u8>> {
        self.boot.image()
    }

    /// Layout parameters.
    pub fn params(&self) -> LrSelugeParams {
        self.params
    }

    /// Decodes `M0` once `k0'` authenticated hash-page packets are held.
    fn try_decode_hash_page(&mut self) {
        if self.boot.hash_page().held() < self.code0.k_prime() {
            return;
        }
        let block_len = self.params.hash_block_len();
        self.boot.cost.decodes += 1;
        let scratch = &mut self.decode_scratch;
        if decode(&self.code0, self.boot.hash_page(), block_len, scratch) {
            self.boot.hash_page_complete(scratch.clone());
        }
    }

    /// Decodes the page in flight once `k'` authenticated packets are
    /// held and stores the decoded input: the chaining rule (§IV-C) puts
    /// the hash images of the next page's `n` encoded packets in its
    /// tail.
    fn try_decode_page(&mut self) {
        if self.boot.page().held() < self.code.k_prime() {
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
            self.boot.store_page(scratch);
        }
    }

    /// Regenerates the hash-page packets by re-encoding `M0` and
    /// rebuilding the Merkle tree (all leaves are available, so every
    /// authentication path can be reconstructed).
    fn ensure_hp_cache(&mut self) -> Option<&Vec<Vec<u8>>> {
        if self.hp_cache.is_none() {
            let (m0, len) = (self.boot.m0()?, self.params.hash_block_len());
            let mut encoded = Vec::new();
            self.code0
                .encode_into(m0, len, &mut encoded)
                .expect("consistent shapes");
            self.boot.cost.encodes += 1;
            self.boot.cost.hashes += 2 * self.params.n0 as u64;
            let blocks: Vec<&[u8]> = encoded.chunks(len).collect();
            self.hp_cache = Some(frame_hash_page(&blocks).1);
        }
        self.hp_cache.as_ref()
    }

    /// Checks the protocol invariants the chaos layer enforces (see
    /// DESIGN.md §7) from scratch: [`SchemeFamily::check_invariants`]
    /// with an empty watermark, so every decoded page input and a
    /// complete node's image are compared with preprocessing.
    pub fn verify_invariants(
        &self,
        artifacts: &LrArtifacts,
        image: &[u8],
    ) -> Result<(), InvariantViolation> {
        self.check_invariants(artifacts, image, &mut Watermark::default())
    }

    /// The `n` packets of stored page `page`, end to end: the base
    /// station's preprocessed ones, or the page re-encoded from its
    /// stored input on first serve (§IV-D-3).
    fn page_packets(&mut self, page: u16) -> Option<&[u8]> {
        if let Some(store) = &self.preprocessed {
            return store.page(usize::from(page));
        }
        let encoded = self.encoded.get_mut(usize::from(page))?;
        if encoded.is_empty() {
            let input = self.boot.pages().page(usize::from(page))?;
            self.code
                .encode_into(input, self.params.payload_len, encoded)
                .expect("consistent shapes");
            self.boot.cost.encodes += 1;
        }
        Some(encoded)
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
            1 => self.code0.k_prime() as u16,
            _ => self.code.k_prime() as u16,
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
            _ => {
                let len = self.params.payload_len;
                let at = usize::from(index) * len;
                let packets = self.page_packets(item - 2)?;
                packets.get(at..at + len).map(<[u8]>::to_vec)
            }
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
        // `M0`, and every completed page's decoded input — real motes
        // write each verified page to external flash before advancing
        // (Seluge §V). RAM (lost): partially received packets of the
        // in-progress item and all serving caches.
        self.boot.reboot();
        self.decode_scratch = Vec::new();
        self.hp_cache = None;
        self.preprocessed = None;
        self.encoded.fill_with(Vec::new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_crypto::hash::HASH_IMAGE_LEN;
    use lrs_crypto::puzzle::PuzzleKeyChain;
    use lrs_crypto::schnorr::Keypair;
    use lrs_deluge::bootstrap::PageStore;
    use PacketDisposition::Accepted;

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
        // It serves the preprocessed packets as they are, encoding
        // nothing.
        assert_eq!(
            base.packet_payload(2, 5).as_deref(),
            Some(art.page_packet(0, 5))
        );
        assert_eq!(base.cost().encodes, 0);
        base.reboot();
        assert_eq!(base.complete_items(), base.num_items());
        base.verify_invariants(&art, &image).unwrap();
        assert!(base.packet_payload(0, 0).is_some());
        assert!(base.packet_payload(1, 0).is_some());
        // Rebooted, it re-encodes like a relay: once per item served.
        for j in 0..base.item_packets(2) {
            assert_eq!(
                base.packet_payload(2, j).as_deref(),
                Some(art.page_packet(0, j))
            );
        }
        assert_eq!(base.packet_payload(2, base.item_packets(2)), None);
        assert_eq!(base.cost().encodes, 2);
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
        forged.hash_page_complete(m0);
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

    /// The keys [`setup_with_artifacts`] preloads on every node.
    fn keys() -> (PublicKey, Puzzle) {
        let chain = PuzzleKeyChain::generate(b"puzzles", 4);
        (
            Keypair::from_seed(b"bs").public(),
            Puzzle::new(chain.anchor(), 4),
        )
    }

    /// A receiver whose hash chain was subverted at `M0`: it holds the
    /// authentic signature and authenticates page 0 against `m0`.
    fn subverted(art: &LrArtifacts, m0: Vec<u8>) -> Bootstrap {
        let (params, (pubkey, puzzle)) = (art.params(), keys());
        let mut boot = Bootstrap::receiver(layout(&params), pubkey, puzzle);
        let signed = |root: &_| LrArtifacts::signed_message(&params, root);
        let body = art.signature_body();
        assert_eq!(boot.handle_signature(0, body, signed), Accepted);
        boot.hash_page_complete(m0);
        boot
    }

    #[test]
    fn a_page_corrupted_as_it_completes_is_caught_by_the_next_check() {
        let (mut base, mut rx, image, art) = setup_with_artifacts();
        // Page 0 decodes from packets 0..k'. The last to arrive has one
        // bit flipped, and the subverted M0 vouches for it, so the page
        // is corrupted as it completes, never while in flight.
        let k = rx.params().k_prime();
        let mut packets: Vec<_> = (0..k).map(|j| base.packet_payload(2, j).unwrap()).collect();
        packets[usize::from(k) - 1][3] ^= 1;
        let mut m0 = vec![0u8; rx.params().hash_page_len()];
        for (j, p) in (0u16..).zip(&packets) {
            let at = usize::from(j) * HASH_IMAGE_LEN;
            m0[at..at + HASH_IMAGE_LEN].copy_from_slice(&crate::packet_hash(1, 2, j, p).0);
        }
        rx.boot = subverted(&art, m0);
        let mut mark = Watermark::default();
        for (j, p) in (0u16..).zip(&packets) {
            rx.check_invariants(&art, &image, &mut mark).unwrap();
            assert_eq!(rx.handle_packet(2, j, p), Accepted);
        }
        assert_eq!(rx.complete_items(), 3, "the corrupted page is stored");
        let watermarked = rx.check_invariants(&art, &image, &mut mark);
        assert_eq!(watermarked, rx.verify_invariants(&art, &image));
        assert!(matches!(
            watermarked,
            Err(InvariantViolation::PageMismatch {
                page: 0,
                packet: None,
                ..
            })
        ));
    }

    #[test]
    fn an_in_flight_buffer_is_checked_past_the_watermark() {
        let (mut base, mut rx, image, art) = setup_with_artifacts();
        let mut mark = Watermark::default();
        while rx.complete_items() < 4 {
            let item = rx.complete_items();
            let j = rx.wanted(item).iter_ones().next().unwrap() as u16;
            rx.handle_packet(item, j, &base.packet_payload(item, j).unwrap());
            rx.check_invariants(&art, &image, &mut mark).unwrap();
        }
        // Two pages are stored and compared. The node is swapped for one
        // whose page 1 tail vouches for a corrupted packet 0 of page 2:
        // the watermark is past page 1, so only the in-flight check can
        // catch it.
        let mut bad = base.packet_payload(4, 0).unwrap();
        bad[3] ^= 1;
        let mut forged_input = art.page_input(1).to_vec();
        let at = rx.params().page_capacity();
        forged_input[at..at + HASH_IMAGE_LEN].copy_from_slice(&crate::packet_hash(1, 4, 0, &bad).0);
        let mut origin = art.origin.clone();
        origin.pages = PageStore::new(page_shape(&rx.params()), 2);
        origin.pages.push([art.page_input(0)]);
        origin.pages.push([&forged_input[..]]);
        let (pubkey, puzzle) = keys();
        rx.boot = Bootstrap::base(layout(&rx.params()), pubkey, puzzle, &origin);
        assert_eq!(rx.complete_items(), 4);
        rx.check_invariants(&art, &image, &mut mark).unwrap();
        assert_eq!(rx.handle_packet(4, 0, &bad), Accepted);
        assert!(matches!(
            rx.check_invariants(&art, &image, &mut mark),
            Err(InvariantViolation::UnauthenticPacket {
                page: Some(2),
                index: 0,
                ..
            })
        ));
    }

    #[test]
    fn watermarked_and_from_scratch_checks_agree_over_a_lossy_transfer() {
        let (mut base, mut rx, image, art) = setup_with_artifacts();
        let mut rng = lrs_rng::DetRng::seed_from_u64(46);
        let mut mark = Watermark::default();
        let mut check = |rx: &LrScheme| {
            let watermarked = rx.check_invariants(&art, &image, &mut mark);
            assert_eq!(watermarked, rx.verify_invariants(&art, &image));
            watermarked.unwrap();
        };
        let mut rebooted = false;
        while rx.complete_items() < rx.num_items() {
            let item = rx.complete_items();
            for j in rx.wanted(item).iter_ones().map(|j| j as u16) {
                if rng.gen_bool(0.4) {
                    continue;
                }
                rx.handle_packet(item, j, &base.packet_payload(item, j).unwrap());
                check(&rx);
                if rx.complete_items() > item {
                    break;
                }
                if item == 4 && !rebooted {
                    rx.reboot();
                    check(&rx);
                    rebooted = true;
                    break;
                }
            }
        }
        assert!(rebooted);
        assert_eq!(rx.image().unwrap(), image);
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
