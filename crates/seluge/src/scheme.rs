//! The Seluge per-node [`Scheme`] implementation.
//!
//! Receiver-side verification, page by page: the signature packet
//! authenticates the Merkle root (guarded by the puzzle), the Merkle
//! paths authenticate hash-page packets, the hash page authenticates
//! page 1's packets, and every completed page authenticates the next.
//!
//! All of that checking is the shared [`lrs_deluge::bootstrap`]; this
//! module adds Seluge's chaining rule: an item is complete when every
//! one of its packets arrived, and packet `j` of a page carries the hash
//! image of packet `j` of the next.

use crate::preprocess::{SelugeArtifacts, SelugeParams};
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::puzzle::Puzzle;
use lrs_crypto::schnorr::PublicKey;
use lrs_deluge::attack::AttackerProfile;
use lrs_deluge::bootstrap::{
    self, Bootstrap, DeploymentKeys, Layout, Watermark, SIGNATURE_BODY_LEN,
};
use lrs_deluge::deployment::{ParamError, SchemeFamily};
use lrs_deluge::engine::{CryptoCost, PacketDisposition, Scheme};
use lrs_deluge::policy::UnionPolicy;
use lrs_deluge::wire::BitVec;
use lrs_host::node::PacketKind;
use lrs_host::violation::InvariantViolation;

pub use lrs_deluge::bootstrap::PacketDigestCache;

/// Per-node Seluge state (base station or receiver).
#[derive(Clone, Debug)]
pub struct SelugeScheme {
    params: SelugeParams,
    /// Verified signature and root, the hash page (received packets stay
    /// in its buffer and are served from there), the receive buffer of
    /// the page in flight and the completed pages' packets (with chained
    /// hash tails), stored as received and served from there.
    boot: Bootstrap,
}

fn layout(params: &SelugeParams) -> Layout {
    Layout {
        version: params.version,
        num_items: params.num_items(),
        hash_page_packets: params.hash_page_chunks,
        hash_block_len: params.chunk_len(),
        page_packets: params.packets_per_page,
        page_payload_len: params.data_payload_len(),
        image_len: params.image_len,
        page_shape: params.page_shape(),
    }
}

impl SelugeScheme {
    /// A receiver that has nothing yet.
    pub fn receiver(params: SelugeParams, pubkey: PublicKey, puzzle: Puzzle) -> Self {
        SelugeScheme {
            params,
            boot: Bootstrap::receiver(layout(&params), pubkey, puzzle),
        }
    }

    /// Attaches a run-wide digest memo shared by all nodes of a sim run.
    /// Purely an observer-level optimization: dispositions and the
    /// `hashes` cost counter are unchanged; cache hits are tallied in
    /// `CryptoCost::memoized_hashes`.
    pub fn with_digest_cache(mut self, cache: PacketDigestCache) -> Self {
        self.boot.set_digest_cache(cache);
        self
    }

    /// The base station: everything precomputed and complete.
    pub fn base(artifacts: &SelugeArtifacts, pubkey: PublicKey, puzzle: Puzzle) -> Self {
        let params = artifacts.params();
        SelugeScheme {
            params,
            boot: Bootstrap::base(layout(&params), pubkey, puzzle, &artifacts.origin),
        }
    }

    /// The reassembled, verified image once dissemination completed.
    pub fn image(&self) -> Option<Vec<u8>> {
        self.boot.image()
    }

    /// Layout parameters.
    pub fn params(&self) -> SelugeParams {
        self.params
    }

    /// Checks the protocol invariants the chaos layer enforces (see
    /// DESIGN.md §7) from scratch: [`SchemeFamily::check_invariants`]
    /// with an empty watermark, so every stored page and a complete
    /// node's image are compared with preprocessing.
    pub fn verify_invariants(
        &self,
        artifacts: &SelugeArtifacts,
        image: &[u8],
    ) -> Result<(), InvariantViolation> {
        self.check_invariants(artifacts, image, &mut Watermark::default())
    }
}

impl Scheme for SelugeScheme {
    fn version(&self) -> u16 {
        self.params.version
    }

    fn num_items(&self) -> u16 {
        self.params.num_items()
    }

    fn item_packets(&self, item: u16) -> u16 {
        match item {
            0 => 1,
            1 => self.params.hash_page_chunks,
            _ => self.params.packets_per_page,
        }
    }

    fn packets_needed(&self, item: u16) -> u16 {
        self.item_packets(item)
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
                    SelugeArtifacts::signed_message(&params, root)
                })
            }
            1 => {
                let disposition = self.boot.handle_hash_page(index, payload);
                if disposition == PacketDisposition::Accepted && self.boot.hash_page().is_full() {
                    // `M0`: the chunks of every hash-page packet in order.
                    let chunks = self.boot.hash_page().iter();
                    let m0 = chunks.flat_map(|(_, p)| &p[..self.params.chunk_len()]);
                    self.boot.hash_page_complete(m0.copied().collect());
                }
                disposition
            }
            _ => {
                let disposition = self.boot.handle_page_packet(item, index, payload);
                // The chaining rule (§II-B): the tail of packet `j` of a
                // page is the hash image of packet `j` of the next.
                if disposition == PacketDisposition::Accepted && self.boot.page().is_full() {
                    self.boot.store_received_page();
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
                .boot
                .hash_page()
                .get(index as usize)
                .map(<[u8]>::to_vec),
            _ => self
                .boot
                .pages()
                .stride(usize::from(item - 2), usize::from(index))
                .map(<[u8]>::to_vec),
        }
    }

    fn item_kind(&self, item: u16) -> PacketKind {
        bootstrap::item_kind(item)
    }

    fn cost(&self) -> CryptoCost {
        self.boot.cost
    }

    fn reboot(&mut self) {
        // Flash (survives): the verified signature body, the *complete*
        // hash page, and every completed page — Seluge writes each
        // verified page to external flash before advancing. RAM (lost):
        // the in-progress item's partial packets. A partially received
        // hash page counts as RAM: its packets only reach flash once
        // the whole of M0 is assembled.
        self.boot.reboot();
    }
}

impl SchemeFamily for SelugeScheme {
    const NAME: &'static str = "seluge";
    type Params = SelugeParams;
    type Artifacts = SelugeArtifacts;
    type Policy = UnionPolicy;

    fn key_schedule(params: &SelugeParams) -> (u16, u32) {
        (params.version, params.puzzle_strength)
    }

    fn image_len(params: &SelugeParams) -> usize {
        params.image_len
    }

    fn try_build(
        image: &[u8],
        params: SelugeParams,
        keys: &DeploymentKeys,
    ) -> Result<SelugeArtifacts, ParamError> {
        SelugeArtifacts::try_build(image, params, &keys.keypair, &keys.chain)
    }

    fn base(artifacts: &SelugeArtifacts, pubkey: PublicKey, puzzle: Puzzle) -> Self {
        SelugeScheme::base(artifacts, pubkey, puzzle)
    }

    fn receiver(params: SelugeParams, pubkey: PublicKey, puzzle: Puzzle) -> Self {
        SelugeScheme::receiver(params, pubkey, puzzle)
    }

    fn with_digest_cache(self, cache: PacketDigestCache) -> Self {
        SelugeScheme::with_digest_cache(self, cache)
    }

    fn warm_digest_cache(artifacts: &SelugeArtifacts, cache: &PacketDigestCache) {
        artifacts.warm_digest_cache(cache);
    }

    fn image(&self) -> Option<Vec<u8>> {
        SelugeScheme::image(self)
    }

    /// [`Bootstrap::verify_invariants`]: only authenticated packets
    /// buffered, buffer occupancy within the per-item packet bound,
    /// every completed page past `mark` identical to preprocessing, and,
    /// once, a complete node's image byte-identical to the origin.
    fn check_invariants(
        &self,
        artifacts: &SelugeArtifacts,
        image: &[u8],
        mark: &mut Watermark,
    ) -> Result<(), InvariantViolation> {
        let (origin, packets) = (&artifacts.origin, &artifacts.origin.pages);
        self.boot.verify_invariants(origin, packets, image, mark)
    }

    fn attacker_profile(sp: &SelugeParams, cluster_key: Option<ClusterKey>) -> AttackerProfile {
        AttackerProfile {
            payload_len: sp.data_payload_len(),
            index_space: sp.packets_per_page,
            sig_body_len: SIGNATURE_BODY_LEN,
            n_bits: sp.packets_per_page as usize,
            version: sp.version,
            cluster_key,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_crypto::hash::HASH_IMAGE_LEN;
    use lrs_crypto::puzzle::PuzzleKeyChain;
    use lrs_crypto::schnorr::Keypair;
    use lrs_deluge::bootstrap::PageStore;
    use lrs_host::violation::BufferKind;
    use PacketDisposition::Accepted;

    fn setup() -> (SelugeScheme, SelugeScheme, Vec<u8>) {
        let (base, rx, image, _) = setup_with_artifacts();
        (base, rx, image)
    }

    #[test]
    fn full_transfer_reconstructs_image() {
        let (mut base, mut rx, image) = setup();
        let total = rx.num_items();
        advance_to(&mut base, &mut rx, total);
        assert_eq!(rx.image().unwrap(), image);
        // Exactly one expensive verification on the receiver.
        assert_eq!(rx.cost().signature_verifications, 1);
        assert_eq!(rx.cost().puzzle_checks, 1);
    }

    #[test]
    fn tampered_page_packet_rejected() {
        let (mut base, mut rx, _) = setup();
        advance_to(&mut base, &mut rx, 2);
        let mut p = base.packet_payload(2, 0).unwrap();
        p[0] ^= 0xFF;
        assert_eq!(rx.handle_packet(2, 0, &p), PacketDisposition::Rejected);
        // The genuine packet still goes through.
        let good = base.packet_payload(2, 0).unwrap();
        assert_eq!(rx.handle_packet(2, 0, &good), PacketDisposition::Accepted);
    }

    #[test]
    fn wrong_position_packet_rejected() {
        let (mut base, mut rx, _) = setup();
        advance_to(&mut base, &mut rx, 2);
        // Packet 1's payload presented as packet 0: hash mismatch.
        let p1 = base.packet_payload(2, 1).unwrap();
        assert_eq!(rx.handle_packet(2, 0, &p1), PacketDisposition::Rejected);
    }

    #[test]
    fn duplicates_detected() {
        let (mut base, mut rx, _) = setup();
        let sig = base.packet_payload(0, 0).unwrap();
        assert_eq!(rx.handle_packet(0, 0, &sig), PacketDisposition::Accepted);
        // item 0 is complete; engine would not feed it again, but the
        // hash-page path also reports duplicates:
        let hp = base.packet_payload(1, 1).unwrap();
        assert_eq!(rx.handle_packet(1, 1, &hp), PacketDisposition::Accepted);
        assert_eq!(rx.handle_packet(1, 1, &hp), PacketDisposition::Duplicate);
    }

    fn setup_with_artifacts() -> (SelugeScheme, SelugeScheme, Vec<u8>, SelugeArtifacts) {
        let params = SelugeParams {
            version: 1,
            image_len: 500,
            packets_per_page: 4,
            slice_len: 32,
            hash_page_chunks: 4,
            puzzle_strength: 4,
        };
        let image: Vec<u8> = (0..500u32).map(|i| (i % 249) as u8).collect();
        let kp = Keypair::from_seed(b"bs");
        let chain = PuzzleKeyChain::generate(b"puzzles", 4);
        let art = SelugeArtifacts::build(&image, params, &kp, &chain);
        let puzzle = Puzzle::new(chain.anchor(), params.puzzle_strength);
        let base = SelugeScheme::base(&art, kp.public(), puzzle);
        let rx = SelugeScheme::receiver(params, kp.public(), puzzle);
        (base, rx, image, art)
    }

    /// Transfers item by item from `base` until `rx` holds `level` items.
    fn advance_to(base: &mut SelugeScheme, rx: &mut SelugeScheme, level: u16) {
        while rx.complete_items() < level {
            let item = rx.complete_items();
            for idx in rx.wanted(item).iter_ones().collect::<Vec<_>>() {
                let p = base.packet_payload(item, idx as u16).expect("base has all");
                let disp = rx.handle_packet(item, idx as u16, &p);
                assert_eq!(disp, PacketDisposition::Accepted, "item {item} idx {idx}");
            }
        }
    }

    #[test]
    fn reboot_mid_page_keeps_flash_and_drops_ram() {
        let (mut base, mut rx, image, art) = setup_with_artifacts();
        advance_to(&mut base, &mut rx, 3); // signature + M0 + one page
        for idx in 0..2u16 {
            let p = base.packet_payload(3, idx).unwrap();
            rx.handle_packet(3, idx, &p);
        }
        rx.reboot();
        assert_eq!(rx.complete_items(), 3, "flash items survive");
        assert_eq!(
            rx.wanted(3).count_ones() as u16,
            rx.params().packets_per_page,
            "partial page is RAM"
        );
        rx.verify_invariants(&art, &image).unwrap();
        let total = rx.num_items();
        advance_to(&mut base, &mut rx, total);
        assert_eq!(rx.image().unwrap(), image);
        rx.verify_invariants(&art, &image).unwrap();
    }

    #[test]
    fn reboot_during_m0_drops_the_partial_hash_page() {
        let (mut base, mut rx, image, art) = setup_with_artifacts();
        advance_to(&mut base, &mut rx, 1);
        let p = base.packet_payload(1, 0).unwrap();
        rx.handle_packet(1, 0, &p);
        rx.reboot();
        assert_eq!(rx.complete_items(), 1, "verified signature is flash");
        assert_eq!(
            rx.wanted(1).count_ones() as u16,
            rx.params().hash_page_chunks,
            "partial M0 is RAM until fully assembled"
        );
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
        assert!(base.packet_payload(2, 3).is_some());
    }

    #[test]
    fn invariants_catch_a_corrupted_buffer() {
        let (mut base, mut rx, image, art) = setup_with_artifacts();
        advance_to(&mut base, &mut rx, 2);
        let p = base.packet_payload(2, 0).unwrap();
        rx.handle_packet(2, 0, &p);
        rx.verify_invariants(&art, &image).unwrap();
        base.verify_invariants(&art, &image).unwrap();
        let kp = Keypair::from_seed(b"bs");
        let puzzle = Puzzle::new(lrs_crypto::hash::Digest([0; 32]), 4);
        let good = layout(&rx.params());

        // A receiver whose hash chain was subverted: it "authenticated"
        // a packet that differs from the authentic one in one bit.
        let mut bad = p.clone();
        bad[3] ^= 1;
        let mut m0 = vec![0u8; rx.params().hash_page_len()];
        m0[..8].copy_from_slice(&bootstrap::packet_hash(1, 2, 0, &bad).0);
        let mut forged = Bootstrap::receiver(good, kp.public(), puzzle);
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

        // Receive buffers that do not have one slot per packet: a page
        // buffer with a slot too many on a receiver, and the slotless
        // page buffer base stations used to be built with.
        let extra = Layout {
            page_packets: good.page_packets + 1,
            ..good
        };
        rx.boot = Bootstrap::receiver(extra, kp.public(), puzzle);
        assert!(matches!(
            rx.verify_invariants(&art, &image),
            Err(InvariantViolation::BufferBound {
                buffer: BufferKind::Page,
                slots: 5,
                held: 0,
                count: 0
            })
        ));
        let none = Layout {
            page_packets: 0,
            ..good
        };
        base.boot = Bootstrap::base(none, kp.public(), puzzle, &art.origin);
        assert!(matches!(
            base.verify_invariants(&art, &image),
            Err(InvariantViolation::BufferBound { .. })
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

    /// `m0` listing the hash image of each of `packets` of page 0.
    fn m0_for(params: &SelugeParams, packets: &[Vec<u8>]) -> Vec<u8> {
        let mut m0 = vec![0u8; params.hash_page_len()];
        for (j, p) in (0u16..).zip(packets) {
            let at = usize::from(j) * HASH_IMAGE_LEN;
            m0[at..at + HASH_IMAGE_LEN].copy_from_slice(&bootstrap::packet_hash(1, 2, j, p).0);
        }
        m0
    }

    #[test]
    fn a_page_corrupted_as_it_completes_is_caught_by_the_next_check() {
        let (mut base, mut rx, image, art) = setup_with_artifacts();
        // The last packet of page 0 to arrive has one bit of its slice
        // flipped, and a subverted M0 vouches for it: the page is
        // corrupted as it completes, never while in flight.
        let last = rx.params().packets_per_page - 1;
        let mut packets: Vec<_> = (0..=last)
            .map(|j| base.packet_payload(2, j).unwrap())
            .collect();
        packets[usize::from(last)][3] ^= 1;
        let (pubkey, puzzle) = keys();
        let params = rx.params();
        let mut forged = Bootstrap::receiver(layout(&params), pubkey, puzzle);
        let signed = |root: &_| SelugeArtifacts::signed_message(&params, root);
        let body = art.signature_body();
        assert_eq!(forged.handle_signature(0, body, signed), Accepted);
        forged.hash_page_complete(m0_for(&params, &packets));
        rx.boot = forged;
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
                packet: Some(j),
                ..
            }) if j == u32::from(last)
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
        // whose packet 0 of page 1 chains to a corrupted packet 0 of
        // page 2: the watermark is past page 1, so only the in-flight
        // check can catch it.
        let mut bad = base.packet_payload(4, 0).unwrap();
        bad[3] ^= 1;
        let (params, mut origin) = (rx.params(), art.origin.clone());
        let mut forged_page = origin.pages.page(1).unwrap().to_vec();
        let at = params.slice_len;
        forged_page[at..at + HASH_IMAGE_LEN]
            .copy_from_slice(&bootstrap::packet_hash(1, 4, 0, &bad).0);
        origin.pages = PageStore::new(params.page_shape(), 2);
        origin.pages.push([art.origin.pages.page(0).unwrap()]);
        origin.pages.push([&forged_page[..]]);
        let (pubkey, puzzle) = keys();
        rx.boot = Bootstrap::base(layout(&params), pubkey, puzzle, &origin);
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
        // A seeded 40 % loss: a packet is dropped when the top bits of
        // a 64-bit LCG fall below 0.4 of their range.
        let mut state = 46u64;
        let mut lost = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % 10 < 4
        };
        let mut mark = Watermark::default();
        let mut check = |rx: &SelugeScheme| {
            let watermarked = rx.check_invariants(&art, &image, &mut mark);
            assert_eq!(watermarked, rx.verify_invariants(&art, &image));
            watermarked.unwrap();
        };
        let mut rebooted = false;
        while rx.complete_items() < rx.num_items() {
            let item = rx.complete_items();
            for j in rx.wanted(item).iter_ones().map(|j| j as u16) {
                if lost() {
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
    fn base_reports_complete_and_serves() {
        let (mut base, _, image) = setup();
        assert_eq!(base.complete_items(), base.num_items());
        assert_eq!(base.image().unwrap(), image);
        assert!(base.packet_payload(0, 0).is_some());
        assert!(base.packet_payload(2, 3).is_some());
        assert!(base.packet_payload(99, 0).is_none());
    }
}
