//! Plain Deluge image layout and its [`Scheme`] implementation.
//!
//! Deluge divides the code image into fixed-size pages of `k` packets of
//! `payload_len` bytes each (§II-A). There is no authentication: any
//! packet with the right coordinates is stored, which is exactly the
//! weakness Seluge/LR-Seluge address (and which the adversarial
//! experiments demonstrate).

use crate::attack::AttackerProfile;
use crate::bootstrap::{DeploymentKeys, PageShape, PageStore, SlotBuffer, Watermark};
use crate::deployment::{
    check_image_len, check_layout, check_payload_len, ParamError, SchemeFamily,
};
use crate::engine::{PacketDisposition, Scheme};
use crate::policy::UnionPolicy;
use crate::wire::BitVec;
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::puzzle::Puzzle;
use lrs_crypto::schnorr::PublicKey;
use lrs_host::node::PacketKind;
use lrs_host::violation::InvariantViolation;

/// Static layout parameters, preloaded on every node (in real Deluge
/// they travel in the advertisement profile).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageParams {
    /// Code image version.
    pub version: u16,
    /// Original image length in bytes.
    pub image_len: usize,
    /// Packets per page (`k`).
    pub packets_per_page: u16,
    /// Payload bytes per packet.
    pub payload_len: usize,
}

impl ImageParams {
    /// Number of pages `g`.
    pub fn pages(&self) -> u16 {
        let cap = self.page_capacity();
        assert!(cap > 0, "page capacity must be positive");
        (self.image_len.div_ceil(cap)).max(1) as u16
    }

    /// Image bytes carried per page.
    pub fn page_capacity(&self) -> usize {
        self.packets_per_page as usize * self.payload_len
    }

    /// How a page is stored: its packets, with no tail.
    fn page_shape(&self) -> PageShape {
        let len = self.payload_len;
        PageShape::new(self.packets_per_page.into(), len, len)
    }
}

/// A fully materialized image at the base station.
#[derive(Clone, Debug)]
pub struct DelugeImage {
    params: ImageParams,
    /// Image data zero-padded to `pages * page_capacity`, page by page.
    pages: PageStore,
}

impl DelugeImage {
    /// Prepares an image for dissemination.
    ///
    /// # Panics
    ///
    /// Panics on what [`try_new`](Self::try_new) rejects.
    pub fn new(data: Vec<u8>, params: ImageParams) -> Self {
        match Self::try_new(data, params) {
            Ok(image) => image,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// An empty image, one whose length is not `params.image_len`, a
    /// zero page capacity, more pages than are addressable, or a payload
    /// longer than the wire can frame.
    pub fn try_new(data: Vec<u8>, params: ImageParams) -> Result<Self, ParamError> {
        check_payload_len("payload_len", params.payload_len).map_err(ParamError)?;
        check_layout(params.image_len, params.page_capacity()).map_err(ParamError)?;
        check_image_len(&data, params.image_len)?;
        let mut padded = data;
        padded.resize(params.pages() as usize * params.page_capacity(), 0);
        let pages = PageStore::from_bytes(params.page_shape(), padded);
        Ok(DelugeImage { params, pages })
    }
}

/// Deluge's per-node transfer state. Items are pages.
#[derive(Clone, Debug)]
pub struct DelugeScheme {
    params: ImageParams,
    /// Completed pages: flash.
    pages: PageStore,
    /// Packets of the page currently being received.
    current: SlotBuffer,
}

impl DelugeScheme {
    /// The base-station side: starts with every page complete.
    pub fn base(image: &DelugeImage) -> Self {
        DelugeScheme {
            params: image.params,
            pages: image.pages.clone(),
            current: SlotBuffer::new(image.params.packets_per_page as usize),
        }
    }

    /// A receiver with no pages.
    pub fn receiver(params: ImageParams) -> Self {
        DelugeScheme {
            params,
            pages: PageStore::new(params.page_shape(), usize::from(params.pages())),
            current: SlotBuffer::new(params.packets_per_page as usize),
        }
    }

    /// The reassembled image, once all pages are complete.
    pub fn image(&self) -> Option<Vec<u8>> {
        (self.complete_items() == self.params.pages())
            .then(|| self.pages.image(self.params.image_len))
    }

    /// Layout parameters.
    pub fn params(&self) -> ImageParams {
        self.params
    }
}

impl Scheme for DelugeScheme {
    fn version(&self) -> u16 {
        self.params.version
    }

    fn num_items(&self) -> u16 {
        self.params.pages()
    }

    fn item_packets(&self, _item: u16) -> u16 {
        self.params.packets_per_page
    }

    fn packets_needed(&self, _item: u16) -> u16 {
        self.params.packets_per_page
    }

    fn complete_items(&self) -> u16 {
        self.pages.pages() as u16
    }

    fn handle_packet(&mut self, item: u16, index: u16, payload: &[u8]) -> PacketDisposition {
        debug_assert_eq!(
            item,
            self.complete_items(),
            "engine only feeds the next item"
        );
        if index >= self.params.packets_per_page || payload.len() != self.params.payload_len {
            return PacketDisposition::Rejected;
        }
        if self.current.get(index as usize).is_some() {
            return PacketDisposition::Duplicate;
        }
        self.current.store(index as usize, payload);
        if self.current.is_full() {
            self.pages.push(self.current.iter().map(|(_, p)| p));
            self.current.clear();
        }
        PacketDisposition::Accepted
    }

    fn wanted(&self, item: u16) -> BitVec {
        debug_assert_eq!(item, self.complete_items());
        self.current.wanted()
    }

    fn packet_payload(&mut self, item: u16, index: u16) -> Option<Vec<u8>> {
        let packet = self.pages.stride(usize::from(item), usize::from(index))?;
        Some(packet.to_vec())
    }

    fn item_kind(&self, _item: u16) -> PacketKind {
        PacketKind::Data
    }

    fn reboot(&mut self) {
        // Completed pages are flash; only the partially received page is
        // RAM and is lost.
        self.current.clear();
    }
}

/// Plain Deluge as a [`SchemeFamily`]: no keys are used, nothing is
/// authenticated, so there is no digest memo and
/// `verify_invariants` is vacuous by design (a flooded Deluge node
/// commits forged bytes; that is the contrast case, not a violation of
/// anything Deluge promises).
impl SchemeFamily for DelugeScheme {
    const NAME: &'static str = "deluge";
    type Params = ImageParams;
    type Artifacts = DelugeImage;
    type Policy = UnionPolicy;

    fn key_schedule(params: &ImageParams) -> (u16, u32) {
        (params.version, 0)
    }

    fn image_len(params: &ImageParams) -> usize {
        params.image_len
    }

    fn try_build(
        image: &[u8],
        params: ImageParams,
        _keys: &DeploymentKeys,
    ) -> Result<DelugeImage, ParamError> {
        DelugeImage::try_new(image.to_vec(), params)
    }

    fn base(artifacts: &DelugeImage, _pubkey: PublicKey, _puzzle: Puzzle) -> Self {
        DelugeScheme::base(artifacts)
    }

    fn receiver(params: ImageParams, _pubkey: PublicKey, _puzzle: Puzzle) -> Self {
        DelugeScheme::receiver(params)
    }

    fn image(&self) -> Option<Vec<u8>> {
        DelugeScheme::image(self)
    }

    fn check_invariants(
        &self,
        _artifacts: &DelugeImage,
        _image: &[u8],
        _mark: &mut Watermark,
    ) -> Result<(), InvariantViolation> {
        Ok(())
    }

    fn attacker_profile(params: &ImageParams, cluster_key: Option<ClusterKey>) -> AttackerProfile {
        AttackerProfile {
            payload_len: params.payload_len,
            index_space: params.packets_per_page,
            sig_body_len: 0,
            n_bits: params.packets_per_page as usize,
            version: params.version,
            cluster_key,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ImageParams {
        ImageParams {
            version: 1,
            image_len: 1000,
            packets_per_page: 4,
            payload_len: 64,
        }
    }

    fn data() -> Vec<u8> {
        (0..1000u32).map(|i| (i % 251) as u8).collect()
    }

    fn test_image() -> DelugeImage {
        DelugeImage::new(data(), params())
    }

    #[test]
    fn page_count() {
        // 1000 bytes / (4 * 64 = 256 per page) = 4 pages.
        assert_eq!(params().pages(), 4);
        let one_byte = ImageParams {
            image_len: 1,
            ..params()
        };
        assert_eq!(one_byte.pages(), 1);
    }

    #[test]
    fn base_scheme_serves_all_packets() {
        let img = test_image();
        let mut scheme = DelugeScheme::base(&img);
        assert_eq!(scheme.complete_items(), 4);
        let mut padded = data();
        padded.resize(1024, 0);
        for (page, packets) in (0..4).zip(padded.chunks(256)) {
            for (idx, packet) in (0..4).zip(packets.chunks(64)) {
                assert_eq!(scheme.packet_payload(page, idx).unwrap(), packet);
            }
            assert_eq!(scheme.packet_payload(page, 4), None);
        }
        assert_eq!(scheme.image().unwrap(), data());
    }

    #[test]
    fn receiver_assembles_pages_in_order() {
        let img = test_image();
        let mut base = DelugeScheme::base(&img);
        let mut rx = DelugeScheme::receiver(params());
        assert_eq!(rx.complete_items(), 0);
        assert!(rx.image().is_none());
        for page in 0..4u16 {
            // Deliver out of packet order.
            for idx in [2u16, 0, 3, 1] {
                let payload = base.packet_payload(page, idx).unwrap();
                assert_eq!(
                    rx.handle_packet(page, idx, &payload),
                    PacketDisposition::Accepted
                );
            }
            assert_eq!(rx.complete_items(), page + 1);
        }
        assert_eq!(rx.image().unwrap(), data());
    }

    #[test]
    fn duplicates_and_malformed() {
        let img = test_image();
        let mut base = DelugeScheme::base(&img);
        let mut rx = DelugeScheme::receiver(params());
        let payload = base.packet_payload(0, 1).unwrap();
        assert_eq!(
            rx.handle_packet(0, 1, &payload),
            PacketDisposition::Accepted
        );
        assert_eq!(
            rx.handle_packet(0, 1, &payload),
            PacketDisposition::Duplicate
        );
        assert_eq!(
            rx.handle_packet(0, 9, &payload),
            PacketDisposition::Rejected,
            "index out of range"
        );
        assert_eq!(
            rx.handle_packet(0, 2, &payload[..10]),
            PacketDisposition::Rejected,
            "short payload"
        );
    }

    #[test]
    fn wanted_tracks_missing() {
        let img = test_image();
        let mut base = DelugeScheme::base(&img);
        let mut rx = DelugeScheme::receiver(params());
        assert_eq!(rx.wanted(0).count_ones(), 4);
        let payload = base.packet_payload(0, 2).unwrap();
        rx.handle_packet(0, 2, &payload);
        let w = rx.wanted(0);
        assert_eq!(w.count_ones(), 3);
        assert!(!w.get(2));
    }

    #[test]
    fn reboot_keeps_flash_pages_and_drops_the_partial_one() {
        let img = test_image();
        let mut base = DelugeScheme::base(&img);
        let mut rx = DelugeScheme::receiver(params());
        // Complete page 0, then half-fill page 1.
        for idx in 0..4 {
            let p = base.packet_payload(0, idx).unwrap();
            rx.handle_packet(0, idx, &p);
        }
        for idx in 0..2 {
            let p = base.packet_payload(1, idx).unwrap();
            rx.handle_packet(1, idx, &p);
        }
        assert_eq!(rx.wanted(1).count_ones(), 2);
        rx.reboot();
        assert_eq!(rx.complete_items(), 1, "flash page survives");
        assert_eq!(rx.wanted(1).count_ones(), 4, "RAM partial page lost");
        // The run still completes after the reboot.
        for page in 1..4 {
            for idx in 0..4 {
                let p = base.packet_payload(page, idx).unwrap();
                rx.handle_packet(page, idx, &p);
            }
        }
        assert_eq!(rx.image().unwrap(), data());
    }

    #[test]
    fn payload_longer_than_the_wire_length_field_is_rejected() {
        // 65 536 bytes used to wrap the u16 length to 0: every receiver
        // dropped the frame as malformed and the run never completed.
        let p = ImageParams {
            payload_len: crate::wire::MAX_PAYLOAD_LEN + 1,
            ..params()
        };
        let err = DelugeImage::try_new(vec![0u8; p.image_len], p).unwrap_err();
        assert!(err.0.contains("payload_len is 65536 bytes"), "{err}");
        let fits = ImageParams {
            payload_len: crate::wire::MAX_PAYLOAD_LEN,
            ..params()
        };
        assert!(DelugeImage::try_new(vec![0u8; fits.image_len], fits).is_ok());
    }

    #[test]
    fn deluge_accepts_bogus_payloads() {
        // The insecure baseline stores anything of the right shape — the
        // vulnerability the secure schemes close.
        let mut rx = DelugeScheme::receiver(params());
        let bogus = vec![0xEE; 64];
        assert_eq!(rx.handle_packet(0, 0, &bogus), PacketDisposition::Accepted);
    }
}
