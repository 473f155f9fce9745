//! The security bootstrap Seluge and LR-Seluge share.
//!
//! LR-Seluge changes one thing in Seluge's security design: what a
//! page's hash images are computed over and where they travel (paper
//! §IV-C against §II-B). The rest is identical and lives here, once: the
//! packet-hash encoding and the digest memo in front of it, the
//! signature body and the puzzle-before-signature rule, the hash page
//! `M0` framed as `block ‖ Merkle path` under the signed root, per-packet
//! authentication against the hash images the previous item delivered,
//! the receive buffers and their invariants, and the derivation of a
//! deployment's keys.
//!
//! A scheme owns a [`Bootstrap`] and adds its page-chaining rule: when an
//! item is complete, what its bytes are, and which hash images they carry
//! for the next one. The message under the signature also stays with the
//! scheme (each binds its own domain tag and parameter fields), so a body
//! sealed for one scheme never verifies in the other.

use crate::engine::{CryptoCost, PacketDisposition};
use crate::wire::BitVec;
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::hash::{hash_image, Digest, HashImage, HASH_IMAGE_LEN};
use lrs_crypto::merkle::{MerkleProof, MerkleTree};
use lrs_crypto::puzzle::{Puzzle, PuzzleKeyChain, PuzzleSolution};
use lrs_crypto::schnorr::{Keypair, PublicKey, Signature, SIGNATURE_LEN};
use lrs_host::node::PacketKind;
use lrs_host::violation::{BufferKind, ContentDigest, InvariantViolation};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hash image of a data packet as transmitted on the wire:
/// `h_{i,j} = H(version ‖ item ‖ index ‖ payload)` truncated. Both
/// preprocessing and receiver-side verification use this encoding.
pub fn packet_hash(version: u16, item: u16, index: u16, payload: &[u8]) -> HashImage {
    hash_image(&[
        &version.to_be_bytes(),
        &item.to_be_bytes(),
        &index.to_be_bytes(),
        payload,
    ])
}

/// [`packet_hash`] for all packets of one page at once: entry `j` of the
/// result is `packet_hash(version, item, j, payloads[j])`.
pub fn packet_hash_batch<P: AsRef<[u8]>>(
    version: u16,
    item: u16,
    payloads: &[P],
) -> Vec<HashImage> {
    (0u16..)
        .zip(payloads)
        .map(|(j, p)| packet_hash(version, item, j, p.as_ref()))
        .collect()
}

/// Default bound on distinct cached packet digests.
///
/// Keys are `(version, item, index)`, so a run caches at most one entry
/// per protocol packet position; the bound is a safety valve against
/// adversarial payload churn, not a working-set limit.
pub const DEFAULT_DIGEST_CACHE_CAPACITY: usize = 1 << 16;

struct DigestMemo {
    /// (version, item, index) → (payload bytes, digest).
    map: HashMap<(u16, u16, u16), (Vec<u8>, HashImage)>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

/// The shared per-run packet-digest memo; clone to share.
///
/// A broadcast is one transmission heard by many receivers, and every
/// receiver hashes the identical bytes to authenticate the packet. The
/// real deployment cannot avoid that work (each mote owns its CPU), but
/// a process that hosts every node of a run can: one memo shared by all
/// of them computes each distinct `(version, item, index, payload)`
/// digest once and serves the rest from memory. Schemes still count
/// every logical hash in their per-node cost (the paper's §V-B
/// computation counts stay honest); hits are reported separately as
/// *memoized* hashes.
///
/// The memo is deliberately `Rc`-based: a run is single-threaded, and
/// keeping the memo out of cross-thread types (it is created per run,
/// never stored in shared deployment state) preserves the harness's
/// thread-count invariance.
#[derive(Clone)]
pub struct PacketDigestCache {
    inner: Rc<RefCell<DigestMemo>>,
}

impl fmt::Debug for PacketDigestCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("PacketDigestCache")
            .field("entries", &inner.map.len())
            .field("hits", &inner.hits)
            .field("misses", &inner.misses)
            .finish()
    }
}

impl Default for PacketDigestCache {
    fn default() -> Self {
        Self::new(DEFAULT_DIGEST_CACHE_CAPACITY)
    }
}

impl PacketDigestCache {
    /// Creates a cache bounded to `capacity` distinct packet positions.
    pub fn new(capacity: usize) -> Self {
        PacketDigestCache {
            inner: Rc::new(RefCell::new(DigestMemo {
                map: HashMap::new(),
                capacity,
                hits: 0,
                misses: 0,
            })),
        }
    }

    /// Returns the memoized digest for this packet position if — and
    /// only if — the cached payload is byte-identical to `payload`.
    ///
    /// A byte comparison is far cheaper than recomputing a cryptographic
    /// digest, and insisting on it means a spoofed packet reusing a
    /// genuine packet's position can never be served a genuine digest.
    pub fn lookup(&self, version: u16, item: u16, index: u16, payload: &[u8]) -> Option<HashImage> {
        let mut inner = self.inner.borrow_mut();
        match inner.map.get(&(version, item, index)) {
            Some((bytes, digest)) if bytes == payload => {
                let d = *digest;
                inner.hits += 1;
                Some(d)
            }
            _ => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Records `digest` for this packet position. First writer wins: an
    /// existing entry (even for different bytes) is kept, so adversarial
    /// payload churn cannot evict genuine packets.
    pub fn insert(&self, version: u16, item: u16, index: u16, payload: &[u8], digest: HashImage) {
        let mut inner = self.inner.borrow_mut();
        if inner.map.len() >= inner.capacity {
            return;
        }
        inner
            .map
            .entry((version, item, index))
            .or_insert_with(|| (payload.to_vec(), digest));
    }

    /// Pre-fills the cache from an iterator of
    /// `((version, item, index), payload, digest)` entries — the
    /// up-front fill path. A run that knows its packets up front (the
    /// base-station artifacts enumerate every predetermined packet) can
    /// compute all digests once and warm the cache instead of hashing
    /// packet-by-packet on first reception.
    ///
    /// Uses the same first-writer-wins and capacity rules as
    /// [`PacketDigestCache::insert`] and, like it, never touches the
    /// hit/miss counters — warming changes where digests come from,
    /// never how many logical hashes the schemes count.
    pub fn warm<'a, I>(&self, entries: I)
    where
        I: IntoIterator<Item = ((u16, u16, u16), &'a [u8], HashImage)>,
    {
        let mut inner = self.inner.borrow_mut();
        for ((version, item, index), payload, digest) in entries {
            if inner.map.len() >= inner.capacity {
                return;
            }
            inner
                .map
                .entry((version, item, index))
                .or_insert_with(|| (payload.to_vec(), digest));
        }
    }

    /// `(hits, misses)` counters since creation.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.hits, inner.misses)
    }
}

/// Pre-fills a run's digest memo with the hash image of every
/// predetermined data packet (stride `j` of page `i` of `packets` is
/// packet `j` of wire item `i + 2`). Receivers then verify even
/// first-contact packets against warm entries; per-node `hashes`
/// counters are unaffected (hits land in `memoized_hashes`).
pub fn warm_digest_cache(cache: &PacketDigestCache, version: u16, packets: &PageStore) {
    for (i, item) in (0..packets.pages()).zip(2u16..) {
        let page = packets.page(i).expect("stored");
        cache.warm(
            (0u16..)
                .zip(page.chunks(packets.shape.stride))
                .map(|(j, p)| ((version, item, j), p, packet_hash(version, item, j, p))),
        );
    }
}

/// The hash images laid end to end in `bytes`, less a partial one.
fn hash_images(bytes: &[u8]) -> Vec<HashImage> {
    let images = bytes.chunks_exact(HASH_IMAGE_LEN);
    images
        .map(|c| HashImage::from_slice(c).expect("whole"))
        .collect()
}

/// Metric class of the secure schemes' items: signature, hash page, pages.
pub fn item_kind(item: u16) -> PacketKind {
    match item {
        0 => PacketKind::Signature,
        1 => PacketKind::HashPage,
        _ => PacketKind::Data,
    }
}

/// Code versions past the deployed one that a deployment's puzzle key
/// chain can still disclose a key for.
const PUZZLE_CHAIN_HEADROOM: u32 = 4;

/// Every key of one deployment, derived from one piece of seed material.
pub struct DeploymentKeys {
    /// The base station's signing keypair.
    pub keypair: Keypair,
    /// The base station's puzzle key chain.
    pub chain: PuzzleKeyChain,
    /// The puzzle verifier preloaded on every node.
    pub puzzle: Puzzle,
    /// The cluster key authenticating control packets.
    pub cluster_key: ClusterKey,
}

impl DeploymentKeys {
    /// The keys for disseminating code `version` behind a puzzle of
    /// `puzzle_strength` leading zero bits.
    pub fn derive(seed_material: &[u8], version: u16, puzzle_strength: u32) -> Self {
        let chain =
            PuzzleKeyChain::generate(seed_material, u32::from(version) + PUZZLE_CHAIN_HEADROOM);
        DeploymentKeys {
            keypair: Keypair::from_seed(seed_material),
            puzzle: Puzzle::new(chain.anchor(), puzzle_strength),
            chain,
            cluster_key: ClusterKey::derive(seed_material, 0),
        }
    }
}

/// Wire length of the signature packet's body:
/// `root ‖ signature ‖ puzzle key ‖ puzzle solution`.
pub const SIGNATURE_BODY_LEN: usize = 32 + SIGNATURE_LEN + PuzzleSolution::WIRE_LEN;

/// Signs `signed` (the scheme's digest binding `root` to its parameters),
/// solves the puzzle over the result and serialises the signature body.
pub fn seal_signature_body(
    root: &Digest,
    signed: &Digest,
    keypair: &Keypair,
    chain: &PuzzleKeyChain,
    version: u16,
    puzzle_strength: u32,
) -> Vec<u8> {
    let signature = keypair.sign(&signed.0).to_bytes();
    let puzzle = Puzzle::new(chain.anchor(), puzzle_strength);
    let message = puzzle_message(signed, &signature);
    let solution = chain.solve(&puzzle, u32::from(version), &message);
    let mut body = Vec::with_capacity(SIGNATURE_BODY_LEN);
    body.extend_from_slice(&root.0);
    body.extend_from_slice(&signature);
    body.extend_from_slice(&solution.key.0);
    body.extend_from_slice(&solution.solution.to_be_bytes());
    body
}

/// Splits a signature body into `(root, signature, puzzle solution)`.
pub fn parse_signature_body(body: &[u8]) -> Option<(Digest, [u8; SIGNATURE_LEN], PuzzleSolution)> {
    if body.len() != SIGNATURE_BODY_LEN {
        return None;
    }
    let (root, rest) = body.split_at(32);
    let (signature, rest) = rest.split_at(SIGNATURE_LEN);
    let (key, solution) = rest.split_at(32);
    let solution = PuzzleSolution {
        key: Digest(key.try_into().ok()?),
        solution: u64::from_be_bytes(solution.try_into().ok()?),
    };
    Some((
        Digest(root.try_into().ok()?),
        signature.try_into().ok()?,
        solution,
    ))
}

/// The puzzle covers the signed message *and* the signature bytes, so any
/// tampering fails the cheap check before the expensive verification.
fn puzzle_message(signed: &Digest, signature: &[u8; SIGNATURE_LEN]) -> Vec<u8> {
    [&signed.0[..], signature].concat()
}

/// Builds the Merkle tree over the hash page's `blocks` and frames each
/// as a packet payload `block ‖ authentication path`; returns the root
/// and the payloads.
pub fn frame_hash_page<B: AsRef<[u8]>>(blocks: &[B]) -> (Digest, Vec<Vec<u8>>) {
    let tree = MerkleTree::build(blocks.iter().map(|b| b.as_ref()));
    let frame = |(j, block): (usize, &B)| {
        let mut payload = block.as_ref().to_vec();
        for sibling in tree.proof(j).siblings() {
            payload.extend_from_slice(&sibling.0);
        }
        payload
    };
    (tree.root(), blocks.iter().enumerate().map(frame).collect())
}

/// The receive buffer of one item: a fixed number of packet slots and a
/// count of the occupied ones.
#[derive(Clone, Debug)]
pub struct SlotBuffer {
    slots: Vec<Option<Vec<u8>>>,
    held: usize,
    /// Unique to this buffer since it was last emptied. Until then slots
    /// only fill, so a stamp and a count name one content.
    stamp: u64,
}

/// The next [`SlotBuffer`] stamp; 0 is never issued. `Relaxed` is
/// enough: a stamp only has to differ from every other, and it publishes
/// no other data.
fn next_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl SlotBuffer {
    /// An empty buffer of `slots` slots.
    pub(crate) fn new(slots: usize) -> Self {
        SlotBuffer {
            slots: vec![None; slots],
            held: 0,
            stamp: next_stamp(),
        }
    }

    /// Number of occupied slots.
    pub fn held(&self) -> usize {
        self.held
    }

    /// Whether every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.held == self.slots.len()
    }

    /// The packet in slot `index`, if one is held.
    pub fn get(&self, index: usize) -> Option<&[u8]> {
        self.slots.get(index)?.as_deref()
    }

    /// The held packets with their slot indices, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> {
        (0..)
            .zip(&self.slots)
            .filter_map(|(j, s)| Some((j, s.as_deref()?)))
    }

    /// Copies `payload` into slot `index`, which must be empty.
    pub(crate) fn store(&mut self, index: usize, payload: &[u8]) {
        let slot = &mut self.slots[index];
        assert!(slot.is_none(), "slot {index} is already occupied");
        *slot = Some(payload.to_vec());
        self.held += 1;
    }

    /// The empty slots: the SNACK request vector for this item.
    pub fn wanted(&self) -> BitVec {
        let mut bits = BitVec::zeros(self.slots.len());
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.is_none() {
                bits.set(i, true);
            }
        }
        bits
    }

    pub(crate) fn clear(&mut self) {
        self.slots.fill(None);
        self.held = 0;
        self.stamp = next_stamp();
    }

    /// One slot per authentic packet, and the count matches the slots.
    fn verify_bound(&self, buffer: BufferKind, slots: usize) -> Result<(), InvariantViolation> {
        let held = self.slots.iter().flatten().count();
        if self.slots.len() != slots || held != self.held {
            return Err(InvariantViolation::BufferBound {
                buffer,
                slots: self.slots.len() as u64,
                held: held as u64,
                count: self.held as u64,
            });
        }
        Ok(())
    }

    /// Every held packet is byte-identical to the authentic one
    /// (`authentic(j)` for slot `j`): nothing unauthenticated sits in the
    /// buffer.
    fn verify_authentic<'a>(
        &self,
        buffer: BufferKind,
        page: Option<u32>,
        authentic: impl Fn(usize) -> &'a [u8],
    ) -> Result<(), InvariantViolation> {
        match self.iter().find(|&(j, held)| held != authentic(j)) {
            None => Ok(()),
            Some((j, held)) => Err(InvariantViolation::UnauthenticPacket {
                buffer,
                page,
                index: j as u32,
                expected: ContentDigest::of(authentic(j)),
                actual: ContentDigest::of(held),
            }),
        }
    }
}

/// How a verified page is laid out in a [`PageStore`]: a whole number
/// of strides, each its image bytes followed by its chain tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageShape {
    /// Bytes of one page.
    pub page_len: usize,
    /// Bytes of one stride.
    pub stride: usize,
    /// Image bytes at the front of each stride; the rest is its tail.
    pub image_bytes: usize,
}

impl PageShape {
    /// A page of `strides` strides of `stride` bytes, each starting with
    /// `image_bytes` of image.
    pub fn new(strides: usize, stride: usize, image_bytes: usize) -> Self {
        PageShape {
            page_len: strides * stride,
            stride,
            image_bytes,
        }
    }
}

/// A node's flash: the pages it has verified, in order, end to end in
/// one buffer.
///
/// The paper's nodes write each verified page to flash before asking
/// for the next and never download it again, so the store is
/// append-only: a pushed page is never rewritten or removed, a reboot
/// keeps it, and the completion counter of a scheme is read off it.
/// Each scheme picks the [`PageShape`]:
/// - LR-Seluge stores a page's decoded input as one stride of
///   `k·payload_len` bytes, `page_capacity` of them image;
/// - Seluge stores a page's packets, strides of `payload_len` bytes,
///   `slice_len` of them image;
/// - Deluge stores a page's packets with no tail.
///
/// The tails of the last stored page, laid end to end, are the hash
/// images of the next page's packets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageStore {
    shape: PageShape,
    bytes: Vec<u8>,
}

impl PageStore {
    /// An empty store with room for the `capacity` pages of an image,
    /// so that storing them never moves or over-allocates the bytes.
    pub fn new(shape: PageShape, capacity: usize) -> Self {
        Self::from_bytes(shape, Vec::with_capacity(capacity * shape.page_len))
    }

    /// A store holding `bytes`: whole pages of `shape` end to end.
    pub fn from_bytes(shape: PageShape, bytes: Vec<u8>) -> Self {
        assert!(shape.page_len.is_multiple_of(shape.stride) && shape.image_bytes <= shape.stride);
        assert!(bytes.len().is_multiple_of(shape.page_len), "whole pages");
        PageStore { shape, bytes }
    }

    /// Number of pages stored.
    pub fn pages(&self) -> usize {
        self.bytes.len() / self.shape.page_len
    }

    /// Appends one page, given as `parts` laid end to end.
    ///
    /// # Panics
    ///
    /// Panics unless the parts add up to one page.
    pub fn push<'a>(&mut self, parts: impl IntoIterator<Item = &'a [u8]>) {
        let start = self.bytes.len();
        for part in parts {
            self.bytes.extend_from_slice(part);
        }
        assert_eq!(self.bytes.len() - start, self.shape.page_len, "one page");
    }

    /// Page `i`, if stored.
    pub fn page(&self, i: usize) -> Option<&[u8]> {
        let len = self.shape.page_len;
        self.bytes.get(i * len..(i + 1) * len)
    }

    /// Stride `j` of page `i` (packet `j` of a Seluge or Deluge page).
    pub fn stride(&self, i: usize, j: usize) -> Option<&[u8]> {
        let stride = self.shape.stride;
        self.page(i)?.get(j * stride..(j + 1) * stride)
    }

    /// Strides per page.
    pub(crate) fn strides(&self) -> usize {
        self.shape.page_len / self.shape.stride
    }

    /// The first `len` image bytes: each stride's image bytes in order.
    pub(crate) fn image(&self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for stride in self.bytes.chunks(self.shape.stride) {
            out.extend_from_slice(&stride[..self.shape.image_bytes]);
        }
        out.truncate(len);
        out
    }

    /// The hash images laid end to end in the tails of the last stored
    /// page: those of the next page's packets.
    pub(crate) fn chained_images(&self) -> Vec<HashImage> {
        let last = &self.bytes[self.bytes.len().saturating_sub(self.shape.page_len)..];
        let tails = last
            .chunks(self.shape.stride)
            .flat_map(|s| &s[self.shape.image_bytes..]);
        hash_images(&tails.copied().collect::<Vec<u8>>())
    }

    /// The store still holds the `checked` pages compared before, and
    /// every page past them is byte-identical to `origin`'s.
    fn verify(&self, checked: usize, origin: &PageStore) -> Result<(), InvariantViolation> {
        let stride = self.shape.stride;
        for i in checked.min(self.pages())..self.pages().max(checked) {
            let held = self.page(i).unwrap_or_default();
            let authentic = origin.page(i).unwrap_or_default();
            if held != authentic {
                // The first diverging stride: a Seluge or Deluge packet.
                let pairs = held.chunks(stride).zip(authentic.chunks(stride));
                let j = pairs.take_while(|(h, a)| h == a).count();
                return Err(InvariantViolation::PageMismatch {
                    page: i as u32,
                    packet: (self.strides() > 1).then_some(j as u32),
                    expected: content_digest(authentic.chunks(stride).nth(j)),
                    actual: content_digest(held.chunks(stride).nth(j)),
                });
            }
        }
        Ok(())
    }
}

/// The item geometry a scheme's parameters fix.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Code image version.
    pub version: u16,
    /// Image length in bytes.
    pub image_len: usize,
    /// Items in the image: signature, hash page, then the code pages.
    pub num_items: u16,
    /// Hash-page packets (the Merkle leaf count, a power of two).
    pub hash_page_packets: u16,
    /// Bytes of each hash-page packet in front of its Merkle path.
    pub hash_block_len: usize,
    /// Packets per code page.
    pub page_packets: u16,
    /// Payload bytes of each code-page packet.
    pub page_payload_len: usize,
    /// How a verified page is stored.
    pub page_shape: PageShape,
}

/// What the base station preprocessed for one image that the bootstrap
/// reads: the sealed signature, the hash page `M0` with its framed
/// packets, and every page as a node stores it. The base station starts
/// from it, and a node's state is checked against it.
#[derive(Clone, Debug)]
pub struct Origin {
    /// The sealed signature body.
    pub signature_body: Vec<u8>,
    /// The Merkle root it signs.
    pub root: Digest,
    /// The hash-page packets as framed for the air.
    pub hash_page: Vec<Vec<u8>>,
    /// The hash page `M0` they reassemble to.
    pub m0: Vec<u8>,
    /// Every page as a node stores it.
    pub pages: PageStore,
}

/// How far the invariant check has got through one node's state: the
/// complete hash page, the content of the page buffer, the leading
/// stored pages and the complete image it has already compared with the
/// origin. Flash only grows (see [`PageStore`]) and a buffer only fills
/// until it is emptied and restamped, so what was compared once never
/// needs comparing again; an empty watermark checks everything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Watermark {
    hash_page: bool,
    /// The page buffer's stamp and count when it was last compared.
    page: (u64, usize),
    pages: usize,
    image: bool,
}

/// A node's side of the bootstrap: what it has authenticated so far and
/// what it needs to authenticate the next packet.
#[derive(Clone, Debug)]
pub struct Bootstrap {
    layout: Layout,
    pubkey: PublicKey,
    puzzle: Puzzle,
    signature_body: Option<Vec<u8>>,
    root: Option<Digest>,
    hash_page: SlotBuffer,
    /// The hash page once complete; flash, like the pages.
    m0: Option<Vec<u8>>,
    page: SlotBuffer,
    pages: PageStore,
    /// Hash images of the packets of the next page to receive, read off
    /// `M0` or the last stored page whenever either is written.
    expected: Vec<HashImage>,
    digest_cache: Option<PacketDigestCache>,
    /// Cryptographic work performed so far; the owning scheme adds its
    /// erasure coding to it.
    pub cost: CryptoCost,
}

impl Bootstrap {
    /// A receiver that has authenticated nothing yet.
    pub fn receiver(layout: Layout, pubkey: PublicKey, puzzle: Puzzle) -> Self {
        let pages = PageStore::new(layout.page_shape, usize::from(layout.num_items - 2));
        Self::with_pages(layout, pubkey, puzzle, pages)
    }

    /// A node holding what `origin` preprocessed: the base station, which
    /// sealed the signature itself, buffers the framed hash-page packets
    /// and stores every page.
    pub fn base(layout: Layout, pubkey: PublicKey, puzzle: Puzzle, origin: &Origin) -> Self {
        let mut boot = Self::with_pages(layout, pubkey, puzzle, origin.pages.clone());
        boot.signature_body = Some(origin.signature_body.clone());
        boot.root = Some(origin.root);
        for (j, packet) in origin.hash_page.iter().enumerate() {
            boot.hash_page.store(j, packet);
        }
        boot.hash_page_complete(origin.m0.clone());
        boot
    }

    /// A node whose flash is `pages` and which has authenticated nothing
    /// else.
    fn with_pages(layout: Layout, pubkey: PublicKey, puzzle: Puzzle, pages: PageStore) -> Self {
        Bootstrap {
            layout,
            pubkey,
            puzzle,
            signature_body: None,
            root: None,
            hash_page: SlotBuffer::new(layout.hash_page_packets as usize),
            m0: None,
            page: SlotBuffer::new(layout.page_packets as usize),
            pages,
            expected: Vec::new(),
            digest_cache: None,
            cost: CryptoCost::default(),
        }
    }

    /// Attaches a run-wide digest memo shared by all nodes of a sim run.
    pub fn set_digest_cache(&mut self, cache: PacketDigestCache) {
        self.digest_cache = Some(cache);
    }

    /// Number of leading complete items: the signature, the hash page,
    /// then one per stored page.
    pub fn complete(&self) -> u16 {
        match (&self.m0, &self.signature_body) {
            (Some(_), _) => 2 + self.pages.pages() as u16,
            (None, Some(_)) => 1,
            (None, None) => 0,
        }
    }

    /// Whether every item is complete.
    pub fn is_complete(&self) -> bool {
        self.complete() == self.layout.num_items
    }

    /// The verified signature body, for serving item 0.
    pub fn signature_body(&self) -> Option<&[u8]> {
        self.signature_body.as_deref()
    }

    /// The hash-page receive buffer.
    pub fn hash_page(&self) -> &SlotBuffer {
        &self.hash_page
    }

    /// The hash page, once complete.
    pub fn m0(&self) -> Option<&[u8]> {
        self.m0.as_deref()
    }

    /// The receive buffer of the page in flight.
    pub fn page(&self) -> &SlotBuffer {
        &self.page
    }

    /// The verified pages.
    pub fn pages(&self) -> &PageStore {
        &self.pages
    }

    /// The verified image, once every item is complete.
    pub fn image(&self) -> Option<Vec<u8>> {
        self.is_complete()
            .then(|| self.pages.image(self.layout.image_len))
    }

    /// Which packets of `item` this node still wants (the SNACK vector).
    pub fn wanted(&self, item: u16) -> BitVec {
        match item {
            0 => BitVec::ones(1),
            1 => self.hash_page.wanted(),
            _ => self.page.wanted(),
        }
    }

    /// Item 0. `signed_message` maps the claimed root to the digest the
    /// scheme signs. The puzzle is checked first, so a forged body costs
    /// a few hashes and never reaches the signature verification.
    pub fn handle_signature(
        &mut self,
        index: u16,
        payload: &[u8],
        signed_message: impl FnOnce(&Digest) -> Digest,
    ) -> PacketDisposition {
        if index != 0 {
            return PacketDisposition::Rejected;
        }
        if self.signature_body.is_some() {
            return PacketDisposition::Duplicate;
        }
        let Some((root, signature, solution)) = parse_signature_body(payload) else {
            return PacketDisposition::Rejected;
        };
        let version = u32::from(self.layout.version);
        let signed = signed_message(&root);
        self.cost.hashes += 1;
        self.cost.puzzle_checks += 1;
        self.cost.hashes += u64::from(version) + 1;
        let message = puzzle_message(&signed, &signature);
        if !self.puzzle.verify(version, &message, &solution) {
            return PacketDisposition::Rejected;
        }
        self.cost.signature_verifications += 1;
        match Signature::from_bytes(&signature) {
            Some(signature) if self.pubkey.verify(&signed.0, &signature) => {}
            _ => return PacketDisposition::Rejected,
        }
        self.signature_body = Some(payload.to_vec());
        self.root = Some(root);
        PacketDisposition::Accepted
    }

    /// Item 1: checks hash-page packet `index` against the signed root
    /// and buffers it. Without a verified root nothing can be
    /// authenticated, so everything is rejected; once the hash page is
    /// complete its buffer never changes again.
    pub fn handle_hash_page(&mut self, index: u16, payload: &[u8]) -> PacketDisposition {
        let block_len = self.layout.hash_block_len;
        let depth = self.layout.hash_page_packets.trailing_zeros() as usize;
        if index >= self.layout.hash_page_packets || payload.len() != block_len + 32 * depth {
            return PacketDisposition::Rejected;
        }
        let Some(root) = self.root else {
            return PacketDisposition::Rejected;
        };
        if self.m0.is_some() || self.hash_page.get(index as usize).is_some() {
            return PacketDisposition::Duplicate;
        }
        let (block, path) = payload.split_at(block_len);
        let siblings = path
            .chunks(32)
            .map(|c| Digest(c.try_into().expect("path is whole digests")))
            .collect();
        self.cost.hashes += depth as u64 + 1;
        if !MerkleProof::from_parts(index as usize, siblings).verify(block, &root) {
            return PacketDisposition::Rejected;
        }
        self.hash_page.store(index as usize, payload);
        PacketDisposition::Accepted
    }

    /// The hash page is complete and reassembles to `m0`, which starts
    /// with the hash images of the first page's packets.
    pub fn hash_page_complete(&mut self, m0: Vec<u8>) {
        self.m0 = Some(m0);
        self.chain();
    }

    /// Reads the hash images the next page's packets must match off the
    /// last stored page, or off `M0` before the first.
    fn chain(&mut self) {
        let len = usize::from(self.layout.page_packets) * HASH_IMAGE_LEN;
        self.expected = match (self.pages.pages(), &self.m0) {
            (0, Some(m0)) => hash_images(m0.get(..len).unwrap_or_default()),
            _ => self.pages.chained_images(),
        };
    }

    /// Items `2..`: checks packet `index` of the page in flight against
    /// the hash image the previous item delivered for it and buffers it.
    pub fn handle_page_packet(
        &mut self,
        item: u16,
        index: u16,
        payload: &[u8],
    ) -> PacketDisposition {
        if index >= self.layout.page_packets
            || payload.len() != self.layout.page_payload_len
            || self.expected.len() != self.layout.page_packets as usize
        {
            return PacketDisposition::Rejected;
        }
        if self.page.get(index as usize).is_some() {
            return PacketDisposition::Duplicate;
        }
        let version = self.layout.version;
        self.cost.hashes += 1;
        let h = match &self.digest_cache {
            Some(cache) => match cache.lookup(version, item, index, payload) {
                Some(h) => {
                    self.cost.memoized_hashes += 1;
                    h
                }
                None => {
                    let h = packet_hash(version, item, index, payload);
                    cache.insert(version, item, index, payload, h);
                    h
                }
            },
            None => packet_hash(version, item, index, payload),
        };
        if h != self.expected[index as usize] {
            return PacketDisposition::Rejected;
        }
        self.page.store(index as usize, payload);
        PacketDisposition::Accepted
    }

    /// The page in flight is complete: `page` is what to store of it.
    pub fn store_page(&mut self, page: &[u8]) {
        self.pages.push([page]);
        self.page.clear();
        self.chain();
    }

    /// The page in flight is complete: stores its packets as received.
    pub fn store_received_page(&mut self) {
        self.pages.push(self.page.iter().map(|(_, p)| p));
        self.page.clear();
        self.chain();
    }

    /// Re-enters dissemination after a reboot. RAM is lost: the page in
    /// flight and an incomplete hash page. Flash is kept: the verified
    /// signature, the complete hash page and the stored pages, from which
    /// the node resumes.
    pub fn reboot(&mut self) {
        self.page.clear();
        if self.m0.is_none() {
            self.hash_page.clear();
        }
    }

    /// Checks the scheme-independent invariants the chaos layer enforces
    /// (DESIGN.md §7) against the base station's `origin`, the code-page
    /// `packets` it sends and the `image`, skipping what `mark` says was
    /// compared before and advancing it:
    /// - the completion counter stays within the item count;
    /// - both receive buffers hold one slot per authentic packet (the
    ///   paper's `n0` / `n` bounds), their counts match the occupied
    ///   slots, and every buffered packet is byte-identical to the
    ///   authentic one; the hash page once, when complete, and the page
    ///   in flight, which must be the next one to store, whenever its
    ///   stamp or count moved;
    /// - the stored signature body is the authentic one;
    /// - the store still holds every page `mark` covers, and each page
    ///   past it is byte-identical to the origin's;
    /// - once, when complete, the image is byte-identical to the origin.
    pub fn verify_invariants(
        &self,
        origin: &Origin,
        packets: &PageStore,
        image: &[u8],
        mark: &mut Watermark,
    ) -> Result<(), InvariantViolation> {
        let (complete, total) = (self.complete(), self.layout.num_items);
        if complete > total {
            return Err(InvariantViolation::CompletionOverflow {
                complete: u64::from(complete),
                total: u64::from(total),
            });
        }
        if !mark.hash_page {
            let hash_page = BufferKind::HashPage;
            self.hash_page
                .verify_bound(hash_page, origin.hash_page.len())?;
            self.hash_page
                .verify_authentic(hash_page, None, |j| &origin.hash_page[j])?;
            mark.hash_page = self.m0.is_some();
        }
        if mark.page != (self.page.stamp, self.page.held) {
            self.page
                .verify_bound(BufferKind::Page, packets.strides())?;
            if self.page.held > 0 {
                if !(2..total).contains(&complete) {
                    return Err(InvariantViolation::UnexpectedBufferOccupancy {
                        complete: u64::from(complete),
                    });
                }
                let page = usize::from(complete - 2);
                let authentic = |j| packets.stride(page, j).unwrap_or_default();
                self.page
                    .verify_authentic(BufferKind::Page, Some(page as u32), authentic)?;
            }
            mark.page = (self.page.stamp, self.page.held);
        }
        if complete >= 1 && self.signature_body.as_ref() != Some(&origin.signature_body) {
            return Err(InvariantViolation::SignatureMismatch {
                expected: ContentDigest::of(&origin.signature_body),
                actual: content_digest(self.signature_body.as_deref()),
            });
        }
        let stored = self.pages.pages();
        if mark.pages != stored {
            self.pages.verify(mark.pages, &origin.pages)?;
            mark.pages = stored;
        }
        if complete == total && !mark.image {
            let held = self.image().expect("complete");
            if held != image {
                return Err(InvariantViolation::ImageMismatch {
                    expected: ContentDigest::of(image),
                    actual: ContentDigest::of(&held),
                });
            }
            mark.image = true;
        }
        Ok(())
    }
}

fn content_digest(bytes: Option<&[u8]>) -> ContentDigest {
    bytes.map_or(ContentDigest::MISSING, ContentDigest::of)
}

#[cfg(test)]
mod tests {
    use super::PacketDisposition::{Accepted, Duplicate, Rejected};
    use super::*;
    use lrs_crypto::sha256::sha256_concat;

    /// Seluge's page shape: packets of 12 image bytes and one chained
    /// hash image.
    const SHAPE: PageShape = PageShape {
        page_len: 80,
        stride: 20,
        image_bytes: 12,
    };

    const LAYOUT: Layout = Layout {
        version: 1,
        image_len: 90,
        num_items: 4,
        hash_page_packets: 4,
        hash_block_len: 8,
        page_packets: 4,
        page_payload_len: 20,
        page_shape: SHAPE,
    };

    fn signed(root: &Digest) -> Digest {
        sha256_concat(&[b"bootstrap-test-root", &root.0])
    }

    fn page() -> Vec<Vec<u8>> {
        (0..4).map(|j| vec![j; LAYOUT.page_payload_len]).collect()
    }

    /// One page, the `M0` authenticating it (hash-page packets and bytes),
    /// and a sealed signature body over its root.
    struct Sealed {
        keys: DeploymentKeys,
        body: Vec<u8>,
        root: Digest,
        hash_page: Vec<Vec<u8>>,
        m0: Vec<u8>,
    }

    fn sealed(strength: u32) -> Sealed {
        let keys = DeploymentKeys::derive(b"bootstrap tests", LAYOUT.version, strength);
        let images = packet_hash_batch(LAYOUT.version, 2, &page());
        let m0: Vec<u8> = images.iter().flat_map(|h| h.0).collect();
        let blocks: Vec<&[u8]> = m0.chunks(LAYOUT.hash_block_len).collect();
        let (root, hash_page) = frame_hash_page(&blocks);
        let (kp, chain) = (&keys.keypair, &keys.chain);
        let body = seal_signature_body(&root, &signed(&root), kp, chain, LAYOUT.version, strength);
        Sealed {
            keys,
            body,
            root,
            hash_page,
            m0,
        }
    }

    impl Sealed {
        fn receiver(&self) -> Bootstrap {
            Bootstrap::receiver(LAYOUT, self.keys.keypair.public(), self.keys.puzzle)
        }

        /// The origin of a two-page image whose pages are both
        /// [`page`] (the chain past `M0` is not followed here).
        fn origin(&self) -> Origin {
            Origin {
                signature_body: self.body.clone(),
                root: self.root,
                hash_page: self.hash_page.clone(),
                m0: self.m0.clone(),
                pages: two_pages().0,
            }
        }

        fn base(&self) -> Bootstrap {
            let (pubkey, puzzle) = (self.keys.keypair.public(), self.keys.puzzle);
            Bootstrap::base(LAYOUT, pubkey, puzzle, &self.origin())
        }
    }

    /// `node` checked against `origin`, whose pages are also the packets
    /// sent, and `image`, from `mark`.
    fn check(
        node: &Bootstrap,
        origin: &Origin,
        image: &[u8],
        mark: &mut Watermark,
    ) -> Result<(), InvariantViolation> {
        node.verify_invariants(origin, &origin.pages, image, mark)
    }

    /// Two copies of [`page`] and the 90 image bytes they carry.
    fn two_pages() -> (PageStore, Vec<u8>) {
        let mut pages = PageStore::new(SHAPE, 2);
        for _ in 0..2 {
            pages.push(page().iter().map(Vec::as_slice));
        }
        let image = pages.image(LAYOUT.image_len);
        (pages, image)
    }

    #[test]
    fn packet_hash_is_position_bound() {
        let h = packet_hash(1, 2, 3, b"payload");
        assert_ne!(h, packet_hash(1, 2, 4, b"payload"), "index bound");
        assert_ne!(h, packet_hash(1, 3, 3, b"payload"), "item bound");
        assert_ne!(h, packet_hash(2, 2, 3, b"payload"), "version bound");
        assert_ne!(h, packet_hash(1, 2, 3, b"payloae"), "payload bound");
        // A 48-payload page of mixed lengths (one- and two-block
        // messages and ones past the 119-byte tail) and an empty page.
        let page: Vec<Vec<u8>> = (0..48usize).map(|j| vec![j as u8; j * 37 % 200]).collect();
        let batch = packet_hash_batch(1, 2, &page);
        assert_eq!(batch.len(), page.len());
        for (j, (p, b)) in (0u16..).zip(page.iter().zip(&batch)) {
            assert_eq!(*b, packet_hash(1, 2, j, p), "packet {j}");
        }
        assert!(packet_hash_batch::<Vec<u8>>(1, 2, &[]).is_empty());
    }

    #[test]
    fn sealed_body_round_trips_and_is_accepted_once() {
        let s = sealed(4);
        assert_eq!(s.body.len(), SIGNATURE_BODY_LEN);
        let (root, _, solution) = parse_signature_body(&s.body).unwrap();
        assert_eq!((root, solution.key), (s.root, s.keys.chain.key(1)));
        assert!(parse_signature_body(&s.body[1..]).is_none());

        let mut rx = s.receiver();
        assert_eq!(rx.handle_signature(1, &s.body, signed), Rejected);
        assert_eq!(rx.handle_signature(0, &s.body, signed), Accepted);
        assert_eq!(rx.handle_signature(0, &s.body, signed), Duplicate);
        assert_eq!((rx.complete(), rx.signature_body()), (1, Some(&s.body[..])));
        // One hash for the signed message, `version + 1` for the puzzle.
        let cost = rx.cost;
        assert_eq!(
            (
                cost.hashes,
                cost.puzzle_checks,
                cost.signature_verifications
            ),
            (3, 1, 1)
        );
    }

    #[test]
    fn every_bit_flip_of_a_sealed_body_dies_at_the_puzzle() {
        // Every byte of the body is under the puzzle (the root through
        // the signed message), so a flipped bit survives it only with
        // probability 2^-16 and the signature is never verified.
        let s = sealed(16);
        for bit in 0..s.body.len() * 8 {
            let mut forged = s.body.clone();
            forged[bit / 8] ^= 1 << (bit % 8);
            let mut rx = s.receiver();
            assert_eq!(rx.handle_signature(0, &forged, signed), Rejected, "{bit}");
            let cost = rx.cost;
            assert_eq!((cost.puzzle_checks, cost.signature_verifications), (1, 0));
            assert_eq!(rx.complete(), 0);
        }
    }

    #[test]
    fn a_valid_puzzle_over_a_foreign_signature_fails_verification() {
        // Signed by someone else's key but sealed with the genuine
        // puzzle chain: passes the weak check, dies at the strong one.
        let s = sealed(4);
        let (kp, chain) = (Keypair::from_seed(b"somebody else"), &s.keys.chain);
        let forged = seal_signature_body(&s.root, &signed(&s.root), &kp, chain, 1, 4);
        let mut rx = s.receiver();
        assert_eq!(rx.handle_signature(0, &forged, signed), Rejected);
        assert_eq!(rx.cost.signature_verifications, 1);
        assert_eq!(rx.signature_body(), None);
    }

    #[test]
    fn hash_page_packets_are_checked_against_the_signed_root() {
        let s = sealed(4);
        let hp = &s.hash_page;
        let mut rx = s.receiver();
        // No verified root yet: nothing can be authenticated (and
        // nothing panics).
        assert_eq!(rx.handle_hash_page(0, &hp[0]), Rejected);
        assert_eq!(rx.cost.hashes, 0);
        rx.handle_signature(0, &s.body, signed);
        let before = rx.cost.hashes;

        let mut flipped_block = hp[1].clone();
        flipped_block[0] ^= 1;
        let mut flipped_sibling = hp[1].clone();
        *flipped_sibling.last_mut().unwrap() ^= 1;
        for bad in [&flipped_block, &flipped_sibling, &hp[2]] {
            assert_eq!(rx.handle_hash_page(1, bad), Rejected);
        }
        assert_eq!(rx.handle_hash_page(4, &hp[1]), Rejected);
        assert_eq!(rx.handle_hash_page(1, &hp[1][1..]), Rejected);
        // Depth 2: three hashes per Merkle check, none for the two
        // packets turned away on shape alone.
        assert_eq!((rx.cost.hashes - before, rx.hash_page().held()), (9, 0));

        assert_eq!(rx.handle_hash_page(1, &hp[1]), Accepted);
        assert_eq!(rx.handle_hash_page(1, &hp[1]), Duplicate);
        assert_eq!(rx.hash_page().get(1), Some(&hp[1][..]));
        assert_eq!(rx.wanted(1).iter_ones().collect::<Vec<_>>(), [0, 2, 3]);
    }

    #[test]
    fn page_packets_are_checked_against_the_delivered_images() {
        let (s, page) = (sealed(4), page());
        let mut rx = s.receiver();
        // Nothing delivered hash images yet.
        assert_eq!(rx.handle_page_packet(2, 0, &page[0]), Rejected);
        rx.hash_page_complete(s.m0.clone());
        assert_eq!(rx.complete(), 2);

        let mut flipped = page[1].clone();
        flipped[5] ^= 1;
        assert_eq!(rx.handle_page_packet(2, 1, &flipped), Rejected);
        assert_eq!(rx.handle_page_packet(2, 1, &page[2]), Rejected);
        assert_eq!(rx.handle_page_packet(2, 4, &page[1]), Rejected);
        assert_eq!(rx.handle_page_packet(3, 1, &page[1]), Rejected);
        let cache = PacketDigestCache::default();
        rx.set_digest_cache(cache.clone());
        assert_eq!(rx.handle_page_packet(2, 1, &page[1]), Accepted);
        assert_eq!(rx.handle_page_packet(2, 1, &page[1]), Duplicate);
        assert_eq!(rx.page().iter().collect::<Vec<_>>(), [(1, &page[1][..])]);
        assert_eq!(rx.wanted(2).iter_ones().collect::<Vec<_>>(), [0, 2, 3]);
        // A second node of the run is served the memoized digest and
        // still counts the hash.
        let mut rx2 = s.receiver();
        rx2.hash_page_complete(s.m0.clone());
        rx2.set_digest_cache(cache);
        assert_eq!(rx2.handle_page_packet(2, 1, &page[1]), Accepted);
        assert_eq!((rx2.cost.hashes, rx2.cost.memoized_hashes), (1, 1));

        for j in [0, 2, 3] {
            assert!(!rx.page().is_full());
            assert_eq!(rx.handle_page_packet(2, j, &page[j as usize]), Accepted);
        }
        rx.store_received_page();
        assert_eq!((rx.complete(), rx.page().held()), (3, 0));
        assert_eq!(rx.pages().page(0), Some(&page.concat()[..]));
        assert_eq!(rx.wanted(3).count_ones(), 4);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn slot_buffer_refuses_to_overwrite() {
        let mut buf = SlotBuffer::new(2);
        buf.store(1, b"x");
        buf.store(1, b"y");
    }

    #[test]
    fn invariants_catch_buffers_out_of_step_with_their_counts() {
        let (s, image) = (sealed(4), two_pages().1);
        let (origin, base) = (s.origin(), s.base());
        let verify = |b: &Bootstrap| check(b, &origin, &image, &mut Watermark::default());
        assert_eq!((verify(&base), base.is_complete()), (Ok(()), true));
        assert_eq!(base.image(), Some(image.clone()));

        let mut miscounted = base.clone();
        miscounted.page.held = 1;
        let bound = InvariantViolation::BufferBound {
            buffer: BufferKind::Page,
            slots: 4,
            held: 0,
            count: 1,
        };
        assert_eq!(verify(&miscounted), Err(bound));
        let mut short = base.clone();
        short.hash_page.slots.pop();
        assert_eq!(verify(&short).unwrap_err().kind(), "buffer_bound");
        let mut corrupt = base.clone();
        corrupt.hash_page.slots[2].as_mut().unwrap()[0] ^= 1;
        assert_eq!(verify(&corrupt).unwrap_err().kind(), "unauthentic_packet");
        // Page packets held although no page is in flight.
        let mut idle = base.clone();
        idle.page.store(0, &page()[0]);
        assert_eq!(verify(&idle).unwrap_err().kind(), "unexpected_buffer");
        let mut overflowed = base.clone();
        overflowed.pages.push(page().iter().map(Vec::as_slice));
        assert_eq!(
            verify(&overflowed).unwrap_err().kind(),
            "completion_overflow"
        );
        let mut forged_body = s.origin();
        forged_body.signature_body.pop();
        let mismatch = check(&base, &forged_body, &image, &mut Watermark::default());
        assert_eq!(mismatch.unwrap_err().kind(), "signature_mismatch");
    }

    #[test]
    fn flash_is_compared_once_and_buffers_every_time() {
        let (s, image) = (sealed(4), two_pages().1);
        let (origin, base) = (s.origin(), s.base());
        let mut wrong_image = image.clone();
        wrong_image[0] ^= 1;
        // Packet 2 of page 1 has one bit flipped.
        let at = SHAPE.page_len + 2 * SHAPE.stride;
        let mut wrong_page = s.origin();
        wrong_page.pages.bytes[at] ^= 1;
        // From an empty watermark the image and every page are compared.
        let fresh = || Watermark::default();
        let mismatch = check(&base, &origin, &wrong_image, &mut fresh());
        assert_eq!(mismatch.unwrap_err().kind(), "image_mismatch");
        assert_eq!(
            check(&base, &wrong_page, &image, &mut fresh()),
            Err(InvariantViolation::PageMismatch {
                page: 1,
                packet: Some(2),
                expected: ContentDigest::of(&wrong_page.pages.bytes[at..at + SHAPE.stride]),
                actual: ContentDigest::of(&origin.pages.bytes[at..at + SHAPE.stride]),
            })
        );
        // Past a watermark that covers them they are not compared again,
        // while the buffers and the signature still are.
        let mut mark = fresh();
        assert_eq!(check(&base, &origin, &image, &mut mark), Ok(()));
        assert_eq!(
            check(&base, &origin, &wrong_image, &mut mark.clone()),
            Ok(())
        );
        assert_eq!(check(&base, &wrong_page, &image, &mut mark.clone()), Ok(()));
        let mut corrupt = base.clone();
        corrupt.page.store(0, &page()[0]);
        let occupied = check(&corrupt, &origin, &image, &mut mark.clone());
        assert_eq!(occupied.unwrap_err().kind(), "unexpected_buffer");
        // A store holding fewer pages than the watermark covers lost one.
        let lost = check(&s.receiver(), &origin, &image, &mut mark);
        let missing = InvariantViolation::PageMismatch {
            page: 0,
            packet: Some(0),
            expected: ContentDigest::of(&page()[0]),
            actual: ContentDigest::MISSING,
        };
        assert_eq!(lost, Err(missing));
    }

    #[test]
    fn a_page_buffer_is_compared_whenever_it_changed() {
        let (s, image) = (sealed(4), two_pages().1);
        let origin = s.origin();
        let mut rx = s.receiver();
        rx.handle_signature(0, &s.body, signed);
        rx.hash_page_complete(s.m0.clone());
        assert_eq!(rx.handle_page_packet(2, 0, &page()[0]), Accepted);
        let mut mark = Watermark::default();
        assert_eq!(check(&rx, &origin, &image, &mut mark), Ok(()));
        // Emptied by a reboot and refilled to the same count with a
        // packet the chain never vouched for: a new content, so it is
        // compared although the count is the one the watermark saw.
        rx.reboot();
        rx.page.store(0, &page()[1]);
        let refilled = check(&rx, &origin, &image, &mut mark);
        assert_eq!(refilled.unwrap_err().kind(), "unauthentic_packet");
    }

    #[test]
    fn page_store_appends_pages_and_reads_their_chain() {
        // Seluge's shape: one hash image in the tail of every stride.
        let (pages, image) = two_pages();
        assert_eq!((pages.pages(), pages.strides()), (2, 4));
        assert_eq!(pages.stride(1, 3), Some(&page()[3][..]));
        assert_eq!((pages.stride(1, 4), pages.page(2)), (None, None));
        let slices: Vec<u8> = page().iter().flat_map(|p| p[..12].to_vec()).collect();
        assert_eq!(image, [&slices[..], &slices[..42]].concat());
        let chain: Vec<_> = (0..4).map(|j| HashImage([j; 8])).collect();
        assert_eq!(pages.chained_images(), chain);
        // LR-Seluge's shape: the page is one stride whose tail holds
        // every hash image of the next page.
        let mut store = PageStore::new(PageShape::new(1, 40, 16), 1);
        assert!(store.chained_images().is_empty(), "nothing stored yet");
        let input: Vec<u8> = (0..40).collect();
        store.push([&input[..10], &input[10..]]);
        assert_eq!(store.chained_images(), hash_images(&input[16..]));
        assert_eq!(store.chained_images().len(), 3);
        assert_eq!(store.image(99), input[..16]);
        // Deluge's shape has no tail and so no chain; a store can also be
        // made of whole pages at once.
        let store = PageStore::from_bytes(PageShape::new(2, 20, 20), input.clone());
        assert!(store.chained_images().is_empty());
        assert_eq!((store.pages(), store.image(30)), (1, input[..30].to_vec()));
    }

    #[test]
    #[should_panic(expected = "one page")]
    fn page_store_refuses_a_partial_page() {
        PageStore::new(SHAPE, 1).push([&[0u8; 79][..]]);
    }

    #[test]
    fn reboot_keeps_what_flash_holds() {
        let s = sealed(4);
        let mut rx = s.receiver();
        rx.reboot();
        assert_eq!(rx.complete(), 0, "nothing verified, nothing kept");
        rx.handle_signature(0, &s.body, signed);
        rx.handle_hash_page(0, &s.hash_page[0]);
        rx.reboot();
        assert_eq!((rx.complete(), rx.hash_page().held()), (1, 0));
        // A complete hash page is flash and never changes again.
        assert_eq!(rx.handle_hash_page(0, &s.hash_page[0]), Accepted);
        rx.hash_page_complete(s.m0.clone());
        assert_eq!(rx.handle_hash_page(1, &s.hash_page[1]), Duplicate);
        rx.handle_page_packet(2, 0, &page()[0]);
        rx.reboot();
        assert_eq!((rx.complete(), rx.page().held()), (2, 0));
        assert_eq!(rx.hash_page().held(), 1);
        assert_eq!(rx.handle_page_packet(2, 0, &page()[0]), Accepted);
    }

    /// A distinct hash image per small integer, for the memo tests.
    fn img(n: u8) -> HashImage {
        HashImage([n; HASH_IMAGE_LEN])
    }

    #[test]
    fn lookup_requires_identical_bytes() {
        let cache = PacketDigestCache::new(8);
        assert_eq!(cache.lookup(1, 2, 3, b"payload"), None);
        cache.insert(1, 2, 3, b"payload", img(42));
        assert_eq!(cache.lookup(1, 2, 3, b"payload"), Some(img(42)));
        // Same position, different bytes: miss, and the entry survives.
        assert_eq!(cache.lookup(1, 2, 3, b"tampered"), None);
        assert_eq!(cache.lookup(1, 2, 3, b"payload"), Some(img(42)));
    }

    #[test]
    fn first_writer_wins() {
        let cache = PacketDigestCache::new(8);
        cache.insert(0, 0, 0, b"aaa", img(1));
        cache.insert(0, 0, 0, b"bbb", img(2));
        assert_eq!(cache.lookup(0, 0, 0, b"aaa"), Some(img(1)));
        assert_eq!(cache.lookup(0, 0, 0, b"bbb"), None);
    }

    #[test]
    fn capacity_bounds_insertions() {
        let cache = PacketDigestCache::new(2);
        cache.insert(0, 0, 0, b"a", img(1));
        cache.insert(0, 0, 1, b"b", img(2));
        cache.insert(0, 0, 2, b"c", img(3));
        assert_eq!(cache.lookup(0, 0, 2, b"c"), None);
        assert_eq!(cache.lookup(0, 0, 0, b"a"), Some(img(1)));
    }

    #[test]
    fn clones_share_state() {
        let cache = PacketDigestCache::new(8);
        let other = cache.clone();
        cache.insert(7, 1, 0, b"x", img(9));
        assert_eq!(other.lookup(7, 1, 0, b"x"), Some(img(9)));
        let (hits, misses) = cache.counters();
        assert_eq!((hits, misses), (1, 0));
    }
}
