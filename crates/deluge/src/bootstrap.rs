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
/// predetermined data packet (`page_packets[i][j]` is packet `j` of wire
/// item `i + 2`), one [`packet_hash_batch`] per page. Receivers then verify
/// even first-contact packets against warm entries; per-node `hashes`
/// counters are unaffected (hits land in `memoized_hashes`).
pub fn warm_digest_cache(cache: &PacketDigestCache, version: u16, page_packets: &[Vec<Vec<u8>>]) {
    for (item, packets) in (2u16..).zip(page_packets) {
        let hashes = packet_hash_batch(version, item, packets);
        cache.warm(
            (0u16..)
                .zip(packets.iter().zip(hashes))
                .map(|(j, (p, h))| ((version, item, j), p.as_slice(), h)),
        );
    }
}

/// The hash images laid end to end in `bytes` (a whole number of them).
pub fn hash_images(bytes: &[u8]) -> Vec<HashImage> {
    bytes
        .chunks(HASH_IMAGE_LEN)
        .map(|c| HashImage::from_slice(c).expect("a whole number of hash images"))
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
}

impl SlotBuffer {
    /// An empty buffer of `slots` slots.
    fn new(slots: usize) -> Self {
        SlotBuffer {
            slots: vec![None; slots],
            held: 0,
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
    fn store(&mut self, index: usize, payload: &[u8]) {
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

    fn clear(&mut self) {
        self.slots.fill(None);
        self.held = 0;
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

    /// Every held packet is byte-identical to the authentic one: nothing
    /// unauthenticated sits in the buffer.
    fn verify_authentic(
        &self,
        buffer: BufferKind,
        page: Option<u32>,
        authentic: &[Vec<u8>],
    ) -> Result<(), InvariantViolation> {
        match self.iter().find(|&(j, held)| held != authentic[j]) {
            None => Ok(()),
            Some((j, held)) => Err(InvariantViolation::UnauthenticPacket {
                buffer,
                page,
                index: j as u32,
                expected: ContentDigest::of(&authentic[j]),
                actual: ContentDigest::of(held),
            }),
        }
    }
}

/// The item geometry a scheme's parameters fix.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Code image version.
    pub version: u16,
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
}

/// A node's side of the bootstrap: what it has authenticated so far and
/// what it needs to authenticate the next packet.
#[derive(Clone, Debug)]
pub struct Bootstrap {
    layout: Layout,
    pubkey: PublicKey,
    puzzle: Puzzle,
    complete: u16,
    signature_body: Option<Vec<u8>>,
    root: Option<Digest>,
    hash_page: SlotBuffer,
    page: SlotBuffer,
    /// Hash images of the packets of the next page to receive.
    expected: Vec<HashImage>,
    digest_cache: Option<PacketDigestCache>,
    /// Cryptographic work performed so far; the owning scheme adds its
    /// erasure coding to it.
    pub cost: CryptoCost,
}

impl Bootstrap {
    /// A receiver that has authenticated nothing yet.
    pub fn receiver(layout: Layout, pubkey: PublicKey, puzzle: Puzzle) -> Self {
        Bootstrap {
            layout,
            pubkey,
            puzzle,
            complete: 0,
            signature_body: None,
            root: None,
            hash_page: SlotBuffer::new(layout.hash_page_packets as usize),
            page: SlotBuffer::new(layout.page_packets as usize),
            expected: Vec::new(),
            digest_cache: None,
            cost: CryptoCost::default(),
        }
    }

    /// The base station: it sealed `signature_body` over `root` itself
    /// and holds every item. `hash_page` is the framed hash-page packets
    /// to keep in the receive buffer, for a scheme that serves them from
    /// there (empty otherwise).
    pub fn base(
        layout: Layout,
        pubkey: PublicKey,
        puzzle: Puzzle,
        signature_body: &[u8],
        root: Digest,
        hash_page: &[Vec<u8>],
    ) -> Self {
        let mut boot = Self::receiver(layout, pubkey, puzzle);
        boot.complete = layout.num_items;
        boot.signature_body = Some(signature_body.to_vec());
        boot.root = Some(root);
        for (j, packet) in hash_page.iter().enumerate() {
            boot.hash_page.store(j, packet);
        }
        boot
    }

    /// Attaches a run-wide digest memo shared by all nodes of a sim run.
    pub fn set_digest_cache(&mut self, cache: PacketDigestCache) {
        self.digest_cache = Some(cache);
    }

    /// Number of leading complete items.
    pub fn complete(&self) -> u16 {
        self.complete
    }

    /// Whether every item is complete.
    pub fn is_complete(&self) -> bool {
        self.complete == self.layout.num_items
    }

    /// The verified signature body, for serving item 0.
    pub fn signature_body(&self) -> Option<&[u8]> {
        self.signature_body.as_deref()
    }

    /// The hash-page receive buffer.
    pub fn hash_page(&self) -> &SlotBuffer {
        &self.hash_page
    }

    /// The receive buffer of the page in flight.
    pub fn page(&self) -> &SlotBuffer {
        &self.page
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
        self.complete = 1;
        PacketDisposition::Accepted
    }

    /// Item 1: checks hash-page packet `index` against the signed root
    /// and buffers it. Without a verified root nothing can be
    /// authenticated, so everything is rejected.
    pub fn handle_hash_page(&mut self, index: u16, payload: &[u8]) -> PacketDisposition {
        let block_len = self.layout.hash_block_len;
        let depth = self.layout.hash_page_packets.trailing_zeros() as usize;
        if index >= self.layout.hash_page_packets || payload.len() != block_len + 32 * depth {
            return PacketDisposition::Rejected;
        }
        let Some(root) = self.root else {
            return PacketDisposition::Rejected;
        };
        if self.hash_page.get(index as usize).is_some() {
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

    /// The hash images of the first page's packets, which `m0` (the
    /// reassembled hash page) starts with.
    pub fn first_page_images(&self, m0: &[u8]) -> Vec<HashImage> {
        hash_images(&m0[..self.layout.page_packets as usize * HASH_IMAGE_LEN])
    }

    /// The hash page is complete and reassembles to `m0`.
    pub fn hash_page_complete(&mut self, m0: &[u8]) {
        self.expected = self.first_page_images(m0);
        self.complete = 2;
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

    /// Moves the packets of a fully received page out of its buffer.
    pub fn take_page(&mut self) -> Vec<Vec<u8>> {
        self.page.held = 0;
        let taken = self.page.slots.iter_mut().map(Option::take);
        taken.collect::<Option<_>>().expect("page is full")
    }

    /// The page in flight is complete and carried `next`, the hash images
    /// of the following page's packets.
    pub fn page_complete(&mut self, next: Vec<HashImage>) {
        self.page.clear();
        self.expected = next;
        self.complete += 1;
    }

    /// Drops the received hash-page packets (RAM lost in a reboot).
    pub fn clear_hash_page(&mut self) {
        self.hash_page.clear();
    }

    /// Re-enters dissemination after a reboot. The partially received
    /// page is RAM and is lost; the verified signature is flash and is
    /// kept. The scheme says what else its flash holds: whether the hash
    /// page survived (`m0_done`), how many completed `pages`, and the
    /// hash images (`expected`) the last surviving item carries for the
    /// next page.
    pub fn resume(&mut self, m0_done: bool, pages: usize, expected: Vec<HashImage>) {
        self.page.clear();
        self.complete = match (&self.signature_body, m0_done) {
            (None, _) => 0,
            (Some(_), false) => 1,
            (Some(_), true) => 2 + pages as u16,
        };
        self.expected = expected;
    }

    /// Checks the scheme-independent invariants the chaos layer enforces
    /// after every delivery (DESIGN.md §7) against the base station's
    /// preprocessing output: the completion counter stays within the
    /// item count; both receive buffers hold one slot per authentic
    /// packet (the paper's `n0` / `n` bounds) and their counts match the
    /// occupied slots; every buffered packet is byte-identical to the
    /// authentic one, and page packets are only buffered while a page is
    /// in flight; the stored signature body is the authentic one.
    pub fn verify_invariants(
        &self,
        signature_body: &[u8],
        hash_page_packets: &[Vec<u8>],
        page_packets: &[Vec<Vec<u8>>],
    ) -> Result<(), InvariantViolation> {
        let (complete, total) = (self.complete, self.layout.num_items);
        if complete > total {
            return Err(InvariantViolation::CompletionOverflow {
                complete: u64::from(complete),
                total: u64::from(total),
            });
        }
        let hash_page = BufferKind::HashPage;
        self.hash_page
            .verify_bound(hash_page, hash_page_packets.len())?;
        self.hash_page
            .verify_authentic(hash_page, None, hash_page_packets)?;
        self.page
            .verify_bound(BufferKind::Page, page_packets[0].len())?;
        if self.page.held > 0 {
            if !(2..total).contains(&complete) {
                return Err(InvariantViolation::UnexpectedBufferOccupancy {
                    complete: u64::from(complete),
                });
            }
            let page = usize::from(complete - 2);
            self.page
                .verify_authentic(BufferKind::Page, Some(page as u32), &page_packets[page])?;
        }
        if complete >= 1 && self.signature_body.as_deref() != Some(signature_body) {
            return Err(InvariantViolation::SignatureMismatch {
                expected: ContentDigest::of(signature_body),
                actual: content_digest(self.signature_body.as_deref()),
            });
        }
        Ok(())
    }

    /// A complete node's reassembled image (`held`) is byte-identical to
    /// the origin `image`.
    pub fn verify_image(
        &self,
        held: Option<Vec<u8>>,
        image: &[u8],
    ) -> Result<(), InvariantViolation> {
        if self.is_complete() && held.as_deref() != Some(image) {
            return Err(InvariantViolation::ImageMismatch {
                expected: ContentDigest::of(image),
                actual: content_digest(held.as_deref()),
            });
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

    const LAYOUT: Layout = Layout {
        version: 1,
        num_items: 4,
        hash_page_packets: 4,
        hash_block_len: 8,
        page_packets: 4,
        page_payload_len: 20,
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
        rx.hash_page_complete(&s.m0);
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
        rx2.hash_page_complete(&s.m0);
        rx2.set_digest_cache(cache);
        assert_eq!(rx2.handle_page_packet(2, 1, &page[1]), Accepted);
        assert_eq!((rx2.cost.hashes, rx2.cost.memoized_hashes), (1, 1));

        for j in [0, 2, 3] {
            assert!(!rx.page().is_full());
            assert_eq!(rx.handle_page_packet(2, j, &page[j as usize]), Accepted);
        }
        assert_eq!(rx.take_page(), page);
        rx.page_complete(hash_images(&[0u8; 32]));
        assert_eq!((rx.complete(), rx.page().held()), (3, 0));
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
        let s = sealed(4);
        let pages = [page()];
        let base = Bootstrap::base(
            LAYOUT,
            s.keys.keypair.public(),
            s.keys.puzzle,
            &s.body,
            s.root,
            &s.hash_page,
        );
        let check = |b: &Bootstrap| b.verify_invariants(&s.body, &s.hash_page, &pages);
        assert_eq!((check(&base), base.hash_page().is_full()), (Ok(()), true));

        let mut miscounted = base.clone();
        miscounted.page.held = 1;
        let bound = InvariantViolation::BufferBound {
            buffer: BufferKind::Page,
            slots: 4,
            held: 0,
            count: 1,
        };
        assert_eq!(check(&miscounted), Err(bound));
        let mut short = base.clone();
        short.hash_page.slots.pop();
        assert_eq!(check(&short).unwrap_err().kind(), "buffer_bound");
        let mut corrupt = base.clone();
        corrupt.hash_page.slots[2].as_mut().unwrap()[0] ^= 1;
        assert_eq!(check(&corrupt).unwrap_err().kind(), "unauthentic_packet");
        // Page packets held although no page is in flight.
        let mut idle = base.clone();
        idle.page.store(0, &pages[0][0]);
        assert_eq!(check(&idle).unwrap_err().kind(), "unexpected_buffer");
        let mut overflowed = base.clone();
        overflowed.complete = 5;
        assert_eq!(
            check(&overflowed).unwrap_err().kind(),
            "completion_overflow"
        );
        let mismatch = base.verify_invariants(&s.body[1..], &s.hash_page, &pages);
        assert_eq!(mismatch.unwrap_err().kind(), "signature_mismatch");
        assert!(base.verify_image(Some(vec![1, 2]), &[1, 2]).is_ok());
        assert!(base.verify_image(Some(vec![1, 3]), &[1, 2]).is_err());
        assert!(base.verify_image(None, &[1, 2]).is_err());
    }

    #[test]
    fn resume_re_enters_from_what_flash_holds() {
        let s = sealed(4);
        let mut rx = s.receiver();
        rx.resume(false, 0, Vec::new());
        assert_eq!(rx.complete(), 0, "nothing verified, nothing kept");
        rx.handle_signature(0, &s.body, signed);
        rx.handle_hash_page(0, &s.hash_page[0]);
        rx.clear_hash_page();
        rx.resume(false, 0, Vec::new());
        assert_eq!((rx.complete(), rx.hash_page().held()), (1, 0));
        rx.hash_page_complete(&s.m0);
        rx.handle_page_packet(2, 0, &page()[0]);
        rx.resume(true, 1, hash_images(&[9u8; 32]));
        assert_eq!((rx.complete(), rx.page().held()), (3, 0));
        assert_eq!(rx.expected, hash_images(&[9u8; 32]));
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
