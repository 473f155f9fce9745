//! On-air message formats.
//!
//! Byte-exact serialization matters here: the paper's fairness metric is
//! total communication cost in *bytes*, noting that "SNACK packets in
//! LR-Seluge are `n − k` bits longer than those in Seluge". The SNACK
//! request bit vector is therefore variable-length and sized by the
//! per-item packet count.
//!
//! All control packets (advertisements and SNACKs) carry a truncated
//! cluster-key MAC, as in Seluge/LR-Seluge §IV-E, and a SNACK may add a
//! LEAP pairwise tag; this module is the only code that spells a MAC's
//! input. The signature packet that opens a secure image is item 0's one
//! data packet: the wire has three kinds, not four.
//!
//! One enum, one reader, one writer: [`Frame`] is generic over its byte
//! fields, [`Frame::parse`] returns the borrowed form a receiver matches
//! on and [`Message`] is the owned form senders build; `parse` and
//! `to_bytes` are the only code that knows the byte layout.

use lrs_crypto::cluster::{ClusterKey, MacTag, MAC_LEN};
use lrs_crypto::leap::LeapKeyring;
use lrs_host::node::NodeId;
use std::fmt;

/// A fixed-length bit vector used in SNACK requests.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    bits: Vec<u8>,
}

impl BitVec {
    /// All-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            bits: vec![0u8; len.div_ceil(8)],
        }
    }

    /// All-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for i in 0..len {
            v.set(i, true);
        }
        v
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit accessor.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index out of range");
        self.bits[i / 8] >> (i % 8) & 1 == 1
    }

    /// Bit mutator.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index out of range");
        if value {
            self.bits[i / 8] |= 1 << (i % 8);
        } else {
            self.bits[i / 8] &= !(1 << (i % 8));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        (0..self.len).filter(|&i| self.get(i)).count()
    }

    /// Whether no bit is set.
    pub fn is_zero(&self) -> bool {
        self.count_ones() == 0
    }

    /// Bitwise OR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn union_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bit vector length mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Iterator over set-bit indices.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// Raw little-bit-endian bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Reconstructs from raw bytes and a bit length.
    ///
    /// Returns `None` if `bytes` is not exactly `ceil(len/8)` long.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<Self> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        Some(BitVec {
            len,
            bits: bytes.to_vec(),
        })
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

/// A dissemination protocol message, generic over its variable-length
/// fields: [`Frame::parse`] returns `Frame<&[u8]>`, pointing into the
/// bytes it was parsed from, so a data payload reaches the scheme without
/// a copy; [`Message`] is the owned form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame<B> {
    /// Periodic advertisement: "I have `level` complete items of
    /// `version`".
    Adv {
        /// Advertising node.
        from: NodeId,
        /// Code image version.
        version: u16,
        /// Number of leading complete items.
        level: u16,
        /// Cluster-key MAC over the fields above.
        mac: MacTag,
    },
    /// Selective-NACK: `from` asks `target` for the packets of `item`
    /// whose bits are set.
    Snack {
        /// Requesting node.
        from: NodeId,
        /// The node expected to serve the request.
        target: NodeId,
        /// Code image version.
        version: u16,
        /// Requested item (signature / hash page / code page index).
        item: u16,
        /// Length of the request bit vector, in bits.
        nbits: usize,
        /// The bit vector's `ceil(nbits / 8)` raw bytes
        /// ([`BitVec::as_bytes`] layout).
        bits: B,
        /// Cluster-key MAC over the fields above.
        mac: MacTag,
        /// Optional LEAP pairwise MAC binding the request to the claimed
        /// sender (§IV-E: identifies the SNACK source so per-neighbor
        /// budgets cannot be evaded by spoofing).
        pairwise_mac: Option<MacTag>,
    },
    /// A data packet of `item`; item 0's packet 0 is a signed scheme's
    /// signature packet.
    Data {
        /// Code image version.
        version: u16,
        /// Item index.
        item: u16,
        /// Packet index within the item.
        index: u16,
        /// Scheme-defined payload.
        payload: B,
    },
}

/// The owned message a sender builds.
pub type Message = Frame<Vec<u8>>;

const TAG_ADV: u8 = 1;
const TAG_SNACK: u8 = 2;
const TAG_DATA: u8 = 3;

impl Message {
    /// MAC input for an advertisement.
    pub fn adv_mac_parts(from: NodeId, version: u16, level: u16) -> [[u8; 4]; 3] {
        [
            from.0.to_be_bytes(),
            {
                let mut b = [0u8; 4];
                b[..2].copy_from_slice(&version.to_be_bytes());
                b
            },
            {
                let mut b = [0u8; 4];
                b[..2].copy_from_slice(&level.to_be_bytes());
                b
            },
        ]
    }

    /// Builds a MACed advertisement.
    pub fn adv(key: &ClusterKey, from: NodeId, version: u16, level: u16) -> Message {
        Message::Adv {
            from,
            version,
            level,
            mac: MacTag::default(),
        }
        .sealed(key)
    }

    /// Builds a MACed SNACK.
    pub fn snack(
        key: &ClusterKey,
        from: NodeId,
        target: NodeId,
        version: u16,
        item: u16,
        bits: BitVec,
    ) -> Message {
        Message::Snack {
            from,
            target,
            version,
            item,
            nbits: bits.len,
            bits: bits.bits,
            mac: MacTag::default(),
            pairwise_mac: None,
        }
        .sealed(key)
    }

    /// Attaches the LEAP pairwise MAC `keyring` shares with a SNACK's
    /// target (no-op for other messages).
    pub fn with_leap(mut self, keyring: &LeapKeyring) -> Message {
        if let Frame::Snack { target, .. } = self {
            let tag = self.leap_tag(keyring, target);
            if let Frame::Snack { pairwise_mac, .. } = &mut self {
                *pairwise_mac = tag;
            }
        }
        self
    }

    /// Parses wire bytes into an owned message; returns `None` on any
    /// malformation (an adversary may send arbitrary garbage).
    pub fn from_bytes(bytes: &[u8]) -> Option<Message> {
        Frame::parse(bytes).map(Frame::into_owned)
    }
}

/// Longest variable-length field the wire can carry: SNACK bit counts
/// and data payloads are framed by a `u16` length. A parameter set whose
/// packets exceed it is rejected at validation (`ParamError`);
/// [`Frame::to_bytes`] asserts it rather than wrap.
pub const MAX_PAYLOAD_LEN: usize = u16::MAX as usize;

impl<'a> Frame<&'a [u8]> {
    /// Parses wire bytes; returns `None` on any malformation (an
    /// adversary may send arbitrary garbage).
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        let mut r = Reader(rest);
        let frame = match tag {
            TAG_ADV => Frame::Adv {
                from: NodeId(r.u32()?),
                version: r.u16()?,
                level: r.u16()?,
                mac: MacTag(r.array::<MAC_LEN>()?),
            },
            TAG_SNACK => {
                let from = NodeId(r.u32()?);
                let target = NodeId(r.u32()?);
                let version = r.u16()?;
                let item = r.u16()?;
                let nbits = r.u16()? as usize;
                let bits = r.take(nbits.div_ceil(8))?;
                let mac = MacTag(r.array::<MAC_LEN>()?);
                let pairwise_mac = match r.take(1)?[0] {
                    0 => None,
                    1 => Some(MacTag(r.array::<MAC_LEN>()?)),
                    _ => return None,
                };
                Frame::Snack {
                    from,
                    target,
                    version,
                    item,
                    nbits,
                    bits,
                    mac,
                    pairwise_mac,
                }
            }
            TAG_DATA => {
                let version = r.u16()?;
                let item = r.u16()?;
                let index = r.u16()?;
                let len = r.u16()? as usize;
                Frame::Data {
                    version,
                    item,
                    index,
                    payload: r.take(len)?,
                }
            }
            _ => return None,
        };
        if !r.0.is_empty() {
            return None;
        }
        Some(frame)
    }

    /// The owned message, copying the variable-length fields.
    pub fn into_owned(self) -> Message {
        match self {
            Frame::Adv {
                from,
                version,
                level,
                mac,
            } => Frame::Adv {
                from,
                version,
                level,
                mac,
            },
            Frame::Snack {
                from,
                target,
                version,
                item,
                nbits,
                bits,
                mac,
                pairwise_mac,
            } => Frame::Snack {
                from,
                target,
                version,
                item,
                nbits,
                bits: bits.to_vec(),
                mac,
                pairwise_mac,
            },
            Frame::Data {
                version,
                item,
                index,
                payload,
            } => Frame::Data {
                version,
                item,
                index,
                payload: payload.to_vec(),
            },
        }
    }
}

impl<B: AsRef<[u8]>> Frame<B> {
    /// The cluster-key MAC over a control packet's fields; `None` for a
    /// data packet, which its scheme authenticates instead.
    fn cluster_tag(&self, key: &ClusterKey) -> Option<MacTag> {
        Some(match self {
            &Frame::Adv {
                from,
                version,
                level,
                ..
            } => {
                let parts = Message::adv_mac_parts(from, version, level);
                key.tag(&[b"adv", &parts[0], &parts[1], &parts[2]])
            }
            Frame::Snack {
                from,
                target,
                version,
                item,
                bits,
                ..
            } => key.tag(&[
                b"snack",
                &from.0.to_be_bytes(),
                &target.0.to_be_bytes(),
                &version.to_be_bytes(),
                &item.to_be_bytes(),
                bits.as_ref(),
            ]),
            Frame::Data { .. } => return None,
        })
    }

    /// This message with its cluster-key MAC filled in.
    fn sealed(mut self, key: &ClusterKey) -> Self {
        if let Some(tag) = self.cluster_tag(key) {
            if let Frame::Adv { mac, .. } | Frame::Snack { mac, .. } = &mut self {
                *mac = tag;
            }
        }
        self
    }

    /// Verifies the cluster-key MAC of a control packet. Data packets are
    /// authenticated by their scheme instead.
    pub fn mac_ok(&self, key: &ClusterKey) -> bool {
        match self {
            Frame::Adv { mac, .. } | Frame::Snack { mac, .. } => {
                self.cluster_tag(key) == Some(*mac)
            }
            Frame::Data { .. } => true,
        }
    }

    /// The LEAP pairwise MAC over a SNACK's addressing, under the key
    /// `keyring` shares with `peer`; `None` for other messages.
    fn leap_tag(&self, keyring: &LeapKeyring, peer: NodeId) -> Option<MacTag> {
        let &Frame::Snack {
            from,
            target,
            version,
            item,
            ..
        } = self
        else {
            return None;
        };
        Some(keyring.tag_for(
            peer.0,
            &[
                b"snack-pw",
                &from.0.to_be_bytes(),
                &target.0.to_be_bytes(),
                &version.to_be_bytes(),
                &item.to_be_bytes(),
            ],
        ))
    }

    /// Whether this is a SNACK whose LEAP pairwise MAC its claimed sender
    /// made for the holder of `keyring`.
    pub fn leap_ok(&self, keyring: &LeapKeyring) -> bool {
        match *self {
            Frame::Snack {
                from,
                pairwise_mac: Some(tag),
                ..
            } => self.leap_tag(keyring, from) == Some(tag),
            _ => false,
        }
    }

    /// Serializes to wire bytes.
    ///
    /// # Panics
    ///
    /// Panics if a SNACK's bit count or a data payload exceeds
    /// [`MAX_PAYLOAD_LEN`]: a wrapped length field would make every
    /// receiver drop the frame as malformed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Adv {
                from,
                version,
                level,
                mac,
            } => {
                out.push(TAG_ADV);
                out.extend_from_slice(&from.0.to_be_bytes());
                out.extend_from_slice(&version.to_be_bytes());
                out.extend_from_slice(&level.to_be_bytes());
                out.extend_from_slice(&mac.0);
            }
            Frame::Snack {
                from,
                target,
                version,
                item,
                nbits,
                bits,
                mac,
                pairwise_mac,
            } => {
                out.push(TAG_SNACK);
                out.extend_from_slice(&from.0.to_be_bytes());
                out.extend_from_slice(&target.0.to_be_bytes());
                out.extend_from_slice(&version.to_be_bytes());
                out.extend_from_slice(&item.to_be_bytes());
                out.extend_from_slice(&length_field(*nbits));
                out.extend_from_slice(bits.as_ref());
                out.extend_from_slice(&mac.0);
                match pairwise_mac {
                    Some(t) => {
                        out.push(1);
                        out.extend_from_slice(&t.0);
                    }
                    None => out.push(0),
                }
            }
            Frame::Data {
                version,
                item,
                index,
                payload,
            } => {
                out.push(TAG_DATA);
                out.extend_from_slice(&version.to_be_bytes());
                out.extend_from_slice(&item.to_be_bytes());
                out.extend_from_slice(&index.to_be_bytes());
                out.extend_from_slice(&length_field(payload.as_ref().len()));
                out.extend_from_slice(payload.as_ref());
            }
        }
        out
    }
}

/// A `u16` length field, big-endian.
///
/// # Panics
///
/// Panics past [`MAX_PAYLOAD_LEN`].
fn length_field(len: usize) -> [u8; 2] {
    assert!(
        len <= MAX_PAYLOAD_LEN,
        "length {len} does not fit the wire's u16 length field (max {MAX_PAYLOAD_LEN})"
    );
    (len as u16).to_be_bytes()
}

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }
    fn u16(&mut self) -> Option<u16> {
        let b = self.take(2)?;
        Some(u16::from_be_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let b = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(b);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{seal_signature_body, DeploymentKeys};
    use lrs_crypto::hash::Digest;
    use lrs_crypto::leap::LeapKeyring;

    fn key() -> ClusterKey {
        ClusterKey::derive(b"master", 0)
    }

    #[test]
    fn bitvec_basics() {
        let mut v = BitVec::zeros(10);
        assert_eq!(v.len(), 10);
        assert!(v.is_zero());
        v.set(0, true);
        v.set(9, true);
        assert!(v.get(0) && v.get(9) && !v.get(5));
        assert_eq!(v.count_ones(), 2);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 9]);
        v.set(0, false);
        assert_eq!(v.count_ones(), 1);
        assert_eq!(BitVec::ones(10).count_ones(), 10);
    }

    #[test]
    fn bitvec_union() {
        let mut a = BitVec::zeros(6);
        a.set(1, true);
        let mut b = BitVec::zeros(6);
        b.set(4, true);
        a.union_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 4]);
    }

    #[test]
    fn bitvec_bytes_roundtrip() {
        let mut v = BitVec::zeros(13);
        v.set(3, true);
        v.set(12, true);
        let back = BitVec::from_bytes(v.as_bytes(), 13).unwrap();
        assert_eq!(back, v);
        assert!(BitVec::from_bytes(&[0u8; 3], 13).is_none());
    }

    #[test]
    fn snack_bitvec_size_matches_paper_note() {
        // Seluge: k = 32 bits; LR-Seluge: n = 48 bits. The LR SNACK must
        // be exactly (n - k) / 8 = 2 bytes longer.
        let k = key();
        let seluge = Message::snack(&k, NodeId(1), NodeId(2), 1, 3, BitVec::ones(32));
        let lr = Message::snack(&k, NodeId(1), NodeId(2), 1, 3, BitVec::ones(48));
        assert_eq!(lr.to_bytes().len() - seluge.to_bytes().len(), 2);
    }

    #[test]
    fn roundtrip_all_kinds() {
        let k = key();
        let mut bits = BitVec::zeros(48);
        bits.set(0, true);
        bits.set(47, true);
        let messages = vec![
            Message::adv(&k, NodeId(7), 2, 5),
            Message::snack(&k, NodeId(1), NodeId(2), 2, 4, bits),
            Message::Data {
                version: 2,
                item: 3,
                index: 17,
                payload: vec![0xAA; 72],
            },
        ];
        for m in messages {
            let bytes = m.to_bytes();
            let parsed = Message::from_bytes(&bytes).expect("parse");
            assert_eq!(parsed, m);
        }
    }

    #[test]
    #[should_panic(expected = "length 65536 does not fit the wire's u16 length field")]
    fn oversized_payload_asserts_instead_of_wrapping() {
        // The longest payload the length field holds round-trips; one
        // byte more used to be written with length 0, a frame every
        // receiver rejects.
        let data = |len| Message::Data {
            version: 1,
            item: 2,
            index: 3,
            payload: vec![0x5A; len],
        };
        let longest = data(MAX_PAYLOAD_LEN);
        assert_eq!(Message::from_bytes(&longest.to_bytes()), Some(longest));
        data(MAX_PAYLOAD_LEN + 1).to_bytes();
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(Message::from_bytes(&[]), None);
        assert_eq!(Message::from_bytes(&[99, 0, 0]), None);
        // Truncated adv.
        let k = key();
        let adv = Message::adv(&k, NodeId(1), 1, 1).to_bytes();
        assert_eq!(Message::from_bytes(&adv[..adv.len() - 1]), None);
        // Trailing garbage.
        let mut extended = adv.clone();
        extended.push(0);
        assert_eq!(Message::from_bytes(&extended), None);
    }

    #[test]
    fn mac_verification() {
        let k = key();
        let adv = Message::adv(&k, NodeId(1), 1, 4);
        assert!(adv.mac_ok(&k));
        // Forge the level: MAC must fail.
        if let Message::Adv {
            from, version, mac, ..
        } = adv
        {
            let forged = Message::Adv {
                from,
                version,
                level: 9,
                mac,
            };
            assert!(!forged.mac_ok(&k));
        }
        // Attacker with the wrong key cannot produce a valid MAC.
        let wrong = ClusterKey::derive(b"other", 0);
        let forged = Message::adv(&wrong, NodeId(1), 1, 4);
        assert!(!forged.mac_ok(&k));
    }

    #[test]
    fn control_packets_from_before_keyed_midstates_still_verify() {
        // Literal wire bytes captured from the commit before
        // `ClusterKey` cached its HMAC midstates (scalar SHA-256, pads
        // rebuilt per call). A node from before must interoperate with
        // one after: parse, pass `mac_ok`, re-serialize identically,
        // and be reproduced bit-for-bit by today's constructors.
        fn unhex(s: &str) -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        }
        let k = key();
        let adv = unhex("0100000009000300046fb29f01");
        let mut bits = BitVec::zeros(48);
        for i in [0, 5, 17, 31, 47] {
            bits.set(i, true);
        }
        let snack = unhex("020000000c0000000900030002003021000280008007a6e45b00");
        // Captured before the owned and borrowed message forms merged:
        // a 72-byte data packet, the base station's opening item-0
        // packet, and a SNACK carrying a LEAP pairwise tag.
        let data = unhex(concat!(
            "03000300020011004800254a6f94b9de03284d7297bce1062b50759abfe4092e",
            "53789dc2e70c31567ba0c5ea0f34597ea3c8ed12375c81a6cbf0153a5f84a9ce",
            "f3183d6287acd1f61b40658aafd4f91e43",
        ));
        let opening = unhex(concat!(
            "0300030000000000a81111111111111111111111111111111111111111111111",
            "111111111111111111d9b69efb3f692104103943e26313ef00f3055e448b47ee",
            "68ed9fdb1913884abe7bde05a3bec062eec21d3308ecaab53f0f38f7651e5621",
            "47b5c7b75315c105086a3e1d438512af60750e9e62a80d5fda74e0f8a73cd13c",
            "a652bed9c97457df4eb144319820f498b1350e0b7db24aeae43748473832c4ac",
            "95d01e4315eeffd9130000000000000002",
        ));
        let keys = DeploymentKeys::derive(b"wire golden", 3, 6);
        let body = seal_signature_body(
            &Digest([0x11; 32]),
            &Digest([0x22; 32]),
            &keys.keypair,
            &keys.chain,
            3,
            6,
        );
        let leap = unhex("020000000c000000090003000200300201000000010572345a0181b6365e");
        let ring = LeapKeyring::bootstrap(b"leap golden", 12);
        let mut leap_bits = BitVec::zeros(48);
        for i in [1, 8, 40] {
            leap_bits.set(i, true);
        }
        let rebuilt = [
            (adv, Message::adv(&k, NodeId(9), 3, 4)),
            (snack, Message::snack(&k, NodeId(12), NodeId(9), 3, 2, bits)),
            (
                data,
                Message::Data {
                    version: 3,
                    item: 2,
                    index: 17,
                    payload: (0..72u8).map(|i| i.wrapping_mul(37)).collect(),
                },
            ),
            (
                opening,
                Message::Data {
                    version: 3,
                    item: 0,
                    index: 0,
                    payload: body,
                },
            ),
            (
                leap.clone(),
                Message::snack(&k, NodeId(12), NodeId(9), 3, 2, leap_bits).with_leap(&ring),
            ),
        ];
        for (golden, today) in rebuilt {
            let parsed = Message::from_bytes(&golden).expect("golden bytes parse");
            assert!(parsed.mac_ok(&k));
            assert_eq!(parsed.to_bytes(), golden);
            assert_eq!(today.to_bytes(), golden);
        }
        // The target's keyring checks the pairwise tag the sender made.
        let snack = Frame::parse(&leap).expect("golden bytes parse");
        assert!(snack.leap_ok(&LeapKeyring::bootstrap(b"leap golden", 9)));
    }

    #[test]
    fn snack_mac_covers_bits() {
        let k = key();
        let m = Message::snack(&k, NodeId(1), NodeId(2), 1, 0, BitVec::ones(8));
        if let Message::Snack {
            from,
            target,
            version,
            item,
            mac,
            ..
        } = m
        {
            let forged = Message::Snack {
                from,
                target,
                version,
                item,
                nbits: 8,
                bits: vec![0],
                mac,
                pairwise_mac: None,
            };
            assert!(!forged.mac_ok(&k));
        }
    }
}
