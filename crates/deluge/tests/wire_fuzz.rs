//! Wire-format robustness: the parser must never panic and must
//! round-trip every well-formed message (adversaries control the bytes
//! a node parses). Driven by a fixed-seed deterministic generator so
//! the suite runs offline and reproduces exactly. The `#[ignore]`d long
//! forms run the soup and round-trip checks over 200 000 cases each; CI
//! runs them in release
//! (`cargo test -p lrs-deluge --release --test wire_fuzz -- --ignored`).

use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::leap::LeapKeyring;
use lrs_deluge::wire::{BitVec, Frame, Message};
use lrs_host::node::NodeId;
use lrs_rng::DetRng;

/// Cases per long-form check.
const LONG: usize = 200_000;

/// `Message::from_bytes`, checked on every call against the borrowed
/// parse a receiver matches on: both accept exactly the same bytes, the
/// view's owned form is the message, and both write the same bytes.
fn parse(bytes: &[u8]) -> Option<Message> {
    let owned = Message::from_bytes(bytes);
    let view = Frame::parse(bytes);
    assert_eq!(view.is_some(), owned.is_some(), "{bytes:02x?}");
    if let (Some(view), Some(owned)) = (view, &owned) {
        assert_eq!(view.into_owned(), *owned);
        assert_eq!(view.to_bytes(), owned.to_bytes());
    }
    owned
}

/// Arbitrary byte soup: parse returns None or Some, never panics.
fn soup(cases: usize) {
    let mut rng = DetRng::seed_from_u64(0x736f_7570);
    for _ in 0..cases {
        let len = rng.gen_range(0usize..300);
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        let _ = parse(&bytes);
    }
}

#[test]
fn parser_never_panics() {
    soup(512);
}

#[test]
#[ignore = "long form: cargo test -p lrs-deluge --release --test wire_fuzz -- --ignored"]
fn parser_never_panics_long() {
    soup(LONG);
}

/// Truncating any valid message makes it unparseable or — for
/// variable-length payloads — still structurally valid, but never a
/// panic.
#[test]
fn truncations_never_panic() {
    let key = ClusterKey::derive(b"fuzz", 0);
    let mut rng = DetRng::seed_from_u64(0x7472_756e);
    for _ in 0..256 {
        let bytes = Message::adv(&key, NodeId(rng.gen()), rng.gen(), rng.gen()).to_bytes();
        let cut = rng.gen_range(0usize..14).min(bytes.len());
        let _ = parse(&bytes[..bytes.len() - cut]);
    }
}

/// Round-trip for arbitrary advertisements.
fn adv_roundtrips(cases: usize) {
    let key = ClusterKey::derive(b"fuzz", 1);
    let mut rng = DetRng::seed_from_u64(0x61_64_76);
    for _ in 0..cases {
        let m = Message::adv(&key, NodeId(rng.gen()), rng.gen(), rng.gen());
        assert_eq!(parse(&m.to_bytes()), Some(m));
    }
}

#[test]
fn adv_roundtrip() {
    adv_roundtrips(256);
}

#[test]
#[ignore = "long form: cargo test -p lrs-deluge --release --test wire_fuzz -- --ignored"]
fn adv_roundtrip_long() {
    adv_roundtrips(LONG);
}

/// Round-trip for arbitrary SNACKs (with and without pairwise MACs).
fn snack_roundtrips(cases: usize) {
    let key = ClusterKey::derive(b"fuzz", 2);
    let ring = LeapKeyring::bootstrap(b"fuzz", 1);
    let mut rng = DetRng::seed_from_u64(0x73_6e_61);
    for _ in 0..cases {
        let nbits = rng.gen_range(1usize..128);
        let mut bits = BitVec::zeros(nbits);
        for _ in 0..rng.gen_range(0usize..16) {
            bits.set(rng.gen_range(0usize..nbits), true);
        }
        let mut m = Message::snack(
            &key,
            NodeId(rng.gen()),
            NodeId(rng.gen()),
            rng.gen(),
            rng.gen(),
            bits,
        );
        if rng.gen_bool(0.5) {
            m = m.with_leap(&ring);
        }
        assert_eq!(parse(&m.to_bytes()), Some(m));
    }
}

#[test]
fn snack_roundtrip() {
    snack_roundtrips(256);
}

#[test]
#[ignore = "long form: cargo test -p lrs-deluge --release --test wire_fuzz -- --ignored"]
fn snack_roundtrip_long() {
    snack_roundtrips(LONG);
}

/// Round-trip for arbitrary data packets.
fn data_roundtrips(cases: usize) {
    let mut rng = DetRng::seed_from_u64(0x6461_7461);
    for _ in 0..cases {
        let mut payload = vec![0u8; rng.gen_range(0usize..256)];
        rng.fill_bytes(&mut payload);
        let m = Message::Data {
            version: rng.gen(),
            item: rng.gen(),
            index: rng.gen(),
            payload,
        };
        assert_eq!(parse(&m.to_bytes()), Some(m));
    }
}

#[test]
fn data_roundtrip() {
    data_roundtrips(256);
}

#[test]
#[ignore = "long form: cargo test -p lrs-deluge --release --test wire_fuzz -- --ignored"]
fn data_roundtrip_long() {
    data_roundtrips(LONG);
}

/// One exemplar of every message kind, for the exhaustive adversarial
/// sweeps below.
fn exemplars() -> Vec<Message> {
    let key = ClusterKey::derive(b"fuzz", 4);
    let mut bits = BitVec::zeros(48);
    bits.set(0, true);
    bits.set(47, true);
    let ring = LeapKeyring::bootstrap(b"fuzz", 1);
    vec![
        Message::adv(&key, NodeId(7), 3, 5),
        Message::snack(&key, NodeId(1), NodeId(2), 3, 4, bits.clone()),
        Message::snack(&key, NodeId(1), NodeId(2), 3, 4, bits).with_leap(&ring),
        Message::Data {
            version: 3,
            item: 2,
            index: 17,
            payload: vec![0xA5; 72],
        },
    ]
}

/// Truncation at EVERY byte offset of every message kind is rejected:
/// each encoding consumes its full length exactly, so any strict prefix
/// must parse to `None` (and never panic).
#[test]
fn every_prefix_of_every_kind_is_rejected() {
    for m in exemplars() {
        let bytes = m.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                parse(&bytes[..cut]),
                None,
                "prefix of length {cut}/{} parsed for {m:?}",
                bytes.len()
            );
        }
        assert_eq!(parse(&bytes), Some(m));
    }
}

/// Every possible kind-tag byte on every message body: unknown tags are
/// rejected outright; a known-but-different tag re-frames the bytes and
/// must either fail to parse or parse cleanly — never panic. Anything
/// that does parse must re-encode to exactly the input (the wire format
/// has one canonical encoding per message).
#[test]
fn flipped_kind_tags_never_panic_and_stay_canonical() {
    for m in exemplars() {
        let bytes = m.to_bytes();
        for tag in 0u8..=255 {
            let mut flipped = bytes.clone();
            flipped[0] = tag;
            match parse(&flipped) {
                None => {}
                Some(reframed) => assert_eq!(reframed.to_bytes(), flipped),
            }
        }
    }
}

/// Length fields claiming more bytes than the datagram carries are
/// rejected; in-range corruptions leave trailing bytes, which the
/// parser also rejects.
#[test]
fn oversized_length_fields_are_rejected() {
    // Data packet: the payload-length u16 lives at bytes 7..9.
    let data = Message::Data {
        version: 1,
        item: 2,
        index: 3,
        payload: vec![0x55; 40],
    }
    .to_bytes();
    for claimed in [41u16, 64, 1024, u16::MAX] {
        let mut bytes = data.clone();
        bytes[7..9].copy_from_slice(&claimed.to_be_bytes());
        assert_eq!(parse(&bytes), None, "claimed {claimed}");
    }
    // Undersized claims leave trailing garbage: also rejected.
    let mut bytes = data.clone();
    bytes[7..9].copy_from_slice(&10u16.to_be_bytes());
    assert_eq!(parse(&bytes), None);

    // SNACK: the bit-count u16 lives at bytes 13..15; an oversized
    // claim pushes the MAC read past the end of the datagram.
    let key = ClusterKey::derive(b"fuzz", 5);
    let snack = Message::snack(&key, NodeId(1), NodeId(2), 1, 0, BitVec::ones(32)).to_bytes();
    for claimed in [u16::MAX, 1024, 33] {
        let mut bytes = snack.clone();
        bytes[13..15].copy_from_slice(&claimed.to_be_bytes());
        assert_eq!(parse(&bytes), None, "claimed {claimed}");
    }
}

/// Anything the parser accepts re-encodes to exactly the bytes it was
/// parsed from: there are no two wire encodings of one message, so a
/// cache or dedup layer keyed on bytes cannot be split by an attacker.
#[test]
fn accepted_byte_strings_are_canonical() {
    let mut rng = DetRng::seed_from_u64(0x6361_6e6f);
    let mut accepted = 0u32;
    for _ in 0..4096 {
        let len = rng.gen_range(1usize..64);
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        // Bias toward valid tags so some parses succeed.
        bytes[0] = rng.gen_range(0u32..6) as u8;
        if let Some(m) = parse(&bytes) {
            accepted += 1;
            assert_eq!(m.to_bytes(), bytes);
        }
    }
    // The generator must actually exercise the Some arm.
    assert!(accepted > 0, "no random input parsed; generator too weak");
}

/// Bit-flipping a MACed control packet either fails to parse or fails
/// the MAC — it is never accepted as authentic.
#[test]
fn flipped_control_packets_fail_mac() {
    let key = ClusterKey::derive(b"fuzz", 3);
    let mut rng = DetRng::seed_from_u64(0x666c_6970);
    for _ in 0..256 {
        let mut bytes = Message::adv(&key, NodeId(rng.gen()), rng.gen(), rng.gen()).to_bytes();
        // Skip byte 0: flipping the tag can re-frame the packet as a
        // data message, which is legitimately MAC-exempt (its
        // authentication is the scheme's hash chain instead).
        let pos = rng.gen_range(1usize..bytes.len());
        let mask = rng.gen_range(1u32..=255) as u8;
        bytes[pos] ^= mask;
        match parse(&bytes) {
            None => {}
            Some(m) => assert!(!m.mac_ok(&key), "flipped byte {pos} accepted"),
        }
    }
}
