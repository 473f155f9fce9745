//! Typed protocol-invariant violations.
//!
//! A structured [`InvariantViolation`] shared by every scheme
//! (LR-Seluge, Seluge, and custom checkers) and every driver, so a
//! failure names which buffer, which page, which packet index, and the
//! expected/actual content digests instead of an opaque message. It
//! lives beside the protocol contract because both sides name it: a
//! scheme's checker returns it and a driver's per-delivery hook records
//! it.
//!
//! Digests are 64-bit FNV-1a condensations of the compared byte
//! strings: enough to tell *that* and *where* two buffers diverged,
//! without pulling a crypto dependency into a driver.

use crate::node::NodeId;
use crate::time::SimTime;
use std::fmt;

/// A 64-bit content digest (FNV-1a) used to report expected/actual
/// bytes in violations without embedding whole packets.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentDigest(pub u64);

impl ContentDigest {
    /// The FNV-1a offset basis — the digest of the empty byte string,
    /// and the seed for incremental digests built with [`absorb`].
    ///
    /// [`absorb`]: ContentDigest::absorb
    pub const EMPTY: ContentDigest = ContentDigest(0xcbf2_9ce4_8422_2325);

    /// Digests `bytes` (FNV-1a 64).
    pub fn of(bytes: &[u8]) -> Self {
        ContentDigest::EMPTY.absorb(bytes)
    }

    /// Folds `bytes` into a running digest, so multi-part streams can
    /// be digested without concatenating:
    /// `EMPTY.absorb(a).absorb(b) == ContentDigest::of(a ++ b)`.
    pub fn absorb(self, bytes: &[u8]) -> Self {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        ContentDigest(h)
    }

    /// Digest of an absent value (e.g. a node whose image failed to
    /// reassemble).
    pub const MISSING: ContentDigest = ContentDigest(0);
}

impl fmt::Debug for ContentDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for ContentDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Which packet buffer a buffer-shape violation refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferKind {
    /// The hash-page (`M0`) packet buffer.
    HashPage,
    /// The in-flight data-page packet buffer.
    Page,
}

impl BufferKind {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            BufferKind::HashPage => "hash_page",
            BufferKind::Page => "page",
        }
    }
}

/// A violated protocol invariant, as detected by a scheme's
/// `verify_invariants` or a custom checker.
///
/// Every variant carries the structure a post-mortem needs: the buffer
/// and page/packet coordinates involved, and expected/actual
/// [`ContentDigest`]s where byte content diverged. The node and virtual
/// time are attached by the simulator (see [`ViolationRecord`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// The completion counter exceeds the number of items.
    CompletionOverflow {
        /// Items the node claims complete.
        complete: u64,
        /// Items that exist.
        total: u64,
    },
    /// A packet buffer's slot count or occupancy disagrees with its
    /// bound or its counter.
    BufferBound {
        /// Which buffer.
        buffer: BufferKind,
        /// Slots the buffer holds.
        slots: u64,
        /// Occupied slots actually counted.
        held: u64,
        /// The node's own occupancy counter.
        count: u64,
    },
    /// An unauthenticated (byte-divergent) packet sits in a buffer.
    UnauthenticPacket {
        /// Which buffer.
        buffer: BufferKind,
        /// Page the packet belongs to (`None` for the hash page).
        page: Option<u32>,
        /// Packet index within the page.
        index: u32,
        /// Digest of the authentic packet.
        expected: ContentDigest,
        /// Digest of the buffered bytes.
        actual: ContentDigest,
    },
    /// Page packets are buffered although no page is in flight.
    UnexpectedBufferOccupancy {
        /// The node's completion counter at the time.
        complete: u64,
    },
    /// The stored signature body differs from the authentic artifacts.
    SignatureMismatch {
        /// Digest of the authentic signature body.
        expected: ContentDigest,
        /// Digest of the stored body (or [`ContentDigest::MISSING`]).
        actual: ContentDigest,
    },
    /// A completed page's bytes differ from preprocessing.
    PageMismatch {
        /// The diverging page.
        page: u32,
        /// The diverging packet within it, when known.
        packet: Option<u32>,
        /// Digest of the authentic bytes.
        expected: ContentDigest,
        /// Digest of the node's bytes.
        actual: ContentDigest,
    },
    /// Fewer completed pages are held than the completion counter
    /// implies.
    PagesMissing {
        /// The node's completion counter.
        complete: u64,
        /// Completed pages actually held.
        held: u64,
    },
    /// A complete node's reassembled image differs from the origin.
    ImageMismatch {
        /// Digest of the origin image.
        expected: ContentDigest,
        /// Digest of the node's image (or [`ContentDigest::MISSING`]).
        actual: ContentDigest,
    },
    /// A free-form violation from a custom checker.
    Custom {
        /// Human-readable description.
        message: String,
    },
}

impl InvariantViolation {
    /// Stable lowercase kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            InvariantViolation::CompletionOverflow { .. } => "completion_overflow",
            InvariantViolation::BufferBound { .. } => "buffer_bound",
            InvariantViolation::UnauthenticPacket { .. } => "unauthentic_packet",
            InvariantViolation::UnexpectedBufferOccupancy { .. } => "unexpected_buffer",
            InvariantViolation::SignatureMismatch { .. } => "signature_mismatch",
            InvariantViolation::PageMismatch { .. } => "page_mismatch",
            InvariantViolation::PagesMissing { .. } => "pages_missing",
            InvariantViolation::ImageMismatch { .. } => "image_mismatch",
            InvariantViolation::Custom { .. } => "custom",
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::CompletionOverflow { complete, total } => {
                write!(f, "complete={complete} exceeds {total} items")
            }
            InvariantViolation::BufferBound {
                buffer,
                slots,
                held,
                count,
            } => write!(
                f,
                "{} buffer bound violated: {slots} slots, {held} held, count {count}",
                buffer.label()
            ),
            InvariantViolation::UnauthenticPacket {
                buffer,
                page,
                index,
                ..
            } => match page {
                Some(p) => write!(
                    f,
                    "unauthentic {} packet buffered: page {p} idx {index}",
                    buffer.label()
                ),
                None => write!(
                    f,
                    "unauthentic {} packet buffered at {index}",
                    buffer.label()
                ),
            },
            InvariantViolation::UnexpectedBufferOccupancy { complete } => {
                write!(f, "page packets buffered while complete={complete}")
            }
            InvariantViolation::SignatureMismatch { .. } => {
                write!(f, "signature item complete but body does not match")
            }
            InvariantViolation::PageMismatch { page, packet, .. } => match packet {
                Some(j) => write!(f, "completed page {page} packet {j} differs"),
                None => write!(f, "decoded page {page} differs from preprocessing"),
            },
            InvariantViolation::PagesMissing { complete, held } => {
                write!(
                    f,
                    "complete={complete} but only {held} completed pages held"
                )
            }
            InvariantViolation::ImageMismatch { .. } => {
                write!(f, "complete node's image differs from origin")
            }
            InvariantViolation::Custom { message } => f.write_str(message),
        }
    }
}

/// A violation pinned to the node and virtual time where the simulator
/// observed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationRecord {
    /// When the violating delivery was processed.
    pub at: SimTime,
    /// The node whose state violated the invariant.
    pub node: NodeId,
    /// What was violated.
    pub violation: InvariantViolation,
}

impl fmt::Display for ViolationRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violated at t={}us on n{}: {}",
            self.at.as_micros(),
            self.node.0,
            self.violation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_distinguishes_content() {
        let a = ContentDigest::of(b"hello");
        let b = ContentDigest::of(b"hellp");
        assert_ne!(a, b);
        assert_eq!(a, ContentDigest::of(b"hello"));
        assert_eq!(format!("{a}").len(), 16);
    }

    #[test]
    fn display_matches_legacy_strings() {
        // `replay` prints a recorded violation through Display.
        let v = InvariantViolation::PageMismatch {
            page: 4,
            packet: None,
            expected: ContentDigest(0),
            actual: ContentDigest(1),
        };
        assert_eq!(v.to_string(), "decoded page 4 differs from preprocessing");
        let r = ViolationRecord {
            at: SimTime(120),
            node: NodeId(9),
            violation: v,
        };
        assert!(r.to_string().contains("t=120us on n9"));
    }
}
