//! Seluge: secure Deluge-based code dissemination (Hyun, Ning, Liu & Du,
//! IPSN 2008), reimplemented as the baseline the paper compares against.
//!
//! Seluge keeps Deluge's page-by-page ARQ dissemination and adds
//! immediate per-packet authentication (paper §II-B):
//!
//! * the `j`-th packet of page `i` embeds the hash image of the `j`-th
//!   packet of page `i+1` (one-to-one chaining between adjacent pages);
//! * a special *hash page* `M0` concatenates the hash images of page 1's
//!   packets; a Merkle hash tree over `M0`'s chunks lets each `M0` packet
//!   be verified in isolation;
//! * the base station signs the Merkle root, and a message-specific
//!   puzzle (weak authenticator) shields nodes from forged-signature
//!   floods.
//!
//! Engine items: item 0 = signature packet, item 1 = hash page,
//! items `2..2+g` = code pages.

pub mod preprocess;
pub mod scheme;

pub use preprocess::{SelugeArtifacts, SelugeParams};
pub use scheme::SelugeScheme;

/// A prepared Seluge deployment (the counterpart of
/// `lr_seluge::Deployment`).
pub type SelugeDeployment = lrs_deluge::deployment::Deployment<SelugeScheme>;

/// A Seluge protocol node, ready for the simulator.
pub type SelugeNode = lrs_deluge::deployment::Node<SelugeScheme>;
