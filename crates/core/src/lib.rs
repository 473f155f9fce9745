//! # LR-Seluge: loss-resilient and secure code dissemination
//!
//! Reproduction of *LR-Seluge: Loss-Resilient and Secure Code
//! Dissemination in Wireless Sensor Networks* (Rui Zhang & Yanchao
//! Zhang, ICDCS 2011).
//!
//! LR-Seluge is the first code-dissemination scheme that is
//! simultaneously **loss-resilient** and **attack-resilient**. Existing
//! secure schemes (Seluge and its relatives) inherit Deluge's ARQ
//! transfer, which degrades badly under heavy packet loss; existing
//! loss-resilient schemes use *rateless* erasure codes whose unbounded
//! packet space defeats per-packet authentication. LR-Seluge closes the
//! gap with three ideas (paper §IV):
//!
//! 1. **Fixed-rate erasure coding.** Each page is encoded into a
//!    *predetermined* set of `n` packets of which any `k'` recover the
//!    page, so redundancy absorbs losses *and* every future packet is
//!    known at preprocessing time.
//! 2. **Chained hashes over encoded packets.** The hash images of page
//!    `i+1`'s `n` encoded packets are appended to page `i`'s plaintext
//!    *before* encoding; decoding page `i` therefore simultaneously
//!    yields the authenticators for page `i+1`, preserving Seluge-style
//!    immediate per-packet authentication (and hence DoS resilience). A
//!    Merkle-tree-protected, erasure-coded hash page plus one signed root
//!    bootstraps the chain.
//! 3. **Greedy round-robin TX scheduling.** Because any `k'` of `n`
//!    packets serve a receiver, a sender can satisfy *different* loss
//!    patterns at different neighbors with far fewer transmissions; the
//!    [`scheduler::GreedyRoundRobinPolicy`] transmits the most-wanted
//!    packet first and walks cyclically on ties, retiring each neighbor
//!    after its *distance* (remaining need) hits zero.
//!
//! # Quickstart
//!
//! ```
//! use lr_seluge::{LrSelugeParams, Deployment};
//! use lrs_host::{node::NodeId, time::Duration};
//! use lrs_netsim::{SimBuilder, topology::Topology};
//!
//! // A 4 KiB image, small pages for the doctest.
//! let image: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
//! let params = LrSelugeParams { image_len: image.len(), k: 8, n: 12, payload_len: 48,
//!                               ..LrSelugeParams::default() };
//! let deployment = Deployment::new(&image, params, b"demo keys");
//!
//! let mut sim = SimBuilder::new(Topology::star(4), 7,
//!                               |id| deployment.node(id, NodeId(0)))
//!     .build();
//! let report = sim.run(Duration::from_secs(3600));
//! assert!(report.all_complete);
//! # use lrs_deluge::engine::Scheme;
//! assert_eq!(sim.node(NodeId(3)).scheme().image().unwrap(), image);
//! ```

pub mod code;
pub mod deployment;
pub mod params;
pub mod preprocess;
pub mod scheduler;
pub mod scheme;

pub use code::{CodeKind, PageCode};
pub use deployment::{Deployment, LrNode};
pub use params::{LrSelugeParams, ParamError};
pub use preprocess::LrArtifacts;
pub use scheduler::GreedyRoundRobinPolicy;
pub use scheme::LrScheme;

pub use lrs_deluge::bootstrap::{packet_hash, packet_hash_batch};
