//! Deluge-style code dissemination substrate.
//!
//! Deluge (Hui & Culler, SenSys 2004) is the de-facto page-by-page code
//! dissemination protocol for sensor networks and the foundation that
//! both Seluge and LR-Seluge build on. This crate provides:
//!
//! * [`wire`] — the on-air message formats (advertisement, SNACK with a
//!   request bit vector, data; the signature travels as item 0's data
//!   packet), their byte-exact serialization, which the experiments use
//!   for the paper's "total communication cost in bytes" metric, and
//!   every MAC input;
//! * [`engine`] — a generic dissemination node implementing the
//!   MAINTAIN / RX / TX state machine with Trickle-scheduled
//!   advertisements, SNACK retries and the suppression rules, shared by
//!   Deluge, Seluge and LR-Seluge and parameterized by a [`Scheme`]
//!   (what the transfer units are and how packets are validated) and a
//!   [`TxPolicy`] (which requested packet to transmit next);
//! * [`trickle`] — the Trickle timer that paces those advertisements;
//! * [`policy`] — the union-of-bit-vectors TX policy used by Deluge and
//!   Seluge (§IV-D-3: "a node in Deluge and Seluge simply transmits
//!   packets corresponding to the union of bit vectors in SNACK
//!   packets");
//! * [`image`] — the plain Deluge image layout (pages of `k` packets,
//!   no security) and its [`Scheme`] implementation;
//! * [`bootstrap`] — the security bootstrap Seluge and LR-Seluge share
//!   (signed Merkle root behind a puzzle, Merkle-authenticated hash page,
//!   per-packet hash check, receive buffers, deployment keys), leaving
//!   each scheme only its page-chaining rule;
//! * [`deployment`] — the [`SchemeFamily`] trait the three schemes
//!   implement and the one generic [`Deployment`] built over it, so
//!   harnesses, replay and the real-UDP host are written once;
//! * [`attack`] — the §III adversary: seeded, replayable attack plans
//!   (who attacks, with which vector, from when, how fast) and the
//!   [`Attacker`](attack::Attacker) node that mounts one plan entry
//!   (bogus-data floods, forged control packets, forged signatures,
//!   denial-of-receipt) against a scheme.
//!
//! Everything here is written against `lrs-host`'s protocol contract;
//! the simulator is a dev-dependency of the tests only.

pub mod attack;
pub mod bootstrap;
pub mod deployment;
pub mod engine;
pub mod image;
pub mod policy;
pub mod trickle;
pub mod wire;

pub use deployment::{Deployment, ParamError, SchemeFamily};
pub use engine::{DisseminationNode, EngineConfig, PacketDisposition, Scheme};
pub use image::{DelugeImage, DelugeScheme};
pub use policy::{TxPolicy, UnionPolicy};
pub use wire::{BitVec, Message};
