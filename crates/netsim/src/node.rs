//! Re-export shim for the protocol contract, which lives in `lrs-host`.
//!
//! Nothing in this workspace imports it: the separate `benchmark/`
//! package still names these types through their historical simulator
//! path and may only change in a PR of its own, so this file stays until
//! that refresh (ROADMAP item 1) deletes it.

pub use lrs_host::node::{Action, Context, NodeId, PacketKind, Protocol, TimerId};
