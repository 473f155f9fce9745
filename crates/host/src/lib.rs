//! Host-agnostic protocol contract and real-time host runtime.
//!
//! Dissemination protocols (Deluge, Seluge, LR-Seluge) are written
//! against the [`Protocol`] trait: a pure state machine that reacts to
//! packets and timer expirations by emitting [`Action`]s through a
//! [`Context`]. Nothing in the contract names a simulator — which is
//! the point. Two hosts drive the identical protocol code:
//!
//! * **`lrs-netsim`** — the discrete-event simulator: virtual time,
//!   modeled airtime/CSMA/collisions, deterministic loss processes,
//!   bit-exact replay.
//! * **[`Host`]** (this crate) — a real-time event loop over a
//!   [`Transport`] (UDP sockets, in-process channels): monotonic-clock
//!   virtual time via a configurable [`time scale`](HostConfig::time_scale),
//!   the per-node [`TimerWheel`] and [`node_rng`] stream the simulator
//!   keeps too, and the [`envelope`] framing that carries protocol
//!   packets between processes.
//!
//! Beside the contract sits the vocabulary both a driver and a protocol
//! must name: [`violation`] holds the typed invariant violations a
//! scheme's checker returns and a host's per-delivery hook records.
//! Protocol crates depend on this crate and never on the simulator.
//!
//! The envelope (magic + version + sender + length) lives strictly at
//! the transport layer: the bytes handed to `Protocol::on_packet` are
//! the same `Message` encodings the simulator delivers, so packet
//! digests — and therefore every sim golden and capsule replay — are
//! unaffected by how the packet traveled.

pub mod envelope;
pub mod host;
pub mod node;
pub mod time;
pub mod timer;
pub mod violation;

pub use envelope::{decode_frame, encode_frame, Frame};
pub use host::{ChannelTransport, Host, HostConfig, HostReport, Transport, UdpTransport};
pub use node::{node_rng, Action, Context, NodeId, PacketKind, Protocol, TimerId};
pub use time::{Duration, SimTime};
pub use timer::TimerWheel;
