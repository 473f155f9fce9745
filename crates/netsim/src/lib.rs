//! Discrete-event lossy wireless network simulator.
//!
//! This crate is the evaluation substrate for the LR-Seluge reproduction:
//! the paper evaluates Deluge/Seluge/LR-Seluge in TOSSIM-style
//! simulations; we implement the equivalent simulator from scratch.
//!
//! * A virtual-time event queue drives per-node protocol state machines
//!   ([`sim`], [`event`]).
//! * Protocols are implemented against `lrs-host`'s
//!   [`Protocol`](lrs_host::node::Protocol) trait and interact with the
//!   world through a [`Context`](lrs_host::node::Context) (broadcast,
//!   timers, RNG). This crate is one driver of that contract and holds
//!   only what an engine run needs: no protocol crate depends on it
//!   outside its tests.
//! * The broadcast [`medium`] models transmission airtime, CSMA-style
//!   deferral with random backoff, half-duplex radios, and collisions
//!   between overlapping in-range transmissions.
//! * Packet losses combine per-link PRR from the [`topology`], optional
//!   bursty [`noise`], and the paper's application-layer i.i.d. drop
//!   probability `p` (§VI-A: "packet losses are emulated by each node
//!   dropping received data, advertisement, or SNACK packets with the
//!   same probability p at the application layer").
//! * [`topology`] builds one-hop stars, 15×15 grids at tight/medium
//!   density (standing in for the TinyOS `15-15-*-mica2-grid.txt` files),
//!   and random deployments.
//! * [`metrics`] holds the counters behind every figure.
//! * [`fault`] schedules deterministic crash/reboot, link-churn,
//!   asymmetric-degradation, and clock-drift faults; the simulator's
//!   stall watchdog and per-delivery invariant hooks end livelocked and
//!   protocol-violating runs with [`Outcome::Stalled`] and
//!   [`Outcome::InvariantViolated`] instead of hangs, the violation
//!   (in `lrs-host`'s [`violation`](lrs_host::violation) vocabulary)
//!   in [`RunReport::violation`]. The simulator keeps no post-mortem of
//!   its own: a harness saves the run's capsule, and `replay` explains
//!   it (`--trace`, `--summary`).
//! * [`builder`] provides [`SimBuilder`], the one way to configure a
//!   run, and
//!   [`capsule`] / [`mod@replay`] the flight recorder: a run's seed, config,
//!   topology and faults captured to a file and re-executed
//!   bit-identically. One sequential engine executes every run.
//!
//! # Example
//!
//! ```
//! use lrs_host::node::{Context, NodeId, PacketKind, Protocol, TimerId};
//! use lrs_host::time::Duration;
//! use lrs_netsim::{builder::SimBuilder, topology::Topology};
//!
//! /// Every node floods a token once.
//! struct Flood { seen: bool }
//! impl Protocol for Flood {
//!     fn on_init(&mut self, ctx: &mut Context<'_>) {
//!         if ctx.id == NodeId(0) {
//!             self.seen = true;
//!             ctx.broadcast(PacketKind::Data, b"token".to_vec());
//!         }
//!     }
//!     fn on_packet(&mut self, ctx: &mut Context<'_>, _from: NodeId, _data: &[u8]) {
//!         if !self.seen {
//!             self.seen = true;
//!             ctx.broadcast(PacketKind::Data, b"token".to_vec());
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerId) {}
//!     fn is_complete(&self) -> bool { self.seen }
//! }
//!
//! let topo = Topology::line(5, 1.0);
//! let mut sim = SimBuilder::new(topo, 42, |_| Flood { seen: false }).build();
//! let report = sim.run(Duration::from_secs(60));
//! assert!(report.all_complete);
//! ```

pub mod builder;
pub mod capsule;
pub mod energy;
pub mod event;
pub mod fault;
pub mod medium;
pub mod metrics;
// Re-export shim: imported by `benchmark/` alone, deleted by its refresh
// (ROADMAP item 1).
pub mod node;
pub mod noise;
pub mod replay;
pub mod sim;
// Re-export shim, as `node` above.
pub mod time;
pub mod topology;
pub mod trace;

pub use builder::SimBuilder;
pub use capsule::{Capsule, CapsuleError, RunDigest};
pub use fault::{FaultConfig, FaultEvent, FaultPlan, PPM_ONE};
pub use metrics::Metrics;
pub use replay::{verify_replay, DigestMismatch, ReplayError, ReplayRun};
pub use sim::{Outcome, RunReport, SimConfig, Simulator};
pub use topology::Topology;
pub use trace::{
    JsonlTrace, LossCause, RingTrace, SharedRingTrace, TraceDigest, TraceEvent, TraceSink,
};
