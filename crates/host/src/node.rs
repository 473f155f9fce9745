//! Node identities, the protocol trait, and the execution context.
//!
//! Dissemination protocols (Deluge, Seluge, LR-Seluge) are written
//! against [`Protocol`]; the host — the discrete-event simulator or a
//! real-time socket loop — delivers packets and timer expirations, and
//! the protocol reacts by broadcasting packets and (re)arming timers
//! through the [`Context`]. The host drains the resulting [`Action`]s
//! after each callback returns.

use crate::time::{Duration, SimTime};
use lrs_rng::DetRng;

/// A node identifier (index into the deployment's node list).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Node `id`'s protocol RNG stream under run seed `seed`. The simulator
/// and the real-time host both seed through it, so a node process draws
/// what its simulated twin draws.
pub fn node_rng(seed: u64, id: NodeId) -> DetRng {
    DetRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(id.0))
}

/// A protocol-chosen timer identifier. Re-arming the same id replaces the
/// pending expiration (only the latest arm fires).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u32);

/// Classification of packets for the metric counters (the paper reports
/// data, SNACK, and advertisement counts separately, plus the signature
/// packet).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PacketKind {
    /// Periodic Trickle advertisement.
    Adv,
    /// Selective-NACK request.
    Snack,
    /// Code-image data packet.
    Data,
    /// Hash-page (`M0`) packet.
    HashPage,
    /// The signed Merkle-root packet.
    Signature,
}

impl PacketKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [PacketKind; 5] = [
        PacketKind::Adv,
        PacketKind::Snack,
        PacketKind::Data,
        PacketKind::HashPage,
        PacketKind::Signature,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            PacketKind::Adv => "adv",
            PacketKind::Snack => "snack",
            PacketKind::Data => "data",
            PacketKind::HashPage => "hashpage",
            PacketKind::Signature => "sig",
        }
    }
}

/// Actions a protocol can request; collected by the [`Context`] and
/// executed by the host after the handler returns.
#[derive(Debug)]
pub enum Action {
    /// Transmit a packet to all one-hop neighbors.
    Broadcast {
        /// Metric classification of the packet.
        kind: PacketKind,
        /// Encoded packet bytes (a `Message` encoding; no envelope).
        data: Vec<u8>,
    },
    /// Arm (or re-arm) a timer.
    SetTimer {
        /// The timer to arm.
        timer: TimerId,
        /// Delay until expiration.
        delay: Duration,
    },
    /// Cancel a pending timer (no-op if not armed).
    CancelTimer {
        /// The timer to cancel.
        timer: TimerId,
    },
    /// Observational trace annotation; never changes a run.
    Note {
        /// Static label naming the annotation.
        label: &'static str,
        /// First payload value.
        a: u64,
        /// Second payload value.
        b: u64,
    },
}

/// The environment handed to every protocol callback.
pub struct Context<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The node being executed.
    pub id: NodeId,
    rng: &'a mut DetRng,
    actions: &'a mut Vec<Action>,
    /// Airtime per byte, for protocols that pace their transmissions.
    us_per_byte: u64,
    per_packet_overhead_us: u64,
}

impl<'a> Context<'a> {
    /// Builds a context for one protocol callback. The host supplies the
    /// node's deterministic RNG stream and an action buffer it drains
    /// (in push order) once the callback returns.
    pub fn new(
        now: SimTime,
        id: NodeId,
        rng: &'a mut DetRng,
        actions: &'a mut Vec<Action>,
        us_per_byte: u64,
        per_packet_overhead_us: u64,
    ) -> Self {
        Context {
            now,
            id,
            rng,
            actions,
            us_per_byte,
            per_packet_overhead_us,
        }
    }

    /// Broadcasts a packet to all one-hop neighbors.
    ///
    /// Delivery is host-dependent: the simulator applies CSMA deferral,
    /// airtime, collisions, per-link loss, and the application-layer
    /// drop probability; a real transport applies whatever the network
    /// does.
    pub fn broadcast(&mut self, kind: PacketKind, data: Vec<u8>) {
        self.actions.push(Action::Broadcast { kind, data });
    }

    /// Arms (or re-arms) timer `timer` to fire after `delay`.
    pub fn set_timer(&mut self, timer: TimerId, delay: Duration) {
        self.actions.push(Action::SetTimer { timer, delay });
    }

    /// Cancels a pending timer (no-op if not armed).
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.actions.push(Action::CancelTimer { timer });
    }

    /// This node's deterministic random stream.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Emits a protocol-level trace annotation (SNACK round, page
    /// completion, scheduler decision, …). Purely observational: the
    /// event reaches an attached trace sink, if the host has one, and
    /// is otherwise dropped, so noting never changes a run.
    pub fn note(&mut self, label: &'static str, a: u64, b: u64) {
        self.actions.push(Action::Note { label, a, b });
    }

    /// Time a packet of `bytes` occupies the channel.
    pub fn airtime(&self, bytes: usize) -> Duration {
        Duration::from_micros(self.per_packet_overhead_us + self.us_per_byte * bytes as u64)
    }
}

/// A per-node protocol state machine.
///
/// Implementations must be deterministic given the [`Context`] RNG; the
/// simulator guarantees reproducible runs for a fixed seed.
pub trait Protocol {
    /// Called once at time zero.
    fn on_init(&mut self, ctx: &mut Context<'_>);

    /// Called when a packet is received (after all loss processes).
    fn on_packet(&mut self, ctx: &mut Context<'_>, from: NodeId, data: &[u8]);

    /// Called when an armed timer fires.
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId);

    /// Whether this node has finished its dissemination goal; the
    /// host records the first time this becomes true and can stop
    /// early once every node is complete.
    fn is_complete(&self) -> bool;

    /// Called when the node restarts after a crash fault. The protocol
    /// must drop whatever its model considers volatile RAM state and
    /// resume from what survives in "flash". The default treats the
    /// whole protocol as flash-resident and simply re-runs
    /// [`on_init`](Self::on_init).
    fn on_reboot(&mut self, ctx: &mut Context<'_>) {
        self.on_init(ctx);
    }

    /// A monotone-per-node goodput indicator for the host's stall
    /// watchdog: any genuine forward progress (a buffered packet, a
    /// completed page) must eventually increase it. The default only
    /// distinguishes incomplete from complete.
    fn progress(&self) -> u64 {
        u64::from(self.is_complete())
    }

    /// One-line state description (page/packet bit-vectors and the
    /// like): the last column of `replay --summary`'s node rows, where
    /// a stalled run shows each node's state. Empty by default.
    fn diagnostic(&self) -> String {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_formula() {
        let mut rng = DetRng::seed_from_u64(0);
        let mut actions = Vec::new();
        let ctx = Context::new(SimTime::ZERO, NodeId(0), &mut rng, &mut actions, 416, 1000);
        assert_eq!(ctx.airtime(36), Duration::from_micros(1000 + 36 * 416));
    }

    #[test]
    fn actions_queue_in_order() {
        let mut rng = DetRng::seed_from_u64(0);
        let mut actions = Vec::new();
        let mut ctx = Context::new(SimTime::ZERO, NodeId(1), &mut rng, &mut actions, 1, 0);
        ctx.broadcast(PacketKind::Adv, vec![1]);
        ctx.set_timer(TimerId(7), Duration::from_secs(1));
        ctx.cancel_timer(TimerId(7));
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], Action::Broadcast { .. }));
        assert!(matches!(
            actions[1],
            Action::SetTimer {
                timer: TimerId(7),
                ..
            }
        ));
        assert!(matches!(
            actions[2],
            Action::CancelTimer { timer: TimerId(7) }
        ));
    }

    #[test]
    fn packet_kind_labels() {
        for kind in PacketKind::ALL {
            assert!(!kind.label().is_empty());
        }
    }
}
