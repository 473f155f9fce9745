//! The generic page-by-page dissemination engine.
//!
//! Deluge, Seluge and LR-Seluge share the same macro-structure (paper
//! §II-A, §IV-D): every node is in one of three states,
//!
//! * **MAINTAIN** — periodically advertise `(version, level)` under
//!   Trickle; detect neighbors that are ahead (enter RX) or behind
//!   (reset Trickle so they hear us soon);
//! * **RX** — request the packets of the next incomplete item from a
//!   chosen neighbor with SNACK bit vectors, retrying with backoff and
//!   suppressing own requests when an equivalent request is overheard;
//! * **TX** — serve requested packets, one per airtime slot, according to
//!   a [`TxPolicy`], suppressing when data for an earlier item is
//!   overheard.
//!
//! What differs between the three protocols is captured by the
//! [`Scheme`] trait (what the items are, how packets are authenticated
//! and stored, when an item is complete) and the [`TxPolicy`] trait
//! (union-order vs the LR-Seluge greedy round-robin scheduler). The
//! engine also implements the paper's §IV-E mitigation against the
//! *denial-of-receipt* attack: a per-neighbor, per-item budget of
//! requested packets after which further SNACKs from that neighbor are
//! ignored.

use crate::policy::TxPolicy;
use crate::trickle::{Trickle, TrickleConfig};
use crate::wire::{BitVec, Frame, Message};
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::leap::LeapKeyring;
use lrs_host::node::{Context, NodeId, PacketKind, Protocol, TimerId};
use lrs_host::time::Duration;
use std::collections::HashMap;

/// Outcome of handing a data packet to a [`Scheme`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketDisposition {
    /// Authenticated (where applicable) and stored.
    Accepted,
    /// Already held; ignored.
    Duplicate,
    /// Failed authentication (or malformed); dropped immediately.
    Rejected,
}

/// Cryptographic work performed by a node (the paper's computation
/// overhead analysis, §V-B).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CryptoCost {
    /// Hash evaluations.
    pub hashes: u64,
    /// Expensive signature verifications.
    pub signature_verifications: u64,
    /// Cheap puzzle (weak authenticator) checks.
    pub puzzle_checks: u64,
    /// Erasure decode operations.
    pub decodes: u64,
    /// Erasure encode operations.
    pub encodes: u64,
    /// Of the `hashes` above, how many were served from a simulator-level
    /// digest memo instead of being recomputed. A real mote always
    /// recomputes, so `hashes` remains the paper-faithful per-node count;
    /// this field only quantifies the simulator optimization.
    pub memoized_hashes: u64,
}

/// Protocol-specific behaviour plugged into the engine.
///
/// Items are the engine's transfer units, indexed `0..num_items()`. For
/// Deluge they are the code pages; for Seluge and LR-Seluge, item 0 is
/// the signature, item 1 the hash page `M0`, and items `2..` the code
/// pages. The paper's page-by-page rule — "a node can only request a new
/// page if all previous pages have been completely received" — becomes:
/// the engine only ever requests item `complete_items()`.
pub trait Scheme {
    /// Code image version being disseminated.
    fn version(&self) -> u16;

    /// Total number of items.
    fn num_items(&self) -> u16;

    /// Number of packets composing `item` (`n` for erasure-coded pages).
    fn item_packets(&self, item: u16) -> u16;

    /// Packets required to complete `item` (`k'`; equals
    /// [`item_packets`](Self::item_packets) for ARQ schemes).
    fn packets_needed(&self, item: u16) -> u16;

    /// Number of leading complete items (the node's *level*).
    fn complete_items(&self) -> u16;

    /// Processes a data packet for `item` (which the engine guarantees is
    /// the node's next incomplete item — packets for later items are
    /// dropped before authentication is even possible, which is the
    /// DoS-resilience property).
    fn handle_packet(&mut self, item: u16, index: u16, payload: &[u8]) -> PacketDisposition;

    /// Which packets of `item` this node still wants (the SNACK vector).
    fn wanted(&self, item: u16) -> BitVec;

    /// The payload of packet `(item, index)`, for serving; `None` if this
    /// node cannot produce it (item not complete).
    fn packet_payload(&mut self, item: u16, index: u16) -> Option<Vec<u8>>;

    /// Metric classification for packets of `item`.
    fn item_kind(&self, item: u16) -> PacketKind {
        let _ = item;
        PacketKind::Data
    }

    /// Flash-recovery hook invoked when the node reboots after a crash:
    /// in-RAM reception state (partially received items, regenerable
    /// caches) is lost, while flash-resident state (completed items)
    /// survives, so the node re-enters dissemination from its last
    /// completed item instead of silently keeping volatile state. The
    /// default treats the whole scheme as flash-resident (no-op).
    fn reboot(&mut self) {}

    /// Cryptographic work performed so far.
    fn cost(&self) -> CryptoCost {
        CryptoCost::default()
    }
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Trickle parameters for advertisements.
    pub trickle: TrickleConfig,
    /// Minimum delay before sending a SNACK after deciding to.
    pub snack_delay_min: Duration,
    /// Maximum delay before sending a SNACK.
    pub snack_delay_max: Duration,
    /// Base delay before re-sending an unanswered SNACK.
    pub retry_delay: Duration,
    /// Extra uniform jitter added to the retry delay.
    pub retry_jitter: Duration,
    /// SNACK retries before giving up and returning to MAINTAIN.
    pub retry_limit: u32,
    /// Idle gap between consecutive data packets in TX.
    pub tx_gap: Duration,
    /// Whether advertisement/SNACK MACs are required (Seluge/LR-Seluge:
    /// yes; plain Deluge: no).
    pub authenticate_control: bool,
    /// Denial-of-receipt mitigation (§IV-E): maximum data packets a
    /// single neighbor may request per item before being ignored.
    /// `None` disables the mitigation.
    pub per_neighbor_item_budget: Option<u32>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            trickle: TrickleConfig::default(),
            snack_delay_min: Duration::from_millis(10),
            snack_delay_max: Duration::from_millis(80),
            // Above the worst-case service-round airtime (n packets of
            // ~80 B at 19.2 kbps ≈ 2.1 s), so an answered-but-not-yet-
            // served request does not retry into the ongoing round.
            retry_delay: Duration::from_millis(2_500),
            retry_jitter: Duration::from_millis(1_200),
            retry_limit: 20,
            tx_gap: Duration::from_millis(4),
            authenticate_control: true,
            per_neighbor_item_budget: None,
        }
    }
}

/// Observable per-node statistics (aggregated by the harness).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// SNACKs this node sent.
    pub snacks_sent: u64,
    /// Data packets this node sent.
    pub data_sent: u64,
    /// Advertisements this node sent.
    pub advs_sent: u64,
    /// Data packets rejected by authentication.
    pub auth_rejects: u64,
    /// Control packets rejected by MAC verification.
    pub mac_rejects: u64,
    /// Duplicate data packets ignored.
    pub duplicates: u64,
    /// Data packets for not-yet-requestable items, dropped unbuffered.
    pub out_of_order_drops: u64,
    /// SNACKs ignored due to the denial-of-receipt budget.
    pub budget_rejections: u64,
    /// Times the RX retry limit was exhausted (returned to MAINTAIN).
    pub gave_up: u64,
}

const TIMER_TRICKLE_FIRE: TimerId = TimerId(0);
const TIMER_TRICKLE_END: TimerId = TimerId(1);
const TIMER_SNACK: TimerId = TimerId(2);
const TIMER_RETRY: TimerId = TimerId(3);
const TIMER_TX: TimerId = TimerId(4);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Maintain,
    Rx { server: NodeId, retries: u32 },
    Tx,
}

/// A dissemination node: the engine instantiated with a scheme and a TX
/// policy. Implements [`Protocol`] for the simulator.
pub struct DisseminationNode<S: Scheme, P: TxPolicy> {
    scheme: S,
    policy: P,
    key: ClusterKey,
    cfg: EngineConfig,
    state: State,
    trickle: Trickle,
    /// Latest advertised level per neighbor.
    neighbors: HashMap<NodeId, u16>,
    /// Data packets requested per (neighbor, item), for the
    /// denial-of-receipt budget.
    served: HashMap<(NodeId, u16), u32>,
    /// Consecutive own-request suppressions without progress; bounded so
    /// a SNACK flood cannot silence us forever.
    suppress_count: u32,
    /// Optional LEAP keyring: when present, SNACKs carry and require a
    /// pairwise MAC identifying the source (§IV-E extension).
    leap: Option<LeapKeyring>,
    /// Budget of prompt re-requests (on hearing future-item data while
    /// behind) for the current level, and the level it applies to.
    fast_rerequests: (u16, u8),
    /// A SNACK of ours is outstanding and unanswered; the retransmission
    /// retry must not be displaced by unrelated channel activity.
    awaiting_reply: bool,
    stats: NodeStats,
}

impl<S: Scheme, P: TxPolicy> DisseminationNode<S, P> {
    /// Creates a node.
    pub fn new(scheme: S, policy: P, key: ClusterKey, cfg: EngineConfig) -> Self {
        let trickle = Trickle::new(cfg.trickle);
        DisseminationNode {
            scheme,
            policy,
            key,
            cfg,
            state: State::Maintain,
            trickle,
            neighbors: HashMap::new(),
            served: HashMap::new(),
            suppress_count: 0,
            leap: None,
            fast_rerequests: (0, 3),
            awaiting_reply: false,
            stats: NodeStats::default(),
        }
    }

    /// Enables LEAP source authentication of SNACKs (the paper's §IV-E
    /// proposal): outgoing SNACKs carry a pairwise MAC; incoming SNACKs
    /// targeting this node are served only if their pairwise MAC matches
    /// the claimed sender.
    pub fn with_leap(mut self, keyring: LeapKeyring) -> Self {
        self.leap = Some(keyring);
        self
    }

    /// The scheme, for end-of-run assertions (image bytes, crypto cost).
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Mutable scheme access, for post-construction wiring (e.g.
    /// attaching a per-run digest memo).
    pub fn scheme_mut(&mut self) -> &mut S {
        &mut self.scheme
    }

    /// Per-node statistics.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    fn level(&self) -> u16 {
        self.scheme.complete_items()
    }

    fn done(&self) -> bool {
        self.level() == self.scheme.num_items()
    }

    fn start_trickle_interval(&mut self, ctx: &mut Context<'_>) {
        let plan = self.trickle.begin_interval(ctx.rng());
        ctx.set_timer(TIMER_TRICKLE_FIRE, plan.fire_in);
        ctx.set_timer(TIMER_TRICKLE_END, plan.interval);
    }

    fn reset_trickle(&mut self, ctx: &mut Context<'_>) {
        if self.trickle.reset() {
            self.start_trickle_interval(ctx);
        }
    }

    fn pick_server(&self) -> Option<NodeId> {
        let level = self.level();
        // Deterministic choice (highest level, lowest id) concentrates a
        // neighborhood's requests on one server, so its transmissions
        // serve everyone by overhearing; random spreading would stand up
        // several concurrent servers with largely duplicate streams.
        self.neighbors
            .iter()
            .filter(|(_, &l)| l > level)
            .map(|(&id, &l)| (l, std::cmp::Reverse(id.0)))
            .max()
            .map(|(_, std::cmp::Reverse(id))| NodeId(id))
    }

    fn enter_rx(&mut self, ctx: &mut Context<'_>, server: NodeId) {
        self.state = State::Rx { server, retries: 0 };
        self.suppress_count = 0;
        self.awaiting_reply = false;
        let span = self
            .cfg
            .snack_delay_max
            .as_micros()
            .saturating_sub(self.cfg.snack_delay_min.as_micros())
            .max(1);
        let delay = self.cfg.snack_delay_min + Duration::from_micros(ctx.rng().gen_range(0..span));
        ctx.set_timer(TIMER_SNACK, delay);
    }

    fn leave_rx(&mut self, ctx: &mut Context<'_>) {
        ctx.cancel_timer(TIMER_SNACK);
        ctx.cancel_timer(TIMER_RETRY);
        self.state = State::Maintain;
    }

    fn arm_retry(&mut self, ctx: &mut Context<'_>) {
        // Exponential backoff in the retry count: under contention many
        // receivers re-requesting at a fixed rate consume the very
        // channel the data needs (congestion collapse). Back off to 8x.
        let retries = match self.state {
            State::Rx { retries, .. } => retries,
            _ => 0,
        };
        let factor = 1u64 << retries.min(3);
        let jitter = Duration::from_micros(
            ctx.rng()
                .gen_range(0..=self.cfg.retry_jitter.as_micros().max(1)),
        );
        ctx.set_timer(TIMER_RETRY, self.cfg.retry_delay.mul(factor) + jitter);
    }

    /// Arms a short channel-quiet probe: while data (for any item) keeps
    /// arriving the probe keeps getting pushed back; it fires shortly
    /// after the stream pauses, which is when a new request is both
    /// needed and cheap (no contention with the stream itself).
    fn arm_quiet_probe(&mut self, ctx: &mut Context<'_>) {
        // The window scales with the neighborhood size so probes
        // desynchronize: the first prober's SNACK restarts the stream and
        // pushes everyone else's probe back again.
        let spread = 60_000u64 * (self.neighbors.len() as u64 + 1);
        let delay = Duration::from_micros(120_000 + ctx.rng().gen_range(0..spread.max(1)));
        ctx.set_timer(TIMER_RETRY, delay);
    }

    fn send_snack(&mut self, ctx: &mut Context<'_>) {
        let State::Rx { server, .. } = self.state else {
            return;
        };
        if self.done() {
            self.leave_rx(ctx);
            return;
        }
        let item = self.level();
        let bits = self.scheme.wanted(item);
        ctx.note("snack", item as u64, bits.count_ones() as u64);
        let mut msg = Message::snack(&self.key, ctx.id, server, self.scheme.version(), item, bits);
        if let Some(keyring) = &self.leap {
            let parts = Message::snack_pairwise_parts(ctx.id, server, self.scheme.version(), item);
            let tag = keyring.tag_for(server.0, &[b"snack-pw", &parts[0], &parts[1], &parts[2]]);
            msg = msg.with_pairwise_mac(tag);
        }
        ctx.broadcast(PacketKind::Snack, msg.to_bytes());
        self.stats.snacks_sent += 1;
        self.awaiting_reply = true;
        self.arm_retry(ctx);
    }

    fn enter_tx(&mut self, ctx: &mut Context<'_>) {
        if matches!(self.state, State::Rx { .. }) {
            ctx.cancel_timer(TIMER_SNACK);
            ctx.cancel_timer(TIMER_RETRY);
        }
        self.state = State::Tx;
        // Short collection window so concurrent SNACKs from other
        // neighbors merge into the same service round.
        let delay = Duration::from_micros(ctx.rng().gen_range(20_000u64..60_000));
        ctx.set_timer(TIMER_TX, delay);
    }

    fn tx_step(&mut self, ctx: &mut Context<'_>) {
        if self.state != State::Tx {
            return;
        }
        let Some((item, index)) = self.policy.next() else {
            self.after_tx(ctx);
            return;
        };
        let Some(payload) = self.scheme.packet_payload(item, index) else {
            // Should not happen: requests are only accepted for complete
            // items. Skip defensively.
            self.after_tx(ctx);
            return;
        };
        ctx.note("sched_tx", item as u64, index as u64);
        let msg = Message::Data {
            version: self.scheme.version(),
            item,
            index,
            payload,
        };
        let bytes = msg.to_bytes();
        let kind = self.scheme.item_kind(item);
        let air = ctx.airtime(bytes.len());
        ctx.broadcast(kind, bytes);
        self.stats.data_sent += 1;
        let jitter = Duration::from_micros(ctx.rng().gen_range(0u64..2_000));
        ctx.set_timer(TIMER_TX, air + self.cfg.tx_gap + jitter);
    }

    fn after_tx(&mut self, ctx: &mut Context<'_>) {
        self.state = State::Maintain;
        if !self.done() {
            if let Some(server) = self.pick_server() {
                self.enter_rx(ctx, server);
            }
        }
    }

    fn handle_adv(&mut self, ctx: &mut Context<'_>, from: NodeId, level: u16) {
        self.neighbors.insert(from, level);
        let my_level = self.level();
        if level >= my_level {
            // A neighbor at our level or ahead: our advertisement adds
            // nothing it needs, so it counts toward Trickle suppression.
            // Resetting here would create advertisement storms while a
            // transfer pipeline holds nodes at mixed levels (each reset
            // pins every node at I_min and the control traffic congests
            // the channel the data needs).
            self.trickle.heard_consistent();
        } else {
            // A neighbor behind us must hear our level soon.
            self.reset_trickle(ctx);
        }
        if level > my_level && !self.done() && self.state == State::Maintain {
            self.enter_rx(ctx, from);
        }
    }

    /// Handles a MAC-checked SNACK of this version. The request bits are
    /// only materialised as a [`BitVec`] when this node serves them; an
    /// overheard request needs its item alone.
    fn handle_snack(&mut self, ctx: &mut Context<'_>, snack: Frame<'_>) {
        let Frame::Snack {
            from,
            target,
            item,
            nbits,
            bits,
            pairwise_mac,
            ..
        } = snack
        else {
            return;
        };
        let my_level = self.level();
        if target == ctx.id {
            if item >= my_level {
                return; // cannot serve yet
            }
            if let Some(keyring) = &self.leap {
                // Source identification: the budget below is only sound
                // if the claimed sender really produced this request.
                let parts =
                    Message::snack_pairwise_parts(from, target, self.scheme.version(), item);
                let valid = pairwise_mac.is_some_and(|tag| {
                    keyring.check_from(
                        from.0,
                        &[b"snack-pw", &parts[0], &parts[1], &parts[2]],
                        &tag,
                    )
                });
                if !valid {
                    self.stats.mac_rejects += 1;
                    return;
                }
            }
            let bits = match BitVec::from_bytes(bits, nbits) {
                Some(bits) if nbits == self.scheme.item_packets(item) as usize => bits,
                _ => {
                    self.stats.mac_rejects += 1;
                    return;
                }
            };
            let q = bits.count_ones() as u32;
            if let Some(budget) = self.cfg.per_neighbor_item_budget {
                let count = self.served.entry((from, item)).or_insert(0);
                if *count >= budget {
                    self.stats.budget_rejections += 1;
                    return;
                }
                *count += q;
            }
            let n_pk = self.scheme.item_packets(item);
            let needed = self.scheme.packets_needed(item);
            let distance = (q as u16 + needed).saturating_sub(n_pk).max(1);
            self.policy.on_snack(from, item, &bits, distance);
            if self.state != State::Tx {
                self.enter_tx(ctx);
            }
        } else if let State::Rx { .. } = self.state {
            // Overheard someone else requesting the same or an earlier
            // item: suppress our own pending request and rely on
            // overhearing the data (paper §II-A suppression). Bounded:
            // without the cap, an adversarial SNACK flood (the
            // denial-of-receipt attacker, or simply a very chatty
            // neighborhood) could postpone our request forever.
            if item <= my_level && self.suppress_count < 3 {
                self.suppress_count += 1;
                ctx.cancel_timer(TIMER_SNACK);
                self.awaiting_reply = false;
                self.arm_quiet_probe(ctx);
            }
        }
    }

    fn handle_data(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        item: u16,
        index: u16,
        payload: &[u8],
    ) {
        let my_level = self.level();
        if item > my_level || (item == my_level && self.done()) {
            // Cannot be authenticated yet (or nothing left to collect);
            // drop without buffering. This is the immediate-authentication
            // DoS defence. Hearing future-item data also tells a
            // straggler that service has moved past it: re-request the
            // current item promptly so the sender turns around (it always
            // serves the lowest requested item first).
            self.stats.out_of_order_drops += 1;
            // Data packets are not authenticated until their item is
            // reachable, so they are NOT evidence of the sender's level
            // (an adversary could otherwise redirect our requests). Only
            // accelerate the already-chosen server conversation: if we
            // are in RX and service has moved past our item, re-request
            // promptly — the sender always serves the lowest item first.
            // A straggler hearing future-item data knows service has
            // moved past it. Its request is for a LOWER item, which
            // servers prioritize, so one prompt re-request per level is
            // worth sending even into the stream; after that, probe
            // quietly (each further future-item packet re-requesting
            // would flood the channel exactly when it is busiest).
            let _ = from;
            if !self.done() && item > my_level {
                if let State::Rx { .. } = self.state {
                    if self.fast_rerequests.0 != my_level {
                        self.fast_rerequests = (my_level, 3);
                    }
                    if self.fast_rerequests.1 > 0 {
                        self.fast_rerequests.1 -= 1;
                        let delay = Duration::from_micros(ctx.rng().gen_range(5_000u64..40_000));
                        ctx.set_timer(TIMER_SNACK, delay);
                    } else if !self.awaiting_reply {
                        self.arm_quiet_probe(ctx);
                    }
                }
            }
            return;
        }
        if item < my_level {
            // Another node is serving an item we also hold. Requesters
            // overheard this packet too, so retire it from our own
            // pending-service state (the paper's data suppression for the
            // same or a smaller page index), and defer our next
            // transmission if the overheard item precedes ours.
            if let Some(min_item) = self.policy.min_pending_item() {
                self.policy.on_overheard_data(item, index);
                if self.state == State::Tx && item < min_item {
                    let defer = ctx.airtime(payload.len()) + self.cfg.tx_gap;
                    ctx.set_timer(TIMER_TX, defer);
                }
            }
            // If we are waiting for a later item, the channel is busy
            // serving an earlier one: wait quietly instead of re-SNACKing
            // into the contention, and probe soon after it pauses. An
            // outstanding unanswered SNACK keeps its retransmission timer
            // instead — our request may have been lost and only the retry
            // recovers it.
            if matches!(self.state, State::Rx { .. }) && !self.awaiting_reply {
                self.arm_quiet_probe(ctx);
            }
            return;
        }
        match self.scheme.handle_packet(item, index, payload) {
            PacketDisposition::Rejected => {
                self.stats.auth_rejects += 1;
            }
            PacketDisposition::Duplicate => {
                // A duplicate means some server is actively transmitting
                // this item: hold our retry back and keep listening.
                self.stats.duplicates += 1;
                if matches!(self.state, State::Rx { .. }) {
                    self.awaiting_reply = false;
                    self.arm_quiet_probe(ctx);
                }
            }
            PacketDisposition::Accepted => {
                self.suppress_count = 0;
                if self.scheme.complete_items() > my_level {
                    self.on_item_complete(ctx);
                } else if matches!(self.state, State::Rx { .. }) {
                    // Progress: our request is being served. Listen on and
                    // probe shortly after the stream pauses.
                    self.awaiting_reply = false;
                    self.arm_quiet_probe(ctx);
                }
            }
        }
    }

    fn on_item_complete(&mut self, ctx: &mut Context<'_>) {
        ctx.note("page_complete", self.level() as u64, self.done() as u64);
        // Level changed: neighbors' views are now inconsistent.
        self.reset_trickle(ctx);
        if self.done() {
            if matches!(self.state, State::Rx { .. }) {
                self.leave_rx(ctx);
            }
            return;
        }
        if let State::Rx { server, .. } = self.state {
            let server_level = self.neighbors.get(&server).copied().unwrap_or(0);
            let next_server = if server_level > self.level() {
                Some(server)
            } else {
                self.pick_server()
            };
            match next_server {
                Some(s) => self.enter_rx(ctx, s),
                None => self.leave_rx(ctx),
            }
        }
    }
}

impl<S: Scheme, P: TxPolicy> Protocol for DisseminationNode<S, P> {
    fn on_init(&mut self, ctx: &mut Context<'_>) {
        self.start_trickle_interval(ctx);
        // The base station initiates dissemination by broadcasting the
        // signature packet (paper §IV-E).
        if self.done() && self.scheme.item_kind(0) == PacketKind::Signature {
            if let Some(body) = self.scheme.packet_payload(0, 0) {
                let msg = Message::Data {
                    version: self.scheme.version(),
                    item: 0,
                    index: 0,
                    payload: body,
                };
                ctx.broadcast(PacketKind::Signature, msg.to_bytes());
                self.stats.data_sent += 1;
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, from: NodeId, data: &[u8]) {
        let Some(frame) = Frame::parse(data) else {
            self.stats.mac_rejects += 1;
            return;
        };
        if self.cfg.authenticate_control && !frame.mac_ok(&self.key) {
            self.stats.mac_rejects += 1;
            return;
        }
        match frame {
            Frame::Adv {
                from: adv_from,
                version,
                level,
                ..
            } => {
                if version != self.scheme.version() {
                    return;
                }
                // The MAC binds the claimed sender; use it.
                let _ = from;
                self.handle_adv(ctx, adv_from, level);
            }
            Frame::Snack { version, .. } => {
                if version != self.scheme.version() {
                    return;
                }
                self.handle_snack(ctx, frame);
            }
            Frame::Data {
                version,
                item,
                index,
                payload,
            } => {
                if version != self.scheme.version() {
                    return;
                }
                self.handle_data(ctx, from, item, index, payload);
            }
            Frame::Signature { version, body } => {
                if version != self.scheme.version() {
                    return;
                }
                // Equivalent to item 0, packet 0.
                self.handle_data(ctx, from, 0, 0, body);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
        match timer {
            TIMER_TRICKLE_FIRE if !self.trickle.suppress() && self.state == State::Maintain => {
                let msg = Message::adv(&self.key, ctx.id, self.scheme.version(), self.level());
                ctx.broadcast(PacketKind::Adv, msg.to_bytes());
                self.stats.advs_sent += 1;
            }
            TIMER_TRICKLE_END => {
                self.trickle.interval_expired();
                self.start_trickle_interval(ctx);
            }
            TIMER_SNACK => self.send_snack(ctx),
            TIMER_RETRY => {
                if let State::Rx { server, retries } = self.state {
                    if retries + 1 >= self.cfg.retry_limit {
                        self.stats.gave_up += 1;
                        self.leave_rx(ctx);
                        self.reset_trickle(ctx);
                    } else {
                        // Keep the same server for a few retries; rotating
                        // on every retry would duplicate service across
                        // senders. Rotate on every third fruitless retry.
                        let next = if (retries + 1) % 3 == 0 {
                            self.pick_server().unwrap_or(server)
                        } else {
                            server
                        };
                        self.state = State::Rx {
                            server: next,
                            retries: retries + 1,
                        };
                        let delay = Duration::from_micros(ctx.rng().gen_range(1_000u64..20_000));
                        ctx.set_timer(TIMER_SNACK, delay);
                    }
                }
            }
            TIMER_TX => self.tx_step(ctx),
            _ => {}
        }
    }

    fn is_complete(&self) -> bool {
        self.done()
    }

    fn on_reboot(&mut self, ctx: &mut Context<'_>) {
        // RAM dies with the crash: engine state, the neighbor table and
        // reception buffers are gone; the scheme keeps whatever its
        // flash model persists. Stats and crypto-cost counters survive
        // deliberately — they are run observability, not node state.
        self.scheme.reboot();
        self.policy.clear();
        self.state = State::Maintain;
        self.trickle = Trickle::new(self.cfg.trickle);
        self.neighbors.clear();
        self.served.clear();
        self.suppress_count = 0;
        self.fast_rerequests = (0, 3);
        self.awaiting_reply = false;
        self.on_init(ctx);
    }

    fn progress(&self) -> u64 {
        // Level in the high bits; packets buffered toward the next item
        // in the low bits. Any accepted packet or completed item raises
        // it, which is what the simulator's stall watchdog samples.
        let level = u64::from(self.level());
        let held = if self.done() {
            0
        } else {
            let item = self.level();
            u64::from(self.scheme.item_packets(item)) - self.scheme.wanted(item).count_ones() as u64
        };
        (level << 32) | held
    }

    fn diagnostic(&self) -> String {
        let total = self.scheme.num_items();
        if self.done() {
            return format!("level={total}/{total} complete");
        }
        let item = self.level();
        let bits = self.scheme.wanted(item);
        let wanted: String = (0..bits.len())
            .map(|i| if bits.get(i) { '1' } else { '0' })
            .collect();
        format!(
            "level={item}/{total} state={:?} wanted[{item}]={wanted}",
            self.state
        )
    }
}
