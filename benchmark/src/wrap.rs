//! Benchmark-owned timing newtypes over the three public trait
//! boundaries (`Protocol`, `Scheme`, `TxPolicy`) and the counting
//! `TraceSink`.
//!
//! Workload bodies are generic over a [`Mode`]: [`Plain`] builds the
//! repo's own node types untouched (end-to-end repetitions), [`Traced`]
//! interposes the wrappers below (the traced pass). Both modes run the
//! same body code, so the traced pass measures the same work plus the
//! wrappers' own cost, which `netsim.trace.overhead_frac` reports.

use crate::span::{self, SpanName};
use lrs_deluge::engine::{CryptoCost, PacketDisposition, Scheme};
use lrs_deluge::policy::TxPolicy;
use lrs_deluge::wire::BitVec;
use lrs_netsim::node::{Context, NodeId, PacketKind, Protocol, TimerId};
use lrs_netsim::time::SimTime;
use lrs_netsim::topology::Topology;
use lrs_netsim::trace::{LossCause, TraceEvent, TraceSink};
use std::cell::RefCell;
use std::rc::Rc;

/// Which scheme/scheduler implementation a wrapper charges its spans to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `lr-seluge`: `LrScheme` and `GreedyRoundRobinPolicy`.
    Core,
    /// `lrs-seluge`: `SelugeScheme`, served by `lrs-deluge`'s `UnionPolicy`.
    Seluge,
}

/// Per-layer call tallies the span tree cannot express: durations split
/// by disposition, and the `handle_packet` calls that completed a page.
#[derive(Clone, Copy, Debug)]
pub struct SchemeTally {
    /// `handle_packet` calls that returned `Accepted`, and their ns.
    pub accepted: (u64, u64),
    /// `handle_packet` calls that returned `Rejected`, and their ns.
    pub rejected: (u64, u64),
    /// `handle_packet` calls that returned `Duplicate`, and their ns.
    pub duplicate: (u64, u64),
    /// Calls on code-page items (item >= 2), any disposition.
    pub page_calls: u64,
    /// Calls that completed a code page (hash check + decode), and their ns.
    pub page_completions: (u64, u64),
}

impl SchemeTally {
    const ZERO: SchemeTally = SchemeTally {
        accepted: (0, 0),
        rejected: (0, 0),
        duplicate: (0, 0),
        page_calls: 0,
        page_completions: (0, 0),
    };
}

thread_local! {
    static TALLY: RefCell<[SchemeTally; 2]> = const { RefCell::new([SchemeTally::ZERO; 2]) };
}

/// Resets the tallies (start of a traced pass).
pub fn reset_tallies() {
    TALLY.with(|t| *t.borrow_mut() = [SchemeTally::ZERO; 2]);
}

/// The tally of one layer's scheme.
pub fn tally(layer: Layer) -> SchemeTally {
    TALLY.with(|t| t.borrow()[layer as usize])
}

/// Chooses the node types a workload body is built from.
pub trait Mode {
    /// The scheme type handed to `DisseminationNode`.
    type S<S: Scheme + 'static>: Scheme + 'static;
    /// The TX policy type handed to `DisseminationNode`.
    type P<P: TxPolicy + 'static>: TxPolicy + 'static;
    /// The protocol type handed to `SimBuilder`.
    type N<N: Protocol + 'static>: Protocol + 'static;

    /// Wraps (or passes through) a scheme.
    fn scheme<S: Scheme + 'static>(inner: S, layer: Layer) -> Self::S<S>;
    /// Wraps (or passes through) a TX policy.
    fn policy<P: TxPolicy + 'static>(inner: P, layer: Layer) -> Self::P<P>;
    /// Wraps (or passes through) a protocol node.
    fn node<N: Protocol + 'static>(inner: N) -> Self::N<N>;
    /// The repo's scheme inside the mode's scheme type.
    fn scheme_ref<S: Scheme + 'static>(outer: &Self::S<S>) -> &S;
    /// The repo's node inside the mode's protocol type.
    fn node_ref<N: Protocol + 'static>(outer: &Self::N<N>) -> &N;
    /// Runs `f` inside a span (traced) or directly (plain).
    fn span<R>(name: SpanName, f: impl FnOnce() -> R) -> R;
}

/// End-to-end mode: the repo's types, no interposition.
pub struct Plain;

impl Mode for Plain {
    type S<S: Scheme + 'static> = S;
    type P<P: TxPolicy + 'static> = P;
    type N<N: Protocol + 'static> = N;

    fn scheme<S: Scheme + 'static>(inner: S, _layer: Layer) -> S {
        inner
    }
    fn policy<P: TxPolicy + 'static>(inner: P, _layer: Layer) -> P {
        inner
    }
    fn node<N: Protocol + 'static>(inner: N) -> N {
        inner
    }
    fn scheme_ref<S: Scheme + 'static>(outer: &S) -> &S {
        outer
    }
    fn node_ref<N: Protocol + 'static>(outer: &N) -> &N {
        outer
    }
    fn span<R>(_name: SpanName, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Traced-pass mode: every trait boundary is spanned.
pub struct Traced;

impl Mode for Traced {
    type S<S: Scheme + 'static> = SpannedScheme<S>;
    type P<P: TxPolicy + 'static> = SpannedPolicy<P>;
    type N<N: Protocol + 'static> = Spanned<N>;

    fn scheme<S: Scheme + 'static>(inner: S, layer: Layer) -> SpannedScheme<S> {
        SpannedScheme { inner, layer }
    }
    fn policy<P: TxPolicy + 'static>(inner: P, layer: Layer) -> SpannedPolicy<P> {
        SpannedPolicy { inner, layer }
    }
    fn node<N: Protocol + 'static>(inner: N) -> Spanned<N> {
        Spanned(inner)
    }
    fn scheme_ref<S: Scheme + 'static>(outer: &SpannedScheme<S>) -> &S {
        &outer.inner
    }
    fn node_ref<N: Protocol + 'static>(outer: &Spanned<N>) -> &N {
        &outer.0
    }
    fn span<R>(name: SpanName, f: impl FnOnce() -> R) -> R {
        let _guard = span::enter(name);
        f()
    }
}

/// Spans the three `Protocol` callbacks the host drives; the cheap
/// accessors (`is_complete`, `progress`, `diagnostic`) pass through
/// untimed and are charged to the caller.
pub struct Spanned<N>(N);

impl<N: Protocol> Protocol for Spanned<N> {
    fn on_init(&mut self, ctx: &mut Context<'_>) {
        let _guard = span::enter(SpanName::DelugeOnInit);
        self.0.on_init(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, from: NodeId, data: &[u8]) {
        let _guard = span::enter(SpanName::DelugeOnPacket);
        self.0.on_packet(ctx, from, data);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
        let _guard = span::enter(SpanName::DelugeOnTimer);
        self.0.on_timer(ctx, timer);
    }

    fn is_complete(&self) -> bool {
        self.0.is_complete()
    }

    fn on_reboot(&mut self, ctx: &mut Context<'_>) {
        self.0.on_reboot(ctx);
    }

    fn progress(&self) -> u64 {
        self.0.progress()
    }

    fn diagnostic(&self) -> String {
        self.0.diagnostic()
    }
}

/// Spans the three `Scheme` calls that do work and tallies
/// `handle_packet` by disposition; layout accessors pass through.
pub struct SpannedScheme<S> {
    inner: S,
    layer: Layer,
}

impl<S: Scheme> Scheme for SpannedScheme<S> {
    fn version(&self) -> u16 {
        self.inner.version()
    }

    fn num_items(&self) -> u16 {
        self.inner.num_items()
    }

    fn item_packets(&self, item: u16) -> u16 {
        self.inner.item_packets(item)
    }

    fn packets_needed(&self, item: u16) -> u16 {
        self.inner.packets_needed(item)
    }

    fn complete_items(&self) -> u16 {
        self.inner.complete_items()
    }

    fn handle_packet(&mut self, item: u16, index: u16, payload: &[u8]) -> PacketDisposition {
        let level = self.inner.complete_items();
        let guard = span::enter(match self.layer {
            Layer::Core => SpanName::CoreHandlePacket,
            Layer::Seluge => SpanName::SelugeHandlePacket,
        });
        let disposition = self.inner.handle_packet(item, index, payload);
        let ns = guard.close();
        let completed = self.inner.complete_items() > level;
        TALLY.with(|t| {
            let mut t = t.borrow_mut();
            let t = &mut t[self.layer as usize];
            let slot = match disposition {
                PacketDisposition::Accepted => &mut t.accepted,
                PacketDisposition::Rejected => &mut t.rejected,
                PacketDisposition::Duplicate => &mut t.duplicate,
            };
            slot.0 += 1;
            slot.1 += ns;
            if item >= 2 {
                t.page_calls += 1;
                if completed {
                    t.page_completions.0 += 1;
                    t.page_completions.1 += ns;
                }
            }
        });
        disposition
    }

    fn wanted(&self, item: u16) -> BitVec {
        let _guard = span::enter(match self.layer {
            Layer::Core => SpanName::CoreWanted,
            Layer::Seluge => SpanName::SelugeWanted,
        });
        self.inner.wanted(item)
    }

    fn packet_payload(&mut self, item: u16, index: u16) -> Option<Vec<u8>> {
        let _guard = span::enter(match self.layer {
            Layer::Core => SpanName::CorePacketPayload,
            Layer::Seluge => SpanName::SelugePacketPayload,
        });
        self.inner.packet_payload(item, index)
    }

    fn item_kind(&self, item: u16) -> PacketKind {
        self.inner.item_kind(item)
    }

    fn reboot(&mut self) {
        self.inner.reboot();
    }

    fn cost(&self) -> CryptoCost {
        self.inner.cost()
    }
}

/// Spans the `TxPolicy` calls that touch the tracking table; the
/// emptiness queries pass through.
pub struct SpannedPolicy<P> {
    inner: P,
    layer: Layer,
}

impl<P> SpannedPolicy<P> {
    fn name(&self, core: SpanName) -> SpanName {
        match self.layer {
            Layer::Core => core,
            Layer::Seluge => SpanName::DelugePolicyUnion,
        }
    }
}

impl<P: TxPolicy> TxPolicy for SpannedPolicy<P> {
    fn on_snack(&mut self, from: NodeId, item: u16, bits: &BitVec, needed: u16) {
        let _guard = span::enter(self.name(SpanName::CoreSchedulerOnSnack));
        self.inner.on_snack(from, item, bits, needed);
    }

    fn next(&mut self) -> Option<(u16, u16)> {
        let _guard = span::enter(self.name(SpanName::CoreSchedulerNext));
        self.inner.next()
    }

    fn on_overheard_data(&mut self, item: u16, index: u16) {
        let _guard = span::enter(self.name(SpanName::CoreSchedulerOverheard));
        self.inner.on_overheard_data(item, index);
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn min_pending_item(&self) -> Option<u16> {
        self.inner.min_pending_item()
    }

    fn clear(&mut self) {
        self.inner.clear();
    }
}

/// One recorded transmission, for the medium probe's replay.
#[derive(Clone, Copy, Debug)]
pub struct TxRecord {
    /// On-air start.
    pub at: SimTime,
    /// Sender.
    pub from: NodeId,
    /// Packet bytes.
    pub bytes: usize,
}

/// Transmissions kept for the medium replay probe.
pub const TX_SCHEDULE_CAP: usize = 20_000;

/// What the counting sink saw, summed over every simulation it was
/// attached to during the traced pass.
#[derive(Clone, Debug, Default)]
pub struct TraceCounts {
    /// `Tx` events.
    pub tx: u64,
    /// `Rx` events.
    pub rx: u64,
    /// `Loss` events with cause `Collision`.
    pub loss_collision: u64,
    /// `Loss` events with cause `Phy`.
    pub loss_phy: u64,
    /// `Loss` events with cause `AppDrop`.
    pub loss_app_drop: u64,
    /// `Loss` events with cause `Fault` or `Pruned` (expected 0).
    pub loss_other: u64,
    /// `TimerFired` events.
    pub timers_fired: u64,
    /// `NodeComplete` events.
    pub completions: u64,
    /// `Note` events.
    pub notes: u64,
    /// Sum over delivery pops of the in-flight delivery count just
    /// before the pop (for the mean queue depth).
    pub depth_sum: u64,
    /// Transmissions whose `Rx + Loss` exceeded their audible
    /// neighbours, or fell short although the run outlived them.
    pub conservation_violations: u64,
    /// The first [`TX_SCHEDULE_CAP`] transmissions of the first
    /// simulation, for the medium replay probe.
    pub schedule: Vec<TxRecord>,
}

impl TraceCounts {
    /// Delivery events popped (`Rx` plus every `Loss`).
    pub fn deliveries(&self) -> u64 {
        self.rx + self.loss_collision + self.loss_phy + self.loss_app_drop + self.loss_other
    }

    /// Simulator events traced: `Tx + Rx + Loss + TimerFired`.
    pub fn events(&self) -> u64 {
        self.tx + self.deliveries() + self.timers_fired
    }

    /// Mean number of delivery events in flight when one is popped.
    /// Timer entries (live or superseded) are invisible from outside the
    /// engine and are not included.
    pub fn mean_depth(&self) -> f64 {
        if self.deliveries() == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.deliveries() as f64
        }
    }
}

struct TxState {
    audible: u32,
    seen: u32,
    end: SimTime,
}

struct SinkState {
    counts: TraceCounts,
    /// Audible neighbours per node of the attached simulation.
    degree: Vec<u32>,
    /// Airtime parameters of the attached simulation's medium.
    airtime: (u64, u64),
    /// Per-transmission conservation state, indexed by `tx_id`.
    txs: Vec<TxState>,
    in_flight: u64,
    /// Simulations attached so far; only the first one's transmissions
    /// are kept as the replay schedule.
    attached: u32,
}

/// A `TraceSink` that only counts. One [`CountingSink`] handle is
/// cloned into each simulation of a traced body; the counts accumulate
/// across them.
#[derive(Clone)]
pub struct CountingSink(Rc<RefCell<SinkState>>);

impl CountingSink {
    /// A sink with zeroed counts.
    pub fn new() -> Self {
        CountingSink(Rc::new(RefCell::new(SinkState {
            counts: TraceCounts::default(),
            degree: Vec::new(),
            airtime: (0, 0),
            txs: Vec::new(),
            in_flight: 0,
            attached: 0,
        })))
    }

    /// Prepares for the next simulation: transmission ids restart at 0
    /// and audibility follows `topology`.
    pub fn attach(&self, topology: &Topology, per_packet_overhead_us: u64, us_per_byte: u64) {
        let mut s = self.0.borrow_mut();
        s.degree = (0..topology.len())
            .map(|i| topology.links_from(NodeId(i as u32)).len() as u32)
            .collect();
        s.airtime = (per_packet_overhead_us, us_per_byte);
        s.txs.clear();
        s.in_flight = 0;
        s.attached += 1;
    }

    /// Closes the conservation ledger of the simulation that just ended
    /// at virtual time `final_time`: each transmission's audible
    /// neighbours must equal its `Rx + Loss` events, except for
    /// transmissions still on the air (or being delivered) when the run
    /// stopped, which may fall short but never exceed.
    pub fn settle(&self, final_time: SimTime) {
        let mut s = self.0.borrow_mut();
        let violations = s
            .txs
            .iter()
            .filter(|tx| tx.seen > tx.audible || (tx.seen < tx.audible && tx.end < final_time))
            .count() as u64;
        s.counts.conservation_violations += violations;
    }

    /// The accumulated counts.
    pub fn counts(&self) -> TraceCounts {
        self.0.borrow().counts.clone()
    }
}

impl Default for CountingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: &TraceEvent) {
        let mut s = self.0.borrow_mut();
        let s = &mut *s;
        match *event {
            TraceEvent::Tx {
                at,
                from,
                bytes,
                tx_id,
                ..
            } => {
                s.counts.tx += 1;
                let audible = s.degree.get(from.index()).copied().unwrap_or(0);
                let end = SimTime(at.0 + s.airtime.0 + s.airtime.1 * bytes as u64);
                if tx_id as usize == s.txs.len() {
                    s.txs.push(TxState {
                        audible,
                        seen: 0,
                        end,
                    });
                } else {
                    s.counts.conservation_violations += 1;
                }
                s.in_flight += u64::from(audible);
                if s.attached == 1 && s.counts.schedule.len() < TX_SCHEDULE_CAP {
                    s.counts.schedule.push(TxRecord { at, from, bytes });
                }
            }
            TraceEvent::Rx { tx_id, .. } => {
                s.counts.rx += 1;
                Self::popped(s, tx_id);
            }
            TraceEvent::Loss { cause, tx_id, .. } => {
                match cause {
                    LossCause::Collision => s.counts.loss_collision += 1,
                    LossCause::Phy => s.counts.loss_phy += 1,
                    LossCause::AppDrop => s.counts.loss_app_drop += 1,
                    LossCause::Fault | LossCause::Pruned => s.counts.loss_other += 1,
                }
                Self::popped(s, tx_id);
            }
            TraceEvent::TimerFired { .. } => s.counts.timers_fired += 1,
            TraceEvent::NodeComplete { .. } => s.counts.completions += 1,
            TraceEvent::Note { .. } => s.counts.notes += 1,
        }
    }
}

impl CountingSink {
    fn popped(s: &mut SinkState, tx_id: u64) {
        s.counts.depth_sum += s.in_flight;
        s.in_flight = s.in_flight.saturating_sub(1);
        match s.txs.get_mut(tx_id as usize) {
            Some(tx) => tx.seen += 1,
            None => s.counts.conservation_violations += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_netsim::time::Duration;
    use lrs_netsim::SimBuilder;

    /// Node 0 floods once; everyone who hears it re-floods once.
    struct Flood {
        seen: bool,
    }

    impl Protocol for Flood {
        fn on_init(&mut self, ctx: &mut Context<'_>) {
            if ctx.id == NodeId(0) {
                self.seen = true;
                ctx.broadcast(PacketKind::Data, vec![7; 20]);
            }
            ctx.set_timer(TimerId(1), Duration::from_millis(5));
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, _from: NodeId, _data: &[u8]) {
            if !self.seen {
                self.seen = true;
                ctx.broadcast(PacketKind::Data, vec![7; 20]);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: TimerId) {}
        fn is_complete(&self) -> bool {
            self.seen
        }
    }

    #[test]
    fn counting_sink_balances_tx_against_rx_plus_loss() {
        let topology = Topology::line(6, 1.0);
        let sink = CountingSink::new();
        sink.attach(&topology, 2_000, 416);
        let mut sim = SimBuilder::new(topology, 3, |_| Flood { seen: false })
            .trace(sink.clone())
            .build();
        let report = sim.run(Duration::from_secs(60));
        assert!(report.all_complete);
        sink.settle(report.final_time);
        let c = sink.counts();
        assert!(c.tx >= 5);
        assert_eq!(c.conservation_violations, 0);
        assert_eq!(c.rx, sim.metrics().rx_packets());
        assert_eq!(c.tx, sim.metrics().total_tx_packets());
        assert_eq!(c.events(), c.tx + c.deliveries() + c.timers_fired);
        assert!(c.mean_depth() >= 1.0);
        assert_eq!(c.schedule.len() as u64, c.tx);
    }

    #[test]
    fn settle_flags_a_short_delivered_transmission() {
        let topology = Topology::line(3, 1.0);
        let sink = CountingSink::new();
        sink.attach(&topology, 2_000, 416);
        let mut s = sink.clone();
        // Node 1 has two audible neighbours but only one delivery shows.
        s.record(&TraceEvent::Tx {
            at: SimTime(0),
            from: NodeId(1),
            kind: PacketKind::Data,
            bytes: 10,
            tx_id: 0,
        });
        s.record(&TraceEvent::Rx {
            at: SimTime(6_160),
            to: NodeId(0),
            from: NodeId(1),
            kind: PacketKind::Data,
            bytes: 10,
            tx_id: 0,
        });
        // Still on the air at the stop time: allowed to fall short.
        sink.settle(SimTime(6_160));
        assert_eq!(sink.counts().conservation_violations, 0);
        // The run outlived it: the missing delivery is a violation.
        sink.settle(SimTime(1_000_000));
        assert_eq!(sink.counts().conservation_violations, 1);
    }

    #[test]
    fn plain_mode_is_the_identity() {
        let node = Plain::node(Flood { seen: true });
        assert!(Plain::node_ref(&node).seen);
        assert_eq!(Plain::span(SpanName::Body, || 5), 5);
    }
}
