//! The simulator main loop.

use crate::builder::SimBuilder;
use crate::energy::EnergyLedger;
use crate::event::{Event, EventQueue};
use crate::fault::{FaultEvent, FaultPlan, LinkFaults, PPM_ONE};
use crate::medium::{Delivery, Medium, MediumConfig};
use crate::metrics::Metrics;
use crate::topology::Topology;
use crate::trace::{LossCause, TraceEvent, TraceSink};
use lrs_host::node::{node_rng, Action, Context, NodeId, PacketKind, Protocol};
use lrs_host::time::{Duration, SimTime};
use lrs_host::timer::TimerWheel;
use lrs_host::violation::{InvariantViolation, ViolationRecord};
use lrs_rng::DetRng;

/// Simulation-wide configuration. The run's time limit is not part of
/// it: that is the [`Simulator::run`] deadline.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimConfig {
    /// Radio and loss-process parameters.
    pub medium: MediumConfig,
    /// Stall watchdog: if no node makes [`Protocol::progress`] within a
    /// window of this length, the run aborts with [`Outcome::Stalled`]
    /// (a failure capsule `replay --summary` explains). `None` disables
    /// the watchdog.
    pub stall_window: Option<Duration>,
}

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every (non-failed) node reported completion.
    Complete,
    /// The `run` deadline passed first.
    TimedOut,
    /// The event queue drained with nodes still incomplete.
    Drained,
    /// The stall watchdog saw no progress across its window.
    Stalled,
    /// The attached invariant checker reported a violation.
    InvariantViolated,
}

impl Outcome {
    /// Stable lowercase label for JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Complete => "complete",
            Outcome::TimedOut => "timed_out",
            Outcome::Drained => "drained",
            Outcome::Stalled => "stalled",
            Outcome::InvariantViolated => "invariant_violated",
        }
    }

    /// Whether this outcome is diagnostic — the run ended abnormally
    /// (stall, invariant violation) rather than by a
    /// normal terminal condition. Diagnostic outcomes are the ones a
    /// harness dumps failure capsules for.
    pub fn is_diagnostic(self) -> bool {
        matches!(self, Outcome::Stalled | Outcome::InvariantViolated)
    }
}

/// Result of a run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Why the run stopped.
    pub outcome: Outcome,
    /// Whether every node reported completion.
    pub all_complete: bool,
    /// Virtual time when the run stopped.
    pub final_time: SimTime,
    /// Dissemination latency (time the last node completed), if all did.
    pub latency: Option<SimTime>,
    /// The first invariant violation, on
    /// [`Outcome::InvariantViolated`].
    pub violation: Option<ViolationRecord>,
}

/// Stall-watchdog state: the fleet's progress when last seen to advance.
struct Watchdog {
    progress: u128,
    since: SimTime,
}

/// Per-delivery hook validating protocol invariants; an `Err` aborts
/// the run with [`Outcome::InvariantViolated`].
pub type InvariantChecker<P> = Box<dyn FnMut(&P, NodeId) -> Result<(), InvariantViolation>>;

/// A deterministic discrete-event simulation over one protocol type.
pub struct Simulator<P: Protocol> {
    topology: Topology,
    medium: Medium,
    queue: EventQueue,
    protocols: Vec<P>,
    rngs: Vec<DetRng>,
    /// Per node, its timer table: a queued [`Event::Timer`] fires only
    /// if its stamp is still the live arm.
    timers: Vec<TimerWheel>,
    /// Action buffer reused across node callbacks.
    actions: Vec<Action>,
    metrics: Metrics,
    energy: EnergyLedger,
    now: SimTime,
    complete: Vec<bool>,
    /// Nodes currently crash-failed (a pending reboot can clear this).
    failed: Vec<bool>,
    /// How many nodes still gate completion (see [`Self::gates`]); kept
    /// in step wherever `complete`, `failed` or `next_fault` change.
    gating: usize,
    /// The whole fault schedule, sorted by time.
    faults: FaultPlan,
    /// Index in `faults` of the first fault not yet applied.
    next_fault: usize,
    /// What the link-scoped faults applied so far leave behind.
    link_faults: LinkFaults,
    /// Per-node clock rate in ppm of nominal.
    drift_ppm: Vec<u32>,
    /// Dedicated stream for fault-layer draws (link degradation), so an
    /// empty fault plan leaves runs bit-identical.
    fault_rng: DetRng,
    /// Reboots applied so far.
    reboots: u64,
    /// Optional per-delivery invariant checker.
    invariant: Option<InvariantChecker<P>>,
    /// First invariant violation, if any.
    violation: Option<ViolationRecord>,
    stall_window: Option<Duration>,
    /// Optional structured event sink (purely observational).
    trace: Option<Box<dyn TraceSink>>,
}

impl<P: Protocol> Simulator<P> {
    /// Constructor backing [`SimBuilder::build`], the sole way to
    /// obtain and configure a simulator.
    pub(crate) fn from_parts<F: FnMut(NodeId) -> P>(parts: SimBuilder<P, F>) -> Self {
        let SimBuilder {
            topology,
            seed,
            mut make_node,
            config,
            trace,
            invariant,
            faults,
        } = parts;
        let n = topology.len();
        let medium = Medium::new(config.medium, n, seed);
        let protocols: Vec<P> = (0..n).map(|i| make_node(NodeId(i as u32))).collect();
        let rngs = (0..n).map(|i| node_rng(seed, NodeId(i as u32))).collect();
        Simulator {
            topology,
            medium,
            queue: EventQueue::new(),
            protocols,
            rngs,
            timers: vec![TimerWheel::new(); n],
            actions: Vec::new(),
            metrics: Metrics::new(),
            energy: EnergyLedger::new(n),
            now: SimTime::ZERO,
            complete: vec![false; n],
            failed: vec![false; n],
            gating: n,
            faults,
            next_fault: 0,
            link_faults: LinkFaults::default(),
            drift_ppm: vec![PPM_ONE; n],
            fault_rng: DetRng::seed_from_u64(seed.wrapping_mul(0xa076_1d64_78bd_642f) ^ 0xFA),
            reboots: 0,
            invariant,
            violation: None,
            stall_window: config.stall_window,
            trace,
        }
    }

    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(&event);
        }
    }

    /// Whether `node` is currently crash-failed.
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed[node.index()]
    }

    /// Reboots applied so far.
    pub fn reboots(&self) -> u64 {
        self.reboots
    }

    /// Per-node radio energy ledger.
    pub fn energy(&self) -> &EnergyLedger {
        &self.energy
    }

    /// When the next unapplied fault falls due, if any is left.
    fn next_fault_at(&self) -> Option<SimTime> {
        self.faults
            .events()
            .get(self.next_fault)
            .map(FaultEvent::at)
    }

    /// Applies the next unapplied fault (the caller checked there is one).
    fn apply_next_fault(&mut self) {
        let event = self.faults.events()[self.next_fault];
        self.next_fault += 1;
        match event {
            FaultEvent::Crash { node, .. } => {
                let i = node.index();
                if self.failed[i] {
                    return;
                }
                self.failed[i] = true;
                self.recount_gating();
                self.emit(TraceEvent::Note {
                    at: self.now,
                    node,
                    label: "fault_crash",
                    a: 0,
                    b: 0,
                });
            }
            FaultEvent::Reboot { node, .. } => {
                let i = node.index();
                if !self.failed[i] {
                    return;
                }
                self.failed[i] = false;
                self.reboots += 1;
                // Timers armed before the crash died with the RAM.
                self.timers[i].clear();
                // Completion is re-evaluated from what flash restored.
                self.complete[i] = false;
                self.recount_gating();
                self.emit(TraceEvent::Note {
                    at: self.now,
                    node,
                    label: "fault_reboot",
                    a: 0,
                    b: 0,
                });
                self.with_node(i, |n, ctx| n.on_reboot(ctx));
                self.check_invariant(node);
            }
            FaultEvent::ClockDrift { node, ppm, .. } => {
                self.drift_ppm[node.index()] = ppm;
            }
            link => self.link_faults.apply(link),
        }
    }

    /// Whether the fault overlay blocks this delivery (link forced
    /// down, or a degradation draw fails).
    fn fault_blocks_delivery(&mut self, from: NodeId, to: NodeId) -> bool {
        match self.link_faults.keep_ppm(from, to) {
            None => true,
            Some(ppm) if ppm < PPM_ONE => !self.fault_rng.gen_bool(ppm as f64 / PPM_ONE as f64),
            Some(_) => false,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The metric counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Immutable access to a node's protocol state (for assertions).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &P {
        &self.protocols[id.index()]
    }

    /// Sum of per-node progress over live nodes, for the watchdog.
    fn total_progress(&self) -> u128 {
        self.protocols
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.failed[i])
            .map(|(_, p)| p.progress() as u128)
            .sum()
    }

    /// Runs until every node completes, the event queue drains, the
    /// virtual-time `deadline` passes, the stall watchdog trips, or an
    /// invariant fails, then flushes the trace sink. Returns a report;
    /// metrics stay accessible.
    pub fn run(&mut self, deadline: Duration) -> RunReport {
        let limit = SimTime::ZERO + deadline;
        // Faults at t = 0 (clock drift, pre-severed links) take effect
        // before node init, so the very first timer arm sees them.
        while self.next_fault_at().is_some_and(|at| at <= self.now) {
            self.apply_next_fault();
        }
        // Initialize every node.
        for i in 0..self.protocols.len() {
            self.with_node(i, |node, ctx| node.on_init(ctx));
        }
        self.refresh_completion();
        let mut stopped = None;
        let mut watch = Watchdog {
            progress: self.total_progress(),
            since: self.now,
        };
        'run: while !self.all_complete() {
            // Faults are events too: a reboot must fire even if the
            // packet/timer queue has drained, and a crash scheduled
            // between two queued events applies at its exact time.
            let next_fault = self.next_fault_at();
            let at = match (next_fault, self.queue.peek_time()) {
                (Some(f), Some(e)) => f.min(e),
                (Some(f), None) => f,
                (None, Some(e)) => e,
                (None, None) => {
                    stopped = Some(Outcome::Drained);
                    break;
                }
            };
            if at > limit {
                stopped = Some(Outcome::TimedOut);
                break;
            }
            if next_fault.is_some_and(|f| f <= at) {
                self.now = at;
                self.apply_next_fault();
                // A reboot is checked like a delivery; the watchdog only
                // looks after events of the queue.
                if self.violation.is_some() {
                    stopped = Some(Outcome::InvariantViolated);
                    break;
                }
                continue;
            }
            let (at, event) = self.queue.pop().expect("peeked");
            self.now = at;
            match event {
                Event::Broadcast {
                    from,
                    data,
                    kind,
                    tx_id,
                } => {
                    // One delivery per link, in link order, with the
                    // stop conditions re-checked after each, exactly as
                    // if every link had an event of its own at `at`. No
                    // fault can fall due in between (those at or before
                    // `at` were applied above), and whatever a callback
                    // schedules for `at` sorts after this whole entry.
                    let links = self.topology.links_from(from).len();
                    for i in 0..links {
                        let link = self.topology.links_from(from)[i];
                        if !self.deliver(link.to, from, &data, kind, tx_id, link.prr) {
                            continue;
                        }
                        stopped = self.stop_check(&mut watch);
                        if stopped.is_some() || self.all_complete() {
                            // The rest of the batch is never delivered.
                            break 'run;
                        }
                    }
                    continue;
                }
                Event::Deliver {
                    to,
                    from,
                    data,
                    kind,
                    tx_id,
                } => {
                    let prr = self.topology.prr(from, to);
                    if !self.deliver(to, from, &data, kind, tx_id, prr) {
                        continue;
                    }
                }
                Event::Timer {
                    node,
                    timer,
                    generation,
                } => {
                    if self.failed[node.index()] {
                        continue;
                    }
                    if self.timers[node.index()].fire(timer, generation) {
                        self.emit(TraceEvent::TimerFired { at, node, timer });
                        self.with_node(node.index(), |n, ctx| n.on_timer(ctx, timer));
                    }
                }
            }
            stopped = self.stop_check(&mut watch);
            if stopped.is_some() {
                break;
            }
        }
        let outcome = stopped.unwrap_or(if self.all_complete() {
            Outcome::Complete
        } else {
            Outcome::Drained
        });
        let latency = if self.all_complete() {
            self.metrics.dissemination_latency()
        } else {
            None
        };
        if let Some(sink) = self.trace.as_mut() {
            sink.flush();
        }
        RunReport {
            outcome,
            all_complete: self.all_complete(),
            final_time: self.now,
            latency,
            violation: self.violation.clone(),
        }
    }

    /// Runs the invariant checker (if attached) against `node`.
    fn check_invariant(&mut self, node: NodeId) {
        if self.violation.is_some() {
            return;
        }
        let Some(check) = self.invariant.as_mut() else {
            return;
        };
        if let Err(violation) = check(&self.protocols[node.index()], node) {
            self.violation = Some(ViolationRecord {
                at: self.now,
                node,
                violation,
            });
        }
    }

    /// Whether every node is complete or crash-failed (a dead node no
    /// longer gates completion).
    fn all_complete(&self) -> bool {
        self.gating == 0
    }

    /// Whether node `i` still holds the run open.
    fn gates(&self, i: usize) -> bool {
        // A crash-failed node only counts as "complete" if no reboot is
        // pending for it: a permanent casualty must not hold the run
        // open forever, but a node that is about to come back still has
        // dissemination work left.
        !self.complete[i] && (!self.failed[i] || self.reboot_pending(NodeId(i as u32)))
    }

    /// Recomputes `gating` from scratch after a crash or reboot.
    fn recount_gating(&mut self) {
        self.gating = (0..self.complete.len()).filter(|&i| self.gates(i)).count();
    }

    /// Whether the remaining fault schedule reboots `node`.
    fn reboot_pending(&self, node: NodeId) -> bool {
        self.faults.events()[self.next_fault..]
            .iter()
            .any(|f| matches!(f, FaultEvent::Reboot { node: n, .. } if *n == node))
    }

    /// Records that node `i` just reported completion.
    fn mark_complete(&mut self, i: usize) {
        if self.gates(i) {
            self.gating -= 1;
        }
        self.complete[i] = true;
        self.metrics.record_completion(NodeId(i as u32), self.now);
        self.emit(TraceEvent::NodeComplete {
            at: self.now,
            node: NodeId(i as u32),
        });
    }

    fn refresh_completion(&mut self) {
        for i in 0..self.protocols.len() {
            if !self.complete[i] && self.protocols[i].is_complete() {
                self.mark_complete(i);
            }
        }
    }

    /// The checks that follow every processed event: invariant abort
    /// first, then the stall watchdog.
    fn stop_check(&mut self, watch: &mut Watchdog) -> Option<Outcome> {
        if self.violation.is_some() {
            return Some(Outcome::InvariantViolated);
        }
        let window = self.stall_window?;
        if self.now.saturating_since(watch.since).as_micros() >= window.as_micros() {
            let progress = self.total_progress();
            if progress <= watch.progress {
                return Some(Outcome::Stalled);
            }
            watch.progress = progress;
            watch.since = self.now;
        }
        None
    }

    /// One reception attempt, at `self.now`, of transmission `tx_id` at
    /// `to` over a link of quality `prr`. Returns `false` when the
    /// attempt is skipped outright (crashed receiver, fault-blocked
    /// link): such an event is not followed by the stop checks.
    fn deliver(
        &mut self,
        to: NodeId,
        from: NodeId,
        data: &[u8],
        kind: PacketKind,
        tx_id: u64,
        prr: f64,
    ) -> bool {
        if self.failed[to.index()] {
            return false;
        }
        let at = self.now;
        let loss = |cause| TraceEvent::Loss {
            at,
            to,
            from,
            kind,
            cause,
            tx_id,
        };
        if self.fault_blocks_delivery(from, to) {
            self.metrics.count_phy_loss();
            self.emit(loss(LossCause::Fault));
            return false;
        }
        match self.medium.deliver_link(at, tx_id, to, prr) {
            Delivery::Received => {
                self.metrics.count_rx(data.len());
                self.energy.record_rx(to, data.len());
                self.emit(TraceEvent::Rx {
                    at,
                    to,
                    from,
                    kind,
                    bytes: data.len(),
                    tx_id,
                });
                self.with_node(to.index(), |node, ctx| node.on_packet(ctx, from, data));
                self.check_invariant(to);
            }
            Delivery::Collision => {
                self.metrics.count_collision();
                self.emit(loss(LossCause::Collision));
            }
            Delivery::PhyLoss => {
                self.metrics.count_phy_loss();
                self.emit(loss(LossCause::Phy));
            }
            Delivery::AppDrop => {
                // The radio decoded the packet; the drop is an
                // application-layer event (energy still paid).
                self.energy.record_rx(to, data.len());
                self.metrics.count_app_drop();
                self.emit(loss(LossCause::AppDrop));
            }
            Delivery::Pruned => {
                self.metrics.count_phy_loss();
                self.emit(loss(LossCause::Pruned));
            }
        }
        true
    }

    /// Runs `f` on node `i`'s protocol in place, with a context over its
    /// RNG stream and the shared action buffer (disjoint fields), then
    /// checks completion and applies the produced actions.
    fn with_node(&mut self, i: usize, f: impl FnOnce(&mut P, &mut Context<'_>)) {
        let cfg = self.medium.config();
        let mut ctx = Context::new(
            self.now,
            NodeId(i as u32),
            &mut self.rngs[i],
            &mut self.actions,
            cfg.us_per_byte,
            cfg.per_packet_overhead_us,
        );
        f(&mut self.protocols[i], &mut ctx);
        if !self.complete[i] && self.protocols[i].is_complete() {
            self.mark_complete(i);
        }
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            self.apply_action(NodeId(i as u32), action);
        }
        self.actions = actions;
    }

    fn apply_action(&mut self, from: NodeId, action: Action) {
        match action {
            Action::Broadcast { kind, data } => {
                if self.failed[from.index()] {
                    return;
                }
                self.metrics.count_tx(kind, data.len());
                self.energy.record_tx(from, data.len());
                let tx = self
                    .medium
                    .begin_broadcast(self.now, from, data.len(), &self.topology);
                self.emit(TraceEvent::Tx {
                    at: tx.start,
                    from,
                    kind,
                    bytes: data.len(),
                    tx_id: tx.id,
                });
                // One entry stands for the delivery to every neighbour. A
                // sender nobody hears schedules nothing: an empty event
                // would still move the clock of a draining run.
                if !self.topology.links_from(from).is_empty() {
                    self.queue.push(
                        tx.end,
                        Event::Broadcast {
                            from,
                            data,
                            kind,
                            tx_id: tx.id,
                        },
                    );
                }
            }
            Action::SetTimer { timer, delay } => {
                // A drifting clock stretches or compresses every arm.
                let ppm = self.drift_ppm[from.index()];
                let delay = if ppm == PPM_ONE {
                    delay
                } else {
                    Duration::from_micros(
                        (delay.as_micros() as u128 * ppm as u128 / PPM_ONE as u128) as u64,
                    )
                };
                let at = self.now + delay;
                let generation = self.timers[from.index()].arm(timer, at);
                self.queue.push(
                    at,
                    Event::Timer {
                        node: from,
                        timer,
                        generation,
                    },
                );
            }
            Action::CancelTimer { timer } => self.timers[from.index()].cancel(timer),
            Action::Note { label, a, b } => {
                self.emit(TraceEvent::Note {
                    at: self.now,
                    node: from,
                    label,
                    a,
                    b,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_host::node::TimerId;

    #[test]
    fn diagnostic_outcomes_are_exactly_the_capsule_dump_triggers() {
        for outcome in [
            Outcome::Complete,
            Outcome::TimedOut,
            Outcome::Drained,
            Outcome::Stalled,
            Outcome::InvariantViolated,
        ] {
            let expected = matches!(outcome, Outcome::Stalled | Outcome::InvariantViolated);
            assert_eq!(outcome.is_diagnostic(), expected, "{}", outcome.label());
        }
    }

    /// Node 0 pings every second; others count pings.
    struct Pinger {
        is_source: bool,
        pings_heard: u32,
        goal: u32,
        reboots: u32,
    }

    impl Protocol for Pinger {
        fn on_init(&mut self, ctx: &mut Context<'_>) {
            if self.is_source {
                ctx.set_timer(TimerId(0), Duration::from_secs(1));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _data: &[u8]) {
            self.pings_heard += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerId) {
            ctx.broadcast(PacketKind::Data, vec![0xAB; 20]);
            ctx.set_timer(TimerId(0), Duration::from_secs(1));
        }
        fn is_complete(&self) -> bool {
            self.is_source || self.pings_heard >= self.goal
        }
        fn progress(&self) -> u64 {
            u64::from(self.pings_heard)
        }
        fn on_reboot(&mut self, ctx: &mut Context<'_>) {
            self.reboots += 1;
            self.on_init(ctx);
        }
    }

    fn pinger_sim(seed: u64) -> Simulator<Pinger> {
        pinger(seed).build()
    }

    fn pinger_with_faults(seed: u64, plan: FaultPlan) -> Simulator<Pinger> {
        pinger(seed).faults(plan).build()
    }

    fn pinger(seed: u64) -> SimBuilder<Pinger, impl FnMut(NodeId) -> Pinger> {
        pinger_goals(seed, [3; 4])
    }

    /// A star of four whose node `i` needs `goals[i]` pings.
    fn pinger_goals(
        seed: u64,
        goals: [u32; 4],
    ) -> SimBuilder<Pinger, impl FnMut(NodeId) -> Pinger> {
        SimBuilder::new(Topology::star(4), seed, move |id: NodeId| Pinger {
            is_source: id == NodeId(0),
            pings_heard: 0,
            goal: goals[id.index()],
            reboots: 0,
        })
    }

    #[test]
    fn pings_propagate_and_complete() {
        let mut sim = pinger_sim(1);
        let report = sim.run(Duration::from_secs(60));
        assert!(report.all_complete);
        assert_eq!(report.outcome, Outcome::Complete);
        assert!(report.latency.is_some());
        assert!(report.violation.is_none());
        assert_eq!(sim.metrics().tx_packets(PacketKind::Data), 3);
        // 3 broadcasts × 3 receivers.
        assert_eq!(sim.metrics().rx_packets(), 9);
    }

    #[test]
    fn deterministic_across_runs() {
        let r1 = pinger_sim(7).run(Duration::from_secs(60));
        let r2 = pinger_sim(7).run(Duration::from_secs(60));
        assert_eq!(r1.final_time, r2.final_time);
        assert_eq!(r1.latency, r2.latency);
    }

    #[test]
    fn deadline_stops_incomplete_run() {
        // Goal can never be met within half a second (first ping at 1 s).
        let mut sim = pinger_sim(3);
        let report = sim.run(Duration::from_millis(500));
        assert!(!report.all_complete);
        assert!(report.latency.is_none());
        assert_eq!(report.outcome, Outcome::TimedOut);
    }

    #[test]
    fn empty_fault_plan_leaves_run_identical() {
        let baseline = pinger_sim(7).run(Duration::from_secs(60));
        let report = pinger_with_faults(7, FaultPlan::new()).run(Duration::from_secs(60));
        assert_eq!(report.final_time, baseline.final_time);
        assert_eq!(report.latency, baseline.latency);
    }

    #[test]
    fn crash_then_reboot_restores_a_node() {
        // The source crashes after its second ping and reboots two
        // seconds later; `on_reboot` re-runs `on_init`, so pings resume
        // and receivers still reach their goal.
        let mut plan = FaultPlan::new();
        plan.crash_and_reboot(NodeId(0), SimTime(2_500_000), Duration::from_secs(2));
        let mut sim = pinger_with_faults(1, plan);
        let report = sim.run(Duration::from_secs(60));
        assert!(report.all_complete);
        assert_eq!(report.outcome, Outcome::Complete);
        assert_eq!(sim.reboots(), 1);
        assert!(!sim.is_failed(NodeId(0)));
    }

    #[test]
    fn link_down_blocks_and_link_up_restores_delivery() {
        let mut plan = FaultPlan::new();
        // Node 1 is deaf to the source for the first 2.5 s.
        plan.link_outage(
            NodeId(0),
            NodeId(1),
            SimTime::ZERO,
            Duration::from_millis(2500),
        );
        let mut sim = pinger_with_faults(1, plan);
        let report = sim.run(Duration::from_secs(60));
        assert!(report.all_complete);
        // Nodes 2/3 heard the early pings node 1 missed.
        assert!(sim.node(NodeId(2)).pings_heard > sim.node(NodeId(1)).pings_heard - 1);
        assert!(sim.node(NodeId(1)).pings_heard >= 3);
    }

    #[test]
    fn degraded_link_loses_some_deliveries() {
        let mut plan = FaultPlan::new();
        plan.degrade(NodeId(0), NodeId(1), 200_000, SimTime::ZERO);
        let mut sim = pinger_with_faults(1, plan);
        let report = sim.run(Duration::from_secs(120));
        // Node 1 eventually completes, but needs more source pings than
        // the healthy receivers did.
        assert!(report.all_complete);
        assert!(sim.metrics().tx_packets(PacketKind::Data) > 3);
    }

    #[test]
    fn clock_drift_slows_a_node_down() {
        let mut plan = FaultPlan::new();
        // The source's clock runs at half speed: timers take twice as
        // long, so pings land at 2 s, 4 s, 6 s instead of 1/2/3 s.
        plan.clock_drift(NodeId(0), 2_000_000, SimTime::ZERO);
        let report = pinger_with_faults(1, plan).run(Duration::from_secs(60));
        assert!(report.all_complete);
        let drifted = report.latency.expect("complete");
        let baseline = pinger_sim(1)
            .run(Duration::from_secs(60))
            .latency
            .expect("complete");
        assert!(drifted.as_micros() >= 2 * baseline.as_micros() - 1_000_000);
    }

    #[test]
    fn watchdog_trips_on_stall() {
        // Sever every source link: receivers can never progress, but
        // the source's timer keeps the queue alive forever.
        let mut plan = FaultPlan::new();
        for to in 1..4 {
            plan.push(FaultEvent::LinkDown {
                from: NodeId(0),
                to: NodeId(to),
                at: SimTime::ZERO,
            });
        }
        let config = SimConfig {
            stall_window: Some(Duration::from_secs(5)),
            ..SimConfig::default()
        };
        let report = pinger(1)
            .config(config)
            .faults(plan)
            .build()
            .run(Duration::from_secs(3600));
        assert_eq!(report.outcome, Outcome::Stalled);
        assert!(!report.all_complete);
        assert!(report.violation.is_none());
        // Aborted after roughly one window, not at the deadline.
        assert!(report.final_time < SimTime::ZERO + Duration::from_secs(60));
    }

    #[test]
    fn invariant_checker_aborts_the_run() {
        let mut sim = pinger(1)
            .invariants(|node: &Pinger, _id| {
                if node.pings_heard >= 2 {
                    Err(InvariantViolation::Custom {
                        message: format!("pings_heard \"reached\"\n\t{}\u{1}", node.pings_heard),
                    })
                } else {
                    Ok(())
                }
            })
            .build();
        let report = sim.run(Duration::from_secs(60));
        assert_eq!(report.outcome, Outcome::InvariantViolated);
        let record = report.violation.expect("violation");
        // The abort lands inside the second broadcast: its first
        // receiver trips the checker and the other two never hear it.
        assert_eq!(record.node, NodeId(1));
        assert_eq!(sim.metrics().rx_packets(), 4);
        assert_eq!(
            record.violation,
            InvariantViolation::Custom {
                message: "pings_heard \"reached\"\n\t2\u{1}".to_string(),
            }
        );
        assert!(record.to_string().contains("on n1: pings_heard"));
    }

    #[test]
    fn invariant_checker_runs_after_a_reboot() {
        // Receiver 2 crashes between the first two pings and reboots
        // between the second and the third; only the reboot breaks the
        // invariant, and the run stops there, not at the next delivery.
        let mut plan = FaultPlan::new();
        let reboot_at = SimTime(2_500_000);
        plan.crash_and_reboot(NodeId(2), SimTime(1_500_000), Duration::from_secs(1));
        let report = pinger(1)
            .faults(plan)
            .invariants(|node: &Pinger, _id| match node.reboots {
                0 => Ok(()),
                n => Err(InvariantViolation::Custom {
                    message: format!("rebooted {n} time(s)"),
                }),
            })
            .build()
            .run(Duration::from_secs(60));
        assert_eq!(report.outcome, Outcome::InvariantViolated);
        assert_eq!(report.final_time, reboot_at);
        let record = report.violation.expect("violation");
        assert_eq!((record.node, record.at), (NodeId(2), reboot_at));
    }

    #[test]
    fn run_completing_on_a_middle_link_skips_the_rest_of_the_broadcast() {
        // Node 3 is done after two pings, so the third ping completes
        // the run at node 2 and node 3's copy is never delivered.
        let mut sim = pinger_goals(1, [0, 3, 3, 2]).build();
        let report = sim.run(Duration::from_secs(60));
        assert_eq!(report.outcome, Outcome::Complete);
        assert_eq!(sim.metrics().tx_packets(PacketKind::Data), 3);
        assert_eq!(sim.metrics().rx_packets(), 8);
        assert_eq!(sim.node(NodeId(3)).pings_heard, 2);
    }

    #[test]
    fn crashed_middle_receiver_skips_only_its_own_delivery() {
        let mut plan = FaultPlan::new();
        plan.crash(NodeId(2), SimTime(500_000));
        let mut sim = pinger_with_faults(1, plan);
        let report = sim.run(Duration::from_secs(60));
        assert_eq!(report.outcome, Outcome::Complete);
        assert_eq!(sim.metrics().rx_packets(), 6);
        let heard = |n| sim.node(NodeId(n)).pings_heard;
        assert_eq!([heard(1), heard(2), heard(3)], [3, 0, 3]);
    }

    #[test]
    fn downed_middle_link_skips_only_its_own_delivery() {
        // Node 2 misses the first two pings, so it needs pings 3 to 5;
        // the fifth completes the run before node 3's copy of it.
        let mut plan = FaultPlan::new();
        plan.link_outage(
            NodeId(0),
            NodeId(2),
            SimTime::ZERO,
            Duration::from_millis(2500),
        );
        let mut sim = pinger_with_faults(1, plan);
        let report = sim.run(Duration::from_secs(60));
        assert_eq!(report.outcome, Outcome::Complete);
        let heard = |n| sim.node(NodeId(n)).pings_heard;
        assert_eq!([heard(1), heard(2), heard(3)], [5, 3, 4]);
        assert_eq!(sim.metrics().rx_packets(), 12);
        assert_eq!(sim.metrics().phy_losses(), 2);
    }

    /// Node 0 pings every second; the others count pings but never
    /// report progress.
    struct Idler {
        is_source: bool,
        heard: u32,
    }
    impl Protocol for Idler {
        fn on_init(&mut self, ctx: &mut Context<'_>) {
            if self.is_source {
                ctx.set_timer(TimerId(0), Duration::from_secs(1));
            }
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {
            self.heard += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerId) {
            ctx.broadcast(PacketKind::Data, vec![0xAB; 20]);
            ctx.set_timer(TimerId(0), Duration::from_secs(1));
        }
        fn is_complete(&self) -> bool {
            false
        }
    }

    #[test]
    fn watchdog_trips_between_two_deliveries_of_one_broadcast() {
        // The window ends after the 2 s timer but before the second
        // ping lands (airtime alone is 10 ms), so the first check that
        // can trip follows that ping's first delivery.
        let config = SimConfig {
            stall_window: Some(Duration::from_millis(2005)),
            ..SimConfig::default()
        };
        let mut sim = SimBuilder::new(Topology::star(4), 1, |id| Idler {
            is_source: id == NodeId(0),
            heard: 0,
        })
        .config(config)
        .build();
        let report = sim.run(Duration::from_secs(60));
        assert_eq!(report.outcome, Outcome::Stalled);
        assert_eq!(sim.metrics().rx_packets(), 4);
        let heard = |n| sim.node(NodeId(n)).heard;
        assert_eq!([heard(1), heard(2), heard(3)], [2, 1, 1]);
    }

    #[test]
    fn single_receiver_deliver_event_takes_the_same_path() {
        let mut sim = pinger_sim(1);
        let tx = sim
            .medium
            .begin_broadcast(SimTime::ZERO, NodeId(0), 20, &sim.topology);
        sim.queue.push(
            tx.end,
            Event::Deliver {
                to: NodeId(2),
                from: NodeId(0),
                data: std::sync::Arc::new(vec![0xAB; 20]),
                kind: PacketKind::Data,
                tx_id: tx.id,
            },
        );
        let report = sim.run(Duration::from_millis(500));
        assert_eq!(report.outcome, Outcome::TimedOut);
        assert_eq!(sim.metrics().rx_packets(), 1);
        assert_eq!(sim.node(NodeId(2)).pings_heard, 1);
    }

    /// A delivery whose transmission record is gone must drop with a
    /// structured `Pruned` loss event, not panic mid-run.
    #[test]
    fn delivery_for_pruned_transmission_is_dropped_not_panicked() {
        let log = crate::trace::TraceLog::default();
        let mut sim = pinger(1).trace(log.clone()).build();
        sim.queue.push(
            SimTime(42),
            Event::Deliver {
                to: NodeId(2),
                from: NodeId(0),
                data: std::sync::Arc::new(vec![1, 2, 3]),
                kind: PacketKind::Data,
                tx_id: 999,
            },
        );
        sim.run(Duration::from_millis(500));
        assert_eq!(sim.node(NodeId(2)).pings_heard, 0);
        assert_eq!(sim.metrics().phy_losses(), 1);
        assert!(log.events().iter().any(|event| matches!(
            event,
            TraceEvent::Loss {
                cause: LossCause::Pruned,
                tx_id: 999,
                ..
            }
        )));
    }

    /// A node nobody can hear, broadcasting once.
    struct Lonely;
    impl Protocol for Lonely {
        fn on_init(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(TimerId(0), Duration::from_secs(1));
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerId) {
            ctx.broadcast(PacketKind::Data, vec![0xAB; 20]);
        }
        fn is_complete(&self) -> bool {
            false
        }
    }

    #[test]
    fn broadcast_without_neighbours_schedules_nothing() {
        let mut sim = SimBuilder::new(Topology::star(1), 0, |_| Lonely).build();
        let report = sim.run(Duration::from_secs(10));
        assert_eq!(report.outcome, Outcome::Drained);
        assert_eq!(sim.metrics().tx_packets(PacketKind::Data), 1);
        // The run ends at the timer, not at the end of an unheard airtime.
        assert_eq!(report.final_time, SimTime(1_000_000));
    }

    /// A node whose re-armed timer must fire only once.
    struct Rearmer {
        fires: u32,
    }
    impl Protocol for Rearmer {
        fn on_init(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(TimerId(1), Duration::from_secs(1));
            ctx.set_timer(TimerId(1), Duration::from_secs(2)); // supersedes
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        fn on_timer(&mut self, _: &mut Context<'_>, _: TimerId) {
            self.fires += 1;
        }
        fn is_complete(&self) -> bool {
            false
        }
    }

    #[test]
    fn rearmed_timer_fires_once() {
        let mut sim = SimBuilder::new(Topology::star(1), 0, |_| Rearmer { fires: 0 }).build();
        let report = sim.run(Duration::from_secs(10));
        assert_eq!(sim.node(NodeId(0)).fires, 1);
        assert_eq!(report.outcome, Outcome::Drained);
    }

    /// Cancel prevents firing entirely.
    struct Canceler {
        fires: u32,
    }
    impl Protocol for Canceler {
        fn on_init(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(TimerId(1), Duration::from_secs(1));
            ctx.cancel_timer(TimerId(1));
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        fn on_timer(&mut self, _: &mut Context<'_>, _: TimerId) {
            self.fires += 1;
        }
        fn is_complete(&self) -> bool {
            false
        }
    }

    #[test]
    fn canceled_timer_never_fires() {
        let mut sim = SimBuilder::new(Topology::star(1), 0, |_| Canceler { fires: 0 }).build();
        let _ = sim.run(Duration::from_secs(10));
        assert_eq!(sim.node(NodeId(0)).fires, 0);
    }
}
