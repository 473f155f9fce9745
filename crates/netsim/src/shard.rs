//! Conservatively-synchronized sharded parallel engine.
//!
//! The topology is tiled into square cells at least as wide as the
//! longest link ([`SpatialPartition`]), cells are grouped into
//! contiguous shards, and each shard runs its nodes on its own worker
//! thread with its own event queue. Virtual time advances in *lookahead
//! windows* of `L = MediumConfig::lookahead_us()` microseconds: every
//! packet spends at least `L` on the air, so a transmission decided in
//! window `w` cannot be heard before window `w + 1` — shards therefore
//! process a whole window independently and exchange cross-shard
//! deliveries and transmission announcements at a barrier between
//! windows, never needing rollback.
//!
//! # Shard-count independence
//!
//! Every rule below is *content-based* — derived from the topology, the
//! seed, and the fixed global window grid, never from the shard count —
//! so a fixed seed produces identical metrics, traces, and final images
//! at every shard count:
//!
//! * Events are ordered by [`OrderKey`], not insertion sequence.
//! * Each node draws from its own seeded RNG streams (protocol, CSMA
//!   backoff, reception), so draw sequences never depend on how nodes
//!   interleave globally.
//! * Same-cell transmissions affect CSMA/collision state immediately
//!   (cells are never split, so same-cell coupling is always
//!   thread-local); cross-cell transmissions become visible exactly one
//!   window boundary after their decision window, at every shard count
//!   — including shard count 1.
//! * Shards always finish a whole window before stopping, so stop
//!   decisions (completion, deadline, stall, violation) are taken at
//!   window granularity from globally merged state.
//!
//! The flip side: results are *not* bit-identical to the sequential
//! [`Simulator`](crate::sim::Simulator), whose single global RNG and
//! insertion-order tie-breaks cannot be partitioned. The sequential
//! engine remains the golden anchor; this engine is self-consistent
//! across shard counts and statistically equivalent (same medium model,
//! same per-draw distributions). See `DESIGN.md` §9.

use crate::builder::{SharedInvariant, SimBuilder};
use crate::capsule::{Capsule, CapsuleSpec, EngineDigest, RunDigest, SHARDED_ENGINE};
use crate::energy::EnergyLedger;
use crate::event::OrderKey;
use crate::fault::{FaultEvent, PPM_ONE};
use crate::medium::collision_horizon_us;
use crate::metrics::Metrics;
use crate::node::{Action, Context, NodeId, PacketKind, Protocol};
use crate::noise::NoiseState;
use crate::sim::{DiagnosticDump, NodeDiag, Outcome, RunReport, SimConfig};
use crate::time::{Duration, SimTime};
use crate::topology::{SpatialPartition, Topology};
use crate::trace::{merge_keyed, merge_keyed_traces, KeyedTraceEvent, LossCause, TraceEvent};
use crate::violation::ViolationRecord;
use lrs_rng::DetRng;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

/// Result of a sharded run: the merged view a sequential caller would
/// have had, plus the per-node `harvest` extracted before the protocol
/// instances were dropped inside their worker threads.
pub struct ShardedRun<R> {
    /// Outcome, latency, and (when stalled/violated) a diagnostic dump.
    pub report: RunReport,
    /// Network-wide metric counters, merged across shards.
    pub metrics: Metrics,
    /// Per-node radio energy, merged across shards.
    pub energy: EnergyLedger,
    /// The merged trace, in deterministic global order. Empty unless a
    /// sink was attached or
    /// [`collect_trace`](SimBuilder::collect_trace) was enabled.
    pub trace: Vec<TraceEvent>,
    /// The same trace with each event's [`OrderKey`] and emit sequence
    /// attached — the content-based order replay digests are built
    /// over. Empty whenever `trace` is.
    pub keyed_trace: Vec<KeyedTraceEvent>,
    /// One harvest value per node, indexed by node id. May be shorter
    /// than the node count if a worker panicked mid-callback (the node
    /// being called when the panic hit cannot be harvested).
    pub harvest: Vec<R>,
    /// The shard count the run used.
    pub shards: usize,
}

/// Static, shard-count-independent facts every worker reads.
struct Plan<'a> {
    topology: &'a Topology,
    config: SimConfig,
    seed: u64,
    /// Owning shard of each node.
    assign: Vec<u32>,
    /// Spatial cell of each node (cells are never split across shards).
    cell: Vec<u32>,
    /// Per sender: bitmask of shards owning a cross-cell in-range
    /// receiver — the shards its transmission announcements must reach.
    announce_mask: Vec<u64>,
    /// Time-sorted fault schedule (indexed by [`OrderKey::fault`]).
    faults: Vec<FaultEvent>,
    /// Lookahead window length (µs).
    lookahead: u64,
    /// Virtual-time limit (µs): min of the run deadline and
    /// [`SimConfig::max_sim_time`].
    deadline: u64,
    /// Whether workers keep the full keyed trace (sink attached or
    /// collection requested), as opposed to only the diagnostic ring.
    collect: bool,
}

/// A transmission another node may collide with or defer to.
#[derive(Clone, Copy, Debug)]
struct TxRec {
    id: u64,
    from: NodeId,
    start: u64,
    end: u64,
    /// Window of the *broadcast decision* — cross-cell visibility is
    /// granted strictly after this window, at every shard count.
    action_window: u64,
}

/// Cross-shard mail exchanged at window barriers.
enum Inbound {
    Deliver {
        at: u64,
        to: NodeId,
        from: NodeId,
        data: Arc<Vec<u8>>,
        kind: PacketKind,
        tx_id: u64,
    },
    Announce(TxRec),
}

/// What each shard reports at a barrier, for the coordinator.
#[derive(Clone, Default)]
struct Status {
    /// Earliest pending event, if any (after draining the inbox).
    next: Option<OrderKey>,
    /// All local nodes complete or permanently failed.
    satisfied: bool,
    /// Sum of live local nodes' [`Protocol::progress`].
    progress: u128,
    /// Latest event time this shard has processed (µs).
    max_processed: u64,
    /// First local invariant violation, by key order.
    violation: Option<(OrderKey, ViolationRecord)>,
}

/// The coordinator's verdict after each window.
#[derive(Clone)]
enum Control {
    Continue {
        window: u64,
    },
    Stop {
        outcome: Outcome,
        final_time: SimTime,
        violation: Option<ViolationRecord>,
        reason: Option<String>,
    },
}

struct Shared {
    barrier: Barrier,
    inboxes: Vec<Mutex<Vec<Inbound>>>,
    statuses: Vec<Mutex<Status>>,
    control: Mutex<Control>,
    /// First worker panic, surfaced as [`Outcome::WorkerPanicked`]
    /// instead of the poisoned-mutex cascade the other workers would
    /// otherwise die with.
    panic: Mutex<Option<String>>,
}

/// Locks a mutex whether or not a panicking thread poisoned it. Every
/// engine lock goes through this: shared state here is only ever
/// replaced wholesale (never left half-written), so a poisoned value is
/// still coherent, and propagating the poison would bury the original
/// panic under "control poisoned" noise from every surviving worker.
fn lock_tolerant<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Records the FIRST worker panic; later ones are usually cascades, so
/// the surfaced message stays the root cause.
fn record_panic(shared: &Shared, sid: usize, payload: &(dyn std::any::Any + Send), during: &str) {
    let mut slot = lock_tolerant(&shared.panic);
    if slot.is_none() {
        *slot = Some(format!(
            "shard {sid} worker panicked while {during}: {}",
            panic_message(payload)
        ));
    }
}

/// Barrier-participation loop for a worker whose node construction
/// panicked. std's [`Barrier`] has no poisoning: a participant that
/// simply exits would hang every live shard forever, so the dead worker
/// keeps the window protocol alive — reporting an always-satisfied
/// empty shard — until the coordinator sees the recorded panic and
/// publishes a stop verdict. If shard 0 itself is the dead one, it
/// must still coordinate, so it stops the run directly.
fn zombie_run(sid: usize, shared: &Shared) {
    loop {
        if matches!(*lock_tolerant(&shared.control), Control::Stop { .. }) {
            return;
        }
        shared.barrier.wait();
        lock_tolerant(&shared.inboxes[sid]).clear();
        *lock_tolerant(&shared.statuses[sid]) = Status {
            satisfied: true,
            ..Status::default()
        };
        shared.barrier.wait();
        if sid == 0 {
            let final_time = SimTime(
                shared
                    .statuses
                    .iter()
                    .map(|s| lock_tolerant(s).max_processed)
                    .max()
                    .unwrap_or(0),
            );
            let reason = lock_tolerant(&shared.panic).clone();
            *lock_tolerant(&shared.control) = Control::Stop {
                outcome: Outcome::WorkerPanicked,
                final_time,
                violation: None,
                reason,
            };
        }
        shared.barrier.wait();
    }
}

/// An event in a shard's queue, ordered purely by content.
enum SEvent {
    Fault(FaultEvent),
    Init(NodeId),
    Deliver {
        to: NodeId,
        from: NodeId,
        data: Arc<Vec<u8>>,
        kind: PacketKind,
        tx_id: u64,
    },
    Timer {
        node: NodeId,
        timer: crate::node::TimerId,
        generation: u64,
    },
}

struct Keyed {
    key: OrderKey,
    event: SEvent,
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Keyed {}
impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// Fault overlay on one directed link (receiver-shard state).
#[derive(Clone, Copy)]
struct LinkFault {
    up: bool,
    ppm: u32,
}

impl Default for LinkFault {
    fn default() -> Self {
        LinkFault {
            up: true,
            ppm: PPM_ONE,
        }
    }
}

/// Everything a worker sends back to the main thread when it exits.
struct WorkerOut<R> {
    metrics: Metrics,
    energy: EnergyLedger,
    trace_full: Vec<KeyedTraceEvent>,
    trace_ring: Vec<KeyedTraceEvent>,
    harvest: Vec<(u32, R)>,
    diags: Vec<NodeDiag>,
    queue_len: usize,
    pending_timers: usize,
}

/// Entry point called by [`SimBuilder::run_sharded`].
pub(crate) fn run<P, F, R, H>(
    builder: SimBuilder<P, F>,
    deadline: Duration,
    harvest: H,
) -> ShardedRun<R>
where
    P: Protocol,
    F: Fn(NodeId) -> P + Sync,
    R: Send,
    H: Fn(NodeId, &P) -> R + Sync,
{
    let SimBuilder {
        topology,
        seed,
        make_node,
        config,
        mut trace,
        invariant,
        faults,
        shards,
        collect_trace,
        capsule_path,
        scenario,
    } = builder;
    let capsule_spec = capsule_path.map(|path| CapsuleSpec { path, scenario });
    let n = topology.len();
    let mut deadline_us = deadline.as_micros();
    if let Some(limit) = config.max_sim_time {
        deadline_us = deadline_us.min(limit.as_micros());
    }
    if n == 0 {
        return ShardedRun {
            report: RunReport {
                outcome: Outcome::Complete,
                all_complete: true,
                final_time: SimTime::ZERO,
                latency: None,
                diagnostic: None,
            },
            metrics: Metrics::new(),
            energy: EnergyLedger::new(0),
            trace: Vec::new(),
            keyed_trace: Vec::new(),
            harvest: Vec::new(),
            shards,
        };
    }

    let partition = SpatialPartition::new(&topology);
    let assign = partition.shard_assignment(shards);
    let cell: Vec<u32> = (0..n)
        .map(|i| partition.cell_of(NodeId(i as u32)))
        .collect();
    let mut announce_mask = vec![0u64; n];
    for s in 0..n {
        for link in topology.links_from(NodeId(s as u32)) {
            if cell[link.to.index()] != cell[s] {
                announce_mask[s] |= 1u64 << assign[link.to.index()];
            }
        }
    }
    let mut fault_events: Vec<FaultEvent> = faults.events().to_vec();
    fault_events.sort_by_key(FaultEvent::at);
    let plan = Plan {
        topology: &topology,
        config,
        seed,
        assign,
        cell,
        announce_mask,
        faults: fault_events,
        lookahead: config.medium.lookahead_us(),
        deadline: deadline_us,
        collect: collect_trace || trace.is_some(),
    };
    let shared = Shared {
        barrier: Barrier::new(shards),
        inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        statuses: (0..shards).map(|_| Mutex::new(Status::default())).collect(),
        control: Mutex::new(Control::Continue { window: 0 }),
        panic: Mutex::new(None),
    };

    let mut outputs: Vec<WorkerOut<R>> = Vec::with_capacity(shards);
    let mut join_panic: Option<String> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|sid| {
                let plan = &plan;
                let shared = &shared;
                let make_node = &make_node;
                let harvest = &harvest;
                let invariant = invariant.clone();
                scope.spawn(move || {
                    // Node construction runs user code too; a panic here
                    // would otherwise kill the thread before its first
                    // barrier wait and hang every other shard.
                    let built = catch_unwind(AssertUnwindSafe(|| {
                        Worker::new(plan, sid as u32, make_node, invariant)
                    }));
                    match built {
                        Ok(mut worker) => {
                            worker.run(shared);
                            worker.finish(shared, harvest)
                        }
                        Err(payload) => {
                            record_panic(shared, sid, &*payload, "constructing nodes");
                            zombie_run(sid, shared);
                            WorkerOut {
                                metrics: Metrics::new(),
                                energy: EnergyLedger::new(plan.topology.len()),
                                trace_full: Vec::new(),
                                trace_ring: Vec::new(),
                                harvest: Vec::new(),
                                diags: Vec::new(),
                                queue_len: 0,
                                pending_timers: 0,
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(out) => outputs.push(out),
                // Harvest closures run after the stop verdict, outside
                // the catch_unwind umbrella; no barriers remain, so a
                // panic here cannot hang anyone — record and continue.
                Err(payload) => {
                    if join_panic.is_none() {
                        join_panic = Some(panic_message(&*payload));
                    }
                }
            }
        }
    });

    let control = shared
        .control
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let recorded_panic = shared
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let (mut outcome, final_time, violation, mut reason) = match control {
        Control::Stop {
            outcome,
            final_time,
            violation,
            reason,
        } => (outcome, final_time, violation, reason),
        // Only reachable if a worker died in a way that bypassed every
        // zombie path; surface it rather than panic over it.
        Control::Continue { .. } => (Outcome::WorkerPanicked, SimTime::ZERO, None, None),
    };
    if let Some(msg) = join_panic {
        if outcome != Outcome::WorkerPanicked {
            outcome = Outcome::WorkerPanicked;
            reason = Some(format!("shard worker panicked during harvest: {msg}"));
        }
    }
    if outcome == Outcome::WorkerPanicked && reason.is_none() {
        reason = recorded_panic.or_else(|| Some("shard worker panicked".to_string()));
    }

    let mut metrics = Metrics::new();
    let mut energy = EnergyLedger::new(n);
    let mut full = Vec::new();
    let mut rings = Vec::new();
    let mut harvested: Vec<(u32, R)> = Vec::with_capacity(n);
    let mut diags: Vec<NodeDiag> = Vec::new();
    let mut queue_len = 0;
    let mut pending_timers = 0;
    for out in outputs {
        metrics.merge(&out.metrics);
        energy.merge(&out.energy);
        full.push(out.trace_full);
        rings.push(out.trace_ring);
        harvested.extend(out.harvest);
        diags.extend(out.diags);
        queue_len += out.queue_len;
        pending_timers += out.pending_timers;
    }
    harvested.sort_by_key(|(i, _)| *i);
    let harvest: Vec<R> = harvested.into_iter().map(|(_, r)| r).collect();

    let keyed = merge_keyed(full);
    if let Some(sink) = trace.as_mut() {
        for (_, _, event) in &keyed {
            sink.record(event);
        }
        sink.flush();
    }
    // `keyed` is empty unless `plan.collect` — workers only fill
    // `trace_full` when collecting — so these are both empty otherwise.
    let merged: Vec<TraceEvent> = keyed.iter().map(|(_, _, event)| event.clone()).collect();

    let diagnostic = if outcome.is_diagnostic() {
        diags.sort_by_key(|d| d.node.0);
        let mut recent = merge_keyed_traces(rings);
        let keep = config.diag_events.min(recent.len());
        recent.drain(..recent.len() - keep);
        Some(DiagnosticDump {
            at: final_time,
            reason: reason.unwrap_or_default(),
            queue_len,
            pending_timers,
            nodes: diags,
            recent,
            violation: violation.clone(),
        })
    } else {
        None
    };

    let all_complete = outcome == Outcome::Complete;
    let latency = if all_complete {
        metrics.dissemination_latency()
    } else {
        None
    };
    let report = RunReport {
        outcome,
        all_complete,
        final_time,
        latency,
        diagnostic,
    };
    if report.outcome.is_diagnostic() {
        if let Some(spec) = capsule_spec.as_ref() {
            let digest = if plan.collect {
                RunDigest::compute(&report, &metrics, &merged, Some(&keyed))
            } else {
                RunDigest::metrics_only(report.outcome, report.final_time, &metrics)
            };
            spec.write(&Capsule {
                seed,
                engine: SHARDED_ENGINE.to_string(),
                shards,
                deadline,
                config,
                topology: topology.clone(),
                faults: faults.clone(),
                scenario: spec.scenario.clone(),
                digests: vec![EngineDigest {
                    engine: SHARDED_ENGINE.to_string(),
                    shards,
                    digest,
                }],
            });
        }
    }
    ShardedRun {
        report,
        metrics,
        energy,
        trace: merged,
        keyed_trace: keyed,
        harvest,
        shards,
    }
}

/// One shard's worker state. Vectors are full-length (indexed by node
/// id) with only local entries populated — simpler and cache-friendly
/// versus id remapping.
struct Worker<'a, P, F> {
    plan: &'a Plan<'a>,
    sid: u32,
    make_node: &'a F,
    local: Vec<bool>,
    protocols: Vec<Option<P>>,
    /// Protocol-visible RNG, seeded exactly like the sequential engine.
    rngs: Vec<Option<DetRng>>,
    /// CSMA backoff draws (sender-side stream).
    tx_rngs: Vec<Option<DetRng>>,
    /// PRR / noise / app-loss / fault-degrade draws (receiver-side).
    rx_rngs: Vec<Option<DetRng>>,
    noise: Vec<Option<NoiseState>>,
    busy_until: Vec<u64>,
    timer_gens: HashMap<(u32, u32), u64>,
    queue: BinaryHeap<Reverse<Keyed>>,
    /// Known transmissions: local sends plus announced remote ones.
    txs: Vec<TxRec>,
    /// Longest airtime among the transmissions ever known (µs).
    longest_airtime: u64,
    /// Per-sender transmission counter; ids are `(node << 32) | count`.
    tx_counts: Vec<u64>,
    metrics: Metrics,
    energy: EnergyLedger,
    complete: Vec<bool>,
    failed: Vec<bool>,
    pending_reboots: Vec<u32>,
    link_state: HashMap<(u32, u32), LinkFault>,
    drift_ppm: Vec<u32>,
    invariant: Option<SharedInvariant<P>>,
    violation: Option<(OrderKey, ViolationRecord)>,
    outbox: Vec<(usize, Inbound)>,
    trace_full: Vec<KeyedTraceEvent>,
    trace_ring: VecDeque<KeyedTraceEvent>,
    cur_key: OrderKey,
    emit_seq: u32,
    now: SimTime,
    max_processed: u64,
    /// Coordinator-only watchdog state (shard 0).
    watch_progress: u128,
    watch_since: u64,
    global_max: u64,
}

impl<'a, P, F> Worker<'a, P, F>
where
    P: Protocol,
    F: Fn(NodeId) -> P,
{
    fn new(
        plan: &'a Plan<'a>,
        sid: u32,
        make_node: &'a F,
        invariant: Option<SharedInvariant<P>>,
    ) -> Self {
        let n = plan.topology.len();
        let seed = plan.seed;
        let local: Vec<bool> = (0..n).map(|i| plan.assign[i] == sid).collect();
        let mut worker = Worker {
            plan,
            sid,
            make_node,
            protocols: (0..n).map(|_| None).collect(),
            rngs: (0..n).map(|_| None).collect(),
            tx_rngs: (0..n).map(|_| None).collect(),
            rx_rngs: (0..n).map(|_| None).collect(),
            noise: (0..n).map(|_| None).collect(),
            busy_until: vec![0; n],
            timer_gens: HashMap::new(),
            queue: BinaryHeap::new(),
            txs: Vec::new(),
            longest_airtime: 0,
            tx_counts: vec![0; n],
            metrics: Metrics::new(),
            energy: EnergyLedger::new(n),
            complete: vec![false; n],
            failed: vec![false; n],
            pending_reboots: vec![0; n],
            link_state: HashMap::new(),
            drift_ppm: vec![PPM_ONE; n],
            invariant,
            violation: None,
            outbox: Vec::new(),
            trace_full: Vec::new(),
            trace_ring: VecDeque::new(),
            cur_key: OrderKey::init(NodeId(0)),
            emit_seq: 0,
            now: SimTime::ZERO,
            max_processed: 0,
            watch_progress: 0,
            watch_since: 0,
            global_max: 0,
            local,
        };
        for i in 0..n {
            if !worker.local[i] {
                continue;
            }
            let id = NodeId(i as u32);
            worker.protocols[i] = Some((worker.make_node)(id));
            // The protocol stream matches the sequential engine's, so
            // node behavior is drawn from the same distribution; the tx
            // and rx streams replace the sequential engine's single
            // global medium RNG with per-node streams whose draw order
            // cannot depend on global interleaving.
            worker.rngs[i] = Some(DetRng::seed_from_u64(
                seed.wrapping_mul(0x9e3779b97f4a7c15) ^ (i as u64),
            ));
            worker.tx_rngs[i] = Some(DetRng::seed_from_u64(
                seed.wrapping_mul(0xff51afd7ed558ccd) ^ (i as u64),
            ));
            worker.rx_rngs[i] = Some(DetRng::seed_from_u64(
                seed.wrapping_mul(0xc4ceb9fe1a85ec53) ^ (i as u64),
            ));
            worker.noise[i] = Some(NoiseState::new(plan.config.medium.noise));
            worker.queue.push(Reverse(Keyed {
                key: OrderKey::init(id),
                event: SEvent::Init(id),
            }));
        }
        for (index, fault) in plan.faults.iter().enumerate() {
            let owner = fault.owner();
            if plan.assign[owner.index()] != sid {
                continue;
            }
            if let FaultEvent::Reboot { node, .. } = fault {
                worker.pending_reboots[node.index()] += 1;
            }
            worker.queue.push(Reverse(Keyed {
                key: OrderKey::fault(fault.at(), index as u64),
                event: SEvent::Fault(*fault),
            }));
        }
        worker
    }

    /// The barrier-synchronized main loop.
    ///
    /// Window processing runs protocol callbacks (user code), so it is
    /// wrapped in `catch_unwind`: a panicking worker turns into a
    /// *zombie* that keeps the barrier protocol alive (std's [`Barrier`]
    /// has no poisoning — a missing participant would hang every live
    /// shard forever) while the coordinator surfaces the recorded panic
    /// as [`Outcome::WorkerPanicked`].
    fn run(&mut self, shared: &Shared) {
        let mut dead = false;
        loop {
            let control = lock_tolerant(&shared.control).clone();
            let window = match control {
                Control::Stop { .. } => return,
                Control::Continue { window } => window,
            };
            if !dead {
                let processed = catch_unwind(AssertUnwindSafe(|| self.process_window(window)));
                if let Err(payload) = processed {
                    dead = true;
                    // Never publish a half-processed window.
                    self.outbox.clear();
                    record_panic(shared, self.sid as usize, &*payload, "processing a window");
                }
            }
            // Phase 1: publish cross-shard mail produced by this window.
            for (target, item) in self.outbox.drain(..) {
                lock_tolerant(&shared.inboxes[target]).push(item);
            }
            shared.barrier.wait();
            // Phase 2: absorb mail, then report status (the status must
            // see deliveries that just arrived, or the coordinator would
            // declare a drained queue that is about to refill).
            if dead {
                // Zombie: drop incoming mail and report an
                // always-satisfied idle shard; the coordinator stops the
                // run as soon as it sees the recorded panic.
                lock_tolerant(&shared.inboxes[self.sid as usize]).clear();
                *lock_tolerant(&shared.statuses[self.sid as usize]) = Status {
                    satisfied: true,
                    max_processed: self.max_processed,
                    violation: self.violation.clone(),
                    ..Status::default()
                };
            } else {
                self.drain_inbox(shared);
                let status = self.status();
                *lock_tolerant(&shared.statuses[self.sid as usize]) = status;
            }
            shared.barrier.wait();
            // Phase 3: shard 0 merges statuses into a verdict. A panic
            // in the coordinator itself must still produce a verdict or
            // phase-1 readers would spin on a stale Continue.
            if self.sid == 0 {
                let verdict = match catch_unwind(AssertUnwindSafe(|| self.coordinate(shared))) {
                    Ok(verdict) => verdict,
                    Err(payload) => Control::Stop {
                        outcome: Outcome::WorkerPanicked,
                        final_time: SimTime(self.global_max),
                        violation: None,
                        reason: Some(format!(
                            "coordinator panicked: {}",
                            panic_message(&*payload)
                        )),
                    },
                };
                *lock_tolerant(&shared.control) = verdict;
            }
            shared.barrier.wait();
        }
    }

    /// Processes every local event in `[window·L, (window+1)·L)` that
    /// does not exceed the deadline, in [`OrderKey`] order.
    fn process_window(&mut self, window: u64) {
        let end = (window + 1).saturating_mul(self.plan.lookahead);
        while let Some(Reverse(top)) = self.queue.peek() {
            if top.key.at >= end || top.key.at > self.plan.deadline {
                break;
            }
            let Keyed { key, event } = self.queue.pop().expect("peeked").0;
            self.cur_key = key;
            self.emit_seq = 0;
            self.now = SimTime(key.at);
            self.max_processed = self.max_processed.max(key.at);
            match event {
                SEvent::Fault(fault) => self.apply_fault(fault),
                SEvent::Init(node) => self.with_node(node.index(), |n, ctx| n.on_init(ctx)),
                SEvent::Deliver {
                    to,
                    from,
                    data,
                    kind,
                    tx_id,
                } => self.deliver(window, to, from, &data, kind, tx_id),
                SEvent::Timer {
                    node,
                    timer,
                    generation,
                } => {
                    if self.failed[node.index()] {
                        continue;
                    }
                    let current = self
                        .timer_gens
                        .get(&(node.0, timer.0))
                        .copied()
                        .unwrap_or(0);
                    if generation == current {
                        self.emit(TraceEvent::TimerFired {
                            at: self.now,
                            node,
                            timer,
                        });
                        self.with_node(node.index(), |n, ctx| n.on_timer(ctx, timer));
                    }
                }
            }
        }
        // Transmissions that can no longer overlap any delivery (same
        // horizon as the sequential medium).
        let cutoff = (window.saturating_mul(self.plan.lookahead))
            .saturating_sub(collision_horizon_us(self.longest_airtime));
        self.txs.retain(|t| t.end >= cutoff);
    }

    fn deliver(
        &mut self,
        window: u64,
        to: NodeId,
        from: NodeId,
        data: &Arc<Vec<u8>>,
        kind: PacketKind,
        tx_id: u64,
    ) {
        if self.failed[to.index()] {
            return;
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
            return;
        }
        // A fault plan can in principle prune a transmission whose
        // delivery is already queued across a shard boundary (the
        // retention horizon and the inbox hand-off race at the window
        // edge); dropping the orphan with a structured loss event is
        // always safer than panicking the worker.
        let Some(tx) = self.txs.iter().find(|t| t.id == tx_id).copied() else {
            self.metrics.count_phy_loss();
            self.emit(loss(LossCause::Pruned));
            return;
        };
        if self.plan.config.medium.collisions && self.collided(&tx, to, window) {
            self.metrics.count_collision();
            self.emit(loss(LossCause::Collision));
            return;
        }
        let prr = self.plan.topology.prr(from, to);
        let rng = self.rx_rngs[to.index()].as_mut().expect("local rx rng");
        let noise = self.noise[to.index()].as_mut().expect("local noise");
        let effective = prr * noise.factor_at(at, rng);
        if effective < 1.0 && !rng.gen_bool(effective.clamp(0.0, 1.0)) {
            self.metrics.count_phy_loss();
            self.emit(loss(LossCause::Phy));
            return;
        }
        if self.plan.config.medium.app_loss > 0.0 && rng.gen_bool(self.plan.config.medium.app_loss)
        {
            self.energy.record_rx(to, data.len());
            self.metrics.count_app_drop();
            self.emit(loss(LossCause::AppDrop));
            return;
        }
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
        self.with_node(to.index(), |n, ctx| n.on_packet(ctx, from, data));
        self.check_invariant(to);
    }

    /// Whether another known transmission destroys this reception.
    ///
    /// Same-cell interferers are always visible (they are thread-local
    /// and key-ordered); cross-cell interferers count only if their
    /// decision window is strictly before the delivery window — the
    /// same horizon at which their announcements arrive, at every shard
    /// count. Cross-cell interference decided *within* the delivery
    /// window is invisible by construction: a bounded approximation the
    /// sequential engine does not make (`DESIGN.md` §9).
    fn collided(&self, tx: &TxRec, to: NodeId, window: u64) -> bool {
        let to_cell = self.plan.cell[to.index()];
        self.txs.iter().any(|other| {
            other.id != tx.id
                && other.start < tx.end
                && other.end > tx.start
                && (other.from == to || self.plan.topology.in_range(other.from, to))
                && (self.plan.cell[other.from.index()] == to_cell || other.action_window < window)
        })
    }

    fn fault_blocks_delivery(&mut self, from: NodeId, to: NodeId) -> bool {
        match self.link_state.get(&(from.0, to.0)).copied() {
            Some(f) if !f.up => true,
            Some(f) if f.ppm < PPM_ONE => {
                let rng = self.rx_rngs[to.index()].as_mut().expect("local rx rng");
                !rng.gen_bool(f.ppm as f64 / PPM_ONE as f64)
            }
            _ => false,
        }
    }

    fn apply_fault(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::Crash { node, .. } => {
                let i = node.index();
                if self.failed[i] {
                    return;
                }
                self.failed[i] = true;
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
                self.pending_reboots[i] = self.pending_reboots[i].saturating_sub(1);
                if !self.failed[i] {
                    return;
                }
                self.failed[i] = false;
                for ((owner, _), gen) in self.timer_gens.iter_mut() {
                    if *owner == node.0 {
                        *gen += 1;
                    }
                }
                self.complete[i] = false;
                self.emit(TraceEvent::Note {
                    at: self.now,
                    node,
                    label: "fault_reboot",
                    a: 0,
                    b: 0,
                });
                self.with_node(i, |n, ctx| n.on_reboot(ctx));
            }
            FaultEvent::LinkDown { from, to, .. } => {
                self.link_state.entry((from.0, to.0)).or_default().up = false;
            }
            FaultEvent::LinkUp { from, to, .. } => {
                self.link_state.entry((from.0, to.0)).or_default().up = true;
            }
            FaultEvent::Degrade { from, to, ppm, .. } => {
                self.link_state.entry((from.0, to.0)).or_default().ppm = ppm;
            }
            FaultEvent::ClockDrift { node, ppm, .. } => {
                self.drift_ppm[node.index()] = ppm;
            }
        }
    }

    fn with_node(&mut self, i: usize, f: impl FnOnce(&mut P, &mut Context<'_>)) {
        let mut node = self.protocols[i].take().expect("re-entrant node callback");
        let mut actions = Vec::new();
        {
            let cfg = &self.plan.config.medium;
            let mut ctx = Context::new(
                self.now,
                NodeId(i as u32),
                self.rngs[i].as_mut().expect("local ctx rng"),
                &mut actions,
                cfg.us_per_byte,
                cfg.per_packet_overhead_us,
            );
            f(&mut node, &mut ctx);
        }
        if !self.complete[i] && node.is_complete() {
            self.complete[i] = true;
            self.metrics.record_completion(NodeId(i as u32), self.now);
            self.emit(TraceEvent::NodeComplete {
                at: self.now,
                node: NodeId(i as u32),
            });
        }
        self.protocols[i] = Some(node);
        for action in actions {
            self.apply_action(NodeId(i as u32), action);
        }
    }

    fn apply_action(&mut self, from: NodeId, action: Action) {
        match action {
            Action::Broadcast { kind, data } => self.broadcast(from, kind, data),
            Action::SetTimer { timer, delay } => {
                let ppm = self.drift_ppm[from.index()];
                let delay = if ppm == PPM_ONE {
                    delay
                } else {
                    Duration::from_micros(
                        (delay.as_micros() as u128 * ppm as u128 / PPM_ONE as u128) as u64,
                    )
                };
                let gen = self.timer_gens.entry((from.0, timer.0)).or_insert(0);
                *gen += 1;
                let at = self.now + delay;
                self.queue.push(Reverse(Keyed {
                    key: OrderKey::timer(at, from, timer, *gen),
                    event: SEvent::Timer {
                        node: from,
                        timer,
                        generation: *gen,
                    },
                }));
            }
            Action::CancelTimer { timer } => {
                *self.timer_gens.entry((from.0, timer.0)).or_insert(0) += 1;
            }
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

    /// Adds `rec` to the table of known transmissions.
    fn remember(&mut self, rec: TxRec) {
        self.longest_airtime = self.longest_airtime.max(rec.end - rec.start);
        self.txs.push(rec);
    }

    fn broadcast(&mut self, from: NodeId, kind: PacketKind, data: Vec<u8>) {
        let i = from.index();
        if self.failed[i] {
            return;
        }
        let medium = &self.plan.config.medium;
        self.metrics.count_tx(kind, data.len());
        self.energy.record_tx(from, data.len());
        let mut start = self.now.as_micros();
        if medium.csma {
            start = start.max(self.busy_until[i]);
            if medium.max_backoff_us > 0 {
                let rng = self.tx_rngs[i].as_mut().expect("local tx rng");
                start += rng.gen_range(0..=medium.max_backoff_us);
            }
        }
        let end = start + medium.airtime(data.len()).as_micros();
        let tx_id = ((from.0 as u64) << 32) | self.tx_counts[i];
        self.tx_counts[i] += 1;
        let action_window = self.now.as_micros() / self.plan.lookahead;
        let rec = TxRec {
            id: tx_id,
            from,
            start,
            end,
            action_window,
        };
        self.remember(rec);
        self.emit(TraceEvent::Tx {
            at: SimTime(start),
            from,
            kind,
            bytes: data.len(),
            tx_id,
        });
        // Same-cell hearers (always this shard) see the channel busy
        // immediately; cross-cell hearers learn at the next barrier via
        // the announcement, at every shard count.
        self.busy_until[i] = self.busy_until[i].max(end);
        let from_cell = self.plan.cell[i];
        let shared = Arc::new(data);
        for link in self.plan.topology.links_from(from) {
            let t = link.to.index();
            let same_cell = self.plan.cell[t] == from_cell;
            if same_cell {
                self.busy_until[t] = self.busy_until[t].max(end);
                self.queue.push(Reverse(Keyed {
                    key: OrderKey::deliver(SimTime(end), link.to, from, tx_id),
                    event: SEvent::Deliver {
                        to: link.to,
                        from,
                        data: Arc::clone(&shared),
                        kind,
                        tx_id,
                    },
                }));
            } else {
                let target = self.plan.assign[t] as usize;
                if target == self.sid as usize {
                    // Same shard, different cell: the delivery can go
                    // straight into the local queue (it lands in a later
                    // window regardless), but CSMA/collision visibility
                    // still flows through the announcement path below.
                    self.queue.push(Reverse(Keyed {
                        key: OrderKey::deliver(SimTime(end), link.to, from, tx_id),
                        event: SEvent::Deliver {
                            to: link.to,
                            from,
                            data: Arc::clone(&shared),
                            kind,
                            tx_id,
                        },
                    }));
                } else {
                    self.outbox.push((
                        target,
                        Inbound::Deliver {
                            at: end,
                            to: link.to,
                            from,
                            data: Arc::clone(&shared),
                            kind,
                            tx_id,
                        },
                    ));
                }
            }
        }
        let mut mask = self.plan.announce_mask[i];
        while mask != 0 {
            let target = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.outbox.push((target, Inbound::Announce(rec)));
        }
    }

    fn drain_inbox(&mut self, shared: &Shared) {
        let items = std::mem::take(&mut *lock_tolerant(&shared.inboxes[self.sid as usize]));
        for item in items {
            match item {
                Inbound::Deliver {
                    at,
                    to,
                    from,
                    data,
                    kind,
                    tx_id,
                } => {
                    self.queue.push(Reverse(Keyed {
                        key: OrderKey::deliver(SimTime(at), to, from, tx_id),
                        event: SEvent::Deliver {
                            to,
                            from,
                            data,
                            kind,
                            tx_id,
                        },
                    }));
                }
                Inbound::Announce(rec) => {
                    // Deferred cross-cell CSMA visibility; applies to
                    // local hearers whether or not the sender shares
                    // this shard (self-announces reach here too).
                    let from_cell = self.plan.cell[rec.from.index()];
                    for link in self.plan.topology.links_from(rec.from) {
                        let t = link.to.index();
                        if self.local[t] && self.plan.cell[t] != from_cell {
                            self.busy_until[t] = self.busy_until[t].max(rec.end);
                        }
                    }
                    // Local senders' records are already in the table.
                    if self.plan.assign[rec.from.index()] != self.sid {
                        self.remember(rec);
                    }
                }
            }
        }
    }

    fn check_invariant(&mut self, node: NodeId) {
        if self.violation.is_some() {
            return;
        }
        let Some(check) = self.invariant.as_ref() else {
            return;
        };
        if let Some(p) = self.protocols[node.index()].as_ref() {
            if let Err(violation) = check(p, node) {
                self.violation = Some((
                    self.cur_key,
                    ViolationRecord {
                        at: self.now,
                        node,
                        violation,
                    },
                ));
            }
        }
    }

    fn status(&self) -> Status {
        let satisfied = (0..self.local.len())
            .filter(|&i| self.local[i])
            .all(|i| self.complete[i] || (self.failed[i] && self.pending_reboots[i] == 0));
        let progress: u128 = self
            .protocols
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.local[i] && !self.failed[i])
            .filter_map(|(_, p)| p.as_ref())
            .map(|p| p.progress() as u128)
            .sum();
        Status {
            next: self.queue.peek().map(|Reverse(k)| k.key),
            satisfied,
            progress,
            max_processed: self.max_processed,
            violation: self.violation.clone(),
        }
    }

    /// Shard 0 only: merge all statuses into the next [`Control`].
    fn coordinate(&mut self, shared: &Shared) -> Control {
        let statuses: Vec<Status> = shared
            .statuses
            .iter()
            .map(|s| lock_tolerant(s).clone())
            .collect();
        for s in &statuses {
            self.global_max = self.global_max.max(s.max_processed);
        }
        let final_time = SimTime(self.global_max);
        // A recorded panic preempts every other verdict: zombie shards
        // report themselves satisfied to keep the barriers moving, so
        // without this check a panic could masquerade as Complete.
        if let Some(reason) = lock_tolerant(&shared.panic).clone() {
            return Control::Stop {
                outcome: Outcome::WorkerPanicked,
                final_time,
                violation: None,
                reason: Some(reason),
            };
        }
        if let Some((_, record)) = statuses
            .iter()
            .filter_map(|s| s.violation.as_ref())
            .min_by_key(|(key, _)| *key)
        {
            return Control::Stop {
                outcome: Outcome::InvariantViolated,
                final_time,
                reason: Some(record.to_string()),
                violation: Some(record.clone()),
            };
        }
        if statuses.iter().all(|s| s.satisfied) {
            return Control::Stop {
                outcome: Outcome::Complete,
                final_time,
                violation: None,
                reason: None,
            };
        }
        let Some(min) = statuses.iter().filter_map(|s| s.next).min() else {
            return Control::Stop {
                outcome: Outcome::Drained,
                final_time,
                violation: None,
                reason: None,
            };
        };
        if min.at > self.plan.deadline {
            return Control::Stop {
                outcome: Outcome::TimedOut,
                final_time: SimTime(self.plan.deadline),
                violation: None,
                reason: None,
            };
        }
        if let Some(window) = self.plan.config.stall_window {
            let progress: u128 = statuses.iter().map(|s| s.progress).sum();
            if progress > self.watch_progress {
                self.watch_progress = progress;
                self.watch_since = self.global_max;
            } else if self.global_max.saturating_sub(self.watch_since) >= window.as_micros() {
                return Control::Stop {
                    outcome: Outcome::Stalled,
                    final_time,
                    violation: None,
                    reason: Some(format!(
                        "stall: no goodput progress within the {:.0}s watchdog window",
                        window.as_secs_f64()
                    )),
                };
            }
        }
        Control::Continue {
            window: min.at / self.plan.lookahead,
        }
    }

    /// After the stop verdict: harvest local nodes and, when the
    /// outcome carries a diagnostic dump, snapshot local state.
    fn finish<R, H>(mut self, shared: &Shared, harvest: &H) -> WorkerOut<R>
    where
        H: Fn(NodeId, &P) -> R,
    {
        let control = lock_tolerant(&shared.control).clone();
        let needs_dump = matches!(
            control,
            Control::Stop {
                outcome: Outcome::Stalled | Outcome::InvariantViolated | Outcome::WorkerPanicked,
                ..
            }
        );
        let mut harvested = Vec::new();
        let mut diags = Vec::new();
        for i in 0..self.local.len() {
            if !self.local[i] {
                continue;
            }
            // A panic inside `with_node` leaves that node's slot taken;
            // harvest what survives.
            let Some(p) = self.protocols[i].as_ref() else {
                continue;
            };
            harvested.push((i as u32, harvest(NodeId(i as u32), p)));
            if needs_dump {
                diags.push(NodeDiag {
                    node: NodeId(i as u32),
                    complete: self.complete[i],
                    failed: self.failed[i],
                    progress: p.progress(),
                    detail: p.diagnostic(),
                });
            }
        }
        let pending_timers = if needs_dump {
            self.queue
                .iter()
                .filter(|Reverse(k)| match &k.event {
                    SEvent::Timer {
                        node,
                        timer,
                        generation,
                    } => {
                        !self.failed[node.index()]
                            && *generation
                                == self
                                    .timer_gens
                                    .get(&(node.0, timer.0))
                                    .copied()
                                    .unwrap_or(0)
                    }
                    _ => false,
                })
                .count()
        } else {
            0
        };
        WorkerOut {
            metrics: self.metrics,
            energy: self.energy,
            trace_full: std::mem::take(&mut self.trace_full),
            trace_ring: self.trace_ring.into_iter().collect(),
            harvest: harvested,
            diags,
            queue_len: self.queue.len(),
            pending_timers,
        }
    }

    fn emit(&mut self, event: TraceEvent) {
        let keyed = (self.cur_key, self.emit_seq, event);
        self.emit_seq += 1;
        if self.plan.config.diag_events > 0 {
            if self.trace_ring.len() == self.plan.config.diag_events {
                self.trace_ring.pop_front();
            }
            self.trace_ring.push_back(keyed.clone());
        }
        if self.plan.collect {
            self.trace_full.push(keyed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TimerId;

    struct Null;
    impl Protocol for Null {
        fn on_init(&mut self, _ctx: &mut Context<'_>) {}
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _data: &[u8]) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: TimerId) {}
        fn is_complete(&self) -> bool {
            false
        }
    }

    /// Regression for the `expect("delivery for pruned transmission")`
    /// panic: a delivery whose `TxRec` is no longer in the table (a
    /// fault plan pruned it while the delivery was queued across a
    /// shard boundary) must drop with a structured `Pruned` loss event,
    /// not kill the worker.
    #[test]
    fn delivery_for_pruned_transmission_is_dropped_not_panicked() {
        let topology = Topology::star(2);
        let plan = Plan {
            topology: &topology,
            config: SimConfig::default(),
            seed: 1,
            assign: vec![0, 0],
            cell: vec![0, 0],
            announce_mask: vec![0, 0],
            faults: Vec::new(),
            lookahead: 2_000,
            deadline: 1_000_000,
            collect: true,
        };
        let make = |_: NodeId| Null;
        let mut worker = Worker::new(&plan, 0, &make, None);
        worker.now = SimTime(42);
        worker.cur_key = OrderKey::deliver(SimTime(42), NodeId(1), NodeId(0), 999);
        let losses_before = worker.metrics.phy_losses();
        worker.deliver(
            0,
            NodeId(1),
            NodeId(0),
            &Arc::new(vec![1, 2, 3]),
            PacketKind::Data,
            999,
        );
        assert_eq!(worker.metrics.phy_losses(), losses_before + 1);
        assert!(worker.trace_full.iter().any(|(_, _, event)| matches!(
            event,
            TraceEvent::Loss {
                cause: LossCause::Pruned,
                tx_id: 999,
                ..
            }
        )));
    }

    #[test]
    fn panic_message_extracts_str_and_string_payloads() {
        let from_str: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(&*from_str), "boom");
        let from_string: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(&*from_string), "kaboom");
        let opaque: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(&*opaque), "non-string panic payload");
    }
}
