//! Fluent simulation construction.
//!
//! [`SimBuilder`] replaced the retired positional `Simulator::new`
//! constructor plus the post-hoc `set_trace` / `set_invariant_checker` /
//! `inject_faults` mutation dance with one chainable entry point:
//!
//! ```
//! use lrs_netsim::{SimBuilder, Topology, FaultPlan};
//! # use lrs_netsim::{node::*, time::*};
//! # struct Quiet;
//! # impl Protocol for Quiet {
//! #     fn on_init(&mut self, _: &mut Context<'_>) {}
//! #     fn on_packet(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
//! #     fn on_timer(&mut self, _: &mut Context<'_>, _: TimerId) {}
//! #     fn is_complete(&self) -> bool { true }
//! # }
//! let mut sim = SimBuilder::new(Topology::star(4), 42, |_| Quiet)
//!     .faults(FaultPlan::new())
//!     .build();
//! let report = sim.run(Duration::from_secs(60));
//! assert!(report.all_complete);
//! ```
//!
//! Two terminal operations exist:
//!
//! * [`SimBuilder::build`] constructs the classic sequential
//!   [`Simulator`]. This is the bit-compatibility anchor: its event
//!   ordering (and therefore every golden file) is exactly the
//!   pre-builder engine's.
//! * [`SimBuilder::run_sharded`] runs the conservatively-synchronized
//!   parallel engine in [`crate::shard`] with the configured
//!   [`shards`](SimBuilder::shards) worker threads. Its results are
//!   identical at every shard count for a fixed seed (including 1), but
//!   intentionally *not* bit-identical to the sequential engine, whose
//!   single global RNG cannot be partitioned — see `DESIGN.md` §9.

use crate::capsule::CapsuleSpec;
use crate::fault::FaultPlan;
use crate::node::{NodeId, Protocol};
use crate::shard::{self, ShardedRun};
use crate::sim::{SimConfig, Simulator};
use crate::time::Duration;
use crate::topology::Topology;
use crate::trace::TraceSink;
use crate::violation::InvariantViolation;
use std::path::PathBuf;
use std::sync::Arc;

/// The most spatial shards (worker threads) a sharded run may use.
pub const MAX_SHARDS: usize = 64;

/// A shareable per-delivery invariant check, callable from any shard.
pub type SharedInvariant<P> =
    Arc<dyn Fn(&P, NodeId) -> Result<(), InvariantViolation> + Send + Sync>;

/// Fluent constructor for sequential and sharded simulations.
pub struct SimBuilder<P, F> {
    pub(crate) topology: Topology,
    pub(crate) seed: u64,
    pub(crate) make_node: F,
    pub(crate) config: SimConfig,
    pub(crate) trace: Option<Box<dyn TraceSink>>,
    pub(crate) invariant: Option<SharedInvariant<P>>,
    pub(crate) faults: FaultPlan,
    pub(crate) shards: usize,
    pub(crate) collect_trace: bool,
    pub(crate) capsule_path: Option<PathBuf>,
    pub(crate) scenario: Vec<(String, String)>,
}

impl<P, F> SimBuilder<P, F> {
    /// Starts a builder over `topology`; `make_node` constructs the
    /// protocol instance for each node id.
    pub fn new(topology: Topology, seed: u64, make_node: F) -> Self {
        SimBuilder {
            topology,
            seed,
            make_node,
            config: SimConfig::default(),
            trace: None,
            invariant: None,
            faults: FaultPlan::new(),
            shards: 1,
            collect_trace: false,
            capsule_path: None,
            scenario: Vec::new(),
        }
    }

    /// Replaces the whole [`SimConfig`] (medium, watchdog, time limits).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a structured-event sink. Sinks observe the run; they
    /// can never alter it. Under [`run_sharded`](Self::run_sharded) the
    /// sink receives the merged event stream, in deterministic global
    /// order, after the run finishes.
    pub fn trace(mut self, sink: impl TraceSink + 'static) -> Self {
        self.trace = Some(Box::new(sink));
        self
    }

    /// Attaches a per-delivery invariant check: called with the
    /// receiving node's state after every accepted packet; the first
    /// `Err` aborts the run with
    /// [`Outcome::InvariantViolated`](crate::sim::Outcome::InvariantViolated).
    pub fn invariants(
        mut self,
        check: impl Fn(&P, NodeId) -> Result<(), InvariantViolation> + Send + Sync + 'static,
    ) -> Self {
        self.invariant = Some(Arc::new(check));
        self
    }

    /// Injects a fault plan, applied as virtual time passes.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the shard count for [`run_sharded`](Self::run_sharded)
    /// (1–64 spatial shards, each with its own worker thread).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0 or exceeds 64.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count must be in 1..={MAX_SHARDS}, got {shards}"
        );
        self.shards = shards;
        self
    }

    /// Makes [`run_sharded`](Self::run_sharded) return the full merged
    /// trace in [`ShardedRun::trace`] even without a sink attached.
    pub fn collect_trace(mut self, collect: bool) -> Self {
        self.collect_trace = collect;
        self
    }

    /// Arms the flight recorder: if the run ends in a diagnostic
    /// outcome (stall, invariant violation, worker panic), a replay
    /// [`Capsule`](crate::capsule::Capsule) is written to `path` —
    /// framed binary when the extension is `lrsc`/`bin`, JSONL
    /// otherwise. See `crate::replay` for loading and re-running it.
    pub fn capsule_on_failure(mut self, path: impl Into<PathBuf>) -> Self {
        self.capsule_path = Some(path.into());
        self
    }

    /// Tags the capsule with a free-form scenario key/value pair (for
    /// example the scheme name and image length a replay harness needs
    /// to reconstruct `make_node`). No effect unless
    /// [`capsule_on_failure`](Self::capsule_on_failure) is also set.
    pub fn scenario(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.scenario.push((key.into(), value.to_string()));
        self
    }

    /// Snapshots the configured (not yet run) simulation as a replay
    /// [`Capsule`](crate::capsule::Capsule) with the given deadline: the
    /// exact seed, config, topology, fault schedule, and scenario tags
    /// this builder would execute, with no digests recorded. The engine
    /// field follows the shard count — [`SHARDED_ENGINE`] above one
    /// shard, [`SEQUENTIAL_ENGINE`] otherwise.
    ///
    /// This is how a job queue turns *any* pending job into a bit-exact
    /// reproducer before it runs, not only after it fails.
    ///
    /// [`SEQUENTIAL_ENGINE`]: crate::capsule::SEQUENTIAL_ENGINE
    /// [`SHARDED_ENGINE`]: crate::capsule::SHARDED_ENGINE
    pub fn capsule(&self, deadline: Duration) -> crate::capsule::Capsule {
        let engine = if self.shards > 1 {
            crate::capsule::SHARDED_ENGINE
        } else {
            crate::capsule::SEQUENTIAL_ENGINE
        };
        crate::capsule::Capsule {
            seed: self.seed,
            engine: engine.to_string(),
            shards: self.shards,
            deadline,
            config: self.config,
            topology: self.topology.clone(),
            faults: self.faults.clone(),
            scenario: self.scenario.clone(),
            digests: Vec::new(),
        }
    }
}

impl<P: Protocol + 'static, F: FnMut(NodeId) -> P> SimBuilder<P, F> {
    /// Builds the classic sequential [`Simulator`] — bit-identical to
    /// the pre-builder engine; all golden files pin this path.
    ///
    /// # Panics
    ///
    /// Panics if [`shards`](Self::shards) was set above 1: the
    /// sequential engine cannot honor a shard count, use
    /// [`run_sharded`](Self::run_sharded) instead.
    pub fn build(self) -> Simulator<P> {
        assert!(
            self.shards <= 1,
            "SimBuilder::build constructs the sequential engine; \
             use run_sharded for shard counts above 1"
        );
        let mut sim = Simulator::from_parts(self.topology, self.config, self.seed, self.make_node);
        if let Some(sink) = self.trace {
            sim.set_trace(sink);
        }
        if let Some(check) = self.invariant {
            sim.set_invariant_checker(Box::new(move |p, id| check(p, id)));
        }
        if !self.faults.is_empty() {
            sim.inject_faults(&self.faults);
        }
        if let Some(path) = self.capsule_path {
            sim.set_capsule_on_failure(CapsuleSpec {
                path,
                scenario: self.scenario,
            });
        }
        sim
    }
}

impl<P, F> SimBuilder<P, F>
where
    P: Protocol,
    F: Fn(NodeId) -> P + Sync,
{
    /// Runs the sharded parallel engine to completion and returns the
    /// merged results. `harvest` extracts whatever per-node state the
    /// caller needs (final image bytes, counters, …) before the
    /// protocol instances are dropped inside their worker threads.
    ///
    /// For a fixed seed the outcome, metrics, energy, trace order, and
    /// harvest are identical at every shard count.
    pub fn run_sharded<R, H>(self, deadline: Duration, harvest: H) -> ShardedRun<R>
    where
        R: Send,
        H: Fn(NodeId, &P) -> R + Sync,
    {
        shard::run(self, deadline, harvest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Context, PacketKind, TimerId};
    use crate::time::SimTime;

    struct Beacon {
        heard: bool,
    }
    impl Protocol for Beacon {
        fn on_init(&mut self, ctx: &mut Context<'_>) {
            if ctx.id == NodeId(0) {
                self.heard = true;
                ctx.broadcast(PacketKind::Adv, vec![1, 2, 3]);
            }
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {
            self.heard = true;
        }
        fn on_timer(&mut self, _: &mut Context<'_>, _: TimerId) {}
        fn is_complete(&self) -> bool {
            self.heard
        }
    }

    #[test]
    fn builder_wires_faults_and_invariants() {
        let mut plan = FaultPlan::new();
        plan.crash(NodeId(2), SimTime(1));
        let mut sim = SimBuilder::new(Topology::star(3), 5, |_| Beacon { heard: false })
            .faults(plan)
            .invariants(|_, _| Ok(()))
            .build();
        let report = sim.run(Duration::from_secs(10));
        // Node 2 crashed before the beacon arrived; a permanent casualty
        // does not gate completion.
        assert!(report.all_complete);
        assert!(sim.is_failed(NodeId(2)));
        assert!(sim.invariant_violation().is_none());
    }

    #[test]
    fn capsule_snapshots_the_configured_run() {
        let mut plan = FaultPlan::new();
        plan.crash(NodeId(1), SimTime(7));
        let builder: SimBuilder<Beacon, _> =
            SimBuilder::new(Topology::star(3), 99, |_: NodeId| Beacon { heard: false })
                .faults(plan.clone())
                .scenario("scheme", "lr-seluge");
        let capsule = builder.capsule(Duration::from_secs(30));
        assert_eq!(capsule.seed, 99);
        assert_eq!(capsule.engine, crate::capsule::SEQUENTIAL_ENGINE);
        assert_eq!(capsule.shards, 1);
        assert_eq!(capsule.deadline, Duration::from_secs(30));
        assert_eq!(capsule.faults, plan);
        assert_eq!(
            capsule.scenario,
            vec![("scheme".to_string(), "lr-seluge".to_string())]
        );
        assert!(capsule.digests.is_empty());
        // The snapshot is engine-aware: above one shard it records the
        // sharded engine.
        let sharded = SimBuilder::<Beacon, _>::new(Topology::star(3), 99, |_: NodeId| Beacon {
            heard: false,
        })
        .shards(4)
        .capsule(Duration::from_secs(30));
        assert_eq!(sharded.engine, crate::capsule::SHARDED_ENGINE);
        assert_eq!(sharded.shards, 4);
    }

    #[test]
    fn default_build_matches_explicit_default_config() {
        // Successor of the retired `Simulator::new` equivalence test:
        // the builder's implicit defaults and an explicitly supplied
        // `SimConfig::default()` must construct identical simulators.
        let implicit = SimBuilder::new(Topology::star(4), 7, |_| Beacon { heard: false })
            .build()
            .run(Duration::from_secs(60));
        let explicit = SimBuilder::new(Topology::star(4), 7, |_| Beacon { heard: false })
            .config(SimConfig::default())
            .build()
            .run(Duration::from_secs(60));
        assert_eq!(implicit.final_time, explicit.final_time);
        assert_eq!(implicit.latency, explicit.latency);
        assert!(implicit.all_complete && explicit.all_complete);
    }

    #[test]
    #[should_panic(expected = "run_sharded")]
    fn build_rejects_multi_shard() {
        let _ = SimBuilder::new(Topology::star(2), 0, |_| Beacon { heard: false })
            .shards(2)
            .build();
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_rejected() {
        let _: SimBuilder<Beacon, _> =
            SimBuilder::new(Topology::star(2), 0, |_: NodeId| Beacon { heard: false }).shards(0);
    }
}
