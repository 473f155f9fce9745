//! Fluent simulation construction.
//!
//! [`SimBuilder`] is the one way to configure a run: topology, seed,
//! config, trace sink, invariant checker and fault plan are all fixed
//! before the [`Simulator`] exists, which has no setters.
//!
//! ```
//! use lrs_netsim::{SimBuilder, Topology, FaultPlan};
//! # use lrs_host::{node::*, time::*};
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

use crate::fault::FaultPlan;
use crate::sim::{InvariantChecker, RunReport, SimConfig, Simulator};
use crate::topology::Topology;
use crate::trace::TraceSink;
use lrs_host::node::{NodeId, Protocol};
use lrs_host::time::Duration;
use lrs_host::violation::InvariantViolation;

/// Fluent constructor for simulations; `Simulator::from_parts` takes its
/// fields as they are.
pub struct SimBuilder<P, F> {
    pub(crate) topology: Topology,
    pub(crate) seed: u64,
    pub(crate) make_node: F,
    pub(crate) config: SimConfig,
    pub(crate) trace: Option<Box<dyn TraceSink>>,
    pub(crate) invariant: Option<InvariantChecker<P>>,
    pub(crate) faults: FaultPlan,
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
        }
    }

    /// Replaces the whole [`SimConfig`] (medium and watchdog).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a structured-event sink. Sinks observe the run; they
    /// can never alter it.
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
        check: impl FnMut(&P, NodeId) -> Result<(), InvariantViolation> + 'static,
    ) -> Self {
        self.invariant = Some(Box::new(check));
        self
    }

    /// Injects a fault plan, applied in its (time-sorted) order as
    /// virtual time passes.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }
}

impl<P: Protocol + 'static, F: FnMut(NodeId) -> P> SimBuilder<P, F> {
    /// Builds the [`Simulator`]; all golden files pin this path.
    pub fn build(self) -> Simulator<P> {
        Simulator::from_parts(self)
    }

    // The next three items are the removed sharded engine's call shape,
    // kept only because `benchmark/src/workloads/sim.rs` still calls
    // `.shards(2).run_sharded(..)` and `benchmark/` changes in its own
    // PR. The `benchmark/` refresh (ROADMAP item 1) deletes them.
    #[doc(hidden)]
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    #[doc(hidden)]
    pub fn run_sharded<R>(
        self,
        deadline: Duration,
        harvest: impl Fn(NodeId, &P) -> R,
    ) -> HarvestedRun<R> {
        let mut sim = self.build();
        let report = sim.run(deadline);
        let nodes = (0..sim.topology().len() as u32).map(NodeId);
        let harvest = nodes.map(|id| harvest(id, sim.node(id))).collect();
        HarvestedRun { report, harvest }
    }
}

#[doc(hidden)]
pub struct HarvestedRun<R> {
    pub report: RunReport,
    pub harvest: Vec<R>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_host::node::{Context, PacketKind, TimerId};
    use lrs_host::time::SimTime;

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
        assert!(report.violation.is_none());
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
}
