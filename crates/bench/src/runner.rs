//! Shared experiment runners for all figures and tables.

use crate::capsules::{Member, Population};
use lr_seluge::{LrScheme, LrSelugeParams};
use lrs_deluge::bootstrap::PacketDigestCache;
use lrs_deluge::deployment::{Deployment, Node, SchemeFamily};
use lrs_deluge::engine::DisseminationNode;
use lrs_deluge::image::{DelugeScheme, ImageParams};
use lrs_deluge::policy::TxPolicy;
use lrs_host::node::{NodeId, PacketKind};
use lrs_host::time::Duration;
use lrs_netsim::capsule::{Capsule, RunDigest};
use lrs_netsim::energy::EnergyModel;
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::metrics::Metrics;
use lrs_netsim::sim::{RunReport, SimConfig, Simulator};
use lrs_netsim::topology::Topology;
use lrs_netsim::trace::{TraceEvent, TraceSink};
use lrs_netsim::SimBuilder;
use lrs_seluge::{SelugeParams, SelugeScheme};

/// The metrics the paper reports, per run (or averaged over seeds).
///
/// `PartialEq` is exact (bitwise on the floats): the determinism tests
/// assert that a given seed produces the *identical* metrics regardless
/// of thread count, not merely close ones.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExperimentMetrics {
    /// Code-page data packets (excludes hash-page and signature packets).
    pub page_data_pkts: f64,
    /// All data-bearing packets (pages + hash page + signature).
    pub data_pkts: f64,
    /// SNACK packets.
    pub snack_pkts: f64,
    /// Advertisement packets.
    pub adv_pkts: f64,
    /// Total communication cost in bytes across all packet kinds.
    pub total_bytes: f64,
    /// Dissemination latency in seconds (time the last node completed).
    pub latency_s: f64,
    /// Fraction of runs in which every node completed.
    pub completed: f64,
    /// Network-wide signature verifications.
    pub sig_verifications: f64,
    /// Network-wide authentication rejections (data + control).
    pub auth_rejects: f64,
    /// Fraction of honest nodes that hold the origin image — the
    /// graceful-degradation outcome, meaningful even when `completed`
    /// is 0, and below 1 for a scheme that commits forged bytes.
    pub completion_frac: f64,
    /// Mean verification operations (hashes + puzzle checks + signature
    /// verifications) per node. Under a flood this quantifies how much
    /// extra checking the adversary extracted from each victim.
    pub verify_inflation: f64,
    /// Total radio energy across all nodes in joules (default
    /// CC1000-class model) — the adversary's energy-drain yield.
    pub energy_j: f64,
}

impl ExperimentMetrics {
    /// Stable metric names, in reporting order. These are the CSV/JSON
    /// column keys; renaming one is a result-schema change.
    pub const NAMES: [&'static str; 12] = [
        "page_data_pkts",
        "data_pkts",
        "snack_pkts",
        "adv_pkts",
        "total_bytes",
        "latency_s",
        "completed",
        "sig_verifications",
        "auth_rejects",
        "completion_frac",
        "verify_inflation",
        "energy_j",
    ];

    /// The metrics as `(name, value)` pairs, in [`Self::NAMES`] order.
    pub fn named(&self) -> [(&'static str, f64); 12] {
        [
            ("page_data_pkts", self.page_data_pkts),
            ("data_pkts", self.data_pkts),
            ("snack_pkts", self.snack_pkts),
            ("adv_pkts", self.adv_pkts),
            ("total_bytes", self.total_bytes),
            ("latency_s", self.latency_s),
            ("completed", self.completed),
            ("sig_verifications", self.sig_verifications),
            ("auth_rejects", self.auth_rejects),
            ("completion_frac", self.completion_frac),
            ("verify_inflation", self.verify_inflation),
            ("energy_j", self.energy_j),
        ]
    }

    /// Value of the metric called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of [`Self::NAMES`].
    pub fn get(&self, name: &str) -> f64 {
        self.named()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("unknown metric {name:?}"))
    }

    /// The one metrics extractor: network counters from the engine,
    /// per-node observables over the honest population only (with no
    /// attacker that is every node).
    fn extract(report: &RunReport, m: &Metrics, energy_j: f64, honest: &HonestTotals) -> Self {
        ExperimentMetrics {
            page_data_pkts: m.tx_packets(PacketKind::Data) as f64,
            data_pkts: (m.tx_packets(PacketKind::Data)
                + m.tx_packets(PacketKind::HashPage)
                + m.tx_packets(PacketKind::Signature)) as f64,
            snack_pkts: m.tx_packets(PacketKind::Snack) as f64,
            adv_pkts: m.tx_packets(PacketKind::Adv) as f64,
            total_bytes: m.total_tx_bytes() as f64,
            latency_s: report.latency.map(|t| t.as_secs_f64()).unwrap_or(f64::NAN),
            completed: if report.all_complete { 1.0 } else { 0.0 },
            sig_verifications: honest.sig,
            auth_rejects: honest.rejects,
            completion_frac: honest.complete / honest.nodes,
            verify_inflation: honest.verify_ops / honest.nodes,
            energy_j,
        }
    }

    fn add(&mut self, other: &ExperimentMetrics) {
        self.page_data_pkts += other.page_data_pkts;
        self.data_pkts += other.data_pkts;
        self.snack_pkts += other.snack_pkts;
        self.adv_pkts += other.adv_pkts;
        self.total_bytes += other.total_bytes;
        self.latency_s += other.latency_s;
        self.completed += other.completed;
        self.sig_verifications += other.sig_verifications;
        self.auth_rejects += other.auth_rejects;
        self.completion_frac += other.completion_frac;
        self.verify_inflation += other.verify_inflation;
        self.energy_j += other.energy_j;
    }

    fn scale(&mut self, f: f64) {
        self.page_data_pkts *= f;
        self.data_pkts *= f;
        self.snack_pkts *= f;
        self.adv_pkts *= f;
        self.total_bytes *= f;
        self.latency_s *= f;
        self.completed *= f;
        self.sig_verifications *= f;
        self.auth_rejects *= f;
        self.completion_frac *= f;
        self.verify_inflation *= f;
        self.energy_j *= f;
    }
}

/// Everything describing one simulation run.
#[derive(Clone)]
pub struct RunSpec {
    /// Network topology (node 0 is the base station).
    pub topology: Topology,
    /// Radio/loss configuration.
    pub medium: MediumConfig,
    /// Virtual-time budget before declaring the run stalled.
    pub deadline: Duration,
}

impl RunSpec {
    /// A one-hop star of `n_receivers` + base with app-layer loss `p`
    /// (§VI-A: perfect PHY, i.i.d. app-layer drops).
    pub fn one_hop(n_receivers: usize, p: f64) -> Self {
        RunSpec {
            topology: Topology::star(n_receivers + 1),
            medium: MediumConfig {
                app_loss: p,
                ..MediumConfig::default()
            },
            deadline: Duration::from_secs(100_000),
        }
    }

    /// The run this spec describes under `seed`: a fault-free capsule
    /// with no scenario tags and no digest.
    pub fn capsule(&self, seed: u64) -> Capsule {
        Capsule {
            seed,
            deadline: self.deadline,
            config: SimConfig {
                medium: self.medium,
                ..SimConfig::default()
            },
            topology: self.topology.clone(),
            faults: FaultPlan::new(),
            scenario: Vec::new(),
            digest: None,
        }
    }
}

/// Deterministic pseudo-random image bytes.
pub fn test_image(len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| {
            let mut z = i.wrapping_mul(0x9e3779b97f4a7c15) ^ 0x1234_5678;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            (z >> 32) as u8
        })
        .collect()
}

/// Per-node observables summed over the honest population: signature
/// verifications, authentication rejections, verification operations
/// (hashes + puzzle checks + signature verifications) and nodes holding
/// the origin image. Attackers are excluded: degradation is measured
/// over honest nodes.
#[derive(Clone, Copy, Debug, Default)]
struct HonestTotals {
    nodes: f64,
    sig: f64,
    rejects: f64,
    verify_ops: f64,
    complete: f64,
}

impl HonestTotals {
    /// One honest node's contribution, against the origin `image`.
    fn of<S: SchemeFamily, P: TxPolicy>(node: &DisseminationNode<S, P>, image: &[u8]) -> Self {
        let cost = node.scheme().cost();
        let st = node.stats();
        HonestTotals {
            nodes: 1.0,
            sig: cost.signature_verifications as f64,
            rejects: (st.auth_rejects + st.mac_rejects) as f64,
            verify_ops: (cost.hashes + cost.puzzle_checks + cost.signature_verifications) as f64,
            complete: if node.scheme().image().as_deref() == Some(image) {
                1.0
            } else {
                0.0
            },
        }
    }
}

impl std::iter::Sum for HonestTotals {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(HonestTotals::default(), |a, b| HonestTotals {
            nodes: a.nodes + b.nodes,
            sig: a.sig + b.sig,
            rejects: a.rejects + b.rejects,
            verify_ops: a.verify_ops + b.verify_ops,
            complete: a.complete + b.complete,
        })
    }
}

/// A finished run, nodes still inspectable.
pub struct Finished<S: SchemeFamily> {
    /// The simulator after the run.
    pub sim: Simulator<Member<S>>,
    /// The engine's report.
    pub report: RunReport,
    deployment: Deployment<S>,
}

impl<S: SchemeFamily> Finished<S> {
    /// The honest nodes, in id order.
    pub fn honest(&self) -> impl Iterator<Item = (NodeId, &Node<S>)> {
        (0..self.sim.topology().len() as u32)
            .map(NodeId)
            .filter_map(|id| Some((id, self.sim.node(id).honest()?)))
    }

    /// End-of-run sweep: honest nodes whose invariants do not hold. The
    /// per-delivery checker sees every accepted packet; this catches
    /// anything corrupted after the last one.
    pub fn violations(&self) -> usize {
        self.honest()
            .filter(|(_, node)| self.deployment.verify(node.scheme()).is_err())
            .count()
    }

    /// Whole-network radio energy under the default CC1000 model (J).
    pub fn energy_j(&self) -> f64 {
        self.sim.energy().total_joules(&EnergyModel::default())
    }

    /// The paper's metrics for this run.
    pub fn metrics(&self) -> ExperimentMetrics {
        let image = self.deployment.image();
        let honest = self
            .honest()
            .map(|(_, node)| HonestTotals::of(node, image))
            .sum();
        ExperimentMetrics::extract(&self.report, self.sim.metrics(), self.energy_j(), &honest)
    }

    /// The failure dump: if the run ended diagnostically (stalled,
    /// invariant violated), `ran` — the capsule it ran — with the run's
    /// digest recorded. The trace was not collected, so the digest
    /// covers outcome, final time and metrics, and replay verification
    /// skips the trace hash.
    pub fn failure_capsule(&self, ran: &Capsule) -> Option<Capsule> {
        let (outcome, at) = (self.report.outcome, self.report.final_time);
        outcome.is_diagnostic().then(|| Capsule {
            digest: Some(RunDigest::metrics_only(outcome, at, self.sim.metrics())),
            ..ran.clone()
        })
    }
}

/// Runs `pop` as `capsule` describes (its scenario tags and digest are
/// not read), with the population's per-delivery invariant checker
/// armed when `check_deliveries` is set and every event teed into
/// `sinks` (with none, no trace is attached).
///
/// One digest memo per run: a broadcast hashed by one receiver is
/// served from memory at the others (per-node `hashes` counters are
/// unaffected; hits land in `memoized_hashes`). The base-station
/// artifacts enumerate every predetermined packet, so the memo is
/// warmed up front in multi-buffer batches instead of filling
/// packet-by-packet on first reception.
pub fn simulate<S: SchemeFamily>(
    pop: &Population<S>,
    capsule: &Capsule,
    check_deliveries: bool,
    sinks: Vec<Box<dyn TraceSink>>,
) -> Finished<S> {
    let digests = PacketDigestCache::default();
    pop.deployment().warm_digest_cache(&digests);
    let mut builder = SimBuilder::new(capsule.topology.clone(), capsule.seed, |id| {
        pop.node(id, &digests)
    })
    .config(capsule.config)
    .faults(capsule.faults.clone());
    if check_deliveries {
        builder = builder.invariants(pop.checker());
    }
    if !sinks.is_empty() {
        builder = builder.trace(Tee(sinks));
    }
    let mut sim = builder.build();
    let report = sim.run(capsule.deadline);
    Finished {
        sim,
        report,
        deployment: pop.deployment().clone(),
    }
}

/// Fans every trace event out to each sink in turn.
struct Tee(Vec<Box<dyn TraceSink>>);

impl TraceSink for Tee {
    fn record(&mut self, event: &TraceEvent) {
        self.0.iter_mut().for_each(|sink| sink.record(event));
    }

    fn flush(&mut self) {
        self.0.iter_mut().for_each(|sink| sink.flush());
    }
}

/// Runs scheme family `S` once under `spec` and collects the metrics:
/// preprocess [`test_image`], build the population, run, sweep every
/// node's invariants (a completed node holds the exact image), extract.
pub fn run<S: SchemeFamily>(spec: &RunSpec, params: S::Params, seed: u64) -> ExperimentMetrics {
    let image = test_image(S::image_len(&params));
    let deployment = Deployment::<S>::new(&image, params, b"bench keys");
    let pop = Population::honest(deployment);
    let done = simulate(&pop, &spec.capsule(seed), false, Vec::new());
    assert_eq!(done.violations(), 0, "{} invariants broken", S::NAME);
    done.metrics()
}

/// [`run`] with the TX policy swapped: family `S` under `make_policy()`
/// at every node instead of `S::Policy`, for the scheduler and code
/// ablations. Honest nodes only, no digest memo; the same invariant
/// sweep and the same extractor.
pub fn run_with_policy<S: SchemeFamily, P: TxPolicy + 'static>(
    spec: &RunSpec,
    params: S::Params,
    seed: u64,
    make_policy: impl Fn() -> P,
) -> ExperimentMetrics {
    let image = test_image(S::image_len(&params));
    let deployment = Deployment::<S>::new(&image, params, b"bench keys");
    let capsule = spec.capsule(seed);
    let nodes = (0..capsule.topology.len() as u32).map(NodeId);
    let mut sim = SimBuilder::new(capsule.topology, seed, |id| {
        deployment.node_with_policy(id, NodeId(0), make_policy())
    })
    .config(capsule.config)
    .build();
    let report = sim.run(capsule.deadline);
    let honest = nodes
        .map(|id| {
            let node = sim.node(id);
            assert!(deployment.verify(node.scheme()).is_ok(), "{}", S::NAME);
            HonestTotals::of(node, deployment.image())
        })
        .sum();
    let energy_j = sim.energy().total_joules(&EnergyModel::default());
    ExperimentMetrics::extract(&report, sim.metrics(), energy_j, &honest)
}

/// Runs LR-Seluge once and collects the metrics.
pub fn run_lr(spec: &RunSpec, params: LrSelugeParams, seed: u64) -> ExperimentMetrics {
    run::<LrScheme>(spec, params, seed)
}

/// Runs Seluge once and collects the metrics.
pub fn run_seluge(spec: &RunSpec, params: SelugeParams, seed: u64) -> ExperimentMetrics {
    run::<SelugeScheme>(spec, params, seed)
}

/// Runs plain (insecure) Deluge once, the contrast case for the attack
/// experiments.
pub fn run_deluge(spec: &RunSpec, params: ImageParams, seed: u64) -> ExperimentMetrics {
    run::<DelugeScheme>(spec, params, seed)
}

/// Runs `f` once per seed (`1..=seeds`) on the harness threads and
/// returns the per-seed metrics in seed order.
///
/// Each seed is an independent simulation with its own RNG streams, so
/// the result is bit-identical for any thread count — only wall-clock
/// time changes.
pub fn sample_seeds(
    seeds: u64,
    threads: usize,
    f: impl Fn(u64) -> ExperimentMetrics + Sync,
) -> Vec<ExperimentMetrics> {
    let jobs: Vec<u64> = (1..=seeds).collect();
    crate::harness::parallel_map(&jobs, threads, |&seed| f(seed))
}

/// Averages per-seed samples into one row of paper-style means.
///
/// Latency is averaged only over runs that completed (a stalled run has
/// `NaN` latency); `completed` separately reports the completion rate,
/// so nothing is hidden by the exclusion. With no completed run the
/// latency is `NaN`.
pub fn aggregate(samples: &[ExperimentMetrics]) -> ExperimentMetrics {
    let mut acc = ExperimentMetrics::default();
    let mut latency_runs = 0u64;
    let mut latency_sum = 0.0;
    for m in samples {
        if m.latency_s.is_finite() {
            latency_sum += m.latency_s;
            latency_runs += 1;
        }
        acc.add(&ExperimentMetrics {
            latency_s: 0.0,
            ..*m
        });
    }
    acc.scale(1.0 / samples.len() as f64);
    acc.latency_s = if latency_runs > 0 {
        latency_sum / latency_runs as f64
    } else {
        f64::NAN
    };
    acc
}

/// Averages a per-seed experiment over `seeds` runs, fanning the seeds
/// out over the configured harness threads
/// ([`configured_threads`](crate::harness::configured_threads)).
pub fn average(seeds: u64, f: impl Fn(u64) -> ExperimentMetrics + Sync) -> ExperimentMetrics {
    aggregate(&sample_seeds(
        seeds,
        crate::harness::configured_threads(),
        f,
    ))
}

/// Seluge parameters matched to an LR-Seluge configuration for a fair
/// comparison (§VI-A): same on-air data-packet payload
/// (`slice + hash = payload_len`), same packets per page (`k`), same
/// image and puzzle strength.
pub fn matched_seluge_params(lr: &LrSelugeParams) -> SelugeParams {
    SelugeParams {
        version: lr.version,
        image_len: lr.image_len,
        packets_per_page: lr.k,
        slice_len: lr.payload_len - lrs_crypto::hash::HASH_IMAGE_LEN,
        hash_page_chunks: lr.k0.next_power_of_two(),
        puzzle_strength: lr.puzzle_strength,
    }
}

/// A scheme family the harness can run against an LR-Seluge parameter
/// profile: how its parameters are matched to the profile "for fair
/// comparison" (§VI-A). Lives here, not in the protocol crates, because
/// `lrs-deluge` cannot name [`LrSelugeParams`].
pub trait Matched: SchemeFamily {
    /// This family's parameters for the same image, packets per page
    /// and on-air payload as `lr`.
    fn matched(lr: &LrSelugeParams) -> Self::Params;
}

impl Matched for LrScheme {
    fn matched(lr: &LrSelugeParams) -> LrSelugeParams {
        *lr
    }
}

impl Matched for SelugeScheme {
    fn matched(lr: &LrSelugeParams) -> SelugeParams {
        matched_seluge_params(lr)
    }
}

impl Matched for DelugeScheme {
    fn matched(lr: &LrSelugeParams) -> ImageParams {
        ImageParams {
            version: lr.version,
            image_len: lr.image_len,
            packets_per_page: lr.k,
            payload_len: lr.payload_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capsules::chaos_params;

    #[test]
    fn lr_and_seluge_runs_complete_and_count() {
        let spec = RunSpec::one_hop(3, 0.1);
        let lr = run_lr(&spec, chaos_params(1024), 1);
        assert_eq!(lr.completed, 1.0);
        assert!(lr.page_data_pkts > 0.0);
        assert!(lr.total_bytes > 0.0);
        assert!(lr.latency_s.is_finite());
        assert_eq!(lr.sig_verifications, 3.0);
        assert_eq!(lr.completion_frac, 1.0);
        assert!(lr.verify_inflation > 0.0);
        assert!(lr.energy_j > 0.0);

        let s = run_seluge(&spec, matched_seluge_params(&chaos_params(1024)), 1);
        assert_eq!(s.completed, 1.0);
        assert!(s.snack_pkts > 0.0);
    }

    #[test]
    fn policy_runs_end_in_the_shared_extractor() {
        use lr_seluge::GreedyRoundRobinPolicy;
        use lrs_deluge::policy::UnionPolicy;
        let spec = RunSpec::one_hop(3, 0.1);
        let greedy = run_with_policy::<LrScheme, _>(
            &spec,
            chaos_params(1024),
            1,
            GreedyRoundRobinPolicy::new,
        );
        let union = run_with_policy::<LrScheme, _>(&spec, chaos_params(1024), 1, UnionPolicy::new);
        for m in [greedy, union] {
            assert_eq!(m.completed, 1.0);
            assert_eq!(m.completion_frac, 1.0);
            assert_eq!(m.sig_verifications, 3.0);
            assert!(m.energy_j > 0.0);
        }
        // The family's own policy through either runner is the same run.
        assert_eq!(greedy, run_lr(&spec, chaos_params(1024), 1));
    }

    #[test]
    fn deluge_run_completes() {
        let spec = RunSpec::one_hop(3, 0.05);
        let params = ImageParams {
            version: 1,
            image_len: 1024,
            packets_per_page: 8,
            payload_len: 48,
        };
        let d = run_deluge(&spec, params, 2);
        assert_eq!(d.completed, 1.0);
    }

    #[test]
    fn average_is_stable() {
        let spec = RunSpec::one_hop(2, 0.2);
        let m = average(3, |seed| run_lr(&spec, chaos_params(1024), seed));
        assert_eq!(m.completed, 1.0);
        assert!(m.page_data_pkts > 0.0);
    }

    #[test]
    fn named_fields_cover_the_struct() {
        let m = ExperimentMetrics {
            snack_pkts: 7.0,
            ..Default::default()
        };
        assert_eq!(m.named().len(), ExperimentMetrics::NAMES.len());
        for (name, value) in m.named() {
            assert_eq!(m.get(name), value);
        }
        assert_eq!(m.get("snack_pkts"), 7.0);
    }

    #[test]
    fn aggregate_excludes_stalled_latency_but_counts_completion() {
        let done = ExperimentMetrics {
            latency_s: 10.0,
            completed: 1.0,
            data_pkts: 100.0,
            ..ExperimentMetrics::default()
        };
        let stalled = ExperimentMetrics {
            latency_s: f64::NAN,
            completed: 0.0,
            data_pkts: 300.0,
            ..ExperimentMetrics::default()
        };
        let m = aggregate(&[done, stalled]);
        assert_eq!(m.latency_s, 10.0);
        assert_eq!(m.completed, 0.5);
        assert_eq!(m.data_pkts, 200.0);
        assert!(aggregate(&[stalled]).latency_s.is_nan());
    }

    #[test]
    fn sample_seeds_is_thread_count_invariant() {
        let spec = RunSpec::one_hop(2, 0.2);
        let one = sample_seeds(3, 1, |seed| run_lr(&spec, chaos_params(1024), seed));
        let many = sample_seeds(3, 4, |seed| run_lr(&spec, chaos_params(1024), seed));
        assert_eq!(one, many);
        assert_eq!(one.len(), 3);
    }

    #[test]
    fn matched_params_align_packet_sizes() {
        let lr = chaos_params(1024);
        let s = matched_seluge_params(&lr);
        assert_eq!(s.data_payload_len(), lr.payload_len);
        assert_eq!(s.packets_per_page, lr.k);
        assert_eq!(s.image_len, lr.image_len);
    }
}
