//! The one build-and-run core under the campaign engine, `replay` and
//! the `overhead` experiment ([`simulate`]), and the paper's metrics
//! extracted from a finished run ([`ExperimentMetrics`]).

use crate::capsules::{HonestNode, Member, Population};
use lr_seluge::{LrScheme, LrSelugeParams};
use lrs_deluge::bootstrap::PacketDigestCache;
use lrs_deluge::deployment::{Deployment, SchemeFamily};
use lrs_deluge::image::{DelugeScheme, ImageParams};
use lrs_host::node::{NodeId, PacketKind};
use lrs_netsim::capsule::{Capsule, RunDigest};
use lrs_netsim::energy::EnergyModel;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::{RunReport, Simulator};
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

    /// The metric values, in [`Self::NAMES`] order.
    pub fn values(&self) -> [f64; 12] {
        [
            self.page_data_pkts,
            self.data_pkts,
            self.snack_pkts,
            self.adv_pkts,
            self.total_bytes,
            self.latency_s,
            self.completed,
            self.sig_verifications,
            self.auth_rejects,
            self.completion_frac,
            self.verify_inflation,
            self.energy_j,
        ]
    }
}

/// A one-hop star and its radio: the shape the `benchmark/` ledger's
/// Monte-Carlo fleet builds its runs from.
#[derive(Clone)]
pub struct RunSpec {
    /// Network topology (node 0 is the base station).
    pub topology: Topology,
    /// Radio/loss configuration.
    pub medium: MediumConfig,
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
    pub fn honest(&self) -> impl Iterator<Item = (NodeId, &HonestNode<S>)> {
        (0..self.sim.topology().len() as u32)
            .map(NodeId)
            .filter_map(|id| Some((id, self.sim.node(id).honest()?)))
    }

    /// The paper's metrics for this run, the one metrics extractor:
    /// network counters from the engine, radio energy under the default
    /// CC1000 model, and per-node observables summed over the honest
    /// population only (attackers are excluded: degradation is measured
    /// over honest nodes; with no attacker that is every node).
    pub fn metrics(&self) -> ExperimentMetrics {
        let (mut nodes, mut sig, mut rejects, mut verify_ops, mut complete) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for (_, node) in self.honest() {
            let (cost, st) = (node.scheme().cost(), node.stats());
            nodes += 1.0;
            sig += cost.signature_verifications as f64;
            rejects += (st.auth_rejects + st.mac_rejects) as f64;
            verify_ops += (cost.hashes + cost.puzzle_checks + cost.signature_verifications) as f64;
            if node.scheme().image().as_deref() == Some(self.deployment.image()) {
                complete += 1.0;
            }
        }
        let (m, report) = (self.sim.metrics(), &self.report);
        let tx = |kind| m.tx_packets(kind);
        ExperimentMetrics {
            page_data_pkts: tx(PacketKind::Data) as f64,
            data_pkts: (tx(PacketKind::Data) + tx(PacketKind::HashPage) + tx(PacketKind::Signature))
                as f64,
            snack_pkts: tx(PacketKind::Snack) as f64,
            adv_pkts: tx(PacketKind::Adv) as f64,
            total_bytes: m.total_tx_bytes() as f64,
            latency_s: report.latency.map(|t| t.as_secs_f64()).unwrap_or(f64::NAN),
            completed: if report.all_complete { 1.0 } else { 0.0 },
            sig_verifications: sig,
            auth_rejects: rejects,
            completion_frac: complete / nodes,
            verify_inflation: verify_ops / nodes,
            energy_j: self.sim.energy().total_joules(&EnergyModel::default()),
        }
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
/// not read), with the population's invariant checker armed when
/// `check_deliveries` is set and every event teed into `sinks` (with
/// none, no trace is attached). The checker runs after every delivery
/// and reboot, and compares a node's stored pages and image with the
/// origin once each, keeping a watermark per node (DESIGN.md §7).
///
/// One digest memo per run: a broadcast hashed by one receiver is
/// served from memory at the others (per-node `hashes` counters are
/// unaffected; hits land in `memoized_hashes`). The base-station
/// artifacts enumerate every predetermined packet, so the memo is
/// warmed up front instead of filling packet-by-packet on first
/// reception.
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
    use crate::campaign::{Campaign, CellReport, JobRecord};
    use crate::capsules::{chaos_params, population, ScenarioTags};
    use crate::spec::CampaignSpec;
    use crate::sweep::{mean, run_cells};
    use crate::with_scheme;

    /// The one-cell `chaos`-profile spec of `scheme` on a star of
    /// `receivers` at `loss_ppm`, jobs running seeds from `seed`.
    fn cell(
        scheme: &str,
        profile: &str,
        receivers: usize,
        loss_ppm: u32,
        seed: u64,
    ) -> CampaignSpec {
        let toml = format!(
            "name = \"{scheme}\"\nschemes = [\"{scheme}\"]\ntopologies = [\"star:{}\"]\n\
             loss_ppm = [{loss_ppm}]\nseeds = 3\nseed_base = {seed}\nprofile = \"{profile}\"\n",
            receivers + 1
        );
        CampaignSpec::parse(&toml).expect("cell spec")
    }

    /// Job 0 of `spec`, its own capsule run through [`simulate`].
    fn job_metrics(spec: CampaignSpec) -> ExperimentMetrics {
        let capsule = Campaign::offline(spec, "").job_capsule(0).expect("job 0");
        let tags = ScenarioTags::decode(&capsule).expect("tags");
        with_scheme!(tags.scheme.as_str(), S => {
            let pop = population::<S>(&tags).expect("population");
            simulate(&pop, &capsule, true, Vec::new()).metrics()
        })
        .expect("known scheme")
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lrs-runner-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lr_and_seluge_runs_complete_and_count() {
        let lr = job_metrics(cell("lr-seluge", "chaos", 3, 100_000, 1));
        assert_eq!(lr.completed, 1.0);
        assert!(lr.page_data_pkts > 0.0);
        assert!(lr.total_bytes > 0.0);
        assert!(lr.latency_s.is_finite());
        assert_eq!(lr.sig_verifications, 3.0);
        assert_eq!(lr.completion_frac, 1.0);
        assert!(lr.verify_inflation > 0.0);
        assert!(lr.energy_j > 0.0);

        let s = job_metrics(cell("seluge", "chaos", 3, 100_000, 1));
        assert_eq!(s.completed, 1.0);
        assert!(s.snack_pkts > 0.0);
    }

    #[test]
    fn policy_runs_end_in_the_shared_extractor() {
        let greedy = job_metrics(cell("lr-seluge", "chaos", 3, 100_000, 1));
        let union = job_metrics(cell("lr-seluge", "chaos:tx=union", 3, 100_000, 1));
        for m in [greedy, union] {
            assert_eq!(m.completed, 1.0);
            assert_eq!(m.completion_frac, 1.0);
            assert_eq!(m.sig_verifications, 3.0);
            assert!(m.energy_j > 0.0);
        }
        // The knob reaches the nodes: the union rule is a different run.
        assert_ne!(greedy, union);
    }

    #[test]
    fn deluge_run_completes() {
        let d = job_metrics(cell("deluge", "chaos", 3, 50_000, 2));
        assert_eq!(d.completed, 1.0);
    }

    #[test]
    fn average_is_stable() {
        let dir = scratch("average");
        let cells = run_cells(&[cell("lr-seluge", "chaos", 2, 200_000, 1)], &dir, 1);
        assert_eq!(cells[0].jobs, 3);
        assert_eq!(mean(&cells[0], "completed"), 1.0);
        assert!(mean(&cells[0], "page_data_pkts") > 0.0);
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn named_fields_cover_the_struct() {
        // Each field holds its own name's index in `NAMES`, so a field
        // `values()` puts under another name reads back wrong.
        let m = ExperimentMetrics {
            page_data_pkts: 0.0,
            data_pkts: 1.0,
            snack_pkts: 2.0,
            adv_pkts: 3.0,
            total_bytes: 4.0,
            latency_s: 5.0,
            completed: 6.0,
            sig_verifications: 7.0,
            auth_rejects: 8.0,
            completion_frac: 9.0,
            verify_inflation: 10.0,
            energy_j: 11.0,
        };
        // A logged record reads each metric back by name.
        let record = JobRecord {
            job: 0,
            cell: 0,
            seed: 1,
            outcome: "complete".into(),
            metrics: m.values(),
        };
        for (i, name) in ExperimentMetrics::NAMES.into_iter().enumerate() {
            assert_eq!(record.get(name), i as f64, "{name}");
        }
    }

    #[test]
    fn aggregate_excludes_stalled_latency_but_counts_completion() {
        let record = |m: ExperimentMetrics| JobRecord {
            job: 0,
            cell: 0,
            seed: 1,
            outcome: "complete".into(),
            metrics: m.values(),
        };
        let done = record(ExperimentMetrics {
            latency_s: 10.0,
            completed: 1.0,
            data_pkts: 100.0,
            ..ExperimentMetrics::default()
        });
        let stalled = record(ExperimentMetrics {
            latency_s: f64::NAN,
            completed: 0.0,
            data_pkts: 300.0,
            ..ExperimentMetrics::default()
        });
        let params = cell("lr-seluge", "chaos", 2, 0, 1).cells().remove(0);
        let both = CellReport::summarize(params.clone(), &[&done, &stalled]);
        assert_eq!(mean(&both, "latency_s"), 10.0);
        assert_eq!(mean(&both, "completed"), 0.5);
        assert_eq!(mean(&both, "data_pkts"), 200.0);
        let alone = CellReport::summarize(params, &[&stalled]);
        assert!(mean(&alone, "latency_s").is_nan());
    }

    #[test]
    fn sample_seeds_is_thread_count_invariant() {
        let records = |threads: usize| {
            let dir = scratch(&format!("threads-{threads}"));
            let campaign =
                Campaign::create(cell("lr-seluge", "chaos", 2, 200_000, 1), &dir).expect("create");
            let records = campaign
                .run(threads, None)
                .expect("run")
                .expect("done")
                .records;
            std::fs::remove_dir_all(&dir).expect("clean up");
            records
        };
        let one = records(1);
        assert_eq!(one, records(4));
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
