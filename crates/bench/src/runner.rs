//! Shared experiment runners for all figures and tables.

use lr_seluge::{Deployment, LrSelugeParams};
use lrs_crypto::cluster::ClusterKey;
use lrs_deluge::engine::{DisseminationNode, EngineConfig, Scheme};
use lrs_deluge::image::{DelugeImage, DelugeScheme, ImageParams};
use lrs_deluge::policy::UnionPolicy;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::node::{NodeId, PacketKind};
use lrs_netsim::sim::{SimConfig, Simulator};

use lrs_netsim::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;
use lrs_seluge::{SelugeDeployment, SelugeParams};

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
    /// Fraction of nodes that completed — the graceful-degradation
    /// outcome, meaningful even when `completed` is 0.
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
    /// Engine (timer) configuration.
    pub engine: EngineConfig,
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
            engine: EngineConfig::default(),
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

fn collect<S, P>(
    sim: &Simulator<DisseminationNode<S, P>>,
    all_complete: bool,
    latency: Option<lrs_netsim::time::SimTime>,
) -> ExperimentMetrics
where
    S: Scheme,
    P: lrs_deluge::policy::TxPolicy,
{
    let m = sim.metrics();
    let n = sim.topology().len();
    let mut sig_verifications = 0.0;
    let mut auth_rejects = 0.0;
    let mut verify_ops = 0.0;
    for i in 0..n {
        let node = sim.node(NodeId(i as u32));
        let cost = node.scheme().cost();
        sig_verifications += cost.signature_verifications as f64;
        verify_ops += (cost.hashes + cost.puzzle_checks + cost.signature_verifications) as f64;
        let st = node.stats();
        auth_rejects += (st.auth_rejects + st.mac_rejects) as f64;
    }
    ExperimentMetrics {
        completion_frac: m.completion_fraction(n),
        verify_inflation: verify_ops / n as f64,
        energy_j: sim
            .energy()
            .total_joules(&lrs_netsim::energy::EnergyModel::default()),
        page_data_pkts: m.tx_packets(PacketKind::Data) as f64,
        data_pkts: (m.tx_packets(PacketKind::Data)
            + m.tx_packets(PacketKind::HashPage)
            + m.tx_packets(PacketKind::Signature)) as f64,
        snack_pkts: m.tx_packets(PacketKind::Snack) as f64,
        adv_pkts: m.tx_packets(PacketKind::Adv) as f64,
        total_bytes: m.total_tx_bytes() as f64,
        latency_s: latency.map(|t| t.as_secs_f64()).unwrap_or(f64::NAN),
        completed: if all_complete { 1.0 } else { 0.0 },
        sig_verifications,
        auth_rejects,
    }
}

/// Runs LR-Seluge once and collects the metrics.
pub fn run_lr(spec: &RunSpec, params: LrSelugeParams, seed: u64) -> ExperimentMetrics {
    let image = test_image(params.image_len);
    let deployment = Deployment::new(&image, params, b"bench keys").with_engine_config(spec.engine);
    let cfg = SimConfig {
        medium: spec.medium,
        ..SimConfig::default()
    };
    // One digest memo per run: a broadcast hashed by one receiver is
    // served from memory at the others (per-node `hashes` counters are
    // unaffected; hits land in `memoized_hashes`). The base-station
    // artifacts enumerate every predetermined packet, so the memo is
    // warmed up front in multi-buffer batches instead of filling
    // packet-by-packet on first reception.
    let digests = lr_seluge::scheme::PacketDigestCache::default();
    deployment.warm_digest_cache(&digests);
    let mut sim = SimBuilder::new(spec.topology.clone(), seed, |id| {
        deployment.node_cached(id, NodeId(0), &digests)
    })
    .config(cfg)
    .build();
    let report = sim.run(spec.deadline);
    // Correctness check: completed nodes must hold the exact image.
    if report.all_complete {
        for i in 1..sim.topology().len() {
            assert_eq!(
                sim.node(NodeId(i as u32)).scheme().image().as_deref(),
                Some(&image[..]),
                "node {i} completed with a wrong image"
            );
        }
    }
    collect(&sim, report.all_complete, report.latency)
}

/// Runs Seluge once and collects the metrics.
pub fn run_seluge(spec: &RunSpec, params: SelugeParams, seed: u64) -> ExperimentMetrics {
    let image = test_image(params.image_len);
    let deployment =
        SelugeDeployment::new(&image, params, b"bench keys").with_engine_config(spec.engine);
    let cfg = SimConfig {
        medium: spec.medium,
        ..SimConfig::default()
    };
    let digests = lrs_seluge::scheme::PacketDigestCache::default();
    deployment.artifacts().warm_digest_cache(&digests);
    let mut sim = SimBuilder::new(spec.topology.clone(), seed, |id| {
        deployment.node_cached(id, NodeId(0), &digests)
    })
    .config(cfg)
    .build();
    let report = sim.run(spec.deadline);
    if report.all_complete {
        for i in 1..sim.topology().len() {
            assert_eq!(
                sim.node(NodeId(i as u32)).scheme().image().as_deref(),
                Some(&image[..]),
                "node {i} completed with a wrong image"
            );
        }
    }
    collect(&sim, report.all_complete, report.latency)
}

/// Runs plain (insecure) Deluge once — the contrast case for the attack
/// experiments.
pub fn run_deluge(spec: &RunSpec, params: ImageParams, seed: u64) -> ExperimentMetrics {
    let image = test_image(params.image_len);
    let deluge_image = DelugeImage::new(image, params);
    let key = ClusterKey::derive(b"bench keys", 0);
    let engine = EngineConfig {
        authenticate_control: false,
        ..spec.engine
    };
    let cfg = SimConfig {
        medium: spec.medium,
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(spec.topology.clone(), seed, |id| {
        let scheme = if id == NodeId(0) {
            DelugeScheme::base(&deluge_image)
        } else {
            DelugeScheme::receiver(params)
        };
        DisseminationNode::new(scheme, UnionPolicy::new(), key.clone(), engine)
    })
    .config(cfg)
    .build();
    let report = sim.run(spec.deadline);
    collect(&sim, report.all_complete, report.latency)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_lr() -> LrSelugeParams {
        LrSelugeParams {
            image_len: 1024,
            k: 8,
            n: 12,
            payload_len: 56,
            k0: 4,
            n0: 8,
            puzzle_strength: 4,
            ..LrSelugeParams::default()
        }
    }

    #[test]
    fn lr_and_seluge_runs_complete_and_count() {
        let spec = RunSpec::one_hop(3, 0.1);
        let lr = run_lr(&spec, tiny_lr(), 1);
        assert_eq!(lr.completed, 1.0);
        assert!(lr.page_data_pkts > 0.0);
        assert!(lr.total_bytes > 0.0);
        assert!(lr.latency_s.is_finite());
        assert_eq!(lr.sig_verifications, 3.0);
        assert_eq!(lr.completion_frac, 1.0);
        assert!(lr.verify_inflation > 0.0);
        assert!(lr.energy_j > 0.0);

        let s = run_seluge(&spec, matched_seluge_params(&tiny_lr()), 1);
        assert_eq!(s.completed, 1.0);
        assert!(s.snack_pkts > 0.0);
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
        let m = average(3, |seed| run_lr(&spec, tiny_lr(), seed));
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
        let one = sample_seeds(3, 1, |seed| run_lr(&spec, tiny_lr(), seed));
        let many = sample_seeds(3, 4, |seed| run_lr(&spec, tiny_lr(), seed));
        assert_eq!(one, many);
        assert_eq!(one.len(), 3);
    }

    #[test]
    fn matched_params_align_packet_sizes() {
        let lr = tiny_lr();
        let s = matched_seluge_params(&lr);
        assert_eq!(s.data_payload_len(), lr.payload_len);
        assert_eq!(s.packets_per_page, lr.k);
        assert_eq!(s.image_len, lr.image_len);
    }
}
