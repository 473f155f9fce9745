//! The three simulated workloads: `onehop_mc`, `grid_dense_lr`,
//! `grid_wide_seluge`.

use super::{image, Body, BodyOut, Kit, LrKit, SelugeKit, Shapes, KEY_MATERIAL};
use crate::span::SpanName;
use crate::wrap::{CountingSink, Mode};
use lr_seluge::scheme::PacketDigestCache;
use lr_seluge::LrSelugeParams;
use lrs_bench::capsules::scale_params;
use lrs_bench::{matched_seluge_params, RunSpec};
use lrs_deluge::engine::{DisseminationNode, EngineConfig, Scheme};
use lrs_netsim::energy::EnergyModel;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::node::{NodeId, PacketKind, Protocol};
use lrs_netsim::noise::{BurstyNoise, NoiseModel};
use lrs_netsim::sim::{Outcome, SimConfig};
use lrs_netsim::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;
use lrs_rng::DetRng;
use std::time::Instant;

/// Virtual-time budget of every simulation (the bench bins' grid value).
const DEADLINE: Duration = Duration(400_000 * 1_000_000);

/// Derives the independent sub-seed of `stream` from `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    DetRng::seed_from_u64(seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))).next_u64()
}

/// The repo's dissemination node over the mode's scheme and policy types.
type Node<M, K> =
    DisseminationNode<<M as Mode>::S<<K as Kit>::Scheme>, <M as Mode>::P<<K as Kit>::Policy>>;

/// Builds, runs and verifies one simulation, adding its results to
/// `out`. The construction mirrors `lrs_bench::run_lr`/`run_seluge`
/// (and `Deployment::node_cached`, which does not expose the public key
/// and puzzle the wrappers need).
fn run_sim<M: Mode, K: Kit>(
    kit: &K,
    digests: &PacketDigestCache,
    topology: &Topology,
    medium: MediumConfig,
    sim_seed: u64,
    sink: Option<&CountingSink>,
    out: &mut BodyOut,
) {
    let started = Instant::now();
    let engine = EngineConfig::default();
    let mut sim = M::span(SpanName::NetsimBuild, || {
        let builder = SimBuilder::new(topology.clone(), sim_seed, |id| {
            M::node::<Node<M, K>>(DisseminationNode::new(
                M::scheme(kit.scheme(id, Some(digests)), K::LAYER),
                M::policy(kit.policy(), K::LAYER),
                kit.cluster().clone(),
                engine,
            ))
        })
        .config(SimConfig {
            medium,
            ..SimConfig::default()
        });
        match sink {
            Some(sink) => {
                sink.attach(topology, medium.per_packet_overhead_us, medium.us_per_byte);
                builder.trace(sink.clone()).build()
            }
            None => builder.build(),
        }
    });
    let report = M::span(SpanName::NetsimRun, || sim.run(DEADLINE));
    if let Some(sink) = sink {
        sink.settle(report.final_time);
    }
    M::span(SpanName::BenchVerify, || {
        let receivers = topology.len() as u64 - 1;
        let mut committed = 0u64;
        for i in 0..topology.len() {
            let node = M::node_ref::<Node<M, K>>(sim.node(NodeId(i as u32)));
            let scheme = M::scheme_ref::<K::Scheme>(node.scheme());
            out.totals.add_cost(scheme.cost());
            out.totals.add_stats(node.stats());
            if i > 0 && node.is_complete() && kit.committed(scheme) {
                committed += 1;
            }
        }
        let mut failed = receivers - committed;
        if report.outcome != Outcome::Complete && failed == 0 {
            failed = 1;
        }
        out.attempted += receivers;
        out.failed += failed;
        out.kib += committed as f64 * kit.image_len() as f64 / 1024.0;
        let m = sim.metrics();
        let t = &mut out.totals;
        t.runs += 1;
        t.latency_s += report.latency.map_or(0.0, |l| l.as_secs_f64());
        t.tx_bytes += m.total_tx_bytes();
        t.data_pkts += m.tx_packets(PacketKind::Data)
            + m.tx_packets(PacketKind::HashPage)
            + m.tx_packets(PacketKind::Signature);
        t.snack_pkts += m.tx_packets(PacketKind::Snack);
        t.adv_pkts += m.tx_packets(PacketKind::Adv);
        t.energy_j += sim.energy().total_joules(&EnergyModel::default());
        t.tx += m.total_tx_packets();
        t.rx += m.rx_packets();
        t.loss_collision += m.collision_losses();
        t.loss_phy += m.phy_losses();
        t.loss_app_drop += m.app_drops();
    });
    out.run_ms.push(started.elapsed().as_secs_f64() * 1e3);
}

/// `onehop_mc`: the Fig. 3 Monte-Carlo fleet. Star of 20 receivers,
/// app-loss p in {0.1, 0.3}, LR-Seluge (paper defaults, 20 KiB) and
/// matched Seluge, 25 seeds per cell = 100 short runs, artifacts
/// rebuilt per run as the campaign runner does.
pub struct OnehopMc {
    image: Vec<u8>,
    lr: LrSelugeParams,
    specs: Vec<RunSpec>,
    sim_seeds: Vec<u64>,
}

impl OnehopMc {
    const RECEIVERS: usize = 20;
    const LOSS: [f64; 2] = [0.1, 0.3];
    const SEEDS_PER_CELL: u64 = 25;

    /// Generates the image, the topologies and the sim seeds.
    pub fn prepare<M: Mode>(seed: u64) -> Self {
        let lr = LrSelugeParams::default();
        OnehopMc {
            image: image(lr.image_len),
            lr,
            specs: M::span(SpanName::NetsimTopologyBuild, || {
                Self::LOSS
                    .iter()
                    .map(|&p| RunSpec::one_hop(Self::RECEIVERS, p))
                    .collect()
            }),
            sim_seeds: (0..Self::SEEDS_PER_CELL)
                .map(|i| derive_seed(seed, 0x100 + i))
                .collect(),
        }
    }
}

impl OnehopMc {
    /// One grid cell: a fresh kit (keys, artifacts, digest memo) and
    /// one simulation per sim seed.
    fn cell<M: Mode, K: Kit>(
        &self,
        build: impl Fn() -> K,
        spec: &RunSpec,
        sink: Option<&CountingSink>,
        out: &mut BodyOut,
    ) {
        for &sim_seed in &self.sim_seeds {
            let kit = build();
            let digests = kit.warm_digests::<M>();
            run_sim::<M, K>(
                &kit,
                &digests,
                &spec.topology,
                spec.medium,
                sim_seed,
                sink,
                out,
            );
        }
    }
}

impl Body for OnehopMc {
    fn body<M: Mode>(&self, sink: Option<&CountingSink>) -> BodyOut {
        let mut out = BodyOut::default();
        let seluge = matched_seluge_params(&self.lr);
        for spec in &self.specs {
            self.cell::<M, _>(
                || LrKit::build::<M>(self.image.clone(), self.lr, KEY_MATERIAL),
                spec,
                sink,
                &mut out,
            );
            self.cell::<M, _>(
                || SelugeKit::build::<M>(self.image.clone(), seluge, KEY_MATERIAL),
                spec,
                sink,
                &mut out,
            );
        }
        out
    }

    fn shapes(&self) -> Shapes {
        Shapes {
            code: Some((self.lr.k as usize, self.lr.n as usize)),
            payload_len: self.lr.payload_len,
            merkle_depth: self.lr.merkle_depth(),
            puzzle_strength: self.lr.puzzle_strength,
            network: Some((self.specs[0].topology.clone(), self.specs[0].medium)),
        }
    }
}

/// `grid_dense_lr`: the Table II setting. 15x15 tight grid, heavy
/// bursty noise, LR-Seluge paper defaults, shared warmed digest memo.
///
/// One body is [`GridDenseLr::REALISATIONS`] independent simulations of
/// a one-page (1 KiB) image, each on its own topology draw and sim
/// seed, rather than one long simulation: the host cost of a single
/// dense-grid realisation is chaotic in the seed (a 10 KiB image on one
/// fixed topology took 2.6 s to 11.7 s over six sim seeds, because
/// `Medium::deliver` scans every recent transmission and their number
/// swings with the contention the run happens to fall into), so no
/// bound could resolve a single realisation across seeds.
pub struct GridDenseLr {
    kit: LrKit,
    digests: PacketDigestCache,
    realisations: Vec<(Topology, u64)>,
    medium: MediumConfig,
}

impl GridDenseLr {
    const REALISATIONS: u64 = 8;

    /// Generates the image, preprocesses it once, warms the digest memo
    /// and builds the topologies.
    pub fn prepare<M: Mode>(seed: u64) -> Self {
        let params = LrSelugeParams {
            image_len: 1024,
            ..LrSelugeParams::default()
        };
        let kit = LrKit::build::<M>(image(params.image_len), params, KEY_MATERIAL);
        let digests = kit.warm_digests::<M>();
        GridDenseLr {
            kit,
            digests,
            realisations: M::span(SpanName::NetsimTopologyBuild, || {
                (0..Self::REALISATIONS)
                    .map(|i| {
                        (
                            Topology::grid(15, 8.0, derive_seed(seed, 0x200 + i)),
                            derive_seed(seed, 0x300 + i),
                        )
                    })
                    .collect()
            }),
            medium: MediumConfig {
                noise: NoiseModel::Bursty(BurstyNoise::heavy()),
                ..MediumConfig::default()
            },
        }
    }
}

impl Body for GridDenseLr {
    fn body<M: Mode>(&self, sink: Option<&CountingSink>) -> BodyOut {
        let mut out = BodyOut::default();
        for (topology, sim_seed) in &self.realisations {
            run_sim::<M, _>(
                &self.kit,
                &self.digests,
                topology,
                self.medium,
                *sim_seed,
                sink,
                &mut out,
            );
        }
        out
    }

    fn shapes(&self) -> Shapes {
        let p = self.kit.params;
        Shapes {
            code: Some((p.k as usize, p.n as usize)),
            payload_len: p.payload_len,
            merkle_depth: p.merkle_depth(),
            puzzle_strength: p.puzzle_strength,
            network: Some((self.realisations[0].0.clone(), self.medium)),
        }
    }
}

/// `grid_wide_seluge`: a 56x56 sparse grid (3136 nodes), no noise,
/// Seluge matched to the scale sweep's parameters with a 1 KiB image,
/// union TX policy, sequential engine.
pub struct GridWideSeluge {
    kit: SelugeKit,
    digests: PacketDigestCache,
    topology: Topology,
    medium: MediumConfig,
    sim_seed: u64,
}

impl GridWideSeluge {
    /// Generates the image, preprocesses it once, warms the digest memo
    /// and builds the topology.
    pub fn prepare<M: Mode>(seed: u64) -> Self {
        let params = matched_seluge_params(&scale_params(1024));
        let kit = SelugeKit::build::<M>(image(params.image_len), params, KEY_MATERIAL);
        let digests = kit.warm_digests::<M>();
        GridWideSeluge {
            kit,
            digests,
            topology: M::span(SpanName::NetsimTopologyBuild, || {
                Topology::grid(56, 10.0, derive_seed(seed, 1))
            }),
            medium: MediumConfig::default(),
            sim_seed: derive_seed(seed, 2),
        }
    }
}

impl Body for GridWideSeluge {
    fn body<M: Mode>(&self, sink: Option<&CountingSink>) -> BodyOut {
        let mut out = BodyOut::default();
        run_sim::<M, _>(
            &self.kit,
            &self.digests,
            &self.topology,
            self.medium,
            self.sim_seed,
            sink,
            &mut out,
        );
        out
    }

    fn shapes(&self) -> Shapes {
        let p = self.kit.params;
        Shapes {
            code: None,
            payload_len: p.data_payload_len(),
            merkle_depth: p.merkle_depth(),
            puzzle_strength: p.puzzle_strength,
            network: Some((self.topology.clone(), self.medium)),
        }
    }

    fn sharded_wall_s(&self, shards: usize) -> Option<(f64, bool)> {
        // The digest memo is `Rc`-based and cannot cross shard threads,
        // so sharded nodes hash every packet themselves.
        let kit = &self.kit;
        let engine = EngineConfig::default();
        let started = Instant::now();
        let run = SimBuilder::new(self.topology.clone(), self.sim_seed, |id| {
            DisseminationNode::new(
                kit.scheme(id, None),
                kit.policy(),
                kit.cluster().clone(),
                engine,
            )
        })
        .config(SimConfig {
            medium: self.medium,
            ..SimConfig::default()
        })
        .shards(shards)
        .run_sharded(DEADLINE, |_, node| node.is_complete());
        let wall = started.elapsed().as_secs_f64();
        Some((wall, run.report.outcome == Outcome::Complete))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_per_stream_and_seed() {
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
        assert_eq!(derive_seed(9, 3), derive_seed(9, 3));
    }
}
