//! The five workloads and the machinery they share.
//!
//! A workload is prepared once per process from `--seed`
//! ([`Workload::prepare`], timed as `setup_s`) and then its *body* is
//! run repeatedly with fresh state per repetition. Bodies are generic
//! over [`Mode`], so the end-to-end repetitions and the traced pass
//! execute the same code.

pub mod node;
pub mod sim;

use crate::span::SpanName;
use crate::wrap::{CountingSink, Layer, Mode, Plain, Traced};
use lr_seluge::scheme::PacketDigestCache;
use lr_seluge::{GreedyRoundRobinPolicy, LrArtifacts, LrScheme, LrSelugeParams};
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::puzzle::{Puzzle, PuzzleKeyChain};
use lrs_crypto::schnorr::{Keypair, PublicKey};
use lrs_deluge::engine::{CryptoCost, NodeStats, Scheme};
use lrs_deluge::policy::{TxPolicy, UnionPolicy};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::node::NodeId;
use lrs_netsim::topology::Topology;
use lrs_rng::DetRng;
use lrs_seluge::{SelugeArtifacts, SelugeParams, SelugeScheme};

/// The benchmark's workloads. Names are normative: later performance
/// issues claim against them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3 Monte-Carlo fleet of short one-hop runs.
    OnehopMc,
    /// Table II dense 15x15 grid under bursty noise, LR-Seluge.
    GridDenseLr,
    /// 56x56 sparse grid, Seluge, no erasure coding.
    GridWideSeluge,
    /// Per-node accept path through a 4-hop relay chain, no network.
    NodeIngest,
    /// The same chain under a forged-packet flood (reject path).
    NodeFlood,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::OnehopMc,
        Workload::GridDenseLr,
        Workload::GridWideSeluge,
        Workload::NodeIngest,
        Workload::NodeFlood,
    ];

    /// The workload's normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OnehopMc => "onehop_mc",
            Workload::GridDenseLr => "grid_dense_lr",
            Workload::GridWideSeluge => "grid_wide_seluge",
            Workload::NodeIngest => "node_ingest",
            Workload::NodeFlood => "node_flood",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds everything the body needs from `seed`. This is the work
    /// `setup_s` times.
    pub fn prepare<M: Mode>(self, seed: u64) -> Box<dyn Prepared> {
        M::span(SpanName::Setup, || -> Box<dyn Prepared> {
            match self {
                Workload::OnehopMc => Box::new(sim::OnehopMc::prepare::<M>(seed)),
                Workload::GridDenseLr => Box::new(sim::GridDenseLr::prepare::<M>(seed)),
                Workload::GridWideSeluge => Box::new(sim::GridWideSeluge::prepare::<M>(seed)),
                Workload::NodeIngest => Box::new(node::NodeChain::prepare::<M>(seed, false)),
                Workload::NodeFlood => Box::new(node::NodeChain::prepare::<M>(seed, true)),
            }
        })
    }
}

/// A prepared workload: inputs generated, ready to run bodies. The
/// object-safe face of [`Body`], implemented for every `Body`.
pub trait Prepared {
    /// One untraced body with fresh protocol state.
    fn body_plain(&self) -> BodyOut;
    /// One traced body under the root span; trace events of every
    /// simulation go to `sink`.
    fn body_traced(&self, sink: &CountingSink) -> BodyOut;
    /// See [`Body::shapes`].
    fn shapes(&self) -> Shapes;
    /// See [`Body::sharded_wall_s`].
    fn sharded_wall_s(&self, shards: usize) -> Option<(f64, bool)>;
}

impl<W: Body> Prepared for W {
    fn body_plain(&self) -> BodyOut {
        self.body::<Plain>(None)
    }

    fn body_traced(&self, sink: &CountingSink) -> BodyOut {
        Traced::span(SpanName::Body, || self.body::<Traced>(Some(sink)))
    }

    fn shapes(&self) -> Shapes {
        Body::shapes(self)
    }

    fn sharded_wall_s(&self, shards: usize) -> Option<(f64, bool)> {
        Body::sharded_wall_s(self, shards)
    }
}

/// What the probes need to know about a workload.
pub struct Shapes {
    /// Erasure code of the workload's pages (`None`: no erasure coding).
    pub code: Option<(usize, usize)>,
    /// Data packet payload length in bytes.
    pub payload_len: usize,
    /// Merkle depth of a hash-page packet's authentication path.
    pub merkle_depth: usize,
    /// Puzzle strength in bits.
    pub puzzle_strength: u32,
    /// Topology and medium of the workload's simulations, if any.
    pub network: Option<(Topology, MediumConfig)>,
}

/// Everything one body reports back.
#[derive(Clone, Debug, Default)]
pub struct BodyOut {
    /// Operations attempted: honest receivers expected to commit the
    /// image, plus (flood) forged packets expected to be refused.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// KiB of image committed and verified byte-equal.
    pub kib: f64,
    /// Wall milliseconds of each simulation run in the body.
    pub run_ms: Vec<f64>,
    /// Virtual-time results and exact counts.
    pub totals: Totals,
}

/// Exact, seed-determined results summed over a body's runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Simulation runs (or relay-chain iterations).
    pub runs: u64,
    /// Sum of dissemination latencies (virtual seconds).
    pub latency_s: f64,
    /// Bytes transmitted (virtual radio).
    pub tx_bytes: u64,
    /// Data-bearing packets transmitted (pages, hash page, signature).
    pub data_pkts: u64,
    /// SNACK packets transmitted.
    pub snack_pkts: u64,
    /// Advertisement packets transmitted.
    pub adv_pkts: u64,
    /// Radio energy (J, default CC1000-class model).
    pub energy_j: f64,
    /// Transmissions.
    pub tx: u64,
    /// Successful receptions.
    pub rx: u64,
    /// Deliveries lost to collisions.
    pub loss_collision: u64,
    /// Deliveries lost to link quality or noise.
    pub loss_phy: u64,
    /// Deliveries dropped by the application-layer loss process.
    pub loss_app_drop: u64,
    /// Scheme-level crypto/erasure work over all nodes.
    pub cost: CryptoCost,
    /// Engine statistics over all nodes.
    pub duplicates: u64,
    /// Data packets rejected by authentication.
    pub auth_rejects: u64,
    /// Control packets rejected by MAC verification.
    pub mac_rejects: u64,
    /// SNACKs sent.
    pub snacks_sent: u64,
    /// Data packets for not-yet-requestable items, dropped unbuffered.
    pub out_of_order_drops: u64,
}

impl Totals {
    /// Adds one node's scheme cost.
    pub fn add_cost(&mut self, c: CryptoCost) {
        self.cost.hashes += c.hashes;
        self.cost.signature_verifications += c.signature_verifications;
        self.cost.puzzle_checks += c.puzzle_checks;
        self.cost.decodes += c.decodes;
        self.cost.encodes += c.encodes;
        self.cost.memoized_hashes += c.memoized_hashes;
    }

    /// Adds one node's engine statistics.
    pub fn add_stats(&mut self, s: NodeStats) {
        self.duplicates += s.duplicates;
        self.auth_rejects += s.auth_rejects;
        self.mac_rejects += s.mac_rejects;
        self.snacks_sent += s.snacks_sent;
        self.out_of_order_drops += s.out_of_order_drops;
    }
}

/// The code image every workload disseminates: pseudo-random bytes
/// that do not depend on `--seed`.
///
/// The image and the key material are constants of the benchmark on
/// purpose. Preprocessing brute-forces the signature packet's puzzle,
/// whose cost is geometric in the signed bytes (0.8 ms to 15 ms over ten
/// images at strength 12), so a seeded image would make `setup_s`, and
/// `onehop_mc`'s 100 per-run rebuilds, vary with the seed for a reason
/// no layer controls. `--seed` drives what the layers react to:
/// topology draws, simulation seeds, erasure patterns and forged bytes.
pub fn image(len: usize) -> Vec<u8> {
    let mut image = vec![0u8; len];
    DetRng::seed_from_u64(0x0049_4d41_4745).fill_bytes(&mut image);
    image
}

/// Seed material for the deployment's keys (see [`image`]).
pub const KEY_MATERIAL: &[u8] = b"ledger keys";

/// Deployment-wide secrets and public parameters.
pub struct Keys {
    keypair: Keypair,
    chain: PuzzleKeyChain,
    /// The base station's public key.
    pub pubkey: PublicKey,
    /// The cluster key authenticating control packets.
    pub cluster: ClusterKey,
}

impl Keys {
    /// Derives the keys the way `Deployment::try_new` does.
    pub fn derive(material: &[u8], version: u16) -> Keys {
        let keypair = Keypair::from_seed(material);
        Keys {
            pubkey: keypair.public(),
            chain: PuzzleKeyChain::generate(material, u32::from(version) + 4),
            cluster: ClusterKey::derive(material, 0),
            keypair,
        }
    }

    /// The weak-authenticator puzzle at `strength` bits.
    pub fn puzzle(&self, strength: u32) -> Puzzle {
        Puzzle::new(self.chain.anchor(), strength)
    }
}

/// One scheme's preprocessed image plus what is needed to build, serve
/// and check its nodes. Implemented for LR-Seluge and Seluge so the
/// simulation runner is written once.
pub trait Kit {
    /// The repo's scheme type.
    type Scheme: Scheme + 'static;
    /// The repo's TX policy type.
    type Policy: TxPolicy + 'static;
    /// The layer the wrappers charge this kit's spans to.
    const LAYER: Layer;

    /// The scheme for node `id` (node 0 is the base station).
    fn scheme(&self, id: NodeId, digests: Option<&PacketDigestCache>) -> Self::Scheme;
    /// A fresh TX policy.
    fn policy(&self) -> Self::Policy;
    /// Whether `scheme` committed the byte-identical image and satisfies
    /// the scheme's `verify_invariants`.
    fn committed(&self, scheme: &Self::Scheme) -> bool;
    /// The image length in bytes.
    fn image_len(&self) -> usize;
    /// The cluster key.
    fn cluster(&self) -> &ClusterKey;
    /// The span the digest warm-up is charged to.
    const WARM_SPAN: SpanName;
    /// Pre-fills `digests` from the preprocessed artifacts.
    fn warm(&self, digests: &PacketDigestCache);

    /// A digest memo pre-filled from the artifacts.
    fn warm_digests<M: Mode>(&self) -> PacketDigestCache {
        let digests = PacketDigestCache::default();
        M::span(Self::WARM_SPAN, || self.warm(&digests));
        digests
    }
}

/// LR-Seluge image, keys and artifacts.
pub struct LrKit {
    /// The origin image.
    pub image: Vec<u8>,
    /// Layout parameters.
    pub params: LrSelugeParams,
    /// Deployment keys.
    pub keys: Keys,
    /// Base-station preprocessing output.
    pub artifacts: LrArtifacts,
}

impl LrKit {
    /// Derives keys and preprocesses `image`, spanning both steps.
    pub fn build<M: Mode>(image: Vec<u8>, params: LrSelugeParams, material: &[u8]) -> LrKit {
        let keys = M::span(SpanName::CryptoKeys, || {
            Keys::derive(material, params.version)
        });
        let artifacts = M::span(SpanName::CorePreprocessBuild, || {
            LrArtifacts::build(&image, params, &keys.keypair, &keys.chain)
        });
        LrKit {
            image,
            params,
            keys,
            artifacts,
        }
    }
}

impl Kit for LrKit {
    type Scheme = LrScheme;
    type Policy = GreedyRoundRobinPolicy;
    const LAYER: Layer = Layer::Core;
    const WARM_SPAN: SpanName = SpanName::CorePreprocessWarm;

    fn warm(&self, digests: &PacketDigestCache) {
        self.artifacts.warm_digest_cache(digests);
    }

    fn scheme(&self, id: NodeId, digests: Option<&PacketDigestCache>) -> LrScheme {
        let puzzle = self.keys.puzzle(self.params.puzzle_strength);
        let scheme = if id == NodeId(0) {
            LrScheme::base(&self.artifacts, self.keys.pubkey, puzzle)
        } else {
            LrScheme::receiver(self.params, self.keys.pubkey, puzzle)
        };
        match digests {
            Some(cache) => scheme.with_digest_cache(cache.clone()),
            None => scheme,
        }
    }

    fn policy(&self) -> GreedyRoundRobinPolicy {
        GreedyRoundRobinPolicy::new()
    }

    fn committed(&self, scheme: &LrScheme) -> bool {
        scheme.image().as_deref() == Some(&self.image[..])
            && scheme
                .verify_invariants(&self.artifacts, &self.image)
                .is_ok()
    }

    fn image_len(&self) -> usize {
        self.image.len()
    }

    fn cluster(&self) -> &ClusterKey {
        &self.keys.cluster
    }
}

/// Seluge image, keys and artifacts.
pub struct SelugeKit {
    /// The origin image.
    pub image: Vec<u8>,
    /// Layout parameters.
    pub params: SelugeParams,
    /// Deployment keys.
    pub keys: Keys,
    /// Base-station preprocessing output.
    pub artifacts: SelugeArtifacts,
}

impl SelugeKit {
    /// Derives keys and preprocesses `image`, spanning both steps.
    pub fn build<M: Mode>(image: Vec<u8>, params: SelugeParams, material: &[u8]) -> SelugeKit {
        let keys = M::span(SpanName::CryptoKeys, || {
            Keys::derive(material, params.version)
        });
        let artifacts = M::span(SpanName::SelugePreprocessBuild, || {
            SelugeArtifacts::build(&image, params, &keys.keypair, &keys.chain)
        });
        SelugeKit {
            image,
            params,
            keys,
            artifacts,
        }
    }
}

impl Kit for SelugeKit {
    type Scheme = SelugeScheme;
    type Policy = UnionPolicy;
    const LAYER: Layer = Layer::Seluge;
    const WARM_SPAN: SpanName = SpanName::SelugePreprocessWarm;

    fn warm(&self, digests: &PacketDigestCache) {
        self.artifacts.warm_digest_cache(digests);
    }

    fn scheme(&self, id: NodeId, digests: Option<&PacketDigestCache>) -> SelugeScheme {
        let puzzle = self.keys.puzzle(self.params.puzzle_strength);
        let scheme = if id == NodeId(0) {
            SelugeScheme::base(&self.artifacts, self.keys.pubkey, puzzle)
        } else {
            SelugeScheme::receiver(self.params, self.keys.pubkey, puzzle)
        };
        match digests {
            Some(cache) => scheme.with_digest_cache(cache.clone()),
            None => scheme,
        }
    }

    fn policy(&self) -> UnionPolicy {
        UnionPolicy::new()
    }

    fn committed(&self, scheme: &SelugeScheme) -> bool {
        scheme.image().as_deref() == Some(&self.image[..])
            && scheme
                .verify_invariants(&self.artifacts, &self.image)
                .is_ok()
    }

    fn image_len(&self) -> usize {
        self.image.len()
    }

    fn cluster(&self) -> &ClusterKey {
        &self.keys.cluster
    }
}

/// What every workload implements: the mode-generic body, and what
/// the traced pass needs to know about it.
pub trait Body {
    /// One repetition's work, with fresh protocol state.
    fn body<M: Mode>(&self, sink: Option<&CountingSink>) -> BodyOut;

    /// The shapes the isolated layer probes should use.
    fn shapes(&self) -> Shapes;

    /// For `netsim.shard2.wall_ratio`: wall seconds of the body's
    /// simulation on the sharded engine at `shards` shards, if this
    /// workload has a sharded measurement. The bool is whether every
    /// node completed.
    fn sharded_wall_s(&self, _shards: usize) -> Option<(f64, bool)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_well_formed() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("swarm"), None);
    }

    #[test]
    fn the_image_is_a_constant_of_the_benchmark() {
        assert_eq!(image(256), image(256));
        assert_eq!(image(512)[..256], image(256)[..]);
        assert!(image(256).iter().any(|b| *b != image(256)[0]));
    }
}
