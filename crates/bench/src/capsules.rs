//! Scenario registry mapping replay-capsule tags back to protocol
//! constructors.
//!
//! A [`Capsule`] deliberately serializes no protocol state: seed +
//! config + topology + fault schedule regenerate every bit of it on
//! replay. What the capture format *cannot* regenerate is which
//! protocol population produced the run — that travels as free-form
//! scenario tags. This module is the bench-side registry for those
//! tags: the chaos/scale capture paths write them through
//! [`ScenarioTags::apply`], and the `replay` binary turns them back
//! into `make_node` closures via [`replay_capsule`],
//! [`bisect_capsule_shards`], and [`bisect_capsule_engines`].

use crate::runner::{matched_seluge_params, test_image};
use lr_seluge::{Deployment, LrNode, LrSelugeParams};
use lrs_crypto::cluster::ClusterKey;
use lrs_deluge::attack::{AttackKind, Attacker, AttackerProfile, MaybeAdversary};
use lrs_deluge::bootstrap::SIGNATURE_BODY_LEN;
use lrs_netsim::attack::AttackPlan;
use lrs_netsim::capsule::{SEQUENTIAL_ENGINE, SHARDED_ENGINE};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::node::NodeId;
use lrs_netsim::sim::SimConfig;
use lrs_netsim::time::Duration;
use lrs_netsim::{
    bisect_engines, bisect_shard_counts, replay_sequential, replay_sharded, Capsule, CapsuleSpec,
    Divergence, ReplayRun,
};
use lrs_seluge::{SelugeDeployment, SelugeNode};

/// Tag key: scheme under test (`lr-seluge` or `seluge`).
pub const TAG_SCHEME: &str = "scheme";
/// Tag key: parameter profile (`chaos`, `scale`, or `campaign`),
/// selecting both the parameter set and the test-image generator of the
/// capture path.
pub const TAG_PROFILE: &str = "profile";
/// Tag key: image length in bytes.
pub const TAG_IMAGE_LEN: &str = "image_len";
/// Tag key: key-derivation context (the `Deployment::new` seed
/// material, as a UTF-8 string).
pub const TAG_KEY_CONTEXT: &str = "key_context";
/// Tag key: node id of the packet-storm attacker, when one ran.
pub const TAG_ATTACKER: &str = "attacker";
/// Tag key: the serialized [`AttackPlan`] (entry JSONs joined by `;`)
/// that placed plan-driven adversaries, when one ran. Replay rebuilds
/// the exact attacker population from this tag alone — the plan, like
/// the fault schedule, is data, not code.
pub const TAG_ATTACK_PLAN: &str = "attack_plan";

/// The chaos sweep's LR-Seluge parameter set.
pub fn chaos_params(image_len: usize) -> LrSelugeParams {
    LrSelugeParams {
        image_len,
        k: 8,
        n: 12,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 4,
        ..LrSelugeParams::default()
    }
}

/// The scale sweep's LR-Seluge parameter set.
pub fn scale_params(image_len: usize) -> LrSelugeParams {
    LrSelugeParams {
        image_len,
        k: 8,
        n: 16,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 6,
        ..LrSelugeParams::default()
    }
}

/// The campaign engine's LR-Seluge parameter set: the chaos code rate
/// with a cheaper puzzle, sized for fleets of thousands of runs.
pub fn campaign_params(image_len: usize) -> LrSelugeParams {
    LrSelugeParams {
        image_len,
        k: 8,
        n: 12,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 2,
        ..LrSelugeParams::default()
    }
}

/// The scale sweep's historical test image (distinct from
/// [`test_image`]; both generators are pinned here because a capsule
/// must reproduce whichever image its capture path used).
pub fn scale_image(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// The attack bin's LR-Seluge parameter set: defaults with a strong
/// (2⁻¹⁰) puzzle, so forged-signature floods are visibly absorbed.
pub fn attack_params(image_len: usize) -> LrSelugeParams {
    LrSelugeParams {
        image_len,
        puzzle_strength: 10,
        ..LrSelugeParams::default()
    }
}

fn profile_params(profile: &str, image_len: usize) -> Result<LrSelugeParams, String> {
    match profile {
        "chaos" => Ok(chaos_params(image_len)),
        "scale" => Ok(scale_params(image_len)),
        "campaign" => Ok(campaign_params(image_len)),
        "attack" => Ok(attack_params(image_len)),
        other => Err(format!(
            "unknown parameter profile {other:?}; this registry knows \"chaos\", \"scale\", \
             \"campaign\", and \"attack\""
        )),
    }
}

fn profile_image(profile: &str, len: usize) -> Result<Vec<u8>, String> {
    match profile {
        "chaos" | "campaign" | "attack" => Ok(test_image(len)),
        "scale" => Ok(scale_image(len)),
        other => Err(format!(
            "unknown parameter profile {other:?}; this registry knows \"chaos\", \"scale\", \
             \"campaign\", and \"attack\""
        )),
    }
}

/// The chaos sweep's simulator configuration (5% application-layer
/// loss, 3000 s ceiling, 400 s stall watchdog).
pub fn chaos_sim_config() -> SimConfig {
    SimConfig {
        medium: MediumConfig {
            app_loss: 0.05,
            ..MediumConfig::default()
        },
        max_sim_time: Some(Duration::from_secs(3_000)),
        stall_window: Some(Duration::from_secs(400)),
        ..SimConfig::default()
    }
}

/// The chaos sweep's bursty bogus-data packet-storm attacker.
pub fn storm_attacker(payload_len: usize, index_space: u16, version: u16) -> Attacker {
    Attacker::outsider(
        AttackKind::BogusData {
            payload_len,
            index_space,
        },
        Duration::from_millis(80),
        version,
    )
    .with_burst(Duration::from_secs(5), Duration::from_secs(15))
}

/// The decoded (or to-be-written) scenario tags of a capsule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioTags {
    /// `lr-seluge` or `seluge`.
    pub scheme: String,
    /// Parameter profile: `chaos`, `scale`, or `campaign`.
    pub profile: String,
    /// Image length in bytes.
    pub image_len: usize,
    /// Key-derivation context string.
    pub key_context: String,
    /// Packet-storm attacker node, if one ran.
    pub attacker: Option<NodeId>,
    /// Plan-driven adversary schedule, if one ran.
    pub attack_plan: Option<AttackPlan>,
}

impl ScenarioTags {
    /// Tags for a run of `scheme` under `profile` parameters.
    pub fn new(scheme: &str, profile: &str, image_len: usize, key_context: &str) -> Self {
        ScenarioTags {
            scheme: scheme.to_string(),
            profile: profile.to_string(),
            image_len,
            key_context: key_context.to_string(),
            attacker: None,
            attack_plan: None,
        }
    }

    /// Marks `id` as the packet-storm attacker.
    pub fn with_attacker(mut self, id: NodeId) -> Self {
        self.attacker = Some(id);
        self
    }

    /// Attaches a plan-driven adversary schedule. Plan entries take
    /// precedence over the storm attacker at overlapping node ids.
    pub fn with_attack_plan(mut self, plan: AttackPlan) -> Self {
        self.attack_plan = Some(plan);
        self
    }

    /// Writes these tags onto a [`CapsuleSpec`].
    pub fn apply(&self, spec: CapsuleSpec) -> CapsuleSpec {
        let mut spec = spec
            .tag(TAG_SCHEME, &self.scheme)
            .tag(TAG_PROFILE, &self.profile)
            .tag(TAG_IMAGE_LEN, self.image_len)
            .tag(TAG_KEY_CONTEXT, &self.key_context);
        if let Some(id) = self.attacker {
            spec = spec.tag(TAG_ATTACKER, id.0);
        }
        if let Some(plan) = &self.attack_plan {
            spec = spec.tag(TAG_ATTACK_PLAN, plan.to_tag());
        }
        spec
    }

    /// The raw key/value pairs, for direct [`Capsule`] construction.
    pub fn pairs(&self) -> Vec<(String, String)> {
        self.apply(CapsuleSpec::new("unused")).scenario
    }

    /// Decodes the tags of a loaded capsule.
    pub fn decode(capsule: &Capsule) -> Result<Self, String> {
        let scheme = capsule
            .scenario_value(TAG_SCHEME)
            .ok_or("capsule has no \"scheme\" scenario tag; it was not written by this harness")?
            .to_string();
        let image_len = capsule
            .scenario_value(TAG_IMAGE_LEN)
            .ok_or("capsule has no \"image_len\" scenario tag")?
            .parse::<usize>()
            .map_err(|e| format!("bad image_len tag: {e}"))?;
        let profile = capsule
            .scenario_value(TAG_PROFILE)
            .unwrap_or("chaos")
            .to_string();
        let key_context = capsule
            .scenario_value(TAG_KEY_CONTEXT)
            .unwrap_or("chaos keys")
            .to_string();
        let attacker = match capsule.scenario_value(TAG_ATTACKER) {
            Some(v) => Some(NodeId(
                v.parse::<u32>()
                    .map_err(|e| format!("bad attacker tag: {e}"))?,
            )),
            None => None,
        };
        let attack_plan = match capsule.scenario_value(TAG_ATTACK_PLAN) {
            Some(v) => {
                Some(AttackPlan::from_tag(v).ok_or_else(|| format!("bad attack_plan tag {v:?}"))?)
            }
            None => None,
        };
        Ok(ScenarioTags {
            scheme,
            profile,
            image_len,
            key_context,
            attacker,
            attack_plan,
        })
    }
}

/// The [`AttackerProfile`] matching an LR-Seluge parameter set. Pass
/// the deployment's cluster key to let insider vectors use it.
pub fn lr_attacker_profile(p: &LrSelugeParams, cluster_key: Option<ClusterKey>) -> AttackerProfile {
    AttackerProfile {
        payload_len: p.payload_len,
        index_space: p.n,
        sig_body_len: SIGNATURE_BODY_LEN,
        n_bits: p.n as usize,
        version: p.version,
        cluster_key,
    }
}

/// The [`AttackerProfile`] matching a Seluge parameter set.
pub fn seluge_attacker_profile(
    sp: &lrs_seluge::SelugeParams,
    cluster_key: Option<ClusterKey>,
) -> AttackerProfile {
    AttackerProfile {
        payload_len: sp.data_payload_len(),
        index_space: sp.packets_per_page,
        sig_body_len: SIGNATURE_BODY_LEN,
        n_bits: sp.packets_per_page as usize,
        version: sp.version,
        cluster_key,
    }
}

/// Reconstructs the LR-Seluge node population described by `tags`.
pub fn lr_factory(
    tags: &ScenarioTags,
) -> Result<impl Fn(NodeId) -> MaybeAdversary<LrNode> + Sync, String> {
    let p = profile_params(&tags.profile, tags.image_len)?;
    let image = profile_image(&tags.profile, tags.image_len)?;
    let deployment = Deployment::new(&image, p, tags.key_context.as_bytes());
    let profile = lr_attacker_profile(&p, Some(deployment.cluster_key().clone()));
    let attacker = tags.attacker;
    let plan = tags.attack_plan.clone();
    Ok(move |id: NodeId| {
        if let Some(entry) = plan.as_ref().and_then(|pl| pl.entry_for(id)) {
            MaybeAdversary::Attacker(Attacker::from_plan_entry(entry, &profile))
        } else if Some(id) == attacker {
            MaybeAdversary::Attacker(storm_attacker(p.payload_len, p.n, p.version))
        } else {
            MaybeAdversary::Honest(deployment.node(id, NodeId(0)))
        }
    })
}

/// Reconstructs the Seluge node population described by `tags`.
pub fn seluge_factory(
    tags: &ScenarioTags,
) -> Result<impl Fn(NodeId) -> MaybeAdversary<SelugeNode> + Sync, String> {
    let sp = matched_seluge_params(&profile_params(&tags.profile, tags.image_len)?);
    let image = profile_image(&tags.profile, tags.image_len)?;
    let deployment = SelugeDeployment::new(&image, sp, tags.key_context.as_bytes());
    let profile = seluge_attacker_profile(&sp, Some(deployment.cluster_key().clone()));
    let attacker = tags.attacker;
    let plan = tags.attack_plan.clone();
    Ok(move |id: NodeId| {
        if let Some(entry) = plan.as_ref().and_then(|pl| pl.entry_for(id)) {
            MaybeAdversary::Attacker(Attacker::from_plan_entry(entry, &profile))
        } else if Some(id) == attacker {
            MaybeAdversary::Attacker(storm_attacker(
                sp.data_payload_len(),
                sp.packets_per_page,
                sp.version,
            ))
        } else {
            MaybeAdversary::Honest(deployment.node(id, NodeId(0)))
        }
    })
}

fn unknown_scheme(scheme: &str) -> String {
    format!(
        "unknown scheme tag {scheme:?}; this registry can reconstruct \
         \"lr-seluge\" and \"seluge\" populations"
    )
}

/// Reconstructs `capsule`'s node population from its scenario tags and
/// re-executes it: `engine` is [`SEQUENTIAL_ENGINE`] or
/// [`SHARDED_ENGINE`]; `shards` only applies to the latter.
pub fn replay_capsule(capsule: &Capsule, engine: &str, shards: usize) -> Result<ReplayRun, String> {
    let tags = ScenarioTags::decode(capsule)?;
    match tags.scheme.as_str() {
        "lr-seluge" => {
            let make = lr_factory(&tags)?;
            run_engine(capsule, engine, shards, make)
        }
        "seluge" => {
            let make = seluge_factory(&tags)?;
            run_engine(capsule, engine, shards, make)
        }
        other => Err(unknown_scheme(other)),
    }
}

fn run_engine<P, F>(
    capsule: &Capsule,
    engine: &str,
    shards: usize,
    make: F,
) -> Result<ReplayRun, String>
where
    P: lrs_netsim::node::Protocol + 'static,
    F: Fn(NodeId) -> P + Sync,
{
    match engine {
        SEQUENTIAL_ENGINE => Ok(replay_sequential(capsule, make)),
        SHARDED_ENGINE => Ok(replay_sharded(capsule, shards, make)),
        other => Err(format!(
            "unknown engine {other:?}; use {SEQUENTIAL_ENGINE:?} or {SHARDED_ENGINE:?}"
        )),
    }
}

/// Replays `capsule` at two shard counts and reports the first
/// diverging `OrderKey` (`None` means lockstep-identical, the invariant
/// the sharded engine promises).
pub fn bisect_capsule_shards(
    capsule: &Capsule,
    shards_a: usize,
    shards_b: usize,
) -> Result<Option<Divergence>, String> {
    let tags = ScenarioTags::decode(capsule)?;
    match tags.scheme.as_str() {
        "lr-seluge" => Ok(bisect_shard_counts(
            capsule,
            shards_a,
            shards_b,
            lr_factory(&tags)?,
        )),
        "seluge" => Ok(bisect_shard_counts(
            capsule,
            shards_a,
            shards_b,
            seluge_factory(&tags)?,
        )),
        other => Err(unknown_scheme(other)),
    }
}

/// Replays `capsule` on both engines and reports where their event
/// orders part ways (expected: the engines order concurrent events
/// differently by design).
pub fn bisect_capsule_engines(capsule: &Capsule) -> Result<Option<Divergence>, String> {
    let tags = ScenarioTags::decode(capsule)?;
    match tags.scheme.as_str() {
        "lr-seluge" => Ok(bisect_engines(capsule, lr_factory(&tags)?)),
        "seluge" => Ok(bisect_engines(capsule, seluge_factory(&tags)?)),
        other => Err(unknown_scheme(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip_through_a_spec() {
        use lrs_netsim::attack::{AttackConfig, AttackVector};
        let plan = AttackPlan::generate(
            &AttackConfig {
                vector: AttackVector::SpoofedDenialOfReceipt,
                attackers: 2,
                burst: Some((Duration::from_secs(2), Duration::from_secs(5))),
                ..AttackConfig::default()
            },
            &lrs_netsim::Topology::star(8),
            7,
        );
        let tags = ScenarioTags::new("lr-seluge", "chaos", 2048, "chaos keys")
            .with_attacker(NodeId(9))
            .with_attack_plan(plan);
        let pairs = tags.pairs();
        let capsule = Capsule {
            seed: 1,
            engine: SHARDED_ENGINE.to_string(),
            shards: 2,
            deadline: Duration::from_secs(1),
            config: SimConfig::default(),
            topology: lrs_netsim::Topology::star(2),
            faults: lrs_netsim::FaultPlan::new(),
            scenario: pairs,
            digests: Vec::new(),
        };
        assert_eq!(ScenarioTags::decode(&capsule).unwrap(), tags);
    }

    #[test]
    fn unknown_profile_is_rejected() {
        assert!(profile_params("nope", 1024).is_err());
        assert!(profile_image("nope", 1024).is_err());
    }
}
