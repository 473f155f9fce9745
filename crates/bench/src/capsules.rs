//! Scenario registry mapping replay-capsule tags back to protocol
//! constructors.
//!
//! A [`Capsule`] deliberately serializes no protocol state: seed +
//! config + topology + fault schedule regenerate every bit of it on
//! replay. What the capture format *cannot* regenerate is which
//! protocol population produced the run — that travels as free-form
//! scenario tags. This module is the bench-side registry for those
//! tags: the campaign engine writes them through
//! [`ScenarioTags::pairs`], and [`population`] turns them back into a
//! [`Population`] (node factory plus invariant checker) for any scheme
//! family; [`with_scheme!`](crate::with_scheme) is the one place a
//! scheme *name* becomes a scheme *type*. [`replay_observed`] runs a
//! capsule the way its campaign job ran, and [`ItemSummary`] folds the
//! per-item rows `replay --summary` prints from that run's trace.

use crate::runner::{simulate, test_image, ExperimentMetrics, Matched};
use lr_seluge::{CodeKind, LrSelugeParams};
use lrs_deluge::attack::{
    AttackEntry, AttackPlan, AttackVector, Attacker, AttackerProfile, MaybeAdversary,
};
use lrs_deluge::bootstrap::PacketDigestCache;
use lrs_deluge::deployment::{check_layout, Deployment, SchemeFamily};
use lrs_deluge::engine::{DisseminationNode, NodeStats, Scheme as _};
use lrs_deluge::policy::{TxPolicy, UnionPolicy};
use lrs_deluge::wire::BitVec;
use lrs_host::node::PacketKind::{Adv, Snack};
use lrs_host::node::{NodeId, Protocol};
use lrs_host::time::{Duration, SimTime};
use lrs_host::violation::InvariantViolation;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::SimConfig;
use lrs_netsim::trace::{TraceDigest, TraceEvent, TraceSink};
use lrs_netsim::{Capsule, ReplayRun, RunDigest};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

pub use lr_seluge::LrScheme;
pub use lrs_deluge::image::DelugeScheme;
pub use lrs_seluge::SelugeScheme;

/// Evaluates `$body` with the type alias `$S` bound to the scheme
/// family called `$name`, as `Ok(..)`; an unknown name is an `Err`
/// string. This is the only place scheme names map to types: replay,
/// the campaign engine, the `paper` sweeps, the `node` binary and the
/// swarm's capsule check all dispatch through it.
#[macro_export]
macro_rules! with_scheme {
    ($name:expr, $S:ident => $body:expr) => {
        match $name {
            "lr-seluge" | "lr" => {
                type $S = $crate::capsules::LrScheme;
                Ok($body)
            }
            "seluge" => {
                type $S = $crate::capsules::SelugeScheme;
                Ok($body)
            }
            "deluge" => {
                type $S = $crate::capsules::DelugeScheme;
                Ok($body)
            }
            other => Err(format!(
                "unknown scheme {other:?}; known: \"lr-seluge\", \"seluge\" and \"deluge\""
            )),
        }
    };
}

/// Tag key: scheme under test (`lr-seluge`, `seluge` or `deluge`).
pub const TAG_SCHEME: &str = "scheme";
/// Tag key: parameter profile token (`chaos`, `scale`, `campaign` or
/// `paper`, optionally with knobs; see [`profile`]), selecting the
/// parameter set, the test-image generator of the capture path and the
/// honest nodes' TX rule.
pub const TAG_PROFILE: &str = "profile";
/// Tag key: image length in bytes.
pub const TAG_IMAGE_LEN: &str = "image_len";
/// Tag key: key-derivation context (the `Deployment::new` seed
/// material, as a UTF-8 string).
pub const TAG_KEY_CONTEXT: &str = "key_context";
/// Tag key: the serialized [`AttackPlan`] (entry JSONs joined by `;`)
/// that placed plan-driven adversaries, when one ran. Replay rebuilds
/// the exact attacker population from this tag alone — the plan, like
/// the fault schedule, is data, not code.
pub const TAG_ATTACK_PLAN: &str = "attack_plan";

/// The small page geometry of every profile but `paper`: k = 8 blocks
/// of 56 bytes, a k0 = 4 of n0 = 8 hash page; `n` and the puzzle vary.
fn small_params(image_len: usize, n: u16, puzzle_strength: u32) -> LrSelugeParams {
    LrSelugeParams {
        image_len,
        k: 8,
        n,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength,
        ..LrSelugeParams::default()
    }
}

/// The `chaos` profile's LR-Seluge parameter set: the profile of the
/// committed watchdog capsule and the small geometry of the golden and
/// determinism tests.
pub fn chaos_params(image_len: usize) -> LrSelugeParams {
    small_params(image_len, 12, 4)
}

/// The scale sweep's LR-Seluge parameter set, also the small geometry
/// of the integration tests. Rate 2.0: with only k = 8 blocks per page,
/// the rate-1.5 knee sits at p = 1/3 and p = 0.4 needs a second round
/// per page; the paper's k = 32 pages concentrate much better. The
/// small geometry compensates with a higher rate.
pub fn scale_params(image_len: usize) -> LrSelugeParams {
    small_params(image_len, 16, 6)
}

/// The campaign engine's LR-Seluge parameter set: the chaos code rate
/// with a cheaper puzzle, sized for fleets of thousands of runs.
pub fn campaign_params(image_len: usize) -> LrSelugeParams {
    small_params(image_len, 12, 2)
}

/// The scale sweep's historical test image (distinct from
/// [`test_image`]; both generators are pinned here because a capsule
/// must reproduce whichever image its capture path used).
pub fn scale_image(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// What a profile token selects: an LR-Seluge parameter set and a test
/// image generator, both by image length, and the honest nodes' TX rule.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// The parameter set, but for its image length.
    template: LrSelugeParams,
    image: fn(usize) -> Vec<u8>,
    /// `tx=union`: honest nodes transmit by the Deluge/Seluge union rule
    /// instead of their family's own policy.
    pub union_tx: bool,
}

impl Profile {
    /// The LR-Seluge parameter set for an `image_len`-byte image.
    pub fn params(&self, image_len: usize) -> LrSelugeParams {
        LrSelugeParams {
            image_len,
            ..self.template
        }
    }
}

/// The profile registry. A token is a profile name, optionally followed
/// by comma-joined knobs: `"<name>:knob=v,..."`. `paper` is the paper's
/// own geometry (k = 32, the `paper` sweeps' parameter set) at any image
/// length. The knobs are `n=N` (coded packets per page: Fig. 6's coding
/// rate), `code=rs|xor|lt` (the page code) and `tx=union` (the
/// scheduler ablation's TX rule); a knob that leaves an inconsistent
/// page geometry is refused.
pub fn profile(token: &str) -> Result<Profile, String> {
    let (name, knobs) = match token.split_once(':') {
        Some((name, knobs)) => (name, knobs.split(',').collect()),
        None => (token, Vec::new()),
    };
    let (template, image): (_, fn(usize) -> Vec<u8>) = match name {
        "chaos" => (chaos_params(0), test_image),
        "scale" => (scale_params(0), scale_image),
        "campaign" => (campaign_params(0), test_image),
        "paper" => (LrSelugeParams::default(), test_image),
        other => {
            return Err(format!(
                "unknown parameter profile {other:?}; this registry knows \"chaos\", \"scale\", \
                 \"campaign\" and \"paper\""
            ))
        }
    };
    let mut profile = Profile {
        template,
        image,
        union_tx: false,
    };
    for knob in knobs {
        let params = &mut profile.template;
        match knob.split_once('=') {
            Some(("n", n)) => {
                params.n = n.parse().map_err(|e| format!("bad knob {knob:?}: {e}"))?
            }
            Some(("code", "rs")) => params.code_kind = CodeKind::ReedSolomon,
            Some(("code", "xor")) => params.code_kind = CodeKind::SparseXor,
            Some(("code", "lt")) => params.code_kind = CodeKind::Lt,
            Some(("tx", "union")) => profile.union_tx = true,
            _ => {
                return Err(format!(
                    "bad profile knob {knob:?} in {token:?}; known: \"n=N\", \
                     \"code=rs|xor|lt\", \"tx=union\""
                ))
            }
        }
    }
    // Every image length shares the page geometry; one byte checks it.
    profile
        .params(1)
        .validate()
        .map_err(|e| format!("knobs leave a bad page geometry: {e}"))?;
    Ok(profile)
}

/// The LR-Seluge parameter set of `profile` for an `image_len`-byte image.
pub fn profile_params(profile_name: &str, image_len: usize) -> Result<LrSelugeParams, String> {
    Ok(profile(profile_name)?.params(image_len))
}

/// The `len`-byte test image `profile`'s capture path disseminates.
///
/// # Errors
///
/// An unknown profile, or a length the profile's page geometry cannot
/// lay out (empty, or more pages than the wire addresses), which is
/// refused before any byte is generated.
pub fn profile_image(profile_name: &str, len: usize) -> Result<Vec<u8>, String> {
    let profile = profile(profile_name)?;
    check_layout(len, profile.params(len).page_capacity())
        .map_err(|e| format!("deployment: {e}"))?;
    Ok((profile.image)(len))
}

/// The deployment of family `S` that a profile, an image length and a
/// key context name: parameters matched to the profile's LR-Seluge set,
/// the profile's image, keys derived from the context. Every process of
/// a swarm and every replay of a capsule rebuild the same one.
pub fn profile_deployment<S: Matched>(
    profile_name: &str,
    image_len: usize,
    key_context: &str,
) -> Result<Deployment<S>, String> {
    let params = S::matched(&profile_params(profile_name, image_len)?);
    let image = profile_image(profile_name, image_len)?;
    Deployment::try_new(&image, params, key_context.as_bytes())
        .map_err(|e| format!("deployment: {e}"))
}

/// The simulator configuration `chaos`-profile capsules run (5%
/// application-layer loss, 400 s stall watchdog).
pub fn chaos_sim_config() -> SimConfig {
    SimConfig {
        medium: MediumConfig {
            app_loss: 0.05,
            ..MediumConfig::default()
        },
        stall_window: Some(Duration::from_secs(400)),
    }
}

/// The decoded (or to-be-written) scenario tags of a capsule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioTags {
    /// `lr-seluge`, `seluge` or `deluge`.
    pub scheme: String,
    /// Parameter profile token (see [`profile`]).
    pub profile: String,
    /// Image length in bytes.
    pub image_len: usize,
    /// Key-derivation context string.
    pub key_context: String,
    /// The adversary schedule, if one ran.
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
            attack_plan: None,
        }
    }

    /// Attaches an adversary schedule.
    pub fn with_attack_plan(mut self, plan: AttackPlan) -> Self {
        self.attack_plan = Some(plan);
        self
    }

    /// Adds the `storm` attacker's packet storm (bogus data every 80 ms,
    /// 5 s on / 15 s off) at `node` to the adversary schedule.
    pub fn with_storm(mut self, node: NodeId) -> Self {
        self.attack_plan
            .get_or_insert_with(AttackPlan::new)
            .push(AttackEntry {
                node,
                vector: AttackVector::BogusData,
                at: SimTime::ZERO,
                interval: Duration::from_millis(80),
                burst: Some((Duration::from_secs(5), Duration::from_secs(15))),
                target: NodeId(0),
                spoof_pool: 0,
            });
        self
    }

    /// The key/value pairs a [`Capsule`] carries as its scenario tags.
    pub fn pairs(&self) -> Vec<(String, String)> {
        let mut pairs = vec![
            (TAG_SCHEME, self.scheme.clone()),
            (TAG_PROFILE, self.profile.clone()),
            (TAG_IMAGE_LEN, self.image_len.to_string()),
            (TAG_KEY_CONTEXT, self.key_context.clone()),
        ];
        if let Some(plan) = &self.attack_plan {
            pairs.push((TAG_ATTACK_PLAN, plan.to_tag()));
        }
        pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// Decodes the tags of a loaded capsule: exactly what
    /// [`pairs`](Self::pairs) writes, every tag but `attack_plan`
    /// required.
    pub fn decode(capsule: &Capsule) -> Result<Self, String> {
        let tag = |key: &str| {
            capsule.scenario_value(key).ok_or_else(|| {
                format!("capsule has no {key:?} scenario tag; it was not written by this harness")
            })
        };
        let scheme = tag(TAG_SCHEME)?.to_string();
        let image_len = tag(TAG_IMAGE_LEN)?
            .parse::<usize>()
            .map_err(|e| format!("bad {TAG_IMAGE_LEN} tag: {e}"))?;
        let attack_plan = match capsule.scenario_value(TAG_ATTACK_PLAN) {
            Some(v) => {
                Some(AttackPlan::from_tag(v).ok_or_else(|| format!("bad attack_plan tag {v:?}"))?)
            }
            None => None,
        };
        Ok(ScenarioTags {
            scheme,
            profile: tag(TAG_PROFILE)?.to_string(),
            image_len,
            key_context: tag(TAG_KEY_CONTEXT)?.to_string(),
            attack_plan,
        })
    }
}

/// An honest node's TX policy: its family's own (`P`), or the union
/// rule a `tx=union` profile asks for.
pub enum TxRule<P> {
    /// The family's own policy.
    Own(P),
    /// The Deluge/Seluge union of requested bit vectors.
    Union(UnionPolicy),
}

/// Evaluates `$body` with `$p` bound to whichever policy `$rule` holds.
macro_rules! either {
    ($rule:expr, $p:ident => $body:expr) => {
        match $rule {
            TxRule::Own($p) => $body,
            TxRule::Union($p) => $body,
        }
    };
}

impl<P: TxPolicy> TxPolicy for TxRule<P> {
    fn on_snack(&mut self, from: NodeId, item: u16, bits: &BitVec, needed: u16) {
        either!(self, p => p.on_snack(from, item, bits, needed))
    }

    fn next(&mut self) -> Option<(u16, u16)> {
        either!(self, p => p.next())
    }

    fn on_overheard_data(&mut self, item: u16, index: u16) {
        either!(self, p => p.on_overheard_data(item, index))
    }

    fn is_empty(&self) -> bool {
        either!(self, p => p.is_empty())
    }

    fn min_pending_item(&self) -> Option<u16> {
        either!(self, p => p.min_pending_item())
    }

    fn clear(&mut self) {
        either!(self, p => p.clear())
    }
}

/// An honest node of a [`Population`].
pub type HonestNode<S> = DisseminationNode<S, TxRule<<S as SchemeFamily>::Policy>>;

/// One node of a [`Population`]: honest, or an adversary.
pub type Member<S> = MaybeAdversary<HonestNode<S>>;

/// Who runs in a simulation: one deployment's honest nodes (node 0 is
/// the base station) and whatever adversaries the scenario places.
pub struct Population<S: SchemeFamily> {
    deployment: Deployment<S>,
    profile: AttackerProfile,
    plan: Option<AttackPlan>,
    union_tx: bool,
}

/// Reconstructs the population of family `S` that `tags` describe. The
/// node factory and the invariant checker come from this one
/// deployment, so the image is preprocessed and signed once.
pub fn population<S: Matched>(tags: &ScenarioTags) -> Result<Population<S>, String> {
    let deployment =
        profile_deployment(&tags.profile, tags.image_len, &tags.key_context).map_err(|e| {
            format!(
                "tags {TAG_PROFILE} = {:?}, {TAG_IMAGE_LEN} = {}: {e}",
                tags.profile, tags.image_len
            )
        })?;
    Ok(Population {
        plan: tags.attack_plan.clone(),
        union_tx: profile(&tags.profile)?.union_tx,
        ..Population::honest(deployment)
    })
}

impl<S: SchemeFamily> Population<S> {
    /// `deployment`'s nodes and no adversary.
    pub fn honest(deployment: Deployment<S>) -> Self {
        Population {
            profile: deployment.attacker_profile(true),
            deployment,
            plan: None,
            union_tx: false,
        }
    }

    /// The deployment the honest nodes belong to.
    pub fn deployment(&self) -> &Deployment<S> {
        &self.deployment
    }

    /// The node at `id`: a plan entry's attacker, else an honest node
    /// sharing `digests`.
    pub fn node(&self, id: NodeId, digests: &PacketDigestCache) -> Member<S> {
        if let Some(entry) = self.plan.as_ref().and_then(|pl| pl.entry_for(id)) {
            return MaybeAdversary::Attacker(Attacker::new(*entry, self.profile.clone()));
        }
        let policy = match self.union_tx {
            true => TxRule::Union(UnionPolicy::new()),
            false => TxRule::Own(S::Policy::default()),
        };
        let deployment = &self.deployment;
        MaybeAdversary::Honest(deployment.node_with_policy(id, NodeId(0), digests, policy))
    }

    /// The per-delivery invariant check for this population: every
    /// honest node against the deployment's origin (DESIGN.md §7).
    pub fn checker(
        &self,
    ) -> impl Fn(&Member<S>, NodeId) -> Result<(), InvariantViolation> + 'static {
        let deployment = self.deployment.clone();
        move |member, _id| match member.honest() {
            Some(node) => deployment.verify(node.scheme()),
            None => Ok(()),
        }
    }
}

/// One node at the end of a replay: its level, the engine's counters
/// and its [`Protocol::diagnostic`] line.
#[derive(Clone, Debug)]
pub struct NodeRow {
    /// Leading complete items (the base station's level is all of them).
    pub level: u16,
    /// The engine's per-node counters.
    pub stats: NodeStats,
    /// Level, engine state and the wanted bits of the item in flight.
    pub detail: String,
}

/// Reconstructs `capsule`'s node population from its scenario tags and
/// re-executes it the way a campaign job runs: through
/// [`simulate`], with the per-delivery invariant checker and the digest
/// memo armed, the trace digested as it streams by.
pub fn replay_capsule(capsule: &Capsule) -> Result<ReplayRun, String> {
    replay_observed(capsule, Vec::new()).map(|(run, _, _)| run)
}

/// [`replay_capsule`] with every trace event also teed into `sinks`,
/// handing back each node's [`NodeRow`] too, in id order (`None` for an
/// attacker), and the paper's metrics the capsule's campaign job logs.
pub fn replay_observed(
    capsule: &Capsule,
    mut sinks: Vec<Box<dyn TraceSink>>,
) -> Result<(ReplayRun, Vec<Option<NodeRow>>, ExperimentMetrics), String> {
    let tags = ScenarioTags::decode(capsule)?;
    let trace = TraceDigest::default();
    sinks.insert(0, Box::new(trace.clone()));
    with_scheme!(tags.scheme.as_str(), S => {
        let done = simulate(&population::<S>(&tags)?, capsule, true, sinks);
        let nodes = (0..capsule.topology.len() as u32)
            .map(|id| {
                let node = done.sim.node(NodeId(id)).honest()?;
                let (level, stats) = (node.scheme().complete_items(), node.stats());
                Some(NodeRow { level, stats, detail: node.diagnostic() })
            })
            .collect();
        let paper = done.metrics();
        let metrics = done.sim.metrics().clone();
        let digest = RunDigest::compute(&done.report, &metrics, &trace);
        (ReplayRun { report: done.report, metrics, digest }, nodes, paper)
    })
}

/// One item's row of a run summary, folded from the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ItemRow {
    /// Nodes that completed the item (`page_complete` notes with
    /// `a == item + 1`).
    pub completers: u64,
    /// The first of those completions.
    pub first: Option<SimTime>,
    /// The last of those completions.
    pub last: Option<SimTime>,
    /// `sched_tx` notes for the item: data packets sent of it.
    pub sched_tx: u64,
    /// `snack` notes for the item: requests for it.
    pub snacks: u64,
    /// Data-bearing receptions the completers had while the item was
    /// their next one.
    pub receptions: u64,
}

/// A trace sink folding the per-item rows of `replay --summary` out of
/// the engine's notes. A clone reads what the one handed to the run saw.
#[derive(Clone, Debug, Default)]
pub struct ItemSummary(Rc<RefCell<ItemFold>>);

#[derive(Debug, Default)]
struct ItemFold {
    items: BTreeMap<u64, ItemRow>,
    /// Per node, data-bearing receptions since its last completed item.
    receptions: HashMap<NodeId, u64>,
}

impl ItemSummary {
    /// The rows so far, by item.
    pub fn rows(&self) -> BTreeMap<u64, ItemRow> {
        self.0.borrow().items.clone()
    }
}

impl TraceSink for ItemSummary {
    fn record(&mut self, event: &TraceEvent) {
        let fold = &mut *self.0.borrow_mut();
        match *event {
            TraceEvent::Rx { to, kind, .. } if kind != Adv && kind != Snack => {
                *fold.receptions.entry(to).or_default() += 1;
            }
            TraceEvent::Note {
                at, node, label, a, ..
            } => match label {
                "sched_tx" => fold.items.entry(a).or_default().sched_tx += 1,
                "snack" => fold.items.entry(a).or_default().snacks += 1,
                // `a` is the level the completion reached.
                "page_complete" if a > 0 => {
                    let row = fold.items.entry(a - 1).or_default();
                    row.completers += 1;
                    row.first.get_or_insert(at);
                    row.last = Some(at);
                    row.receptions += fold.receptions.remove(&node).unwrap_or(0);
                }
                _ => {}
            },
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_deluge::attack::AttackConfig;

    /// A capsule carrying exactly `scenario` as its tags.
    fn tagged(scenario: &[(&str, &str)]) -> Capsule {
        Capsule {
            seed: 1,
            deadline: Duration::from_secs(1),
            config: SimConfig::default(),
            topology: lrs_netsim::Topology::star(2),
            faults: lrs_netsim::FaultPlan::new(),
            scenario: scenario
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            digest: None,
        }
    }

    #[test]
    fn tags_round_trip_through_a_spec() {
        let plan = AttackPlan::generate(
            &AttackConfig {
                vector: AttackVector::SpoofedDenialOfReceipt,
                attackers: 2,
                burst: Some((Duration::from_secs(2), Duration::from_secs(5))),
                ..AttackConfig::default()
            },
            8,
            7,
        );
        let tags = ScenarioTags::new("lr-seluge", "chaos", 2048, "chaos keys")
            .with_attack_plan(plan)
            .with_storm(NodeId(9));
        let capsule = Capsule {
            scenario: tags.pairs(),
            ..tagged(&[])
        };
        assert_eq!(ScenarioTags::decode(&capsule).unwrap(), tags);
        // A knobbed profile travels in the one `profile` tag.
        let knobbed = ScenarioTags::new("lr-seluge", "paper:n=40,code=lt,tx=union", 4096, "k");
        let capsule = Capsule {
            scenario: knobbed.pairs(),
            ..tagged(&[])
        };
        let decoded = ScenarioTags::decode(&capsule).unwrap();
        assert_eq!(decoded, knobbed);
        let profile = profile(&decoded.profile).unwrap();
        let params = profile.params(4096);
        assert_eq!((params.n, params.code_kind), (40, CodeKind::Lt));
        assert!(profile.union_tx);
        // Every tag but the plan is required.
        for key in [TAG_SCHEME, TAG_PROFILE, TAG_IMAGE_LEN, TAG_KEY_CONTEXT] {
            let partial = Capsule {
                scenario: tags.pairs().into_iter().filter(|(k, _)| k != key).collect(),
                ..tagged(&[])
            };
            let err = ScenarioTags::decode(&partial).unwrap_err();
            assert!(err.contains(&format!("no {key:?} scenario tag")), "{err}");
        }
    }

    #[test]
    fn unknown_profile_is_rejected() {
        assert!(profile_params("nope", 1024).is_err());
        assert!(profile_image("nope", 1024).is_err());
    }

    #[test]
    fn an_unbuildable_image_len_tag_is_an_error_not_an_abort() {
        // The huge length used to reach the allocator and abort the
        // process; the empty one panicked building the deployment.
        for (len, needle) in [
            ("100000000000000", "at most 65533 are addressable"),
            ("0", "empty image"),
        ] {
            let capsule = tagged(&[
                ("scheme", "lr-seluge"),
                ("profile", "chaos"),
                ("image_len", len),
                ("key_context", "chaos keys"),
            ]);
            let err = replay_capsule(&capsule).err().expect("must not replay");
            assert!(err.contains(&format!("image_len = {len}")), "{err}");
            assert!(err.contains(needle), "{err}");
        }
    }
}
