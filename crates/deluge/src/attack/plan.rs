//! Deterministic, replayable attack schedules.
//!
//! An [`AttackPlan`] is the adversary-side sibling of `lrs-netsim`'s
//! `FaultPlan`: a schedule of [`AttackEntry`]s naming which nodes behave
//! adversarially, what they inject ([`AttackVector`]), from when, at
//! what rate, under which duty cycle, and against which victim. Plans
//! are either hand-built through [`AttackPlan::push`] or generated from
//! an [`AttackConfig`] with [`AttackPlan::generate`], which draws
//! attacker placement from its own `DetRng` stream. Like the fault
//! layer, the attack layer never touches the medium's or the nodes'
//! RNGs, so an empty plan leaves a run bit-identical to one with no
//! attack layer at all, and any plan is reproducible from
//! `(config, node count, seed)`.
//!
//! An entry is scheme-agnostic: [`Attacker::new`](super::Attacker::new)
//! mounts it with the constants of the scheme under attack. What lives
//! here is the schedule itself and its serial form: a single-line tag
//! ([`AttackPlan::to_tag`] / [`from_tag`](AttackPlan::from_tag)) that
//! travels inside a replay capsule's scenario tags, so an attacked
//! failure capsule replays bit-identically like any other.

use lrs_host::node::NodeId;
use lrs_host::time::{Duration, SimTime};
use lrs_json::{parse_json, Json, ObjWriter};
use lrs_rng::DetRng;

/// What an adversarial node injects — the five §III/§IV-E attack kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackVector {
    /// Data packets with plausible headers and random payloads, aimed at
    /// the highest level currently advertised by any victim.
    BogusData,
    /// Forged signature packets (random bodies) to trigger expensive
    /// verifications — what the message-specific puzzle defends against.
    ForgedSignature,
    /// Forged advertisements claiming a huge level, without knowing the
    /// cluster key.
    ForgedAdv,
    /// Denial-of-receipt (§IV-E): a *compromised insider* (holds the
    /// cluster key) repeatedly SNACKs a victim with an all-ones bit
    /// vector, and the victim burns energy serving the requests.
    DenialOfReceipt,
    /// Denial-of-receipt with *source spoofing*: each SNACK claims a
    /// different forged sender id, evading any per-neighbor budget that
    /// relies on the (unauthenticated) source field. LEAP pairwise MACs
    /// close exactly this hole.
    SpoofedDenialOfReceipt,
}

impl AttackVector {
    /// Every vector, in stable declaration order.
    pub const ALL: [AttackVector; 5] = [
        AttackVector::BogusData,
        AttackVector::ForgedSignature,
        AttackVector::ForgedAdv,
        AttackVector::DenialOfReceipt,
        AttackVector::SpoofedDenialOfReceipt,
    ];

    /// The vector's stable wire/spec label.
    pub fn label(self) -> &'static str {
        match self {
            AttackVector::BogusData => "bogus",
            AttackVector::ForgedSignature => "forgesig",
            AttackVector::ForgedAdv => "forgeadv",
            AttackVector::DenialOfReceipt => "dor",
            AttackVector::SpoofedDenialOfReceipt => "spoofdor",
        }
    }

    /// Parses a [`label`](Self::label) back to its vector.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|v| v.label() == label)
    }

    /// Whether the vector needs the cluster key (a compromised insider):
    /// denial-of-receipt SNACKs must carry a valid cluster MAC to be
    /// served at all.
    pub fn requires_insider(self) -> bool {
        matches!(
            self,
            AttackVector::DenialOfReceipt | AttackVector::SpoofedDenialOfReceipt
        )
    }
}

/// One adversarial node's schedule: where it sits, what it injects, how
/// fast, and under which duty cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttackEntry {
    /// The node that behaves adversarially.
    pub node: NodeId,
    /// What it injects.
    pub vector: AttackVector,
    /// When injection may begin: the first packet goes out one
    /// `interval` after this instant.
    pub at: SimTime,
    /// Injection period.
    pub interval: Duration,
    /// Optional packet-storm duty cycle `(on, off)`.
    pub burst: Option<(Duration, Duration)>,
    /// Victim of targeted vectors (denial-of-receipt); ignored by
    /// broadcast vectors.
    pub target: NodeId,
    /// Pool of honest ids a spoofing attacker rotates through.
    pub spoof_pool: u32,
}

impl AttackEntry {
    /// Renders the entry as one JSON object in trace-event shape
    /// (`"t"` in microseconds of virtual time).
    pub fn to_json(&self) -> String {
        let mut line = ObjWriter::new()
            .uint("t", self.at.as_micros())
            .str("ev", &format!("attack_{}", self.vector.label()))
            .uint("node", self.node.0)
            .uint("interval_us", self.interval.as_micros())
            .uint("target", self.target.0)
            .uint("pool", self.spoof_pool);
        if let Some((on, off)) = self.burst {
            line = line
                .uint("on_us", on.as_micros())
                .uint("off_us", off.as_micros());
        }
        line.finish()
    }

    /// Parses one entry from its [`to_json`](Self::to_json) form.
    /// Returns `None` on any malformed, unknown or out-of-range input.
    pub fn from_json(line: &str) -> Option<Self> {
        Self::from_value(&parse_json(line).ok()?).ok()
    }

    fn from_value(line: &Json) -> Result<Self, String> {
        let ev = line.str_at("ev")?;
        let vector = ev
            .strip_prefix("attack_")
            .and_then(AttackVector::from_label)
            .ok_or_else(|| format!("unknown attack event {ev:?}"))?;
        let micros = |key: &str| line.uint_at(key).map(Duration::from_micros);
        let burst = match (line.get("on_us"), line.get("off_us")) {
            (None, None) => None,
            // A burst needs both halves of the duty cycle.
            _ => Some((micros("on_us")?, micros("off_us")?)),
        };
        Ok(AttackEntry {
            node: NodeId(line.uint_at("node")?),
            vector,
            at: SimTime(line.uint_at("t")?),
            interval: micros("interval_us")?,
            burst,
            target: NodeId(line.uint_at("target")?),
            spoof_pool: line.uint_at("pool")?,
        })
    }
}

/// Knobs for [`AttackPlan::generate`]. Placement is drawn from the seed
/// passed to `generate`, never from wall-clock state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttackConfig {
    /// What the attackers inject.
    pub vector: AttackVector,
    /// How many attackers to place (capped at the eligible node count).
    pub attackers: u32,
    /// Injection period.
    pub interval: Duration,
    /// Optional packet-storm duty cycle `(on, off)`.
    pub burst: Option<(Duration, Duration)>,
    /// Victim of targeted vectors (default: the base station).
    pub target: NodeId,
    /// Spoof-pool size; `0` resolves to the node count at generation.
    pub spoof_pool: u32,
    /// Node ids below this are never attackers (protects the base
    /// station and the victim's role as an honest node).
    pub protect_first: u32,
}

impl Default for AttackConfig {
    /// One bogus-data attacker at 4 packets/s, no duty cycle, targeting
    /// the base, placed anywhere but node 0.
    fn default() -> Self {
        AttackConfig {
            vector: AttackVector::BogusData,
            attackers: 1,
            interval: Duration::from_millis(250),
            burst: None,
            target: NodeId(0),
            spoof_pool: 0,
            protect_first: 1,
        }
    }
}

/// A deterministic attack schedule, sorted by `(start time, node)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttackPlan {
    entries: Vec<AttackEntry>,
}

impl AttackPlan {
    /// An empty plan: every node honest.
    pub fn new() -> Self {
        AttackPlan::default()
    }

    /// Appends one entry (kept sorted by start time then node id).
    pub fn push(&mut self, entry: AttackEntry) {
        self.entries.push(entry);
        self.entries.sort_by_key(|e| (e.at, e.node.0));
    }

    /// The scheduled entries, sorted.
    pub fn entries(&self) -> &[AttackEntry] {
        &self.entries
    }

    /// The entry for `node`, if it is an attacker.
    pub fn entry_for(&self, node: NodeId) -> Option<&AttackEntry> {
        self.entries.iter().find(|e| e.node == node)
    }

    /// Number of scheduled attackers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Generates a plan from `config` for a network of `nodes` nodes,
    /// drawing attacker placement from a `DetRng` seeded with `seed` (a
    /// stream distinct from the fault generator's). Same inputs, same
    /// plan — byte for byte. Placement is a partial Fisher–Yates draw
    /// over the unprotected ids; the chosen set is emitted in ascending
    /// node order so the plan is canonical.
    pub fn generate(config: &AttackConfig, nodes: u32, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed ^ 0x00AD_7E55_A21E_u64);
        let mut plan = AttackPlan::new();
        let mut eligible: Vec<u32> = (config.protect_first.min(nodes)..nodes).collect();
        let count = (config.attackers as usize).min(eligible.len());
        for k in 0..count {
            let j = rng.gen_range(k as u64..eligible.len() as u64) as usize;
            eligible.swap(k, j);
        }
        let mut chosen = eligible[..count].to_vec();
        chosen.sort_unstable();
        let spoof_pool = if config.spoof_pool == 0 {
            nodes
        } else {
            config.spoof_pool
        };
        for id in chosen {
            plan.push(AttackEntry {
                node: NodeId(id),
                vector: config.vector,
                at: SimTime::ZERO,
                interval: config.interval,
                burst: config.burst,
                target: config.target,
                spoof_pool,
            });
        }
        plan
    }

    /// The plan as a single line — entry JSON objects joined by `;`
    /// (which never occurs inside them) — the form that travels in a
    /// capsule scenario tag.
    pub fn to_tag(&self) -> String {
        self.entries
            .iter()
            .map(AttackEntry::to_json)
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Parses a plan back from [`to_tag`](Self::to_tag) output.
    pub fn from_tag(tag: &str) -> Option<Self> {
        let mut plan = AttackPlan::new();
        for part in tag.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            plan.push(AttackEntry::from_json(part)?);
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(vector: AttackVector) -> AttackEntry {
        AttackEntry {
            node: NodeId(5),
            vector,
            at: SimTime(17),
            interval: Duration::from_millis(250),
            burst: Some((Duration::from_secs(5), Duration::from_secs(15))),
            target: NodeId(0),
            spoof_pool: 12,
        }
    }

    #[test]
    fn every_vector_round_trips_through_json() {
        for vector in AttackVector::ALL {
            for burst in [None, Some((Duration::from_secs(2), Duration::from_secs(7)))] {
                let entry = AttackEntry {
                    burst,
                    ..sample_entry(vector)
                };
                let json = entry.to_json();
                assert_eq!(AttackEntry::from_json(&json), Some(entry), "{json}");
            }
        }
    }

    #[test]
    fn labels_round_trip_and_insider_set_is_exact() {
        for vector in AttackVector::ALL {
            assert_eq!(AttackVector::from_label(vector.label()), Some(vector));
        }
        assert_eq!(AttackVector::from_label("melt"), None);
        let insiders: Vec<&str> = AttackVector::ALL
            .into_iter()
            .filter(|v| v.requires_insider())
            .map(|v| v.label())
            .collect();
        assert_eq!(insiders, ["dor", "spoofdor"]);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert_eq!(
            AttackEntry::from_json(r#"{"t":5,"ev":"fault_crash","node":1}"#),
            None
        );
        assert_eq!(
            AttackEntry::from_json(r#"{"t":5,"ev":"attack_melt","node":1}"#),
            None
        );
        // A burst needs both halves of the duty cycle.
        assert_eq!(
            AttackEntry::from_json(
                r#"{"t":0,"ev":"attack_bogus","node":2,"interval_us":100,"target":0,"pool":4,"on_us":7}"#
            ),
            None
        );
        assert_eq!(AttackEntry::from_json("not json"), None);
        // Ids and the spoof pool are u32: 2^32 + 2 is out of range.
        let good = sample_entry(AttackVector::BogusData).to_json();
        for (from, to) in [
            (r#""node":5"#, r#""node":4294967298"#),
            (r#""target":0"#, r#""target":4294967298"#),
            (r#""pool":12"#, r#""pool":4294967298"#),
            (r#""on_us":5000000"#, r#""on_us":"5""#),
        ] {
            assert!(good.contains(from), "fixture drifted: {from}");
            assert_eq!(AttackEntry::from_json(&good.replacen(from, to, 1)), None);
        }
        assert!(AttackPlan::from_tag("{}").is_none());
    }

    #[test]
    fn generate_is_deterministic_and_respects_protection() {
        let config = AttackConfig {
            attackers: 3,
            protect_first: 2,
            ..AttackConfig::default()
        };
        let a = AttackPlan::generate(&config, 8, 42);
        let b = AttackPlan::generate(&config, 8, 42);
        let c = AttackPlan::generate(&config, 8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should place differently");
        assert_eq!(a.len(), 3);
        let mut nodes: Vec<u32> = a.entries().iter().map(|e| e.node.0).collect();
        assert!(nodes.iter().all(|&id| id >= 2));
        let sorted = {
            nodes.sort_unstable();
            nodes.clone()
        };
        assert_eq!(
            a.entries().iter().map(|e| e.node.0).collect::<Vec<_>>(),
            sorted,
            "canonical plans list attackers in ascending node order"
        );
        nodes.dedup();
        assert_eq!(nodes.len(), 3, "attacker placement must be distinct");
    }

    #[test]
    fn generate_caps_attackers_and_resolves_spoof_pool() {
        let config = AttackConfig {
            vector: AttackVector::SpoofedDenialOfReceipt,
            attackers: 99,
            spoof_pool: 0,
            ..AttackConfig::default()
        };
        let plan = AttackPlan::generate(&config, 4, 1);
        assert_eq!(plan.len(), 3, "only unprotected nodes can attack");
        assert!(plan.entries().iter().all(|e| e.spoof_pool == 4));
    }

    #[test]
    fn plan_tag_round_trip_is_exact() {
        let config = AttackConfig {
            vector: AttackVector::DenialOfReceipt,
            attackers: 4,
            burst: Some((Duration::from_secs(5), Duration::from_secs(15))),
            ..AttackConfig::default()
        };
        let plan = AttackPlan::generate(&config, 9, 5);
        assert!(!plan.is_empty());
        let tag = plan.to_tag();
        assert!(!tag.contains('\n'));
        assert_eq!(AttackPlan::from_tag(&tag), Some(plan.clone()));
        assert_eq!(AttackPlan::from_tag(&tag).unwrap().to_tag(), tag);
        assert_eq!(AttackPlan::from_tag(""), Some(AttackPlan::new()));
    }

    #[test]
    fn push_keeps_entries_sorted_and_lookup_works() {
        let mut plan = AttackPlan::new();
        plan.push(AttackEntry {
            at: SimTime(500),
            node: NodeId(9),
            ..sample_entry(AttackVector::BogusData)
        });
        plan.push(AttackEntry {
            at: SimTime(100),
            node: NodeId(3),
            ..sample_entry(AttackVector::ForgedAdv)
        });
        let times: Vec<u64> = plan.entries().iter().map(|e| e.at.as_micros()).collect();
        assert_eq!(times, vec![100, 500]);
        assert_eq!(
            plan.entry_for(NodeId(9)).map(|e| e.vector),
            Some(AttackVector::BogusData)
        );
        assert!(plan.entry_for(NodeId(1)).is_none());
    }
}
